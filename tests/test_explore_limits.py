"""The exploration limits mean the same on both semantics.

``max_configs`` bounds the number of stored states, final configurations
and terminal states included; ``max_depth`` bounds the number of BFS levels
expanded. Either limit marks the result truncated exactly when it left a
state of the full exploration out. Checked against the full exploration of
every corpus file, for the choreography explorer and for the system explorer
under both synthesis profiles.

Every stored state is one object: each edge to a stored state points at the
graph's key, and states carry no instance ``__dict__``.
"""

import os
import re
from collections import deque

import pytest

from chorc.cbs import sys_explore
from chorc.chorsem import explore, lts_to_dot
from chorc.synthesis import PROFILES, synthesize

from conftest import corpus_paths, load

LIMITS = (1, 2, 3, 5)
SEMANTICS = ("chor",) + PROFILES


def explorer(path, semantics):
    """``run(**limits)`` exploring one side of a corpus file."""
    decl, _, ch = load(path)
    if semantics == "chor":
        return lambda **limits: explore(ch, decl.initial_valuation(), **limits)
    system = synthesize(decl, ch, semantics)
    return lambda **limits: sys_explore(system, **limits)


def distances(result) -> dict:
    """BFS distance from the initial state of every state in the graph."""
    dist = {result.states[0]: 0}
    todo = deque([result.states[0]])
    while todo:
        state = todo.popleft()
        for _, succ in result.graph[state]:
            if succ not in dist:
                dist[succ] = dist[state] + 1
                todo.append(succ)
    return dist


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("path", corpus_paths(), ids=os.path.basename)
def test_limits_match_full_exploration(path, semantics):
    run = explorer(path, semantics)
    full = run()
    assert not full.truncated
    dist = distances(full)
    assert set(dist) == set(full.graph)
    for k in LIMITS:
        res = run(max_configs=k)
        assert len(res.graph) <= k, ("max_configs", k)
        assert res.truncated == (len(full.graph) > k), ("max_configs", k)

        res = run(max_depth=k)
        assert set(res.graph) == {s for s, d in dist.items() if d < k}, ("max_depth", k)
        assert res.truncated == any(d >= k for d in dist.values()), ("max_depth", k)


@pytest.mark.parametrize("path", corpus_paths(), ids=os.path.basename)
def test_truncated_dot_declares_every_node(path):
    """Edges of a truncated exploration may end at states the graph does
    not store; each such node still gets its own declaration line."""
    run = explorer(path, "chor")
    for limits in [{"max_configs": k} for k in (1, 2, 3)] + [{"max_depth": 2}]:
        dot = lts_to_dot(run(**limits))
        declared = set(re.findall(r"^  (n\d+) \[", dot, re.M))
        used = set(re.findall(r"^  (n\d+) -> (n\d+) ", dot, re.M))
        assert {n for edge in used for n in edge} <= declared, (path, limits)


def assert_targets_are_stored_objects(result):
    """Every edge target equal to a stored state is that state's object."""
    stored = {state: state for state in result.graph}
    for edges in result.graph.values():
        for _, succ in edges:
            if succ in stored:
                assert succ is stored[succ], succ
            else:
                assert result.truncated, succ


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("path", corpus_paths(), ids=os.path.basename)
def test_each_state_is_stored_once(path, semantics):
    run = explorer(path, semantics)
    full = run()
    assert not full.truncated
    assert_targets_are_stored_objects(full)
    for k in (1, 2, 3):
        assert_targets_are_stored_objects(run(max_configs=k))
    for state in full.graph:
        assert not hasattr(state, "__dict__"), state
