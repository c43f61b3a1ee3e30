"""The indexed explorer against a dict-based reference.

``flat_explore_lts`` is the breadth-first explorer as it was before states
were numbered: a dict from each expanded state to its list of (event,
state) edges. ``core.explore_lts`` must reach the same LTS from the same
successor function: the same stored states in the same order, the same
edges in the same order with the very same event objects, each edge's
target the stored object or, for a state ``max_configs`` left out, the
successor's own object, and the same terminals, deadlocks and truncation.
Checked on both semantics of every corpus file, every mutant of
``verify.MUTATIONS``, the benchmark's generated inputs, both limits, and
small hand-built state spaces.
"""

from types import SimpleNamespace

import pytest

from chorc import cbs, chorsem
from chorc.cbs import AtomicComponent, CompositeSystem, Interaction, Transition, sys_explore
from chorc.core import SKIP, TRUE, BinOp, Lit, Port, Ref, Update, Variable, explore_lts
from chorc.chorsem import Running
from chorc.parser import parse_source
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import MUTATIONS

from conftest import corpus_paths, load
from test_cbs import assert_lts_matches_flat, load_generator
from test_core import RingState, ring


def flat_explore_lts(start, successors, is_terminal, max_configs, max_depth):
    """The reference explorer: the graph as a dict from each expanded state
    to its edges, ``stored`` the states it stored, in order."""
    result = SimpleNamespace(initial=start, graph={}, terminals=set(), deadlocks=set(),
                             truncated=False)
    seen = {start: start}
    store = seen.setdefault
    stored_count = 1
    frontier = [start]
    depth = 0
    while frontier:
        if depth >= max_depth:
            result.truncated = True
            break
        nxt_frontier = []
        for state in frontier:
            succs = successors(state)
            edges = result.graph[state] = []
            if not succs:
                if is_terminal(state):
                    result.terminals.add(state)
                else:
                    result.deadlocks.add(state)
            for edge in succs:
                succ = edge[1]
                stored = store(succ, succ)
                if len(seen) > stored_count:  # a new state
                    if stored_count >= max_configs:
                        del seen[succ]
                        result.truncated = True
                    else:
                        stored_count += 1
                        nxt_frontier.append(succ)
                elif stored is not succ:
                    edge = (edge[0], stored)
                edges.append(edge)
        frontier = nxt_frontier
        depth += 1
    result.stored = list(seen)
    return result


def assert_same_exploration(start, successors, is_terminal, max_configs=200_000,
                            max_depth=10_000):
    """``explore_lts`` and ``flat_explore_lts`` agree (see the module
    docstring); returns the indexed exploration."""
    calls = []

    def recorded(state):
        succs = successors(state)
        calls.append(succs)
        return succs

    res = explore_lts(start, recorded, is_terminal, max_configs, max_depth)
    ref = flat_explore_lts(start, successors, is_terminal, max_configs, max_depth)

    assert res.states[0] is start
    assert res.states == ref.stored
    index = {state: i for i, state in enumerate(res.states)}
    assert len(index) == len(res.states)
    assert res.states[:len(res.ends)] == list(ref.graph)
    assert len(calls) == len(res.ends)
    assert res.ends == sorted(res.ends) and res.ends[-1:] == [len(res.targets)]
    assert len(res.events) == len(res.targets)
    for i, ((state, ref_edges), succs) in enumerate(zip(ref.graph.items(), calls)):
        edges = res.edges(i)
        assert [t for _, t in edges] == [t for _, t in ref_edges], i
        assert all(e is r for (e, _), (r, _) in zip(edges, ref_edges)), i
        assert [e for e, _ in succs] == [e for e, _ in edges]
        for (_, target), (_, succ) in zip(edges, succs):
            sid = index.get(target)
            assert target is (succ if sid is None else res.states[sid])
    assert res.terminals == ref.terminals and res.deadlocks == ref.deadlocks
    assert all(any(s is t for t in res.states) for s in res.terminals | res.deadlocks)
    assert res.truncated == ref.truncated
    assert res.graph == ref.graph
    return res


def assert_chor(decl, ch, **limits):
    return assert_same_exploration(Running(ch, decl.initial_valuation()),
                                   chorsem.chor_steps_tagged,
                                   lambda c: c.term is None and not c.pending, **limits)


def assert_sys(system, **limits):
    res = assert_same_exploration(system.initial_state(),
                                  lambda s: cbs.sys_steps_tagged(system, s),
                                  lambda s: cbs.is_terminal(system, s), **limits)
    assert res.rules_seen == sys_explore(system, **limits).rules_seen
    return res


class TestIndexedExplorer:
    def test_corpus_both_semantics(self, corpus):
        for _, decl, _, ch in corpus:
            assert_chor(decl, ch)
            for profile in PROFILES:
                assert_sys(synthesize(decl, ch, profile))

    def test_corpus_mutants(self, corpus):
        for _, decl, _, ch in corpus:
            for profile in PROFILES:
                system = synthesize(decl, ch, profile)
                for mutate in MUTATIONS.values():
                    mutant = mutate(system)
                    if mutant is not None:
                        assert_sys(mutant)

    @pytest.mark.parametrize("name", ["interleave", "longchain"])
    def test_generated(self, name):
        decl, _, ch = parse_source(load_generator().GENERATORS[name](1).text)
        assert not assert_chor(decl, ch).truncated
        for profile in PROFILES:
            assert not assert_sys(synthesize(decl, ch, profile)).truncated

    def test_truncation(self):
        left_out = unexpanded = 0
        for path in corpus_paths():
            decl, _, ch = load(path)
            system = synthesize(decl, ch)
            for k in (1, 2, 3, 5, 17):
                for limits in ({"max_configs": k}, {"max_depth": k}):
                    for res in (assert_chor(decl, ch, **limits), assert_sys(system, **limits)):
                        left_out += len(res.fresh)
                        unexpanded += len(res.states) - len(res.ends)
                        assert res.fresh == [] or "max_configs" in limits
        # Edges to states that max_configs left out, and to stored states
        # that max_depth left unexpanded, were both compared.
        assert left_out > 0 and unexpanded > 0

    def test_ring_and_self_loop(self):
        # Left out: 2 and 5 from 0, 2 and 3 from 1; then 3 and 4 twice each.
        for limits, fresh in (({}, []), ({"max_configs": 2}, [2, 5, 2, 3]),
                              ({"max_configs": 4}, [3, 3, 4, 4]), ({"max_depth": 1}, [])):
            res = assert_same_exploration(RingState(0), ring, lambda s: False, **limits)
            assert [s.n for s in res.fresh] == fresh
        res = assert_same_exploration("s", lambda s: [("loop", s)], lambda s: False, 10, 10)
        assert (res.states, res.events, res.targets, res.ends) == (["s"], ["loop"], [0], [1])


def scratch_system():
    """A's initial location starts a synchronous send to B, whose receive
    has two alternatives, an asynchronous send with two alternatives to C,
    and two local steps, so that one state's successors write and restore
    every kind of slot of ``cbs.sys_steps_tagged``'s scratch list."""
    ax, by, cz = Variable("x", "A", "int"), Variable("y", "B", "int"), Variable("z", "C", "int")
    ap, aa, ai = Port("p", "A", ax, "ss"), Port("a", "A", ax, "as"), Port("i", "A", ax, "in")
    br, cq = Port("r", "B", by, "r"), Port("q", "C", cz, "r")
    inc = Update((("A.x", BinOp("+", Ref("A.x"), Lit(1))),))
    a = AtomicComponent("A", ((ax, 2),), (ap, aa, ai), ("a0", "a1", "a2", "a3", "a4", "a5"), (
        Transition("a0", ap, TRUE, inc, "a1"),
        Transition("a0", aa, TRUE, inc, "a2"),
        Transition("a0", aa, TRUE, SKIP, "a3"),
        Transition("a0", ai, TRUE, inc, "a4"),
        Transition("a0", None, TRUE, SKIP, "a5")), "a0", "a1")
    b = AtomicComponent("B", ((by, 0),), (br,), ("b0", "b1", "b2"), (
        Transition("b0", br, TRUE, Update((("B.y", Lit(10)),)), "b1"),
        Transition("b0", br, BinOp(">", Ref("B.y"), Lit(-1)), SKIP, "b2")), "b0", "b1")
    c = AtomicComponent("C", ((cz, 0),), (cq,), ("c0", "c1"), (
        Transition("c0", cq, TRUE, SKIP, "c1"),), "c0", "c1")
    return CompositeSystem((a, b, c), (Interaction(ap, (br,)), Interaction(aa, (cq,))))


class TestScratchSuccessors:
    def test_every_slot_is_restored(self):
        system = scratch_system()
        start = system.initial_state()
        before = tuple(start)
        succs = cbs.sys_steps_tagged(system, start)
        assert tuple(start) == before
        assert [(e.rules[0], s.locations, s.buffers) for e, s in succs] == [
            ("synch-send", ("a1", "b1", "c0"), ()),
            ("synch-send", ("a1", "b2", "c0"), ()),
            ("asynch-send", ("a2", "b0", "c0"), (("C.q", (2,)),)),
            ("asynch-send", ("a3", "b0", "c0"), (("C.q", (2,)),)),
            ("internal", ("a4", "b0", "c0"), ()),
            ("internal", ("a5", "b0", "c0"), ()),
        ]
        assert [s.sigma["A.x"] for _, s in succs] == [3, 3, 3, 2, 3, 2]
        # B's second alternative keeps the payload it received.
        assert [s.sigma["B.y"] for _, s in succs[:2]] == [10, 2]
        assert [cbs.sys_steps_tagged(system, start, (ci,)) for ci in range(3)] == [succs, [], []]

    def test_against_flat_and_reference_explorers(self):
        system = scratch_system()
        res = assert_lts_matches_flat(system, "scratch")
        assert res.states == assert_sys(system).states
        assert res.rules_seen == {"synch-send", "asynch-send", "recv", "internal"}
