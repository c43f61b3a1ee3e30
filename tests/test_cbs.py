"""Oracle tests for the composite-system semantics and structural checks.

Each of the four execution rules (synch-send, asynch-send, recv, internal)
has a dedicated test with a hand-computed successor set.
"""

import dataclasses
import gc
import importlib.util
import itertools
import os
import random
import re
import sys as python
import weakref
from typing import NamedTuple, Optional

import pytest

from chorc import cbs, chorsem
from chorc.cbs import (
    TAU, AtomicComponent, CompositeSystem, Interaction, SysState, Transition,
    check_structure, component_steps, is_terminal, serialize_system,
    sys_explore, sys_steps_tagged, system_to_dot,
)
from chorc.core import (
    SKIP, TRUE, BinOp, EvalError, Event, Lit, Neg, Not, Port, Ref, Update, Valuation, Variable,
    cached_attr, explore_lts, find_queue, format_expr, requeue,
)
from chorc.lang import (
    Comm, ComponentDecl, GuardedSend, SystemDecl, check_well_formed,
)
from chorc.parser import parse_source
from chorc.sim import simulate
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import MUTATIONS

from conftest import ROOT, apply_update, buffer, corpus_path, evaluate, load_stem
from test_enumeration import DECLS, SAMPLE, SEED, declared_ports, terms


def var(owner, name, dtype="int"):
    return Variable(name=name, owner=owner, dtype=dtype)


def port(owner, name, ctype, v):
    return Port(name=name, owner=owner, ctype=ctype, var=v)


AX = var("A", "x")
AP_SS = port("A", "p", "ss", AX)
AP_AS = port("A", "a", "as", AX)
A_INT = port("A", "i", "in", AX)
BY = var("B", "y")
BR = port("B", "r", "r", BY)

INC_X = Update((("A.x", BinOp("+", Ref("A.x"), Lit(1))),))
DBL_Y = Update((("B.y", BinOp("*", Ref("B.y"), Lit(10))),))


def make_sys(a_transitions, b_transitions, gamma, a_ports=(AP_SS, AP_AS, A_INT),
             a_end="a1", b_end="b1"):
    a = AtomicComponent(
        id="A", vars=((AX, 2),), ports=tuple(a_ports),
        locations=("a0", "a1"), transitions=tuple(a_transitions),
        init="a0", end=a_end)
    b = AtomicComponent(
        id="B", vars=((BY, 0),), ports=(BR,),
        locations=("b0", "b1"), transitions=tuple(b_transitions),
        init="b0", end=b_end)
    return CompositeSystem(components=(a, b), gamma=tuple(gamma))


class TestSynchSend:
    def make(self, guard=TRUE):
        return make_sys(
            [Transition("a0", AP_SS, guard, INC_X, "a1")],
            [Transition("b0", BR, TRUE, DBL_Y, "b1")],
            [Interaction(AP_SS, (BR,))])

    def test_joint_step(self):
        sys = self.make()
        succs = sys_steps_tagged(sys, sys.initial_state())
        (event, succ), = succs
        assert event.rules == ("synch-send",)
        assert event.ports == (AP_SS, BR)
        assert event.label == frozenset({"A.p", "B.r"})
        assert succ.locations == ("a1", "b1")
        # y gets x=2, then the sender update, then the receiver update.
        assert succ.sigma["B.y"] == 20 and succ.sigma["A.x"] == 3
        assert succ.buffers == ()
        assert is_terminal(sys, succ)

    def test_blocked_without_receiver(self):
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, SKIP, "a1")],
            [],  # B never offers the receive
            [Interaction(AP_SS, (BR,))], b_end="b0")
        assert sys_steps_tagged(sys, sys.initial_state()) == []

    def test_blocked_by_false_guard(self):
        sys = self.make(guard=Lit(False))
        assert sys_steps_tagged(sys, sys.initial_state()) == []

    def test_blocked_by_nonempty_buffer(self):
        # A pending buffered value on the receive port defers the rendezvous.
        sys = self.make()
        a, b = sys.initial_state()
        pending = cbs._part(sys._steps[1], b.loc, b, (("B.r", (7,)),))
        state = tuple.__new__(SysState, (a, pending))
        assert state.buffers == (("B.r", (7,)),)
        rules = {e.rules[0] for e, _ in sys_steps_tagged(sys, state)}
        assert "synch-send" not in rules
        assert "recv" in rules


class TestAsynchSend:
    def make(self):
        return make_sys(
            [Transition("a0", AP_AS, TRUE, INC_X, "a1")],
            [Transition("b0", BR, TRUE, DBL_Y, "b1")],
            [Interaction(AP_AS, (BR,))])

    def test_sender_moves_alone_and_buffers_capture_value(self):
        sys = self.make()
        succs = sys_steps_tagged(sys, sys.initial_state())
        (event, succ), = succs
        assert event.rules == ("asynch-send",)
        assert event.ports == (AP_AS,)  # the receivers do not move
        assert event.label == frozenset({"A.a"})
        assert succ.locations == ("a1", "b0")
        assert succ.sigma["A.x"] == 3  # sender update applied after capture
        assert buffer(succ, "B.r") == (2,)  # pre-update value captured

    def test_fifo_order(self):
        sys = make_sys(
            [Transition("a0", AP_AS, TRUE, INC_X, "a1"),
             Transition("a1", AP_AS, TRUE, INC_X, "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [Interaction(AP_AS, (BR,))])
        s = sys.initial_state()
        for _ in range(2):
            sends = [x for e, x in sys_steps_tagged(sys, s)
                     if e.rules == ("asynch-send",)]
            s = sends[0]
        assert buffer(s, "B.r") == (2, 3)


class TestRecv:
    def test_consumes_head_then_update(self):
        sys = make_sys(
            [Transition("a0", AP_AS, TRUE, SKIP, "a1")],
            [Transition("b0", BR, TRUE, DBL_Y, "b1")],
            [Interaction(AP_AS, (BR,))])
        s = sys.initial_state()
        (_, s), = sys_steps_tagged(sys, s)  # the send
        (event, succ), = sys_steps_tagged(sys, s)
        assert event.rules == ("recv",)
        assert event.ports == (BR,)
        assert event.label == TAU
        assert succ.sigma["B.y"] == 20  # y := 2, then y := y * 10
        assert buffer(succ, "B.r") == ()
        assert is_terminal(sys, succ)

    def test_empty_buffer_blocks(self):
        sys = make_sys(
            [],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [], a_end="a0")
        assert sys_steps_tagged(sys, sys.initial_state()) == []


class TestInternal:
    def test_in_port_steps_silently(self):
        sys = make_sys(
            [Transition("a0", A_INT, BinOp(">", Ref("A.x"), Lit(0)), INC_X, "a1")],
            [], [], b_end="b0")
        (event, succ), = sys_steps_tagged(sys, sys.initial_state())
        assert event.rules == ("internal",)
        assert event.ports == (A_INT,)
        assert event.label == TAU
        assert succ.sigma["A.x"] == 3

    def test_portless_epsilon_steps_silently(self):
        sys = make_sys(
            [Transition("a0", None, TRUE, SKIP, "a1")],
            [], [], b_end="b0")
        (event, succ), = sys_steps_tagged(sys, sys.initial_state())
        assert event == Event(("internal",), (), TAU)
        assert succ.locations == ("a1", "b0")

    def test_false_guard_blocks(self):
        sys = make_sys(
            [Transition("a0", A_INT, Lit(False), SKIP, "a1")],
            [], [], b_end="b0")
        assert sys_steps_tagged(sys, sys.initial_state()) == []


class TestComponentSteps:
    def test_each_step_is_started_by_its_component(self, corpus):
        """On every reached state of every corpus system, a send of
        ``component_steps(sys, s, ci)`` is on a send port of ``ci`` and a
        recv/internal step moves ``ci`` alone; the system's successors are
        the components' steps in component order."""
        for path, decl, _, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                senders = {p.pid: c.id for c in sys.components
                           for p in c.ports if p.is_send}
                for state in sys_explore(sys).graph:
                    per_comp = [component_steps(sys, state, ci)
                                for ci in range(len(sys.components))]
                    assert sys_steps_tagged(sys, state) == [
                        step for steps in per_comp for step in steps]
                    for ci, steps in enumerate(per_comp):
                        others = state.locations[:ci] + state.locations[ci + 1:]
                        for event, succ in steps:
                            rule, label = event.rules[0], event.label
                            where = (path, profile, ci, rule, label)
                            if rule in ("synch-send", "asynch-send"):
                                assert [senders[pid] for pid in label
                                        if pid in senders] == [sys.components[ci].id], where
                                assert event.ports[0].owner == sys.components[ci].id, where
                            else:
                                assert rule in ("recv", "internal"), where
                                assert succ.locations[:ci] + succ.locations[ci + 1:] \
                                    == others, where


def reference_component_steps(sys, state, ci):
    """The successor function the compiled step tables replaced, reading
    the transitions and gamma directly on every call, over flat states
    (see ``FlatState``). Each step's event lists the ports of the
    transitions it fires, the sender's first. A component id names its
    first position."""
    position = {}
    for i, c in enumerate(sys.components):
        position.setdefault(c.id, i)

    def enabled(owner, port):
        i = position[owner]
        return [t for t in sys.components[i].transitions
                if t.src == state.locations[i] and t.port == port
                and evaluate(t.guard, state.sigma)]

    out = []
    comp = sys.components[ci]
    for inter in sys.gamma:
        snd = inter.send
        if position[snd.owner] != ci:
            continue
        sender_ts = enabled(snd.owner, snd)
        if not sender_ts:
            continue
        if snd.ctype == "as":
            payload, buffers = state.sigma[snd.var.qname], state.buffers
            for r in inter.receivers:
                buffers = requeue(buffers, r.pid, push=(payload,))
            for t in sender_ts:
                locs = list(state.locations)
                locs[ci] = t.dst
                sigma = apply_update(t.update, state.sigma)
                out.append((Event(("asynch-send",), (t.port,), frozenset({snd.pid})),
                            FlatState(tuple(locs), sigma, buffers)))
            continue
        choices = []
        for r in inter.receivers:
            if buffer(state, r.pid):
                break
            ts = enabled(r.owner, r)
            if not ts:
                break
            choices.append((position[r.owner], ts))
        else:
            payload = state.sigma[snd.var.qname]
            for t_s in sender_ts:
                for combo in itertools.product(*[ts for _, ts in choices]):
                    sigma = state.sigma
                    for r in inter.receivers:
                        sigma = sigma.set(r.var.qname, payload)
                    sigma = apply_update(t_s.update, sigma)
                    locs = list(state.locations)
                    locs[ci] = t_s.dst
                    for (ri, _), t_r in zip(choices, combo):
                        sigma = apply_update(t_r.update, sigma)
                        locs[ri] = t_r.dst
                    fired = (t_s.port,) + tuple(t_r.port for t_r in combo)
                    out.append((Event(("synch-send",), fired,
                                      frozenset({snd.pid} | {r.pid for r in inter.receivers})),
                                FlatState(tuple(locs), sigma, state.buffers)))

    for t in comp.transitions:
        if t.src != state.locations[ci]:
            continue
        if t.port is None or t.port.ctype == "in":
            if not evaluate(t.guard, state.sigma):
                continue
            sigma = apply_update(t.update, state.sigma)
            buffers = state.buffers
            rule = "internal"
        elif t.port.ctype == "r":
            queue = buffer(state, t.port.pid)
            if not queue or not evaluate(t.guard, state.sigma):
                continue
            sigma = state.sigma.set(t.port.var.qname, queue[0])
            sigma = apply_update(t.update, sigma)
            buffers = requeue(state.buffers, t.port.pid, pop=True)
            rule = "recv"
        else:
            continue
        locs = list(state.locations)
        locs[ci] = t.dst
        fired = () if t.port is None else (t.port,)
        out.append((Event((rule,), fired, TAU), FlatState(tuple(locs), sigma, buffers)))
    return out


class FlatState(NamedTuple):
    """A system state kept whole: the joint locations, one global valuation
    and the nonempty buffers, sorted by receive port id. Each field is the
    same-named view of a ``SysState``."""

    locations: tuple
    sigma: Valuation
    buffers: tuple


def flat(state: SysState) -> FlatState:
    return FlatState(state.locations, state.sigma, state.buffers)


def flat_initial(sys):
    sigma = Valuation({var.qname: init for c in sys.components for var, init in c.vars})
    return FlatState(tuple(c.init for c in sys.components), sigma, ())


def flat_fire(sys, state, cis):
    """The reference successor function over flat states: each
    component's compiled static steps at its location (the same tables and
    events ``cbs._fire`` uses) whose guards hold, run on the global
    valuation and buffers, with nothing cached."""
    locations, sigma, buffers = state
    out = []
    for ci in cis:
        for step in sys._steps[ci].table[locations[ci]]:
            rule = step[0]
            if rule == "internal":
                _, event, guard, update, dst = step
                if guard is not None and not guard(sigma):
                    continue
                after = sigma if update is None else update(sigma)
                out.append((event, FlatState(
                    locations[:ci] + (dst,) + locations[ci + 1:], after, buffers)))
                continue
            if rule == "recv":
                _, event, guard, update, dst, pid, var = step
                queue = find_queue(buffers, pid)[1]
                if not queue or guard is not None and not guard(sigma):
                    continue
                after = sigma.set(var, queue[0])
                if update is not None:
                    after = update(after)
                out.append((event, FlatState(
                    locations[:ci] + (dst,) + locations[ci + 1:], after,
                    requeue(buffers, pid, pop=True))))
                continue
            _, event, alts, var, rcvs = step[:5]
            enabled = [alt for alt in alts if alt[0] is None or alt[0](sigma)]
            if not enabled:
                continue
            if rule == "asynch-send":
                payload, queues = (sigma[var],), buffers
                for _, pid in rcvs:
                    queues = requeue(queues, pid, push=payload)
                for _, update, dst in enabled:
                    out.append((event, FlatState(
                        locations[:ci] + (dst,) + locations[ci + 1:],
                        sigma if update is None else update(sigma), queues)))
                continue
            choices = []
            for ri, pid, _, by_loc in rcvs:
                if find_queue(buffers, pid)[1]:
                    break
                ts = [alt for alt in by_loc.get(locations[ri], ())
                      if alt[0] is None or alt[0](sigma)]
                if not ts:
                    break
                choices.append(ts)
            else:
                payload = sigma[var]
                for _, update, dst in enabled:
                    for combo in itertools.product(*choices):
                        after = sigma
                        for rcv in rcvs:
                            after = after.set(rcv[2], payload)
                        if update is not None:
                            after = update(after)
                        locs = list(locations)
                        locs[ci] = dst
                        for rcv, (_, r_update, r_dst) in zip(rcvs, combo):
                            if r_update is not None:
                                after = r_update(after)
                            locs[rcv[0]] = r_dst
                        out.append((event, FlatState(tuple(locs), after, buffers)))
    return out


def flat_explore(sys, max_configs=200_000, max_depth=10_000):
    def terminal(state):
        return not state.buffers and all(
            c.end is not None and loc == c.end
            for c, loc in zip(sys.components, state.locations))
    return explore_lts(flat_initial(sys), lambda s: flat_fire(sys, s, range(len(s.locations))),
                       terminal, max_configs, max_depth)


@pytest.fixture(scope="session")
def generated_reference():
    """``reference(name, profile)``: a system that has not stepped, built
    from the components and interactions of the one synthesized from the
    generator ``name``'s seed-1 input under ``profile``, so that its events
    are the reference's, and that system's flat exploration, made once per
    session: the generated systems are the largest explored flat, and two
    tests compare with each."""
    made = {}

    def reference(name, profile):
        if (name, profile) not in made:
            decl, _, ch = parse_source(load_generator().GENERATORS[name](1).text)
            sys = synthesize(decl, ch, profile)
            made[name, profile] = sys, flat_explore(sys)
        sys, ref = made[name, profile]
        return CompositeSystem(sys.components, sys.gamma), ref
    return reference


def memo_flat():
    """``flat``, computed once per state."""
    views = {}

    def view(state):
        v = views.get(state)
        if v is None:
            v = views[state] = flat(state)
        return v
    return view


def assert_lts_matches_flat(sys, where, view=None, ref=None, **limits):
    """``sys_explore`` and the flat explorer reach the same LTS, through the
    views: the same stored states in the same order, the same edges in the
    same order with the very same event objects, edges to stored states in
    the same places, and the same terminals, deadlocks and truncation.
    ``ref``, if given, is the flat exploration under ``limits``, made on a
    system with the same components and interactions. Returns the
    exploration."""
    res = sys_explore(sys, **limits)
    ref = ref or flat_explore(sys, **limits)
    view = view or memo_flat()

    assert view(res.states[0]) == ref.states[0], where
    assert [view(s) for s in res.graph] == list(ref.graph), where
    for (state, edges), ref_edges in zip(res.graph.items(), ref.graph.values()):
        assert [(e, view(t)) for e, t in edges] == ref_edges, (where, view(state))
        assert all(e is r for (e, _), (r, _) in zip(edges, ref_edges)), (where, view(state))
        assert [t in res.graph for _, t in edges] == [t in ref.graph for _, t in ref_edges]
    assert {view(s) for s in res.terminals} == ref.terminals, where
    assert {view(s) for s in res.deadlocks} == ref.deadlocks, where
    assert res.truncated == ref.truncated, where
    assert res.finals == ref.finals, where
    return res


def assert_steps_match_reference(sys, where):
    """Per component, on every state ``sys_explore`` reaches, the compiled
    successors equal the reference's, in order, events included, through
    the views; returns the exploration."""
    view = memo_flat()
    res = assert_lts_matches_flat(sys, where, view)
    for state in res.graph:
        for ci in range(len(sys.components)):
            assert [(e, view(s)) for e, s in component_steps(sys, state, ci)] == \
                reference_component_steps(sys, view(state), ci), (where, view(state), ci)
    return res


class TestCompiledStepsAgainstReference:
    def test_corpus(self, corpus):
        for path, decl, _, ch in corpus:
            for profile in PROFILES:
                assert_steps_match_reference(synthesize(decl, ch, profile),
                                             (path, profile))

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_buying_mutants(self, name):
        decl, _, ch = load_stem("buying")
        for profile in PROFILES:
            mutant = MUTATIONS[name](synthesize(decl, ch, profile))
            assert mutant is not None, (name, profile)
            assert_steps_match_reference(mutant, (name, profile))

    def test_several_sender_transitions_and_receivers(self):
        # Two enabled sender transitions on one port times two enabled
        # receiver transitions, and an asynchronous send with two.
        cz = var("C", "z")
        c_r = port("C", "r", "r", cz)
        zero_x = Update((("A.x", Lit(0)),))
        a = AtomicComponent(
            id="A", vars=((AX, 2),), ports=(AP_SS, AP_AS), locations=("a0", "a1", "a2"),
            transitions=(Transition("a0", AP_SS, TRUE, INC_X, "a1"),
                         Transition("a0", AP_SS, TRUE, SKIP, "a1"),
                         Transition("a1", AP_AS, TRUE, SKIP, "a2"),
                         Transition("a1", AP_AS, BinOp(">", Ref("A.x"), Lit(2)), zero_x,
                                    "a2")),
            init="a0", end="a2")
        b = AtomicComponent(
            id="B", vars=((BY, 0),), ports=(BR,), locations=("b0", "b1"),
            transitions=(Transition("b0", BR, TRUE, DBL_Y, "b1"),
                         Transition("b0", BR, TRUE, SKIP, "b1")),
            init="b0", end="b1")
        c = AtomicComponent(
            id="C", vars=((cz, 0),), ports=(c_r,), locations=("c0", "c1"),
            transitions=(Transition("c0", c_r, TRUE, SKIP, "c1"),), init="c0", end="c1")
        sys = CompositeSystem((a, b, c), (Interaction(AP_SS, (BR,)),
                                          Interaction(AP_AS, (c_r,))))
        res = assert_steps_match_reference(sys, "hand-built")
        assert res.rules_seen == {"synch-send", "asynch-send", "recv"}
        assert len(sys_steps_tagged(sys, sys.initial_state())) == 4


class TestEagerStepTables:
    @pytest.mark.parametrize("stem", ["buying", "seq_chain", "branch_in_loop"])
    def test_built_once_per_location_a_state_can_hold(self, stem):
        """The first step builds a table row for every location that is a
        position's initial location or a transition target, and for nothing
        else; a second exploration and a simulation build nothing."""
        decl, _, ch = load_stem(stem)
        for profile in PROFILES:
            sys = synthesize(decl, ch, profile)
            assert len({c.id for c in sys.components}) == len(sys.components)
            assert "_steps" not in vars(sys)
            sys_steps_tagged(sys, sys.initial_state())
            positions = sys._steps
            holdable = [{c.init, *[t.dst for t in c.transitions]} for c in sys.components]
            assert [set(pos.table) for pos in positions] == holdable, (stem, profile)
            tables = [pos.table for pos in positions]
            rows = [dict(table) for table in tables]
            res = sys_explore(sys)
            visited = [{state.locations[ci] for state in res.graph}
                       for ci in range(len(sys.components))]
            assert all(v <= h for v, h in zip(visited, holdable))
            sys_explore(sys)
            simulate(sys, 0)
            assert sys._steps is positions
            for pos, table, row in zip(sys._steps, tables, rows):
                assert pos.table is table
                assert table.keys() == row.keys()
                assert all(table[loc] is row[loc] for loc in row), (stem, profile)

    def test_one_send_record_per_interaction(self, corpus):
        """Every interaction whose send port a transition takes has one
        cache, held by each of its send steps, and no other interaction's;
        its steps write the sender's position, then its receivers', each
        once."""
        records = 0
        for path, decl, _, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                for mutant in [sys] + [mutate(sys) for mutate in MUTATIONS.values()]:
                    if mutant is None:
                        continue
                    position = {}
                    for i, c in enumerate(mutant.components):
                        position.setdefault(c.id, i)
                    steps = [step for pos in mutant._steps for row in pos.table.values()
                             for step in row if step[0].endswith("send")]
                    taken = {t.port for c in mutant.components for t in c.transitions}
                    caches = []
                    for inter in mutant.gamma:
                        mine = [step for step in steps if step[1] is inter._event]
                        if inter.send not in taken:
                            assert mine == [], (path, profile)
                            continue
                        assert mine, (path, profile, inter.send.pid)
                        cache = mine[0][7]
                        assert all(step[7] is cache for step in mine)
                        caches.append(cache)
                        writes = tuple(dict.fromkeys(
                            [position[inter.send.owner]]
                            + [position[r.owner] for r in inter.receivers]))
                        assert all(step[6] == writes for step in mine), (path, profile)
                        records += 1
                    held = {id(cache) for cache in caches}
                    assert len(held) == len(caches), (path, profile)
                    assert all(id(step[7]) in held for step in steps), (path, profile)
        assert records > 17 * 2

    def test_interactions_on_one_asynchronous_port_keep_their_receivers(self):
        # Both interactions send on A.a, so their events are equal; each
        # still has its own record and sends to its own receiver. Such a
        # system has a port conflict, which check_structure reports.
        c_z = var("C", "z")
        c_r = port("C", "r", "r", c_z)
        a = component("A", [(AX, 1)], [AP_AS], [Transition("a0", AP_AS, TRUE, SKIP, "a1"),
                                                Transition("a1", AP_AS, TRUE, SKIP, "a2")],
                      "a0", "a2")
        b = component("B", [(BY, 0)], [BR], [Transition("b0", BR, TRUE, SKIP, "b1")],
                      "b0", "b1")
        c = component("C", [(c_z, 0)], [c_r], [Transition("c0", c_r, TRUE, SKIP, "c1")],
                      "c0", "c1")
        sys = CompositeSystem((a, b, c), (Interaction(AP_AS, (BR,)), Interaction(AP_AS, (c_r,))))
        assert [d.code for d in check_structure(sys)] == ["port-conflict"]
        res = assert_lts_matches_flat(sys, "two interactions on A.a")
        assert any(pid == "C.r" for state in res.states for pid, _ in state.buffers)

    def test_replace_starts_without_tables(self):
        sys = TestCheckStructure().clean()
        sys_steps_tagged(sys, sys.initial_state())
        assert [set(pos.table) for pos in sys._steps] == [{"a0", "a1"}, {"b0", "b1"}]
        twin = dataclasses.replace(sys, gamma=())
        assert "_steps" not in vars(twin)
        assert sys_steps_tagged(twin, twin.initial_state()) == []
        assert twin._steps is not sys._steps

    def test_undeclared_locations_explore_as_the_reference(self):
        # A's initial location and one transition target lie outside its
        # declared locations; the tables still hold every location a state
        # can reach.
        a = AtomicComponent(
            id="A", vars=((AX, 2),), ports=(AP_SS, A_INT), locations=("a0", "a1"),
            transitions=(Transition("z0", AP_SS, TRUE, INC_X, "z1"),
                         Transition("z1", A_INT, TRUE, SKIP, "a1")),
            init="z0", end="a1")
        b = AtomicComponent(
            id="B", vars=((BY, 0),), ports=(BR,), locations=("b0", "b1"),
            transitions=(Transition("b0", BR, TRUE, DBL_Y, "b1"),), init="b0", end="b1")
        sys = CompositeSystem((a, b), (Interaction(AP_SS, (BR,)),))
        assert {"bad-init", "bad-transition"} <= {d.code for d in check_structure(sys)}
        res = assert_steps_match_reference(sys, "undeclared")
        assert {state.locations for state in res.graph} == \
            {("z0", "b0"), ("z1", "b1"), ("a1", "b1")}
        assert len(res.terminals) == 1 and not res.deadlocks


def rebuilt(mutant, sys) -> list:
    """The positions of ``mutant`` that are not those of ``sys``."""
    return [i for i, (pos, kept) in enumerate(zip(mutant._steps, sys._steps)) if pos is not kept]


class TestDerivedSystems:
    """A mutant of a system that has stepped takes every position the
    mutation leaves clean from it (see ``CompositeSystem._steps``)."""

    def test_reuse_rule_on_buying(self):
        decl, _, ch = load_stem("buying")
        for profile in PROFILES:
            sys = synthesize(decl, ch, profile)
            sys_explore(sys)
            position = {c.id: i for i, c in enumerate(sys.components)}
            assert len(position) == len(sys.components)
            # The end marking is no step's business: every position is kept.
            assert rebuilt(MUTATIONS["unmark-end"](sys), sys) == [], profile
            # Only the sender of the dropped interaction sends otherwise.
            mutant = MUTATIONS["drop-interaction"](sys)
            assert rebuilt(mutant, sys) == [position[sys.gamma[0].send.owner]], profile
            # The mutated component, and each sender that holds its
            # alternatives and reads as a receiver's.
            mutant = MUTATIONS["swap-break-guard"](sys)
            (changed,) = [c.id for c, old in zip(mutant.components, sys.components)
                          if c is not old]
            into = {position[inter.send.owner] for inter in sys.gamma
                    if changed in [r.owner for r in inter.receivers]}
            assert into - {position[changed]}, profile
            assert rebuilt(mutant, sys) == sorted({position[changed], *into}), profile

    def test_built_fresh_unless_derived_from_a_stepped_parent(self):
        decl, _, ch = load_stem("buying")
        sys = synthesize(decl, ch, "default")
        unstepped = MUTATIONS["unmark-end"](sys)
        unstepped.initial_state()  # it steps before its parent does
        assert len(rebuilt(unstepped, sys)) == len(sys.components)
        mutant = MUTATIONS["unmark-end"](sys)
        for twin in (CompositeSystem(mutant.components, mutant.gamma),
                     dataclasses.replace(mutant), dataclasses.replace(sys)):
            assert len(rebuilt(twin, sys)) == len(sys.components)
        assert rebuilt(mutant, sys) == []
        # Another layout: one component declares one more variable.
        first = sys.components[0]
        extra = Variable("extra", first.id, "int")
        other = sys.derive(components=(dataclasses.replace(first, vars=first.vars + ((extra, 0),)),
                                       *sys.components[1:]))
        assert len(rebuilt(other, sys)) == len(sys.components)
        assert_lts_matches_flat(other, "one more variable")

    def test_a_sender_rebuilds_with_its_receivers_alternatives(self):
        # B's receives get another update, and their sender A holds B's
        # alternatives on B.r: both positions are rebuilt, C's is kept, and
        # the mutant explores as a cold build of it does.
        cz = var("C", "z")
        c_r = port("C", "r", "r", cz)
        a = component("A", [(AX, 2)], [AP_SS], [
            Transition("a0", AP_SS, TRUE, INC_X, "a1"),
            Transition("a1", AP_SS, TRUE, INC_X, "a2")], "a0", "a2")
        b = component("B", [(BY, 0)], [BR], [
            Transition("b0", BR, TRUE, Update((("B.y", BinOp("+", Ref("B.y"), Lit(1))),)), "b1"),
            Transition("b1", BR, TRUE, SKIP, "b2")], "b0", "b2")
        c = component("C", [(cz, 0)], [c_r], [
            Transition("c0", c_r, TRUE, SKIP, "c1"),
            Transition("c1", c_r, TRUE, SKIP, "c2")], "c0", "c2")
        sys = CompositeSystem((a, b, c), (Interaction(AP_SS, (BR, c_r)),))
        first = assert_lts_matches_flat(sys, "parent")
        mutant = sys.derive(components=(a, dataclasses.replace(
            b, transitions=tuple(dataclasses.replace(t, update=DBL_Y) for t in b.transitions)),
            c))
        assert rebuilt(mutant, sys) == [0, 1]
        res = assert_lts_matches_flat(mutant, "receiver changed")
        assert_same_lts(res, sys_explore(CompositeSystem(mutant.components, mutant.gamma)),
                        "receiver changed")
        assert res.finals != first.finals

    def test_a_derived_system_raises_where_a_cold_one_does(self):
        # The parent steps; a mutant whose component assigns a variable it
        # does not declare is refused as a cold build of it is.
        sys = TestCheckStructure().clean()
        sys_steps_tagged(sys, sys.initial_state())
        a = sys.components[0]
        bad = sys.derive(components=(dataclasses.replace(a, transitions=tuple(
            dataclasses.replace(t, update=Update((("B.y", Lit(1)),))) for t in a.transitions)),
            *sys.components[1:]))
        for twin in (bad, CompositeSystem(bad.components, bad.gamma)):
            with pytest.raises(EvalError, match="^A: transition at a0 uses B.y$"):
                twin.initial_state()


def load_generator():
    """``perfbench/gen.py``, the benchmark's seeded choreography generator,
    imported from its file without changing it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    module = python.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        python.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def component(cid, vars_, ports, transitions, init, end, locations=None):
    locs = locations or tuple(dict.fromkeys(
        (init, end, *(x for t in transitions for x in (t.src, t.dst)))))
    return AtomicComponent(cid, tuple(vars_), tuple(ports), locs, tuple(transitions),
                           init, end)


def foreign_guards_system():
    """A's guards read B.z, and its update reads the variable B.r binds:
    A reads B's part."""
    bz = var("B", "z")
    b_int = port("B", "i", "in", bz)
    read_y = Update((("A.x", BinOp("+", Ref("A.x"), Ref("B.y"))),))
    a = component("A", [(AX, 2)], [AP_SS, A_INT], [
        Transition("a0", A_INT, BinOp(">", Ref("B.z"), Lit(0)), SKIP, "a1"),
        Transition("a1", AP_SS, BinOp("<", Ref("B.z"), Lit(9)), read_y, "a2"),
    ], "a0", "a2")
    b = component("B", [(BY, 0), (bz, 0)], [BR, b_int], [
        Transition("b0", b_int, TRUE, Update((("B.z", Lit(5)),)), "b1"),
        Transition("b1", BR, TRUE, SKIP, "b2"),
    ], "b0", "b2")
    return CompositeSystem((a, b), (Interaction(AP_SS, (BR,)),))


def foreign_receivers_system():
    """B's guards and updates read the sender's A.x, and C's update reads
    B.y: each receiver reads another component's part."""
    cz = var("C", "z")
    c_r = port("C", "r", "r", cz)
    add_x = Update((("B.y", BinOp("+", Ref("B.y"), Ref("A.x"))),))
    a = component("A", [(AX, 2)], [AP_SS], [
        Transition("a0", AP_SS, TRUE, INC_X, "a1"),
        Transition("a1", AP_SS, TRUE, INC_X, "a2")], "a0", "a2")
    b = component("B", [(BY, 0)], [BR], [
        Transition("b0", BR, BinOp(">", Ref("A.x"), Lit(1)), add_x, "b1"),
        Transition("b0", BR, BinOp(">", Ref("A.x"), Lit(5)), SKIP, "b2"),
        Transition("b1", BR, TRUE, add_x, "b2")], "b0", "b2")
    c = component("C", [(cz, 0)], [c_r], [
        Transition("c0", c_r, TRUE, Update((("C.z", BinOp("+", Ref("C.z"), Ref("B.y"))),)),
                   "c1"),
        Transition("c1", c_r, TRUE, SKIP, "c2")], "c0", "c2")
    return CompositeSystem((a, b, c), (Interaction(AP_SS, (BR, c_r)),))


def duplicate_reader_system():
    """Two components A, both declaring A.x; the second reads it through
    its guard."""
    first = component("A", [(AX, 0)], [A_INT], [
        Transition("a0", A_INT, TRUE, INC_X, "a1")], "a0", "a1")
    second = component("A", [(AX, 2)], [A_INT], [
        Transition("a0", A_INT, BinOp(">", Ref("A.x"), Lit(2)), SKIP, "a1")], "a0", "a1")
    return CompositeSystem((first, second), ())


def state_ids(res, states) -> set:
    """The ids in ``res`` of ``states``, stored states of it."""
    ids = {state: i for i, state in enumerate(res.states)}
    return {ids[state] for state in states}


def assert_same_lts(res, ref, where):
    """Two explorations of equal systems, whose parts may be other objects,
    reach the same LTS: as many stored states, equal events to the same
    targets in the same order, and the same finals, terminals, deadlocks
    and truncation."""
    assert len(res.states) == len(ref.states), where
    assert res.events == ref.events and res.targets == ref.targets, where
    assert res.ends == ref.ends and res.truncated == ref.truncated, where
    assert res.finals == ref.finals, where
    assert state_ids(res, res.terminals) == state_ids(ref, ref.terminals), where
    assert state_ids(res, res.deadlocks) == state_ids(ref, ref.deadlocks), where


def assert_mutants_match(sys, first, where) -> int:
    """Each ``verify.MUTATIONS`` mutant of ``sys``, which ``first`` explored,
    explores as the flat explorer does and as a cold rebuild of it, and
    ``sys`` then explores again to the very LTS of ``first``; returns the
    number of positions the mutants took from ``sys``."""
    shared = 0
    for name, mutate in MUTATIONS.items():
        mutant = mutate(sys)
        if mutant is None:
            continue
        res = assert_lts_matches_flat(mutant, (where, name))
        assert_same_lts(res, sys_explore(CompositeSystem(mutant.components, mutant.gamma)),
                        (where, name))
        shared += sum(pos is kept for pos, kept in zip(mutant._steps, sys._steps))
    again = sys_explore(sys)
    assert again.states == first.states and again.targets == first.targets, where
    assert all(e is r for e, r in zip(again.events, first.events)), where
    assert len(again.events) == len(first.events) and again.ends == first.ends, where
    assert again.terminals == first.terminals and again.deadlocks == first.deadlocks, where
    return shared


class TestPartsAgainstFlat:
    """The partitioned states explore every system as the flat explorer
    does (see ``assert_lts_matches_flat``), and a mutant of an explored
    system, which takes positions from it, as a cold rebuild of the mutant
    does (see ``assert_mutants_match``)."""

    def test_corpus_mutants(self, corpus):
        shared = 0
        for path, decl, _, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                first = assert_lts_matches_flat(sys, (path, profile))
                shared += assert_mutants_match(sys, first, (path, profile))
        assert shared > 17 * 2

    @pytest.mark.parametrize("name", ["interleave", "longchain"])
    def test_generated(self, name, generated_reference):
        # Two buffers filled at once, and receivers the corpus lacks.
        for profile in PROFILES:
            sys, ref = generated_reference(name, profile)
            res = assert_lts_matches_flat(sys, (name, profile), ref=ref)
            assert not res.deadlocks and not res.truncated
            if name == "interleave":
                assert max(len(s.buffers) for s in res.graph) == 2
            else:
                assert assert_mutants_match(sys, res, (name, profile)) > 0

    def test_guards_and_updates_that_read_other_components(self):
        # A component reads only its own part: one whose guards and
        # updates read B's variables is refused.
        sys = foreign_guards_system()
        assert "foreign-var" in {d.code for d in check_structure(sys)}
        with pytest.raises(EvalError, match="^A: transition at a0 uses B.z$"):
            sys_explore(sys)

    def test_receivers_that_read_other_components(self):
        sys = foreign_receivers_system()
        assert "foreign-var" in {d.code for d in check_structure(sys)}
        with pytest.raises(EvalError, match="^B: transition at b0 uses A.x$"):
            sys_explore(sys)

    def test_duplicate_component_reading_the_shared_variable(self):
        sys = duplicate_reader_system()
        assert "duplicate-component" in {d.code for d in check_structure(sys)}
        with pytest.raises(EvalError, match="component A declared twice"):
            sys_explore(sys)
        writer = component("A", [(AX, 0)], [A_INT], [
            Transition("a0", A_INT, TRUE, INC_X, "a1")], "a0", "a1")
        with pytest.raises(EvalError, match="component A declared twice"):
            sys_explore(CompositeSystem((sys.components[0], writer), ()))

    @pytest.mark.parametrize("source", ["corpus", "interleave", "longchain"])
    def test_steps_never_build_the_whole_valuation(self, monkeypatch, corpus, source,
                                                   generated_reference):
        # Each guard and update runs on its own component's part, so
        # exploring never asks a state for its global valuation, nor lays
        # several parts out as one valuation.
        if source == "corpus":
            systems = [((path, profile), synthesize(decl, ch, profile))
                       for path, decl, _, ch in corpus for profile in PROFILES]
            systems = [(where, sys, flat_explore(sys)) for where, sys in systems]
        else:
            systems = [((source, profile), *generated_reference(source, profile))
                       for profile in PROFILES]

        def whole(*args):
            raise AssertionError("a step read or built a valuation of several parts")
        for where, sys, ref in systems:
            with monkeypatch.context() as patched:
                patched.setattr(SysState, "sigma", property(whole))
                patched.setattr(Valuation, "union", classmethod(whole))
                res = sys_explore(sys)
                states = [(s.locations, s.buffers) for s in res.graph]
            assert states == [(s.locations, s.buffers) for s in ref.graph], where
            assert res.finals == ref.finals, where

    def test_asynchronous_send_to_its_own_port(self, refusals_are_reported):
        # A communication's receivers are on components of their own, not
        # the sender's, asynchronous or not: refused, as ``lang.faults``
        # refuses such a term.
        az = var("A", "z")
        a_r = port("A", "r", "r", az)
        a = component("A", [(AX, 2), (az, 0)], [AP_AS, a_r], [
            Transition("a0", AP_AS, TRUE, INC_X, "a1"),
            Transition("a1", AP_AS, TRUE, INC_X, "a1"),
            Transition("a1", a_r, BinOp("<", Ref("A.x"), Lit(5)), DBL_Y and SKIP, "a2"),
        ], "a0", "a2")
        b = component("B", [(BY, 0)], [BR], [Transition("b0", BR, TRUE, DBL_Y, "b1")],
                      "b0", "b1")
        sys = CompositeSystem((a, b), (Interaction(AP_AS, (a_r, BR)),))
        message = "component A occurs twice in communication on A.a"
        assert [(d.code, d.message) for d in check_structure(sys)] == [
            ("mixed-location", "A: location a1 mixes outgoing send and receive"),
            ("distinct-receivers", message)]
        for run in (sys_explore, lambda sys: simulate(sys, 0)):
            with pytest.raises(EvalError, match=f"^{message}$"):
                run(sys)
        assert refusals_are_reported.refused == 2

    def test_asynchronous_send_to_two_ports_of_one_component(self, refusals_are_reported):
        # B owns both receive ports: refused, as a term sending to two
        # ports of one component is.
        bw = var("B", "w")
        b_s = port("B", "s", "r", bw)
        a = component("A", [(AX, 2)], [AP_AS], [
            Transition("a0", AP_AS, TRUE, INC_X, "a1"),
            Transition("a1", AP_AS, TRUE, INC_X, "a2")], "a0", "a2")
        b = component("B", [(BY, 0), (bw, 0)], [BR, b_s], [
            Transition("b0", BR, TRUE, SKIP, "b1"),
            Transition("b1", b_s, TRUE, SKIP, "b2"),
            Transition("b2", BR, TRUE, SKIP, "b3"),
            Transition("b3", b_s, TRUE, Update((("B.y", BinOp("+", Ref("B.y"), Ref("B.w"))),)),
                       "b4")], "b0", "b4")
        sys = CompositeSystem((a, b), (Interaction(AP_AS, (BR, b_s)),))
        message = "component B occurs twice in communication on A.a"
        assert [(d.code, d.message) for d in check_structure(sys)] == [
            ("distinct-receivers", message)]
        for run in (sys_explore, lambda sys: simulate(sys, 0)):
            with pytest.raises(EvalError, match=f"^{message}$"):
                run(sys)
        assert refusals_are_reported.refused == 2

    def test_two_receivers_multiply_alternatives(self):
        cz = var("C", "z")
        c_r = port("C", "r", "r", cz)
        a = component("A", [(AX, 2)], [AP_SS], [
            Transition("a0", AP_SS, TRUE, INC_X, "a1"),
            Transition("a0", AP_SS, TRUE, SKIP, "a2")], "a0", "a1")
        b = component("B", [(BY, 0)], [BR], [
            Transition("b0", BR, TRUE, DBL_Y, "b1"),
            Transition("b0", BR, BinOp(">", Ref("B.y"), Lit(-1)), SKIP, "b2")], "b0", "b1")
        c = component("C", [(cz, 0)], [c_r], [
            Transition("c0", c_r, TRUE, SKIP, "c1"),
            Transition("c0", c_r, TRUE, Update((("C.z", Lit(7)),)), "c2")], "c0", "c1")
        sys = CompositeSystem((a, b, c), (Interaction(AP_SS, (BR, c_r)),))
        res = assert_lts_matches_flat(sys, "two receivers")
        assert len(res.graph[res.states[0]]) == 8
        assert len(res.terminals) == 1 and len(res.deadlocks) == 7

    @pytest.mark.parametrize("limits", [{"max_configs": 4}, {"max_depth": 3}])
    def test_truncation(self, limits):
        a = component("A", [(AX, 0)], [A_INT], [
            Transition("a0", A_INT, TRUE, INC_X, "a0"),
            Transition("a0", None, TRUE, SKIP, "a1")], "a0", "a1")
        sys = CompositeSystem((a,), ())
        res = assert_lts_matches_flat(sys, limits, **limits)
        assert res.truncated

    def test_failing_update_raises_only_when_the_rendezvous_fires(self):
        # A's update divides by zero. While B does not offer B.r, the send
        # never fires and the state is a deadlock, as when updates ran at
        # firing time; once B offers it, exploring raises.
        az = var("A", "z")
        div = Update((("A.x", BinOp("/", Ref("A.x"), Ref("A.z"))),))
        a = component("A", [(AX, 4), (az, 0)], [AP_SS], [
            Transition("a0", AP_SS, TRUE, div, "a1")], "a0", "a1")
        late = component("B", [(BY, 0)], [BR], [
            Transition("b0", None, TRUE, SKIP, "b1"),
            Transition("b2", BR, TRUE, SKIP, "b3")], "b0", "b3")
        sys = CompositeSystem((a, late), (Interaction(AP_SS, (BR,)),))
        res = assert_lts_matches_flat(sys, "never fires")
        assert len(res.deadlocks) == 1
        ready = component("B", [(BY, 0)], [BR], [
            Transition("b0", None, TRUE, SKIP, "b1"),
            Transition("b1", BR, TRUE, SKIP, "b2")], "b0", "b2")
        sys = CompositeSystem((a, ready), (Interaction(AP_SS, (BR,)),))
        for explore in (sys_explore, flat_explore):
            with pytest.raises(EvalError, match="division by zero"):
                explore(sys)
        # The same for a receiver's update: B's divides by zero, and C
        # offers C.r only in the second system.
        bw, cz = var("B", "w"), var("C", "z")
        c_r = port("C", "r", "r", cz)
        a = component("A", [(AX, 2)], [AP_SS], [
            Transition("a0", AP_SS, TRUE, SKIP, "a1")], "a0", "a1")
        b = component("B", [(BY, 0), (bw, 0)], [BR], [
            Transition("b0", BR, TRUE, Update((("B.y", BinOp("/", Ref("B.y"), Ref("B.w"))),)),
                       "b1")], "b0", "b1")
        for offer in ("c1", "c0"):
            c = component("C", [(cz, 0)], [c_r], [
                Transition(offer, c_r, TRUE, SKIP, "c2")], "c0", "c2")
            sys = CompositeSystem((a, b, c), (Interaction(AP_SS, (BR, c_r)),))
            if offer == "c1":
                assert len(assert_lts_matches_flat(sys, "never fires").deadlocks) == 1
                continue
            for explore in (sys_explore, flat_explore):
                with pytest.raises(EvalError, match="division by zero"):
                    explore(sys)


class TestReferenceCounted:
    def test_explored_and_simulated_systems_leave_no_cyclic_garbage(self, corpus):
        # A system, its tables and caches, its explorations and its runs
        # are freed by reference counting once nothing holds them. So are
        # its explored mutants, which take positions from it and refer to
        # it: it refers to none of them, so they go while it lives.
        for path, decl, _, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                gc.collect()
                gc.disable()
                try:
                    res, run = sys_explore(sys), simulate(sys, 0)
                    mutants = [m for m in (mutate(sys) for mutate in MUTATIONS.values())
                               if m is not None]
                    runs = [sys_explore(m) for m in mutants]
                    alive = [weakref.ref(m) for m in mutants]
                    del mutants, runs
                    assert [ref() for ref in alive] == [None] * len(alive), (path, profile)
                    del sys, res, run
                    assert gc.collect() == 0, (path, profile)
                finally:
                    gc.enable()


class TestExplore:
    def test_terminals_and_deadlocks(self):
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, SKIP, "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [Interaction(AP_SS, (BR,))])
        res = sys_explore(sys)
        assert len(res.terminals) == 1
        assert not res.deadlocks and not res.truncated
        assert res.rules_seen == {"synch-send"}

    def test_deadlock_detected(self):
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, SKIP, "a1")],
            [], [Interaction(AP_SS, (BR,))], b_end="b0")
        res = sys_explore(sys)
        assert res.deadlocks and not res.terminals


def reference_vars(expr) -> set:
    """The variables an expression reads, found afresh on every call."""
    if isinstance(expr, Ref):
        return {expr.qname}
    if isinstance(expr, (Not, Neg)):
        return reference_vars(expr.operand)
    if isinstance(expr, BinOp):
        return reference_vars(expr.left) | reference_vars(expr.right)
    return set()


def reference_structure_diagnostics(sys) -> list:
    """A frozen copy of the structure check as it was before it read the
    components' facts: it finds each transition's variables itself and
    walks the transitions, the locations and gamma in separate passes.
    Returns (code, message) pairs in the order of the report."""
    diags = []
    ids = set()
    all_ports = {}
    declarers = {}
    for comp in sys.components:
        if comp.id in ids:
            diags.append(("duplicate-component", f"component {comp.id} declared twice"))
        ids.add(comp.id)
        for p in comp.ports:
            if p.pid in all_ports:
                diags.append(("duplicate-port", f"port {p.pid} declared twice"))
            all_ports[p.pid] = p
        own = []
        for var, _ in comp.vars:
            first = declarers.setdefault(var.qname, comp.id)
            if var.qname in own:
                diags.append(("duplicate-var", f"{comp.id}: variable {var.qname} declared twice"))
            elif first != comp.id:
                diags.append(("duplicate-var",
                              f"{comp.id}: variable {var.qname} also declared by {first}"))
            own.append(var.qname)

    for comp in sys.components:
        locs = set(comp.locations)
        if comp.init not in locs:
            diags.append(("bad-init", f"{comp.id}: initial location {comp.init} undeclared"))
        if comp.end is not None and comp.end not in locs:
            diags.append(("bad-end", f"{comp.id}: end location {comp.end} undeclared"))
        own_vars = {var.qname for var, _ in comp.vars}
        own_ports = set(comp.ports)
        uses = [frozenset(reference_vars(t.guard).union(
                    *[{target} | reference_vars(rhs) for target, rhs in t.update.assignments]))
                for t in comp.transitions]
        for p in comp.ports:
            if p.var.qname not in own_vars:
                diags.append((
                    "undeclared-var",
                    f"{comp.id}: port {p.pid} binds {p.var.qname}, which {comp.id} "
                    f"does not declare"))
        for t, used in zip(comp.transitions, uses):
            if t.src not in locs or t.dst not in locs:
                diags.append((
                    "bad-transition",
                    f"{comp.id}: transition {t.src}->{t.dst} uses undeclared location"))
            if t.port is not None and (t.port.owner != comp.id or t.port not in own_ports):
                diags.append(("foreign-port", f"{comp.id}: transition uses port {t.port.pid}"))
            if not used <= own_vars:
                diags.append((
                    "foreign-var",
                    f"{comp.id}: transition at {t.src} uses "
                    + ", ".join(sorted(used - own_vars))))
        for loc in comp.locations:
            kinds = {t.port.ctype for t in comp.transitions
                     if t.src == loc and t.port is not None}
            if kinds & {"ss", "as"} and "r" in kinds:
                diags.append((
                    "mixed-location",
                    f"{comp.id}: location {loc} mixes outgoing send and receive"))

    uses = {}
    for inter in sys.gamma:
        if not inter.send.is_send:
            diags.append(("send-port-type", f"port {inter.send.pid} is not a send port"))
        if not inter.receivers:
            diags.append((
                "empty-receivers", f"communication on {inter.send.pid} without receivers"))
        owners = {inter.send.owner}
        for r in inter.receivers:
            if r.ctype != "r":
                diags.append(("recv-port-type", f"port {r.pid} is not a receive port"))
            if r.dtype != inter.send.dtype:
                diags.append((
                    "comm-dtype",
                    f"receiver {r.pid}:{r.dtype} does not match sender "
                    f"{inter.send.pid}:{inter.send.dtype}"))
            if r.owner in owners:
                diags.append((
                    "distinct-receivers",
                    f"component {r.owner} occurs twice in communication on "
                    f"{inter.send.pid}"))
            owners.add(r.owner)
        for pid in dict.fromkeys([inter.send.pid] + [r.pid for r in inter.receivers]):
            if pid not in all_ports:
                diags.append(("unknown-port", f"interaction references undeclared port {pid}"))
            uses[pid] = uses.get(pid, 0) + 1
    for pid, n in sorted(uses.items()):
        if n > 1:
            diags.append(("port-conflict", f"port {pid} occurs in {n} interactions"))

    for comp in sys.components:
        for t in comp.transitions:
            p = t.port
            if p is None:
                continue
            if p.ctype == "in":
                if p.pid in uses:
                    diags.append(("internal-wired", f"internal port {p.pid} occurs in gamma"))
            elif p.pid not in uses:
                diags.append((
                    "unconnected-port",
                    f"port {p.pid} used on a transition but absent from gamma"))
    return diags


@pytest.fixture(autouse=True)
def structure_check_matches_reference(monkeypatch):
    """Every structure check this module runs, on hand-built systems as on
    synthesized ones, also runs the frozen reference, and the two must
    report the same (code, message) pairs in the same order."""
    check = cbs._structure_diagnostics

    def checked(sys):
        found = check(sys)
        assert [(d.code, d.message) for d in found] == reference_structure_diagnostics(sys)
        checked.calls += 1
        return found
    checked.calls = 0
    monkeypatch.setattr(cbs, "_structure_diagnostics", checked)
    return checked


#: The structure findings the explorer refuses a system for, with the first
#: one's message: the first five say that a component's part cannot be
#: kept apart from another's, and come from the declarations or from one
#: component's own text; the rest say that an interaction breaks the wiring
#: rule of a communication, as ``lang.faults`` says of a term.
REFUSED = frozenset({"duplicate-component", "duplicate-var", "undeclared-var",
                     "foreign-port", "foreign-var", "send-port-type", "empty-receivers",
                     "recv-port-type", "comm-dtype", "distinct-receivers"})

#: The findings a refused system may show: ``REFUSED``, or
#: ``unknown-port`` for a receiver that no component holds.
REFUSAL_CODES = REFUSED | {"unknown-port"}


@pytest.fixture(autouse=True)
def refusals_are_reported(monkeypatch):
    """Every system this module's tests step or check, hand-built or
    derived, is refused by the explorer only if ``check_structure`` reports
    it with one of ``REFUSAL_CODES``, and is refused, with the message of
    the first finding whose code is in ``REFUSED``, whenever it has one: a
    system that is checked is also compiled afresh, as a copy, to see it
    refused. Counts the refusals of the systems the tests step."""
    build = cbs.CompositeSystem.__dict__["_steps"].fn
    diagnose = cbs.CompositeSystem.__dict__["_diagnostics"].fn

    def first_refusal(found) -> Optional[str]:
        return next((d.message for d in found if d.code in REFUSED), None)

    def _steps(sys):  # ``cached_attr`` caches under the function's name
        found = check_structure(sys)
        expected = first_refusal(found)
        try:
            steps = build(sys)
        except EvalError as error:
            assert {d.code for d in found} & REFUSAL_CODES, found
            assert expected in (None, str(error)), (expected, str(error))
            _steps.refused += 1
            raise
        assert expected is None, expected
        return steps

    def _diagnostics(sys):
        found = diagnose(sys)
        expected = first_refusal(found)
        if expected is not None:
            with pytest.raises(EvalError) as error:
                build(CompositeSystem(sys.components, sys.gamma))
            assert str(error.value) == expected
        return found
    _steps.refused = 0
    monkeypatch.setattr(cbs.CompositeSystem, "_steps", cached_attr(_steps))
    monkeypatch.setattr(cbs.CompositeSystem, "_diagnostics", cached_attr(_diagnostics))
    return _steps


class TestStructureReference:
    """The structure check agrees with its frozen reference on every
    synthesized corpus system, every mutant of one and the enumeration's
    sample; the hand-built systems of this module are compared by
    ``structure_check_matches_reference``."""

    def test_corpus_and_mutants(self, corpus, structure_check_matches_reference):
        found, systems = set(), 0
        for path, decl, _, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                for mutant in [sys] + [mutate(sys) for mutate in MUTATIONS.values()]:
                    if mutant is not None:
                        found.update(d.code for d in check_structure(mutant))
                        systems += 1
        assert structure_check_matches_reference.calls == systems > 17 * 2
        assert "unconnected-port" in found

    def test_enumeration_sample(self, structure_check_matches_reference):
        ports = declared_ports()
        sample = random.Random(SEED).sample(terms(ports, 2), SAMPLE)
        decl, _, _ = parse_source(DECLS + "\nchoreography t = nil")
        for term in sample:
            for profile in PROFILES:
                assert check_structure(synthesize(decl, term, profile)) == []
        assert structure_check_matches_reference.calls == SAMPLE * len(PROFILES)

    def test_hand_built_bad_systems(self, structure_check_matches_reference):
        # The reference also runs inside every other test of this module;
        # this one checks the fixture sees a report that is not empty.
        recv_a = port("A", "rin", "r", AX)
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, Update((("B.y", Lit(1)),)), "a1"),
             Transition("a0", recv_a, TRUE, SKIP, "a9"),
             Transition("a1", BR, TRUE, SKIP, "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1"), Transition("b1", A_INT, TRUE, SKIP, "b0")],
            [Interaction(AP_SS, (BR,)), Interaction(AP_SS, (BR, recv_a)),
             Interaction(A_INT, (AP_AS,))],
            a_ports=(AP_SS, AP_AS, A_INT, recv_a), a_end="a7")
        codes = [d.code for d in check_structure(sys)]
        assert structure_check_matches_reference.calls == 1
        assert {"bad-end", "bad-transition", "foreign-port", "foreign-var", "mixed-location",
                "distinct-receivers", "send-port-type", "recv-port-type", "port-conflict",
                "internal-wired"} <= set(codes)


class TestCheckStructure:
    def clean(self):
        return make_sys(
            [Transition("a0", AP_SS, TRUE, SKIP, "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [Interaction(AP_SS, (BR,))])

    def codes(self, sys):
        return {d.code for d in check_structure(sys)}

    def test_clean_system(self):
        assert check_structure(self.clean()) == []

    def test_foreign_port(self):
        sys = make_sys(
            [Transition("a0", BR, TRUE, SKIP, "a1")],  # B's port on A
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [Interaction(AP_SS, (BR,))])
        assert "foreign-port" in self.codes(sys)

    def test_mixed_location(self):
        recv_a = port("A", "rin", "r", AX)
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, SKIP, "a1"),
             Transition("a0", recv_a, TRUE, SKIP, "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [Interaction(AP_SS, (BR,))],
            a_ports=(AP_SS, AP_AS, A_INT, recv_a))
        assert "mixed-location" in self.codes(sys)

    def test_duplicate_component(self):
        # Two components A, each sending to B on its own port, which B
        # takes either of: the explorer refuses it, as the first A's part
        # would be the second's too.
        p2 = port("A", "p2", "ss", AX)
        r2 = port("B", "r2", "r", BY)
        a1 = AtomicComponent("A", ((AX, 0),), (AP_SS,), ("a0", "a1"),
                             (Transition("a0", AP_SS, TRUE, SKIP, "a1"),), "a0", "a1")
        a2 = AtomicComponent("A", ((AX, 0),), (p2,), ("a0", "a1"),
                             (Transition("a0", p2, TRUE, SKIP, "a1"),), "a0", "a1")
        b = AtomicComponent("B", ((BY, 0),), (BR, r2), ("b0", "b1", "b2"),
                            (Transition("b0", BR, TRUE, SKIP, "b1"),
                             Transition("b0", r2, TRUE, SKIP, "b2")), "b0", "b1")
        sys = CompositeSystem((a1, a2, b), (Interaction(AP_SS, (BR,)),
                                            Interaction(p2, (r2,))))
        diags = check_structure(sys)
        assert [(d.code, d.message) for d in diags] == \
            [("duplicate-component", "component A declared twice")]
        with pytest.raises(EvalError, match="component A declared twice"):
            sys_explore(sys)
        assert check_structure(self.clean()) == []

    def test_duplicate_variable(self, refusals_are_reported):
        # B declares A.x, which A declares too: two parts would hold it.
        b = AtomicComponent("B", ((BY, 0), (AX, 5)), (BR,), ("b0", "b1"),
                            (Transition("b0", BR, TRUE, SKIP, "b1"),), "b0", "b1")
        sys = CompositeSystem((self.clean().components[0], b), (Interaction(AP_SS, (BR,)),))
        message = "B: variable A.x also declared by A"
        assert [(d.code, d.message) for d in check_structure(sys)] == [
            ("duplicate-var", message)]
        with pytest.raises(EvalError, match=message):
            sys_explore(sys)
        assert refusals_are_reported.refused == 1

    def test_variable_declared_twice_by_one_component(self, refusals_are_reported):
        # A declares A.x twice, with two initial values: one part cannot
        # hold both.
        a = AtomicComponent("A", ((AX, 1), (AX, 7)), (), ("a0",), (), "a0", "a0")
        sys = CompositeSystem((a,), ())
        message = "A: variable A.x declared twice"
        assert [(d.code, d.message) for d in check_structure(sys)] == [
            ("duplicate-var", message)]
        with pytest.raises(EvalError, match=message):
            sys_explore(sys)
        assert refusals_are_reported.refused == 1

    def test_port_in_two_interactions(self):
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, SKIP, "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [Interaction(AP_SS, (BR,)), Interaction(AP_SS, (BR,))])
        assert "port-conflict" in self.codes(sys)

    def test_unknown_ports_in_declaration_order(self):
        # The sender, then the receivers in their order, each once.
        rcvs = tuple(port("B", f"r{i}", "r", BY) for i in range(1, 5))
        a_q = port("A", "q", "ss", AX)
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, SKIP, "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [Interaction(AP_SS, (BR,)), Interaction(a_q, rcvs + rcvs[:1])])
        assert [d.message for d in check_structure(sys) if d.code == "unknown-port"] == [
            f"interaction references undeclared port {pid}"
            for pid in ("A.q", "B.r1", "B.r2", "B.r3", "B.r4")]

    def test_interaction_whose_sender_is_absent(self):
        # No component owns A.p, so its interaction never fires: the system,
        # built cold and derived from a stepped one without it, explores as
        # that one does, and the structure check still reports the port.
        cw = var("C", "w")
        c_s, b_r2 = port("C", "s", "ss", cw), port("B", "r2", "r", BY)
        b = component("B", [(BY, 0)], [BR, b_r2], [
            Transition("b0", b_r2, TRUE, DBL_Y, "b1"),
            Transition("b0", BR, TRUE, SKIP, "b2")], "b0", "b1")
        c = component("C", [(cw, 3)], [c_s], [Transition("c0", c_s, TRUE, SKIP, "c1")],
                      "c0", "c1")
        base = CompositeSystem((b, c), (Interaction(c_s, (b_r2,)),))
        ref = sys_explore(base)
        assert ref.finals == {Valuation({"B.y": 30, "C.w": 3})}
        gamma = (Interaction(AP_SS, (BR,)), *base.gamma)
        derived = base.derive(gamma=gamma)
        for sys, where in ((CompositeSystem((b, c), gamma), "cold"), (derived, "derived")):
            assert [d.message for d in check_structure(sys) if d.code == "unknown-port"] == [
                "interaction references undeclared port A.p"], where
            assert_same_lts(sys_explore(sys), ref, where)
        assert rebuilt(derived, base) == []

    def test_unconnected_port(self):
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, SKIP, "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [])
        assert "unconnected-port" in self.codes(sys)

    def test_undeclared_port_variable(self):
        # B.r binds B.y, which B does not declare: reported, and exploring
        # ends in an error instead of growing B.y into the state.
        b = AtomicComponent("B", (), (BR,), ("b0", "b1"),
                            (Transition("b0", BR, TRUE, SKIP, "b1"),), "b0", "b1")
        sys = CompositeSystem((TestCheckStructure().clean().components[0], b),
                              (Interaction(AP_SS, (BR,)),))
        assert [(d.code, d.message) for d in check_structure(sys)] == [(
            "undeclared-var", "B: port B.r binds B.y, which B does not declare")]
        with pytest.raises(EvalError, match="B.y"):
            sys_explore(sys)
        with pytest.raises(EvalError, match="B.y"):
            simulate(sys, 0)

    def test_synchronous_receiver_on_its_senders_component(self):
        # A rendezvous writes each of its components once, so a receiver on
        # its sender's component cannot fire.
        az = var("A", "z")
        a_r = port("A", "r", "r", az)
        a = component("A", [(AX, 2), (az, 0)], [AP_SS, a_r], [
            Transition("a0", AP_SS, TRUE, SKIP, "a1"),
            Transition("a1", a_r, TRUE, SKIP, "a2")], "a0", "a2")
        sys = CompositeSystem((a,), (Interaction(AP_SS, (a_r,)),))
        message = "component A occurs twice in communication on A.p"
        assert [(d.code, d.message) for d in check_structure(sys)] == [
            ("distinct-receivers", message)]
        with pytest.raises(EvalError, match=f"^{message}$"):
            sys_explore(sys)

    def test_synchronous_receivers_on_one_component(self):
        bw = var("B", "w")
        b_s = port("B", "s", "r", bw)
        b = component("B", [(BY, 0), (bw, 0)], [BR, b_s], [
            Transition("b0", BR, TRUE, SKIP, "b1"),
            Transition("b1", b_s, TRUE, SKIP, "b2")], "b0", "b2")
        sys = CompositeSystem((self.clean().components[0], b),
                              (Interaction(AP_SS, (BR, b_s)),))
        message = "component B occurs twice in communication on A.p"
        assert [(d.code, d.message) for d in check_structure(sys)] == [
            ("distinct-receivers", message)]
        with pytest.raises(EvalError, match=f"^{message}$"):
            sys_explore(sys)

    def test_foreign_variable(self):
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, Update((("B.y", Lit(1)),)), "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [Interaction(AP_SS, (BR,))])
        assert "foreign-var" in self.codes(sys)


#: Ports of three components A, B and C, each binding its int variable or
#: its bool one: per component a synchronous and an asynchronous send, an
#: internal port, and receive ports of int, of bool and of int again.
WIRING_VARS = {c: {"int": var(c, "x"), "bool": var(c, "b", "bool")} for c in "ABC"}
WIRING_PORTS = {f"{c}.{name}": port(c, name, ctype, WIRING_VARS[c][dtype])
                for c in "ABC"
                for name, ctype, dtype in (("s", "ss", "int"), ("a", "as", "int"),
                                           ("i", "in", "int"), ("r", "r", "int"),
                                           ("t", "r", "bool"), ("u", "r", "int"))}

#: A's synchronous and asynchronous send.
WIRING_SENDS = {"ss": "A.s", "as": "A.a"}

#: One breach of each wiring rule: (code, the ports sent on in place of
#: ``WIRING_SENDS``, or None to keep them, the receivers, the message). A
#: send on a port that is not a send port is neither synchronous nor
#: asynchronous; its two forms send on a receive and on an internal port.
WIRING_BREACHES = [
    ("send-port-type", {"ss": "A.r", "as": "A.i"}, ("B.r",), "port {send} is not a send port"),
    ("empty-receivers", None, (), "communication on {send} without receivers"),
    ("recv-port-type", None, ("B.s",), "port B.s is not a receive port"),
    ("comm-dtype", None, ("B.r", "C.t"), "receiver C.t:bool does not match sender {send}:int"),
    ("distinct-receivers", None, ("A.r", "B.r"), "component A occurs twice in communication "
                                                 "on {send}"),
    ("distinct-receivers", None, ("B.r", "C.r", "B.u"), "component B occurs twice in "
                                                        "communication on {send}"),
]


class TestWiringAgreement:
    """A communication's wiring rule (``lang.wiring``) binds a choreography
    term, synchronous or asynchronous, and a hand-built system's
    interaction alike: both checks report a breach with one code and text,
    and the choreography explorer, the system explorer and the simulator
    each refuse it with that text."""

    @pytest.mark.parametrize("ctype", ["ss", "as"])
    @pytest.mark.parametrize("code, sends, receivers, message", WIRING_BREACHES,
                             ids=[f"{b[0]}-{i}" for i, b in enumerate(WIRING_BREACHES)])
    def test_one_breach(self, refusals_are_reported, ctype, code, sends, receivers, message):
        send = WIRING_PORTS[(sends or WIRING_SENDS)[ctype]]
        rcvs = tuple([WIRING_PORTS[pid] for pid in receivers])
        message = message.format(send=send.pid)
        decl = SystemDecl(tuple([
            ComponentDecl(c, ((vs["int"], 7), (vs["bool"], False)),
                          tuple([p for p in WIRING_PORTS.values() if p.owner == c]))
            for c, vs in WIRING_VARS.items()]))
        term = Comm(GuardedSend(send, TRUE, SKIP), tuple([(p, SKIP) for p in rcvs]))
        sys = CompositeSystem(tuple([
            component(c.id, c.vars, c.ports, [], f"{c.id}0", f"{c.id}0")
            for c in decl.components]), (Interaction(send, rcvs),))
        assert [(d.code, d.message) for d in check_well_formed(decl, term)] == \
            [(d.code, d.message) for d in check_structure(sys)] == [(code, message)]
        runs = (lambda: chorsem.explore(term, decl.initial_valuation()),
                lambda: sys_explore(sys), lambda: simulate(sys, 0))
        for run in runs:
            with pytest.raises(EvalError) as error:
                run()
            assert str(error.value) == message
        assert refusals_are_reported.refused == 2

    @pytest.mark.parametrize("send", [AP_SS, AP_AS])
    def test_a_transfer_between_types(self, refusals_are_reported, send):
        # A sends its int 7 to B.r, which binds B's bool: were it explored,
        # B.b would end as 7.
        bb = var("B", "b", "bool")
        b_r = port("B", "r", "r", bb)
        a = component("A", [(AX, 7)], [send], [Transition("a0", send, TRUE, SKIP, "a1")],
                      "a0", "a1")
        b = component("B", [(bb, False)], [b_r], [Transition("b0", b_r, TRUE, SKIP, "b1")],
                      "b0", "b1")
        sys = CompositeSystem((a, b), (Interaction(send, (b_r,)),))
        message = f"receiver B.r:bool does not match sender {send.pid}:int"
        assert [(d.code, d.message) for d in check_structure(sys)] == [("comm-dtype", message)]
        for run in (sys_explore, lambda sys: simulate(sys, 0)):
            with pytest.raises(EvalError, match=f"^{message}$"):
                run(sys)
        assert refusals_are_reported.refused == 2

    def test_a_receiver_no_component_holds(self, refusals_are_reported):
        # C holds no part, so a send to C.r cannot be delivered: refused
        # with the structure check's text. With no sender, the interaction
        # never fires (see ``test_interaction_whose_sender_is_absent``).
        c_r = port("C", "r", "r", var("C", "z"))
        sys = make_sys([Transition("a0", AP_AS, TRUE, SKIP, "a1")],
                       [Transition("b0", BR, TRUE, SKIP, "b1")],
                       [Interaction(AP_AS, (BR, c_r))])
        message = "interaction references undeclared port C.r"
        assert [(d.code, d.message) for d in check_structure(sys)] == [("unknown-port", message)]
        for run in (sys_explore, lambda sys: simulate(sys, 0)):
            with pytest.raises(EvalError, match=f"^{message}$"):
                run(sys)
        assert refusals_are_reported.refused == 2

    def test_a_receive_port_its_component_does_not_declare(self, refusals_are_reported):
        # B holds a part but declares no port B.zz: were it explored, the
        # payload would wait in a buffer that no transition reads.
        b_zz = port("B", "zz", "r", BY)
        sys = make_sys([Transition("a0", AP_AS, TRUE, SKIP, "a1")], [],
                       [Interaction(AP_AS, (b_zz,))], b_end="b0")
        message = "interaction references undeclared port B.zz"
        assert [(d.code, d.message) for d in check_structure(sys)] == [("unknown-port", message)]
        for run in (sys_explore, lambda sys: simulate(sys, 0)):
            with pytest.raises(EvalError, match=f"^{message}$"):
                run(sys)
        assert refusals_are_reported.refused == 2


class TestSerialize:
    def test_stable_and_complete(self):
        sys = TestCheckStructure().clean()
        text = serialize_system(sys)
        assert text == serialize_system(sys)
        assert "component A" in text and "component B" in text
        assert "A.p" in text and "B.r" in text

    def test_epsilon_rendering(self):
        sys = make_sys(
            [Transition("a0", None, TRUE, SKIP, "a1")],
            [], [], b_end="b0")
        assert "eps" in serialize_system(sys)


#: A quoted DOT string, with its escapes.
DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


class TestDot:
    @pytest.mark.parametrize("guard", ['msg == "ping"', 'msg != "a\\nb"'])
    def test_labels_parse_back(self, guard):
        # A guard's string literal keeps its quotes and escapes in the DOT
        # text: each label reads back as the text it was made from.
        with open(corpus_path("strings")) as fh:
            text = fh.read()
        decl, _, ch = parse_source(text.replace("A.p[true,", f"A.p[{guard},"))
        sys = synthesize(decl, ch, "default")
        dot = system_to_dot(sys)
        labels = [re.sub(r"\\(.)", r"\1", label)
                  for label in re.findall(r"label=" + DOT_STRING.pattern, dot)]
        made = [f"{t.port.name if t.port else 'eps'} [{format_expr(t.guard, c.id)}]"
                for c in sys.components for t in c.transitions]
        assert sorted(labels) == sorted(
            [c.id for c in sys.components] + [loc for c in sys.components for loc in c.locations]
            + made)
        assert any(guard in label for label in labels)

    def test_node_ids_parse_back(self):
        # A location's name may hold a quote or a backslash: each node id
        # reads back as the component id and location it was made from.
        a = component("A", [(AX, 0)], [AP_SS], [
            Transition('a"0', AP_SS, TRUE, SKIP, "a\\1")], 'a"0', "a\\1")
        b = component("B", [(BY, 0)], [BR], [Transition("b0", BR, TRUE, SKIP, "b1")],
                      "b0", "b1")
        sys = CompositeSystem((a, b), (Interaction(AP_SS, (BR,)),))
        assert check_structure(sys) == []
        node = re.compile(r"\s*" + DOT_STRING.pattern + r" \[shape=")
        edge = re.compile(r"\s*" + DOT_STRING.pattern + " -> " + DOT_STRING.pattern + r" \[")
        nodes, edges = [], []
        for line in system_to_dot(sys).splitlines():
            if m := node.match(line):
                nodes.append(re.sub(r"\\(.)", r"\1", m.group(1)))
            elif m := edge.match(line):
                edges.append(tuple([re.sub(r"\\(.)", r"\1", i) for i in m.groups()]))
        assert nodes == ['A__a"0', "A__a\\1", "B__b0", "B__b1"]
        assert edges == [('A__a"0', "A__a\\1"), ("B__b0", "B__b1")]
