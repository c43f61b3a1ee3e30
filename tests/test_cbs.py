"""Oracle tests for the composite-system semantics and structural checks.

Each of the four execution rules (synch-send, asynch-send, recv, internal)
has a dedicated test with a hand-computed successor set.
"""

import dataclasses
import itertools

import pytest

from chorc import cbs
from chorc.cbs import (
    SYS_RULES, TAU, AtomicComponent, CompositeSystem, Interaction, SysState, Transition,
    check_structure, component_steps, is_terminal, serialize_system,
    sys_explore, sys_steps_tagged,
)
from chorc.core import (
    SKIP, TRUE, BinOp, Event, Lit, Port, Ref, Update, Variable, apply_update, evaluate,
    requeue,
)
from chorc.sim import simulate
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import MUTATIONS

from conftest import load_stem


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
        state = sys.initial_state()._replace(buffers=((("B.r"), (7,)),))
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
        assert succ.buffer("B.r") == (2,)  # pre-update value captured

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
        assert s.buffer("B.r") == (2, 3)


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
        assert succ.buffer("B.r") == ()
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
    the transitions and gamma directly on every call. Each step's event
    lists the ports of the transitions it fires, the sender's first."""
    def enabled(owner, port):
        i = sys.index(owner)
        return [t for t in sys.components[i].transitions
                if t.src == state.locations[i] and t.port == port
                and evaluate(t.guard, state.sigma)]

    out = []
    comp = sys.components[ci]
    for inter in sys.gamma:
        snd = inter.send
        if sys.index(snd.owner) != ci:
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
                            SysState(tuple(locs), sigma, buffers)))
            continue
        choices = []
        for r in inter.receivers:
            if state.buffer(r.pid):
                break
            ts = enabled(r.owner, r)
            if not ts:
                break
            choices.append((sys.index(r.owner), ts))
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
                    out.append((Event(("synch-send",), fired, inter.pids),
                                SysState(tuple(locs), sigma, state.buffers)))

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
            queue = state.buffer(t.port.pid)
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
        out.append((Event((rule,), fired, TAU), SysState(tuple(locs), sigma, buffers)))
    return out


def assert_steps_match_reference(sys, where):
    """Per component, on every state ``sys_explore`` reaches, the compiled
    successors equal the reference's, in order, events included; returns
    the exploration."""
    res = sys_explore(sys)
    for state in res.graph:
        for ci in range(len(sys.components)):
            assert component_steps(sys, state, ci) == \
                reference_component_steps(sys, state, ci), (where, state, ci)
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


class TestLazyStepTables:
    def counting(self, monkeypatch):
        built = []
        compile_location = cbs._compile_location

        def counted(comp, sends, loc):
            built.append((comp.id, loc))
            return compile_location(comp, sends, loc)

        monkeypatch.setattr(cbs, "_compile_location", counted)
        return built

    def test_built_once_per_visited_location(self, monkeypatch):
        built = self.counting(monkeypatch)
        decl, _, ch = load_stem("buying")
        sys = synthesize(decl, ch)
        res = sys_explore(sys)
        visited = {(c.id, state.locations[ci]) for state in res.graph
                   for ci, c in enumerate(sys.components)}
        assert len(built) == len(set(built))
        assert set(built) == visited
        sys_explore(sys)
        assert len(built) == len(visited)

    def test_unvisited_locations_are_not_built(self, monkeypatch):
        built = self.counting(monkeypatch)
        decl, _, ch = load_stem("seq_chain")
        sys = synthesize(decl, ch)
        res = simulate(sys, 0, max_steps=1)
        assert res.steps == 1
        visited = {(sys.components[ci].id, loc) for state in (sys.initial_state(), res.final)
                   for ci, loc in enumerate(state.locations)}
        assert built and set(built) <= visited
        assert len(built) == len(set(built))
        every = {(c.id, loc) for c in sys.components for loc in c.locations}
        assert len(every) > len(visited)

    def test_replace_starts_without_tables(self):
        sys = TestCheckStructure().clean()
        sys_steps_tagged(sys, sys.initial_state())
        assert set(sys._steps[0]) == {"a0"}
        twin = dataclasses.replace(sys, gamma=())
        assert "_steps" not in vars(twin)
        assert sys_steps_tagged(twin, twin.initial_state()) == []


class TestRuleNames:
    def test_sys_rules_constant(self):
        assert set(SYS_RULES) == {"synch-send", "asynch-send", "recv", "internal"}


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

    def test_port_in_two_interactions(self):
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, SKIP, "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [Interaction(AP_SS, (BR,)), Interaction(AP_SS, (BR,))])
        assert "port-conflict" in self.codes(sys)

    def test_unconnected_port(self):
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, SKIP, "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [])
        assert "unconnected-port" in self.codes(sys)

    def test_foreign_variable(self):
        sys = make_sys(
            [Transition("a0", AP_SS, TRUE, Update((("B.y", Lit(1)),)), "a1")],
            [Transition("b0", BR, TRUE, SKIP, "b1")],
            [Interaction(AP_SS, (BR,))])
        assert "foreign-var" in self.codes(sys)


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
