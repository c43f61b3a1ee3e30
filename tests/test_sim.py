"""Tests for the deterministic simulation harness."""

import json
import random
from itertools import product

import pytest

import chorc.sim
from chorc.cbs import (
    CompositeSystem, Interaction, Transition, is_terminal, sys_explore, sys_steps_tagged,
)
from chorc.cli import main
from chorc.core import SKIP, TRUE, BinOp, EvalError, Lit, Port, Ref, Update, Variable
from chorc.parser import parse_source
from chorc.promela import MAX_LEN
from chorc.sim import RunResult, simulate, trace_text
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import MUTATIONS, equiv_check, project, user_variables

from conftest import corpus_path, corpus_paths, generated, load, load_stem
from test_cbs import component


def run_stem(stem, seed=0, **kw):
    decl, _, ch = load_stem(stem)
    sys = synthesize(decl, ch)
    return decl, sys, simulate(sys, seed, **kw)


class TestOutcomes:
    def test_simple_run_completes(self):
        decl, sys, res = run_stem("comm_sync")
        assert res.outcome == "completed"
        assert res.steps > 0

    def test_corpus_completes_for_several_seeds(self, corpus):
        for path, decl, name, ch in corpus:
            sys = synthesize(decl, ch)
            for seed in (0, 1):
                res = simulate(sys, seed)
                assert res.outcome == "completed", (path, seed)

    def test_deadlock(self):
        # Without its one interaction, the system cannot move at all.
        decl, _, ch = load_stem("comm_sync")
        res = simulate(MUTATIONS["drop-interaction"](synthesize(decl, ch)), 0)
        assert (res.outcome, res.steps) == ("deadlock", 0)
        assert json.loads(res.events[-1]) == {
            "outcome": "deadlock", "steps": 0, "final": {"A.x": 5, "B.y": 0}}

    def test_step_limit(self):
        decl, sys, res = run_stem("loop_countdown", max_steps=1)
        assert res.outcome == "step-limit"
        assert res.steps == 1


class TestSoundness:
    def test_finals_are_exploration_terminals(self, corpus):
        for path, decl, name, ch in corpus:
            sys = synthesize(decl, ch)
            terms = sys_explore(sys).terminals
            keys = user_variables(decl)
            projections = {project(t.sigma, keys) for t in terms}
            for seed in (0, 3):
                res = simulate(sys, seed)
                assert res.outcome == "completed", (path, seed)
                assert project(res.final.sigma, keys) in projections, path


class TestDeterminism:
    def test_same_seed_same_trace(self):
        _, _, a = run_stem("buying", seed=4)
        _, _, b = run_stem("buying", seed=4)
        assert trace_text(a) == trace_text(b)

    def test_different_seeds_may_differ(self):
        # The branching corpus entry has real nondeterminism to resolve.
        traces = {trace_text(run_stem("branch_two", seed=s)[2])
                  for s in range(8)}
        assert len(traces) > 1


class TestTraceFormat:
    def test_jsonl_schema(self):
        _, sys, res = run_stem("comm_async")
        lines = trace_text(res).splitlines()
        assert lines
        *events, summary = [json.loads(l) for l in lines]
        for ev in events:
            assert set(ev) == {"step", "comp", "rule", "ports", "locations"}
            assert ev["rule"] in ("synch-send", "asynch-send", "recv",
                                  "internal")
        assert set(summary) == {"outcome", "steps", "final"}
        assert summary["outcome"] == "completed"
        assert summary["steps"] == len(events)

    def test_steps_are_consecutive(self):
        _, _, res = run_stem("seq_chain")
        steps = [json.loads(l)["step"] for l in res.events[:-1]]
        assert steps == list(range(1, len(steps) + 1))


class TestBackpressure:
    def test_tiny_channel_capacity_still_completes(self):
        decl, _, ch = load_stem("producer_consumer")
        sys = synthesize(decl, ch)
        res = simulate(sys, 0, max_chan_len=1)
        assert res.outcome == "completed"

    def test_stall_under_backpressure_has_its_own_outcome(self):
        decl, _, ch = load_stem("producer_consumer")
        sys = synthesize(decl, ch)
        res = simulate(sys, 0, max_chan_len=0)
        assert res.outcome == "backpressure"
        assert not is_terminal(sys, res.final)
        assert sys_steps_tagged(sys, res.final)
        assert json.loads(res.events[-1])["outcome"] == "backpressure"

    def test_cli_reports_backpressure_and_exits_1(self, capsys):
        code = main(["simulate", corpus_path("producer_consumer"),
                     "--max-chan-len", "0"])
        out, _ = capsys.readouterr()
        assert code == 1
        assert out == "producer_consumer: backpressure after 2 step(s), seed 0\n"


def reference_simulate(sys, seed, max_steps=100_000, max_chan_len=MAX_LEN):
    """The per-turn scheduler the simulator started from: every turn
    recomputes all successors of the state and keeps the actor's own; the
    actor is found by scanning every port of every component, and for a send
    it must be the owner of the event's first port. Each trace line is one
    ``json.dumps`` of its fields, as the simulator's lines must read."""
    def actor(state, event, succ):
        rule, label = event.rules[0], event.label
        if rule in ("recv", "internal"):
            for comp, before, after in zip(sys.components, state.locations,
                                           succ.locations):
                if before != after:
                    return comp.id
            raise AssertionError("local step moved no component")
        for comp in sys.components:
            for p in comp.ports:
                if p.pid in label and p.is_send:
                    assert comp.id == event.ports[0].owner, (label, event.ports)
                    return comp.id
        raise AssertionError(f"no sender in label {label}")

    rngs = {c.id: random.Random(f"{seed}:{c.id}") for c in sys.components}
    state = sys.initial_state()
    events = []
    steps = 0
    while steps < max_steps:
        progressed = False
        for cid in [c.id for c in sys.components]:
            if steps >= max_steps:
                break
            succs = [(event, succ)
                     for event, succ in sys_steps_tagged(sys, state)
                     if all(len(q) <= max_chan_len for _, q in succ.buffers)
                     and actor(state, event, succ) == cid]
            if not succs:
                continue
            event, succ = succs[rngs[cid].randrange(len(succs))]
            steps += 1
            ports = sorted(event.label) if isinstance(event.label, frozenset) else []
            locs = {c.id: loc for c, loc in zip(sys.components, succ.locations)}
            events.append(json.dumps(
                {"step": steps, "comp": cid, "rule": event.rules[0], "ports": ports,
                 "locations": locs},
                sort_keys=True, separators=(",", ":")))
            state = succ
            progressed = True
        if not progressed:
            break
    succs = sys_steps_tagged(sys, state)
    if steps >= max_steps and succs:
        outcome = "step-limit"
    elif is_terminal(sys, state):
        outcome = "completed"
    elif succs:
        outcome = "backpressure"
    else:
        outcome = "deadlock"
    final = {k: state.sigma[k] for k in sorted(state.sigma.keys())}
    events.append(json.dumps({"outcome": outcome, "steps": steps, "final": final},
                             sort_keys=True, separators=(",", ":")))
    return RunResult(outcome=outcome, steps=steps, final=state, events=events)


class TestScheduler:
    @pytest.mark.parametrize("path", corpus_paths(),
                             ids=lambda p: p.rsplit("/", 1)[-1])
    def test_traces_match_per_turn_reference(self, path):
        decl, _, ch = load(path)
        for profile in PROFILES:
            sys = synthesize(decl, ch, profile)
            for seed in range(5):
                for kw in ({}, {"max_chan_len": 1}, {"max_chan_len": 0}, {"max_steps": 5}):
                    assert (trace_text(simulate(sys, seed, **kw))
                            == trace_text(reference_simulate(sys, seed, **kw))), \
                        (path, profile, seed, kw)

    @pytest.mark.parametrize("name", ["longchain", "interleave"])
    def test_generated_traces_match_per_turn_reference(self, name):
        # Capacity 0 is the one at which a synthesized system's step is
        # refused: no synthesized buffer ever holds two messages. Each
        # system runs fresh, then once equiv_check has filled its caches.
        for seed, profile in product((0, 1), PROFILES):
            decl, _, ch = parse_source(generated(name, seed))
            sys = synthesize(decl, ch, profile)
            for explored in (False, True):
                if explored:
                    assert equiv_check(decl, ch, sys).equivalent
                for kw in ({}, {"max_chan_len": 0}):
                    res = simulate(sys, seed, **kw)
                    assert trace_text(res) == trace_text(reference_simulate(sys, seed, **kw)), \
                        (name, seed, profile, explored, kw)
                    assert res.outcome == ("backpressure" if kw else "completed")

    def test_successors_computed_once_per_state(self, monkeypatch):
        # Every step goes through sys_steps_tagged, the explorer's successor
        # function: one component's on its turn, every component's once at
        # the end to classify the outcome.
        decl, _, ch = parse_source(generated("longchain", 0))
        sys = synthesize(decl, ch)
        calls = []

        def counting(*args):
            calls.append(args)  # keeps the state alive: ids stay unique
            return sys_steps_tagged(*args)

        monkeypatch.setattr(chorc.sim, "sys_steps_tagged", counting)
        res = simulate(sys, 0)
        assert res.outcome == "completed" and res.steps == 132
        turns = [(id(state), cis) for _, state, cis in calls[:-1]]
        assert len(set(turns)) == len(turns) and all(len(cis) == 1 for _, cis in turns)
        assert len(calls[-1]) == 2
        # A component known to start nothing is not asked on its turn.
        assert len(calls) == 225 and len(turns) < turns_taken(sys, res)
        # Once equiv_check has explored the system, its caches rule more
        # turns out, and the trace stays the same.
        assert equiv_check(decl, ch, sys).equivalent
        del calls[:]
        assert simulate(sys, 0).events == res.events
        assert len(calls) == 133


def turns_taken(sys, res) -> int:
    """The turns the round-robin scheduler gave in run ``res``: up to each
    step's actor, then a full idle round unless the step limit ended it."""
    index = {c.id: i for i, c in enumerate(sys.components)}
    n, last, turns = len(sys.components), -1, 0
    for line in res.events[:-1]:
        actor = index[json.loads(line)["comp"]]
        turns += (actor - last - 1) % n + 1
        last = actor
    return turns if res.outcome == "step-limit" else turns + n


def escaping_system() -> CompositeSystem:
    """Component ids and locations that JSON must escape: a quote, a
    backslash and non-ASCII letters. Q sends twice asynchronously to B,
    then once synchronously; C steps alone: seven steps in all."""
    q, b, c = 'Q"', "B\\", "Ç"
    qx, by, cz = Variable("x", q, "int"), Variable("y", b, "int"), Variable("z", c, "int")
    qa, qp = Port("a", q, qx, "as"), Port("p", q, qx, "ss")
    br, bs = Port("r", b, by, "r"), Port("s", b, by, "r")
    ci = Port("i", c, cz, "in")
    inc = Update(((qx.qname, BinOp("+", Ref(qx.qname), Lit(1))),))
    sender = component(q, [(qx, 0)], [qa, qp], [
        Transition('l"0', qa, TRUE, inc, "l\\1"),
        Transition("l\\1", qa, TRUE, inc, "ñ2"),
        Transition("ñ2", qp, TRUE, SKIP, "é3")], 'l"0', "é3")
    receiver = component(b, [(by, 0)], [br, bs], [
        Transition('m"0', br, TRUE, SKIP, 'm"1'),
        Transition('m"1', br, TRUE, SKIP, "m\\2"),
        Transition("m\\2", bs, TRUE, SKIP, "ü3")], 'm"0', "ü3")
    alone = component(c, [(cz, 0)], [ci], [
        Transition("ç0", ci, TRUE, Update(((cz.qname, Lit(1)),)), "ç1"),
        Transition("ç1", None, TRUE, SKIP, "Ω2")], "ç0", "Ω2")
    return CompositeSystem((sender, receiver, alone),
                           (Interaction(qa, (br,)), Interaction(qp, (bs,))))


def lazy_system() -> CompositeSystem:
    """A sends synchronously into C's receive port at C's initial location
    L1, where C also has a silent transition whose guard divides by C.z =
    0: A's send moves C on before C's first turn."""
    ax, cz = Variable("x", "A", "int"), Variable("z", "C", "int")
    ap, cr = Port("p", "A", ax, "ss"), Port("r", "C", cz, "r")
    a = component("A", [(ax, 1)], [ap], [Transition("a0", ap, TRUE, SKIP, "a1")], "a0", "a1")
    c = component("C", [(cz, 0)], [cr], [
        Transition("L1", cr, TRUE, SKIP, "L2"),
        Transition("L1", None, BinOp(">", BinOp("/", Lit(1), Ref("C.z")), Lit(0)), SKIP, "L3"),
    ], "L1", "L2")
    return CompositeSystem((a, c), (Interaction(ap, (cr,)),))


class TestIdleTurns:
    @pytest.mark.parametrize("kw", [{}, {"max_chan_len": 1}, {"max_steps": 5}])
    def test_escaped_ids_and_locations_match_the_reference(self, kw):
        sys = escaping_system()
        for seed in range(5):
            text = trace_text(simulate(sys, seed, **kw))
            assert text == trace_text(reference_simulate(sys, seed, **kw)), (seed, kw)
            assert '"Q\\"":"l\\\\1"' in text and "\\u00c7" in text
        assert simulate(sys, 0, **kw).outcome == ("step-limit" if kw.get("max_steps") else
                                                  "completed")

    def test_escaped_ids_and_locations_under_backpressure_match_the_reference(self):
        # At capacity 0, Q's first asynchronous send is refused for good.
        sys = escaping_system()
        for seed in range(5):
            res = simulate(sys, seed, max_chan_len=0)
            text = trace_text(res)
            assert text == trace_text(reference_simulate(sys, seed, max_chan_len=0)), seed
            assert '"Q\\"":"l\\"0"' in text and "\\u00c7" in text
            assert (res.outcome, res.steps) == ("backpressure", 2)

    def test_no_guard_runs_for_a_component_whose_turn_it_is_not(self, monkeypatch):
        sys = lazy_system()
        assert trace_text(simulate(sys, 0)) == (
            '{"comp":"A","locations":{"A":"a1","C":"L2"},"ports":["A.p","C.r"],'
            '"rule":"synch-send","step":1}\n'
            '{"final":{"A.x":1,"C.z":1},"outcome":"completed","steps":1}\n')
        # Filling every component's cache, as the run's first read would if
        # it filled misses, runs C's guard.
        monkeypatch.setattr(chorc.sim, "known_steps", lambda sys, state: [
            pos[part] for pos, part in zip(sys._steps, state)])
        with pytest.raises(EvalError, match="division by zero"):
            simulate(lazy_system(), 0)


class LoggedRandom(random.Random):
    """A ``random.Random`` that records each generator made, under its seed,
    and the candidate count of each ``randrange`` call on it."""
    made: list = []

    def __init__(self, x):
        self.name, self.draws = x, []
        super().__init__(x)
        LoggedRandom.made.append(self)

    def randrange(self, k):
        self.draws.append(k)
        return super().randrange(k)


def draw_logs(run):
    """The draws of each generator made during ``run()``, by seed string."""
    LoggedRandom.made = []
    result = run()
    logs = {}
    for rng in LoggedRandom.made:
        assert rng.name not in logs
        logs[rng.name] = rng.draws
    return result, logs


class TestLazyGenerators:
    """The simulator makes a component's generator only at its first real
    choice, and replays the one-candidate draws its component made before as
    ``randrange(1)`` calls: every stream receives an eager generator's calls
    up to its last real choice."""

    def test_streams_are_an_eager_generators_up_to_the_last_real_choice(self, monkeypatch):
        inputs = [(stem, load_stem(stem)) for stem in
                  ("branch_two", "branch_in_loop", "buying", "microservice")]
        inputs.append(("interleave", parse_source(generated("interleave", 0))))
        systems = [(name, profile, synthesize(decl, ch, profile))
                   for name, (decl, _, ch) in inputs for profile in PROFILES]
        monkeypatch.setattr(random, "Random", LoggedRandom)
        before_first = set()
        between = set()
        for name, profile, sys in systems:
            for seed in range(20):
                eager_res, eager = draw_logs(lambda: reference_simulate(sys, seed))
                lazy_res, lazy = draw_logs(lambda: simulate(sys, seed))
                where = (name, profile, seed)
                assert trace_text(lazy_res) == trace_text(eager_res), where
                assert len(eager) == len(sys.components), where
                # One generator per choosing component, none for the rest.
                choosing = {key for key, draws in eager.items() if max(draws, default=0) > 1}
                assert set(lazy) == choosing, where
                for key in choosing:
                    draws = eager[key]
                    real = [i for i, k in enumerate(draws) if k > 1]
                    assert lazy[key] == draws[:real[-1] + 1], (where, key)
                    if real[0] > 0:
                        before_first.add(name)
                    if any(draws[i] == 1 for i in range(real[0], real[-1])):
                        between.add(where)
        # Both replays matter in this sample: a component draws from one
        # candidate before its first real choice, and one between two.
        assert {"interleave", "branch_in_loop", "buying", "microservice"} <= before_first
        assert {name for name, _, _ in between} == {"branch_in_loop"}
        assert len(between) == 40

    def test_no_generator_without_a_real_choice(self, monkeypatch):
        # No longchain component ever has two candidates on its turn.
        decl, _, ch = parse_source(generated("longchain", 0))
        sys = synthesize(decl, ch)
        monkeypatch.setattr(random, "Random", LoggedRandom)
        res, lazy = draw_logs(lambda: simulate(sys, 0))
        assert res.outcome == "completed" and lazy == {}
