"""Tests for the deterministic simulation harness."""

import json
import random

import pytest

import chorc.sim
from chorc.cbs import component_steps, is_terminal, sys_explore, sys_steps_tagged
from chorc.cli import main
from chorc.promela import MAX_LEN
from chorc.sim import RunResult, _event_line, simulate, trace_text
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import MUTATIONS, project, user_variables

from conftest import corpus_path, corpus_paths, load, load_stem


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
    it must be the owner of the event's first port."""
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
            events.append(_event_line(steps, cid, event, succ, sys))
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
                for kw in ({}, {"max_chan_len": 1}, {"max_steps": 5}):
                    assert (trace_text(simulate(sys, seed, **kw))
                            == trace_text(reference_simulate(sys, seed, **kw))), \
                        (path, profile, seed, kw)

    def test_successors_computed_once_per_state(self, monkeypatch):
        decl, _, ch = load_stem("buying")
        sys = synthesize(decl, ch)
        turns, classified = [], []

        def counting_component(sys, state, ci):
            turns.append((state, ci))  # keeps the state alive: ids stay unique
            return component_steps(sys, state, ci)

        def counting_all(*args):
            classified.append(args)
            return sys_steps_tagged(*args)

        monkeypatch.setattr(chorc.sim, "component_steps", counting_component)
        monkeypatch.setattr(chorc.sim, "sys_steps_tagged", counting_all)
        res = simulate(sys, 4)
        assert res.outcome == "completed"
        assert len({(id(state), ci) for state, ci in turns}) == len(turns)
        assert len(classified) == 1
