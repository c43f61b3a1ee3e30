"""Tests for the equivalence oracle, invariants and mutation operators."""

import dataclasses
import gc
import weakref

import pytest

from chorc import cbs, verify
from chorc.cbs import check_structure
from chorc.core import EvalError
from chorc.cli import main
from chorc.parser import parse_source
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import (
    MUTATIONS, EquivReport, equiv_check, invariant_suite, project,
    user_variables,
)

from conftest import corpus_path, load_stem


class TestProjection:
    def test_user_variables_are_declared_only(self):
        decl, _, ch = load_stem("branch_two")
        names = user_variables(decl)
        assert all("." in n and "%" not in n for n in names)
        assert names == tuple(sorted(names))

    def test_project_follows_key_order(self):
        from chorc.core import Valuation
        sigma = Valuation({"A.x": 1, "B.y": 2, "C.z": 3})
        assert project(sigma, ("B.y", "A.x")) == (2, 1)


class TestEquivalence:
    def test_corpus_equivalent_under_both_profiles(self, corpus):
        for path, decl, name, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                rep = equiv_check(decl, ch, sys)
                assert rep.equivalent, (path, profile, rep.reasons)
                assert rep.verdict == "equivalent"

    def test_report_counts_populated(self):
        decl, _, ch = load_stem("comm_sync")
        rep = equiv_check(decl, ch, synthesize(decl, ch))
        assert rep.chor_states >= 1 and rep.sys_states >= 1
        assert rep.chor_finals == rep.sys_finals
        assert len(rep.chor_finals) == 1

    def test_deadlocks_on_both_sides_are_a_mismatch(self):
        # A send whose guard never holds blocks the choreography and the
        # system alike, and neither reaches a final state.
        with open(corpus_path("comm_sync")) as fh:
            text = fh.read()
        decl, _, ch = parse_source(text.replace("A.p[x > 0,", "A.p[false,"))
        rep = equiv_check(decl, ch, synthesize(decl, ch))
        assert rep.verdict == "mismatch"
        assert rep.reasons == ["choreography deadlocks in 1 configuration(s)",
                               "system deadlocks in 1 state(s)"]

    def test_tight_limits_give_inconclusive(self):
        decl, _, ch = load_stem("microservice")
        rep = equiv_check(decl, ch, synthesize(decl, ch), max_configs=10,
                          max_depth=2)
        assert rep.verdict == "inconclusive"


def count_explorations(monkeypatch) -> list:
    """The terms ``equiv_check`` explores from now on, one per exploration."""
    calls, body = [], verify.explore
    monkeypatch.setattr(verify, "explore", lambda ch, *args, **kwargs:
                        calls.append(ch) or body(ch, *args, **kwargs))
    return calls


#: Limits under which every corpus mutant's system is explored in full.
MUTANT_LIMITS = {"max_configs": 50_000, "max_depth": 5_000}


class TestChoreographySide:
    """``equiv_check`` explores a choreography once per (declarations,
    term, limits) and keeps the summary on the declarations object."""

    def test_once_for_both_profiles_and_every_mutant(self, monkeypatch):
        calls = count_explorations(monkeypatch)
        decl, _, ch = load_stem("buying")
        reports = []
        for profile in PROFILES:
            sys = synthesize(decl, ch, profile)
            reports.append(equiv_check(decl, ch, sys))
            reports += [equiv_check(decl, ch, mutate(sys)) for mutate in MUTATIONS.values()]
        assert calls == [ch] and len(reports) == 2 * (1 + len(MUTATIONS))
        assert all(r.chor_finals == reports[0].chor_finals for r in reports)
        # Each report has a set of its own.
        assert len({id(r.chor_finals) for r in reports}) == len(reports)
        equiv_check(decl, ch, sys, max_configs=100_000)
        assert calls == [ch, ch]

    def test_a_truncated_summary_is_kept_under_its_own_limits(self):
        decl, _, ch = load_stem("buying")
        sys = synthesize(decl, ch)
        assert equiv_check(decl, ch, sys, max_configs=1).verdict == "inconclusive"
        assert equiv_check(decl, ch, sys).verdict == "equivalent"
        assert equiv_check(decl, ch, sys, max_configs=1).verdict == "inconclusive"

    def test_an_exploration_that_raises_keeps_nothing(self, monkeypatch):
        calls = count_explorations(monkeypatch)
        with open(corpus_path("comm_sync")) as fh:
            text = fh.read()
        decl, _, ch = parse_source(text.replace("x := x - 1", "x := x / 0"))
        sys = synthesize(decl, ch)
        for _ in range(2):
            with pytest.raises(EvalError, match="division by zero"):
                equiv_check(decl, ch, sys)
        assert len(calls) == 2 and decl._chor_sides == {}

    def test_the_summary_dies_with_its_declarations(self):
        decl, _, ch = load_stem("seq_chain")
        gc.collect()
        gc.disable()
        try:
            rep = equiv_check(decl, ch, synthesize(decl, ch))
            assert rep.equivalent and len(decl._chor_sides) == 1
            # synthesize's well-formedness check is kept on them too.
            assert list(decl._checks) == [ch]
            alive = weakref.ref(decl)
            del decl, ch
            assert alive() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memoized_reports_match_fresh_declarations(self, corpus):
        # Every corpus file under both profiles, the system and each of its
        # mutants: the report read from the summary kept on the fixture's
        # declarations equals that of a check that explores cold.
        for path, decl, _, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                for system in [sys] + [mutate(sys) for mutate in MUTATIONS.values()]:
                    if system is None:
                        continue
                    memoized = equiv_check(decl, ch, system, **MUTANT_LIMITS)
                    cold = equiv_check(dataclasses.replace(decl), ch, system, **MUTANT_LIMITS)
                    for f in dataclasses.fields(EquivReport):
                        assert getattr(memoized, f.name) == getattr(cold, f.name), \
                            (path, profile, f.name)
            assert (ch, *MUTANT_LIMITS.values()) in decl._chor_sides, path


class TestInvariantSuite:
    def test_clean_on_corpus(self, corpus):
        for path, decl, name, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                assert invariant_suite(sys) == [], (path, profile)

    def test_flags_missing_end(self):
        decl, _, ch = load_stem("comm_sync")
        sys = synthesize(decl, ch)
        broken = dataclasses.replace(
            sys,
            components=tuple(dataclasses.replace(c, end=None)
                             for c in sys.components))
        assert any(d.code == "no-end" for d in invariant_suite(broken))

    def test_flags_each_component_by_its_own_end(self):
        # The mutant forgets the first component's end; the second keeps
        # its end, from which no transition leaves. An end at the initial
        # location, which a transition leaves, is flagged too.
        decl, _, ch = load_stem("comm_sync")
        sys = synthesize(decl, ch)
        mutant = MUTATIONS["unmark-end"](sys)
        assert [(d.code, d.message) for d in invariant_suite(mutant)] == [
            ("no-end", "A: no end location marked")]
        a = sys.components[0]
        early = sys.derive(components=(dataclasses.replace(a, end=a.init), *sys.components[1:]))
        assert [(d.code, d.message) for d in invariant_suite(early)] == [
            ("end-not-final", "A: end location LA_0 has outgoing transitions")]


class TestStructureCheckedOnce:
    def test_one_equiv_call_checks_once(self, monkeypatch, capsys):
        calls = []
        body = cbs._structure_diagnostics
        monkeypatch.setattr(cbs, "_structure_diagnostics",
                            lambda sys: calls.append(sys) or body(sys))
        assert main(["equiv", corpus_path("buying")]) == 0
        assert "equivalent" in capsys.readouterr().out
        assert len(calls) == 1

    def test_fresh_list_and_recomputed_for_mutants(self):
        decl, _, ch = load_stem("buying")
        base = synthesize(decl, ch)
        first = check_structure(base)
        first.append("scribbled")
        assert check_structure(base) == [] and invariant_suite(base) == []
        mutant = MUTATIONS["drop-interaction"](base)
        assert "unconnected-port" in {d.code for d in check_structure(mutant)}
        replaced = dataclasses.replace(base, gamma=base.gamma[1:])
        assert "_diagnostics" not in vars(replaced)
        assert check_structure(replaced) == check_structure(mutant)

    def test_mutants_skip_the_declarations_check(self, monkeypatch):
        # A mutant that keeps its parent's ids, variables and ports steps
        # without checking the declarations again; its structure report
        # still has their findings checked.
        decl, _, ch = load_stem("buying")
        base = synthesize(decl, ch)
        base.initial_state()
        calls, body = [], cbs._declarations
        monkeypatch.setattr(cbs, "_declarations", lambda comps: calls.append(comps) or body(comps))
        for mutate in MUTATIONS.values():
            mutate(base).initial_state()
        assert calls == []
        cold = dataclasses.replace(base)
        cold.initial_state()
        assert calls == [cold.components]
        mutant = MUTATIONS["drop-interaction"](base)
        assert check_structure(mutant) == check_structure(dataclasses.replace(mutant))
        assert len(calls) == 3


class TestMutations:
    def test_five_operators_registered(self):
        assert set(MUTATIONS) == {
            "drop-eps", "swap-break-guard", "merge-port-copies",
            "drop-interaction", "unmark-end",
        }

    def test_sites_where_an_operator_does_not_apply(self):
        """B, a participant of A's loop, is declared first, so the break
        guards are swapped past B's receive of the break, on A alone, and
        with every component's transitions reversed, the break is met
        before its entry at the loop head, and the same guards are
        swapped; the merged send copy is used by no transition of the
        mutant, which merges nothing more; and no end is left to unmark
        after two."""
        decl, _, ch = parse_source(
            "comp B { var y: int = 0; port r: r of int binds y; }\n"
            "comp A { var x: int = 0; port s: ss of int binds x; }\n"
            "choreography t = while (A.s[x < 3, x := x + 1]) { A.s -> { B.r } } ; A.s -> { B.r }")
        for profile in PROFILES:
            sys = synthesize(decl, ch, profile)
            swapped = MUTATIONS["swap-break-guard"](sys)
            assert [a is b for a, b in zip(swapped.components, sys.components)] == [True, False]
            reversed_sys = sys.derive(components=tuple(
                dataclasses.replace(c, transitions=c.transitions[::-1]) for c in sys.components))
            reswapped = MUTATIONS["swap-break-guard"](reversed_sys)
            assert reswapped.components[1].transitions == swapped.components[1].transitions[::-1]
            merged = MUTATIONS["merge-port-copies"](sys)
            assert merged is not None and MUTATIONS["merge-port-copies"](merged) is None
            unmarked = MUTATIONS["unmark-end"](MUTATIONS["unmark-end"](sys))
            assert [c.end for c in unmarked.components] == [None, None]
            assert MUTATIONS["unmark-end"](unmarked) is None

    def test_each_mutation_flips_some_corpus_verdict(self, corpus):
        flipped = {m: False for m in MUTATIONS}
        for path, decl, name, ch in corpus:
            sys = synthesize(decl, ch)
            for mname, mfn in MUTATIONS.items():
                if flipped[mname]:
                    continue
                mutated = mfn(sys)
                if mutated is None:
                    continue
                rep = equiv_check(decl, ch, mutated, max_configs=50_000,
                                  max_depth=5_000)
                if rep.verdict != "equivalent":
                    flipped[mname] = True
            if all(flipped.values()):
                break
        assert all(flipped.values()), flipped

    def test_mutants_get_fresh_tables_and_are_refuted(self):
        decl, _, ch = load_stem("buying")
        base = synthesize(decl, ch)
        assert equiv_check(decl, ch, base).equivalent  # builds base's tables
        for mname, mfn in MUTATIONS.items():
            mutant = mfn(base)
            assert mutant is not None, mname
            assert "_steps" not in vars(mutant), mname
            for comp in mutant.components:
                for loc in comp.locations:
                    assert comp.outgoing(loc) == tuple(
                        t for t in comp.transitions if t.src == loc), (mname, loc)
            assert equiv_check(decl, ch, mutant).verdict != "equivalent", mname
