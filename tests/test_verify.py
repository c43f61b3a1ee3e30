"""Tests for the equivalence oracle, invariants and mutation operators."""

import dataclasses

from chorc import cbs
from chorc.cbs import check_structure
from chorc.cli import main
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import (
    MUTATIONS, equiv_check, invariant_suite, project,
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

    def test_tight_limits_give_inconclusive(self):
        decl, _, ch = load_stem("microservice")
        rep = equiv_check(decl, ch, synthesize(decl, ch), max_configs=10,
                          max_depth=2)
        assert rep.verdict == "inconclusive"


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


class TestMutations:
    def test_five_operators_registered(self):
        assert set(MUTATIONS) == {
            "drop-eps", "swap-break-guard", "merge-port-copies",
            "drop-interaction", "unmark-end",
        }

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
