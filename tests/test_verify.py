"""Tests for the equivalence oracle, invariants and mutation operators."""

import dataclasses
import gc
import re
import weakref

import pytest

from chorc import cbs, verify
from chorc.cbs import CompositeSystem, check_structure
from chorc.chorsem import explore
from chorc.core import EvalError
from chorc.cli import main
from chorc.parser import parse_source
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import (
    MUTATIONS, EquivReport, equiv_check, invariant_suite, project,
    user_variables,
)

from conftest import corpus_path, generated, load_stem


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


# --------------------------------------------------------------------------
# The system side against one whole-system exploration
# --------------------------------------------------------------------------

#: (max_configs, max_depth): the defaults; a store too small for one group
#: of interleave, one too small for their product, one too small for the
#: whole of interleave; and a depth below the sum of the groups' sizes.
ORACLE_LIMITS = ((200_000, 10_000), (5, 10_000), (40, 10_000), (1000, 10_000), (200_000, 3))


def whole_system_report(decl, ch, sys, limits, chors):
    """What ``equiv_check(decl, ch, sys, *limits)`` reports, built here from
    one exploration of ``ch``, kept in ``chors`` per limits, and one
    exploration of the whole of ``sys``: its fields as a dict, or the text
    of the ``EvalError`` that either exploration or a projection raises."""
    keys = tuple(sorted(decl.type_env()))
    try:
        if limits not in chors:
            chors[limits] = explore(ch, decl.initial_valuation(), *limits)
        chor, res = chors[limits], cbs.sys_explore(sys, *limits)
        finals = [{tuple([s[k] for k in keys]) for s in side.finals} for side in (chor, res)]
    except EvalError as e:
        return str(e)
    if chor.truncated or res.truncated:
        verdict, reasons = "inconclusive", ["state-space exploration truncated by limits"]
    else:
        only_chor, only_sys = len(finals[0] - finals[1]), len(finals[1] - finals[0])
        reasons = [text for n, text in (
            (len(chor.deadlocks), f"choreography deadlocks in {len(chor.deadlocks)} configuration(s)"),
            (len(res.deadlocks), f"system deadlocks in {len(res.deadlocks)} state(s)"),
            (only_chor, f"{only_chor} final state(s) reachable only in the choreography"),
            (only_sys, f"{only_sys} final state(s) reachable only in the system")) if n]
        verdict = "mismatch" if reasons else "equivalent"
    return {"verdict": verdict, "chor_states": len(chor.ends), "sys_states": len(res.ends),
            "chor_finals": finals[0], "sys_finals": finals[1],
            "chor_deadlocks": len(chor.deadlocks), "sys_deadlocks": len(res.deadlocks),
            "reasons": reasons}


def report_fields(decl, ch, sys, limits):
    """``equiv_check``'s report as a dict of its fields, or the text of the
    ``EvalError`` it raises."""
    try:
        report = equiv_check(decl, ch, sys, *limits)
    except EvalError as e:
        return str(e)
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(EquivReport)}


def assert_as_whole(decl, ch, systems, where, limits_list=ORACLE_LIMITS):
    """Each report of ``systems`` against ``ch`` under each limits equals,
    field by field, the one a whole-system exploration gives."""
    chors = {}
    for limits in limits_list:
        for n, sys in enumerate(systems):
            got = report_fields(decl, ch, sys, limits)
            assert got == whole_system_report(decl, ch, sys, limits, chors), (where, n, limits)


def with_mutants(sys) -> list:
    """``sys`` and each mutant that ``MUTATIONS`` makes of it."""
    return [sys] + [m for m in (mutate(sys) for mutate in MUTATIONS.values()) if m is not None]


def renamed(text: str, ids, suffix: str) -> str:
    """``text`` with every component id of ``ids`` renamed ``id + suffix``."""
    return re.sub(r"\b(%s)\b" % "|".join(map(re.escape, ids)), r"\g<1>" + suffix, text)


def composed(text: str, k: int) -> str:
    """``t || t1 || ...``, ``k`` operands, for the source ``text`` of ``t``,
    each further operand ``t`` with its component ids renamed."""
    decl, name, _ = parse_source(text)
    head, term = text.split(f"choreography {name} =")
    copies = [(head, term)] + [(renamed(head, decl.component_ids(), f"r{j}"),
                                renamed(term, decl.component_ids(), f"r{j}"))
                               for j in range(1, k)]
    return "".join(h for h, _ in copies) + "choreography composed = " + \
        " || ".join(f"( {t.strip()} )" for _, t in copies)


def record_explorations(monkeypatch) -> list:
    """A list to which each ``sys_explore`` that ``verify`` makes appends
    the number of states it stores and the positions it fires."""
    stored, body = [], verify.sys_explore
    monkeypatch.setattr(verify, "sys_explore", lambda *args, **kwargs: (
        lambda res: stored.append((len(res.states), kwargs.get("cis"))) or res)(
            body(*args, **kwargs)))
    return stored


def two_groups(extra: str = "") -> str:
    """Two pairs that never interact, A with B and C with D."""
    return ("comp A { var x: int = 1; var y: int = 0; port p: ss of int binds x; }\n"
            "comp B { var u: int = 0; port q: r of int binds u; }\n"
            "comp C { var z: int = 1; var w: int = 0; port p: ss of int binds z; }\n"
            "comp D { var v: int = 0; port q: r of int binds v; }\n" + extra)


class TestSystemSide:
    """``equiv_check`` explores each group of a system (``cbs``'s
    ``CompositeSystem._groups``) once and sums them up, or explores the
    whole system where that could tell otherwise: every report equals the
    one of one whole-system exploration."""

    def test_corpus_and_mutants(self, corpus):
        # Each file as it is and with a first component that takes no part,
        # a group of its own, so that a group alone can be truncated.
        for path, decl, _, ch in corpus:
            with open(path) as fh:
                idle, _, same = parse_source("comp Idle { var e: int = 3; }\n" + fh.read())
            for decl, ch in ((decl, ch), (idle, same)):
                for profile in PROFILES:
                    assert_as_whole(decl, ch, with_mutants(synthesize(decl, ch, profile)),
                                    (path, len(decl.components), profile))

    @pytest.mark.parametrize("name", ["interleave", "longchain"])
    def test_generated_and_mutants(self, name):
        for seed in range(4):
            decl, _, ch = parse_source(generated(name, seed))
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                assert len(sys._groups) == (3 if name == "interleave" else 1)
                assert_as_whole(decl, ch, with_mutants(sys), (name, seed, profile))

    def test_compositions_multiply_the_states(self, corpus):
        # t || t1 and t || t1 || t2, t1 and t2 being t with renamed
        # components, for each corpus term whose system stores at most 10
        # states: their groups never meet, so the system stores n ** k.
        small = 0
        for path, decl, _, ch in corpus:
            sizes = [len(cbs.sys_explore(synthesize(decl, ch, p)).states) for p in PROFILES]
            if max(sizes) > 10:
                continue
            small += 1
            with open(path) as fh:
                text = fh.read()
            for k in (2, 3):
                cdecl, _, cch = parse_source(composed(text, k))
                for profile, n in zip(PROFILES, sizes):
                    sys = synthesize(cdecl, cch, profile)
                    assert len(sys._groups) == k * len(synthesize(decl, ch, profile)._groups)
                    assert equiv_check(cdecl, cch, sys).sys_states == n ** k, (path, k, profile)
                    assert_as_whole(cdecl, cch, [sys], (path, k, profile), ORACLE_LIMITS[:1])
        assert small >= 10

    @pytest.mark.parametrize("profile", PROFILES)
    def test_interleave_stores_each_group_once(self, monkeypatch, profile):
        # interleave's system is 18 x 18 x 24 states under the default
        # profile and 18 x 18 x 14 under compat: the check stores the
        # groups' 60 or 50, not their product, as long as the product fits
        # in max_configs and its depth in max_depth. One state or one level
        # less, and the last group is cut short and the whole system
        # explored. longchain's one group is the whole system.
        stored = record_explorations(monkeypatch)
        decl, _, ch = parse_source(generated("interleave", 7))
        sys = synthesize(decl, ch, profile)
        sizes = {"default": (18, 18, 24), "compat": (18, 18, 14)}[profile]
        product = sizes[0] * sizes[1] * sizes[2]
        levels = cbs.sys_explore(sys).levels
        for limits in ((200_000, 10_000), (product, 10_000), (200_000, levels)):
            del stored[:]
            report = equiv_check(decl, ch, sys, *limits)
            assert report.equivalent and report.sys_states == product
            assert stored == list(zip(sizes, sys._groups))
        del stored[:]
        assert equiv_check(decl, ch, sys, max_configs=product - 1).verdict == "inconclusive"
        assert stored == [*zip(sizes[:2], sys._groups), (sizes[2] - 1, sys._groups[2]),
                          (product - 1, None)]
        del stored[:]
        assert equiv_check(decl, ch, sys, max_depth=levels - 1).verdict == "inconclusive"
        assert stored[:2] == list(zip(sizes[:2], sys._groups))
        assert [cis for _, cis in stored[2:]] == [sys._groups[2], None]
        decl, _, ch = parse_source(generated("longchain", 7))
        del stored[:]
        assert equiv_check(decl, ch, synthesize(decl, ch, profile)).equivalent
        assert [cis for _, cis in stored] == [None]

    def test_a_large_group_beside_an_idle_one_is_explored_once(self, monkeypatch):
        # interleave's three lanes, one with three rounds, joined into one
        # group by a last interaction, beside a component that takes no
        # part: the large group stores its 10,810 states once, though
        # there are more of them than max_depth levels.
        stored = record_explorations(monkeypatch)
        head, term = generated("interleave", 7).split("choreography interleave =")
        decl, _, ch = parse_source(
            "comp Idle { var e: int = 3; }\n" + head + "choreography joined = ("
            + term.replace("n > 36", "n > 35").strip() + ") ; ivP0.s -> { cyC1.r, joW2.q }")
        sys = synthesize(decl, ch)
        assert sys._groups == ((0,), tuple(range(1, 7)))
        assert equiv_check(decl, ch, sys).sys_states == 10_810
        assert stored == [(1, (0,)), (10_810, sys._groups[1])]
        assert_as_whole(decl, ch, [sys], "joined", ORACLE_LIMITS[:1])

    def test_the_first_error_of_the_whole_system_is_raised(self):
        # A's guard divides by zero one step in, C's takes the remainder
        # by zero at once: the whole system meets C's first, the groups
        # in their order A's.
        decl, _, ch = parse_source(two_groups("choreography t = nil"))
        bad, _, term = parse_source(two_groups(
            "choreography t = ( A.p[true, x := x + 1] -> { B.q } ; A.p[x / y > 0] -> { B.q } )"
            " || ( C.p[z mod w > 0] -> { D.q } )"))
        for profile in PROFILES:
            sys = synthesize(bad, term, profile)
            assert len(sys._groups) == 2
            with pytest.raises(EvalError, match="^modulo by zero$"):
                equiv_check(decl, ch, sys)
            assert_as_whole(decl, ch, [sys], profile)
            # Each group alone raises its own.
            with pytest.raises(EvalError, match="^division by zero$"):
                cbs.sys_explore(sys, cis=sys._groups[0])

    def test_an_absent_sender_or_component(self):
        # C, the sender of C.p -> { D.q }, is dropped: the interaction
        # never fires and D waits for ever, alone in its group. Against
        # declarations without C, every key is held; against ones with C,
        # C.z is held by no group, and the whole system is explored.
        text = two_groups("choreography t = ( A.p[true, x := 0] -> { B.q } )"
                          " || ( C.p -> { D.q[v := v + 1] } )")
        decl, _, ch = parse_source(text)
        without_c = "\n".join(line for line in text.splitlines() if not line.startswith("comp C"))
        small, _, pair = parse_source(without_c.replace("|| ( C.p -> { D.q[v := v + 1] } )", ""))
        for profile in PROFILES:
            sys = synthesize(decl, ch, profile)
            dropped = dataclasses.replace(sys, components=tuple(
                c for c in sys.components if c.id != "C"))
            assert [[dropped.components[i].id for i in cis] for cis in dropped._groups] == \
                [["A", "B"], ["D"]]
            assert_as_whole(small, pair, [dropped], profile)
            assert_as_whole(decl, ch, [dropped], profile)
            assert equiv_check(small, pair, dropped).sys_deadlocks >= 1

    def test_no_component(self):
        # No group: the whole system, one terminated state, is explored;
        # against declarations with a variable its projection raises.
        empty = CompositeSystem((), ())
        assert empty._groups == ()
        for source in ("choreography t = nil", two_groups("choreography t = nil")):
            decl, _, ch = parse_source(source)
            assert_as_whole(decl, ch, [empty], source)
        decl, _, ch = parse_source(two_groups("choreography t = nil"))
        with pytest.raises(EvalError, match="^unbound variable 'A.x'$"):
            equiv_check(decl, ch, empty)

    def test_groups_are_the_connected_components(self, corpus):
        # Each corpus system, with a component that takes no part, and the
        # same with its components in reverse order, so that senders come
        # after their receivers: its groups are the connected components
        # of the graph that joins each interaction's sender, where the
        # system holds it, to its receivers, found here by search, each in
        # position order and ordered by their first positions.
        def reference(sys):
            ids = [c.id for c in sys.components]
            links = {i: set() for i in ids}
            for inter in sys.gamma:
                if inter.send.owner in links:
                    for r in inter.receivers:
                        links[inter.send.owner].add(r.owner)
                        links[r.owner].add(inter.send.owner)
            groups, seen = [], set()
            for cid in ids:
                if cid not in seen:
                    found, todo = {cid}, [cid]
                    while todo:
                        for n in links[todo.pop()] - found:
                            found.add(n)
                            todo.append(n)
                    seen |= found
                    groups.append(tuple(i for i, c in enumerate(ids) if c in found))
            return tuple(groups)

        for path, _, _, _ in corpus:
            with open(path) as fh:
                decl, _, ch = parse_source("comp Idle { var e: int = 3; }\n" + fh.read())
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                flipped = dataclasses.replace(sys, components=sys.components[::-1])
                for system in (sys, flipped):
                    assert system._groups == reference(system), (path, profile)
                assert_as_whole(decl, ch, [flipped], (path, profile), ORACLE_LIMITS[:1])

    def test_every_step_goes_through_sys_steps_tagged(self, monkeypatch):
        # A wrapper of cbs.sys_steps_tagged, as the benchmark's tracer is,
        # sees one call per expanded state, of a group's exploration as of
        # the whole system's.
        decl, _, ch = parse_source(generated("interleave", 7))
        sys = synthesize(decl, ch)
        calls, body = [], cbs.sys_steps_tagged
        monkeypatch.setattr(cbs, "sys_steps_tagged", lambda *args: calls.append(args) or body(*args))
        for cis in (None, *sys._groups):
            del calls[:]
            res = cbs.sys_explore(sys, cis=cis)
            assert len(calls) == len(res.ends) == len(res.states), cis

    def test_groups_follow_positions(self):
        decl, _, ch = parse_source(generated("interleave", 0))
        sys = synthesize(decl, ch)
        groups = sys._groups
        assert [i for cis in groups for i in cis] == list(range(len(sys.components)))
        assert [cis[0] for cis in groups] == sorted(cis[0] for cis in groups)
        for inter in sys.gamma:
            owners = {inter.send.owner, *[r.owner for r in inter.receivers]}
            assert sum(not owners.isdisjoint(sys.components[i].id for i in cis)
                       for cis in groups) == 1
        # A cold copy with the same ids and gamma computes equal groups.
        assert dataclasses.replace(sys)._groups == groups
