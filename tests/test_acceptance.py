"""Acceptance suite.

Each test covers one release criterion and prints exactly one
``CRITERION n: PASS/FAIL`` line (run pytest with ``-s`` or rely on the
captured output of failures). The checks are intentionally end-to-end and
re-derive their expectations instead of trusting other tests.
"""

import os
import re
import time
from pathlib import Path

from chorc.cbs import check_structure, sys_explore
from chorc.chorsem import CHOR_RULES, explore
from chorc.promela import (
    PromelaOptions, format_ltl, generate_promela, ltl_templates,
    validate_promela,
)
from chorc.sim import simulate, trace_text
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import (
    MUTATIONS, equiv_check, invariant_suite, project, user_variables,
)

from conftest import ROOT, load_stem

LIMITS = dict(max_configs=200_000, max_depth=10_000)


def report(n, label):
    """Context manager printing one PASS/FAIL line per criterion."""
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"CRITERION {n}: {verdict} - {label}")
            return False
    return _Reporter()


def test_criterion_1_buying_interaction_count():
    with report(1, "buying-system interaction count (21 default / 27 compat, "
                   "derivation in docs/interaction-count.md, < 1 s)"):
        decl, _, ch = load_stem("buying")
        t0 = time.perf_counter()
        default = synthesize(decl, ch, "default")
        compat = synthesize(decl, ch, "compat")
        elapsed = time.perf_counter() - t0
        assert len(compat.gamma) == 27
        # The faithful default reading yields 21; the reconciliation of the
        # two counts is a shipped document and the pin below.
        assert len(default.gamma) == 21
        derivation = os.path.join(ROOT, "docs", "interaction-count.md")
        text = Path(derivation).read_text()
        assert "21" in text and "27" in text
        assert elapsed < 1.0, f"synthesis took {elapsed:.2f}s"


def test_criterion_2_producer_consumer_shape():
    with report(2, "producer/consumer structural match (P1: 6 locations, "
                   "5 ports; interaction-disjoint pairs; < 1 s)"):
        decl, _, ch = load_stem("producer_consumer")
        t0 = time.perf_counter()
        sys = synthesize(decl, ch, "default")
        elapsed = time.perf_counter() - t0
        p1 = next(c for c in sys.components if c.id == "P1")
        assert len(p1.locations) == 6
        used = {t.port.name for t in p1.transitions if t.port is not None}
        # Up to naming: loop condition, loop break, payload stream, final
        # ack and the sequencing receive.
        assert used == {"cond#1", "brk@1", "s#1", "ack#1", "cr@1"}
        pair1, pair2 = {"P1", "C1"}, {"P2", "C2"}
        for inter in sys.gamma:
            owners = {inter.send.owner} | {r.owner for r in inter.receivers}
            assert owners <= pair1 or owners <= pair2, inter
        assert elapsed < 1.0


def test_criterion_3_equivalence_oracle_and_mutations(corpus):
    with report(3, "equiv_check equivalent on the whole corpus (>= 13 "
                   "entries, < 60 s) and every mutation flips a verdict"):
        assert len(corpus) >= 13
        t0 = time.perf_counter()
        systems = {}
        for path, decl, name, ch in corpus:
            sys = synthesize(decl, ch, "default")
            systems[path] = (decl, ch, sys)
            rep = equiv_check(decl, ch, sys, **LIMITS)
            assert rep.verdict == "equivalent", (path, rep.reasons)
        flipped = {m: False for m in MUTATIONS}
        for path, (decl, ch, sys) in systems.items():
            for mname, mfn in MUTATIONS.items():
                if flipped[mname]:
                    continue
                mutant = mfn(sys)
                if mutant is None:
                    continue
                rep = equiv_check(decl, ch, mutant, max_configs=50_000,
                                  max_depth=5_000)
                if rep.verdict != "equivalent":
                    flipped[mname] = True
            if all(flipped.values()):
                break
        assert all(flipped.values()), flipped
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_4_rule_coverage(corpus):
    with report(4, "dedicated oracle test per semantics rule and 100% "
                   "rule-tag coverage over the corpus"):
        # Dedicated hand-oracle tests live in test_chor_exec.py (one class
        # per choreography rule) and test_cbs.py (one class per system
        # rule); assert they exist by name.
        import test_cbs
        import test_chor_exec
        for cls in ("TestNil", "TestSynchSendRcv", "TestAsynchSendRcv1",
                    "TestAsynchSendRcv2", "TestMasterBranching",
                    "TestIterative", "TestSequential", "TestParallel"):
            assert hasattr(test_chor_exec, cls), cls
        for cls in ("TestSynchSend", "TestAsynchSend", "TestRecv",
                    "TestInternal"):
            assert hasattr(test_cbs, cls), cls
        # Coverage measured by the rule-tag instrumentation of both
        # explorers, over every corpus entry.
        chor_seen, sys_seen = set(), set()
        for path, decl, name, ch in corpus:
            chor_seen |= explore(ch, decl.initial_valuation()).rules_seen
            sys_seen |= sys_explore(synthesize(decl, ch)).rules_seen
        assert chor_seen == set(CHOR_RULES)
        assert sys_seen == {"synch-send", "asynch-send", "recv", "internal"}


def test_criterion_5_promela_fidelity():
    with report(5, "paper-ack Seller process: 14 location arms + end arm, "
                   "exact channel declarations, validator clean, < 1 s"):
        decl, _, ch = load_stem("buying")
        t0 = time.perf_counter()
        sys = synthesize(decl, ch, "compat")
        model = generate_promela(sys, PromelaOptions(paper_ack=True))
        elapsed = time.perf_counter() - t0
        assert validate_promela(model.text) == []
        m = re.search(r"proctype S\(\) \{\n(.*?)\n\}", model.text, re.S)
        seller = m.group(1)
        arms = re.findall(r":: \(currentLocation == \w+\) ->", seller)
        ends = re.findall(r":: \(currentLocation == \w+\) -> break;", seller)
        assert len(ends) == 1
        assert len(arms) - len(ends) == 14
        # Channel declarations: rendezvous for ss, buffered for as.
        for line in model.text.splitlines():
            if line.startswith("chan "):
                assert re.fullmatch(
                    r"chan \w+ = \[(0|MAX_LEN)\] of \{ int \};", line), line
        # The buying system is all-synchronous: every channel rendezvous.
        assert all("[0]" in l for l in model.text.splitlines()
                   if l.startswith("chan "))
        # An asynchronous corpus entry produces MAX_LEN channels.
        decl2, _, ch2 = load_stem("comm_async")
        model2 = generate_promela(synthesize(decl2, ch2, "compat"),
                                  PromelaOptions(paper_ack=True))
        assert any("[MAX_LEN]" in l for l in model2.text.splitlines()
                   if l.startswith("chan "))
        assert elapsed < 1.0


def test_criterion_6_harness_agreement(corpus):
    with report(6, "simulation completes for seeds 0..9 on every corpus "
                   "entry, finals are exploration terminals, traces "
                   "reproduce byte-for-byte, < 120 s"):
        t0 = time.perf_counter()
        for path, decl, name, ch in corpus:
            sys = synthesize(decl, ch, "default")
            keys = user_variables(decl)
            terminals = {project(t.sigma, keys)
                         for t in sys_explore(sys, **LIMITS).terminals}
            for seed in range(10):
                res = simulate(sys, seed)
                assert res.outcome == "completed", (path, seed)
                assert project(res.final.sigma, keys) in terminals, (path, seed)
                res2 = simulate(sys, seed)
                assert trace_text(res) == trace_text(res2), (path, seed)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"{elapsed:.1f}s"


def test_criterion_7_ltl_golden_file():
    with report(7, "four LTL template families instantiate for the buying "
                   "system over generated symbols; golden-file match"):
        decl, _, ch = load_stem("buying")
        sys = synthesize(decl, ch, "compat")
        props = ltl_templates(sys)
        families = {name.split("_")[0] for name, _ in props}
        assert families == {"termination", "livelock", "uniqueness",
                            "transaction"}
        model = generate_promela(sys)
        defined = set(re.findall(r"#define (\w+) ", model.text))
        for name, formula in props:
            for sym in re.findall(r"[A-Za-z_]\w*", formula):
                if sym in ("X", "U"):
                    continue
                assert sym in defined or sym.startswith("currPort_"), (name, sym)
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "golden", "buying_compat.ltl")
        assert format_ltl(props) == Path(golden).read_text()


def test_criterion_8_invariant_suite(corpus):
    with report(8, "invariant_suite clean on every synthesized corpus "
                   "system under both profiles"):
        for path, decl, name, ch in corpus:
            for profile in PROFILES:
                # synthesize() itself asserts the unique-context invariant
                # after every transformation step; a violation raises.
                sys = synthesize(decl, ch, profile)
                assert invariant_suite(sys) == [], (path, profile)
                assert check_structure(sys) == [], (path, profile)
