"""The benchmark's three workloads: their inputs, operations and checks.

A workload builds its inputs once per set-up, then yields the operations of
one pass. An ``Op`` has a kind, which decides the end-to-end metric its time
counts toward, a ``call`` that is timed, and a ``check`` that is not. The
check compares the output with a reference that does not come from the code
under test and raises ``CheckError`` on a wrong output; it returns the
values that go into the determinism record.

Program entry points are looked up on the ``chorc`` modules at call time,
so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

COMPILE, VERDICT, SIM, EXPLORE = "compile", "verdict", "sim", "explore"

#: Interactions the README documents for the bundled buying example.
BUYING_INTERACTIONS = {"default": 21, "compat": 27}

#: The corpus as of the benchmark's definition; files added later are not
#: part of the workload.
CORPUS_FILES = tuple(f"{name}.chor" for name in (
    "01_nil", "02_comm_sync", "03_comm_async", "04_comm_multicast",
    "05_branch_two", "06_branch_single", "07_loop_countdown", "08_loop_local",
    "09_seq_chain", "10_par_pairs", "11_seq_async", "12_seq_pingpong",
    "13_branch_in_loop", "14_producer_consumer", "15_buying",
    "16_microservice", "17_strings"))

#: Repetitions per round of the compile and simulation groups alone, where
#: a pass spends under 0.2 s on them: short operations get more timings,
#: spread over the run.
EXTRA_REPS = {"corpus": {}, "interleave": {COMPILE: 15, SIM: 8},
              "longchain": {COMPILE: 4}}

#: Seconds one untraced round takes on a 2-CPU x86-64 virtual machine with
#: Python 3.11, at the probe's reference speed. A run makes
#: ``seconds / ROUND_S`` rounds, a fixed number, so that every operation
#: gets the same number of timings however fast the machine runs.
ROUND_S = {"corpus": 6.0, "interleave": 3.6, "longchain": 2.7}
MIN_ROUNDS = 2


def rounds(name: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_S[name]))


class CheckError(Exception):
    """An operation returned a wrong output."""


@dataclass
class Op:
    kind: str
    label: str
    call: Callable
    check: Callable  # output -> dict for the determinism record


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expect(cond: bool, what: str):
    if not cond:
        raise CheckError(what)


MODULES = ("core", "lang", "parser", "chorsem", "cbs", "synthesis", "verify",
           "promela", "sim", "cli")


def import_chorc():
    for n in MODULES:
        importlib.import_module(f"chorc.{n}")


def chorc():
    """The currently imported chorc modules, by short name."""
    return {n: sys.modules[f"chorc.{n}"] for n in MODULES}


# --------------------------------------------------------------------------
# corpus: every subcommand of the CLI over the 17 corpus files
# --------------------------------------------------------------------------

class Corpus:
    """All corpus files under both profiles through every subcommand, via
    ``chorc.cli.main`` in process. The real usage mix and the only workload
    that exercises the CLI layer. The seed draws the simulation seeds."""

    name = "corpus"
    profiles = ("default", "compat")
    sim_seeds_per_profile = 2
    reps = EXTRA_REPS["corpus"]

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.files = [root / "corpus" / name for name in CORPUS_FILES]
        for f in self.files:
            if not f.is_file():
                raise FileNotFoundError(f"corpus file {f} is missing")
        rng = random.Random(f"corpus:{seed}")
        self.sim_seeds = {
            (f.name, p): [rng.randrange(1_000_000) for _ in range(self.sim_seeds_per_profile)]
            for f in self.files for p in self.profiles}
        self.trace_path = workdir / "sim.jsonl"
        self.sim_finals = {}  # file name -> set of projected finals seen

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = chorc()["cli"].main(argv)
            return rc, out.getvalue(), err.getvalue()
        return call

    def ops(self):
        for f in self.files:
            path = str(f)

            def check_ok(res, f=f):
                rc, out, _ = res
                expect(rc == 0 and ": ok (" in out, f"check {f.name}: rc {rc}")
                return {}

            def check_explore(res, f=f):
                rc, out, _ = res
                expect(rc == 0, f"explore {f.name}: rc {rc}")
                configs, finals, deadlocks = _ints(out.splitlines()[0])[-3:]
                return {"configs": configs, "finals": finals, "deadlocks": deadlocks}

            yield Op(COMPILE, f"check {f.name}", self._cli(["check", path]), check_ok)
            yield Op(EXPLORE, f"explore {f.name}", self._cli(["explore", path]), check_explore)
            for p in self.profiles:
                yield from self._profile_ops(f, path, p)

    def _profile_ops(self, f, path, p):
        prof = ["--profile", p]

        def check_synth(res):
            rc, _, err = res
            expect(rc == 0, f"synth {f.name} {p}: rc {rc}")
            inters = _ints(err.splitlines()[-1])[-1]
            if f.name == "15_buying.chor":
                expect(inters == BUYING_INTERACTIONS[p],
                       f"buying {p}: {inters} interactions")
            return {"interactions": inters}

        def check_equiv(res):
            rc, out, _ = res
            expect(rc == 0 and ": equivalent (" in out, f"equiv {f.name} {p}: {out!r}")
            chor, sys_ = _ints(out.splitlines()[0])[-2:]
            return {"chor_states": chor, "sys_states": sys_}

        def check_text(res, what):
            rc, out, _ = res
            expect(rc == 0 and (out or what == "ltl"), f"{what} {f.name} {p}: rc {rc}")
            return {f"{what}_digest": digest(out)}

        yield Op(COMPILE, f"synth {f.name} {p}", self._cli(["synth", path] + prof), check_synth)
        yield Op(VERDICT, f"equiv {f.name} {p}", self._cli(["equiv", path] + prof), check_equiv)
        for s in self.sim_seeds[(f.name, p)]:
            argv = ["simulate", path, "--seed", str(s), "--trace", str(self.trace_path)] + prof

            def check_sim(res, s=s):
                rc, out, _ = res
                expect(rc == 0 and " completed after " in out,
                       f"simulate {f.name} {p} seed {s}: {out!r}")
                text = self.trace_path.read_text()
                last = json.loads(text.splitlines()[-1])
                final = tuple(v for _, v in sorted(last["final"].items()))
                self.sim_finals.setdefault(f.name, set()).add(
                    (tuple(sorted(last["final"])), final))
                return {"steps": last["steps"], "trace_digest": digest(text)}
            yield Op(SIM, f"simulate {f.name} {p} {s}", self._cli(argv), check_sim)
        yield Op(COMPILE, f"promela {f.name} {p}", self._cli(["promela", path] + prof),
                 lambda res: check_text(res, "promela"))
        yield Op(COMPILE, f"ltl {f.name} {p}", self._cli(["ltl", path] + prof),
                 lambda res: check_text(res, "ltl"))

    def finish(self):
        """Every simulated final must be a final of the choreography
        explorer, projected onto the user variables."""
        m = chorc()
        for f in self.files:
            decl, _, ch = m["parser"].parse_source(f.read_text())
            keys = tuple(sorted(decl.initial_valuation().keys()))
            result = m["chorsem"].explore(ch, decl.initial_valuation())
            finals = {tuple(s[k] for k in keys) for s in result.finals}
            for sim_keys, final in self.sim_finals.get(f.name, ()):
                user = dict(zip(sim_keys, final))
                expect(tuple(user[k] for k in keys) in finals,
                       f"simulated final of {f.name} not among explored finals")


def _ints(line: str) -> list:
    return [int(x) for x in re.findall(r"\d+", line)]


# --------------------------------------------------------------------------
# interleave / longchain: generated input through the public API
# --------------------------------------------------------------------------

class Generated:
    """One generated choreography through parse, check, synthesis,
    equivalence, simulation and Promela/LTL emission under both profiles.
    ``longchain`` also checks that every applicable mutation operator is
    refuted by the equivalence check."""

    profiles = ("default", "compat")
    sim_seeds_per_profile = 1
    #: The profile whose system gets the mutation operators on longchain.
    mutant_profile = "default"

    def __init__(self, name: str, seed: int):
        self.name = name
        self.reps = EXTRA_REPS[name]
        self.case = gen.GENERATORS[name](seed)
        rng = random.Random(f"{name}:sim:{seed}")
        self.sim_seeds = [rng.randrange(1_000_000)
                          for _ in range(self.sim_seeds_per_profile)]
        self.mutants = name == "longchain"
        self.state = {}

    def ops(self):
        case, st = self.case, self.state

        def parse():
            st["parsed"] = chorc()["parser"].parse_source(case.text)
            return st["parsed"]

        def check_parse(res):
            decl, name, _ = res
            expect(name == case.name and len(decl.components) == case.components,
                   "parsed declarations differ from the generated ones")
            expect(tuple(sorted(decl.initial_valuation().keys())) == case.keys,
                   "parsed variables differ from the generated ones")
            return {}

        def wf():
            decl, _, ch = st["parsed"]
            return chorc()["lang"].check_well_formed(decl, ch)

        def check_wf(diags):
            expect(not diags, f"diagnostics on generated input: {diags[:3]}")
            return {}

        yield Op(COMPILE, "parse", parse, check_parse)
        yield Op(COMPILE, "check", wf, check_wf)
        for p in self.profiles:
            yield from self._profile_ops(p)

    def _profile_ops(self, p):
        case, st = self.case, self.state

        def synth():
            decl, _, ch = st["parsed"]
            st[p] = chorc()["synthesis"].synthesize(decl, ch, p)
            return st[p]

        def check_synth(system):
            expect(len(system.components) >= case.components, "components lost")
            return {"interactions": len(system.gamma)}

        def equiv():
            m = chorc()["verify"]
            decl, _, ch = st["parsed"]
            findings = m.invariant_suite(st[p])
            return findings, m.equiv_check(decl, ch, st[p])

        def check_equiv(res):
            findings, report = res
            expect(not findings, f"invariant findings: {findings[:3]}")
            expect(report.verdict == "equivalent", f"verdict {report.verdict}")
            expect(report.chor_finals == case.finals,
                   "choreography finals differ from the closed form")
            expect(report.sys_finals == case.finals,
                   "system finals differ from the closed form")
            st[f"{p}:chor_finals"] = report.chor_finals
            return {"chor_states": report.chor_states, "sys_states": report.sys_states,
                    "finals": len(report.chor_finals),
                    "deadlocks": report.chor_deadlocks + report.sys_deadlocks}

        yield Op(COMPILE, f"synth {p}", synth, check_synth)
        yield Op(VERDICT, f"equiv {p}", equiv, check_equiv)
        for s in self.sim_seeds:
            def simulate(s=s):
                return chorc()["sim"].simulate(st[p], seed=s)

            def check_sim(result, s=s):
                expect(result.outcome == "completed", f"simulate {p} {s}: {result.outcome}")
                final = tuple(result.final.sigma[k] for k in case.keys)
                expect(final in case.finals, f"simulate {p} {s}: final not in closed form")
                expect(final in st.get(f"{p}:chor_finals", ()),
                       f"simulate {p} {s}: final not among explored finals")
                return {"steps": result.steps,
                        "trace_digest": digest(chorc()["sim"].trace_text(result))}
            yield Op(SIM, f"simulate {p} {s}", simulate, check_sim)

        def promela():
            m = chorc()["promela"]
            model = m.generate_promela(st[p], m.PromelaOptions())
            return model.text, m.validate_promela(model.text)

        def check_promela(res):
            text, problems = res
            expect(not problems, f"promela {p}: {problems[:3]}")
            return {"promela_digest": digest(text)}

        def ltl():
            m = chorc()["promela"]
            return m.format_ltl(m.generate_promela(st[p], m.PromelaOptions()).ltl)

        def check_ltl(text):
            expect(text.count(" : ") >= 1, f"ltl {p}: no formula")
            return {"ltl_digest": digest(text)}

        yield Op(COMPILE, f"promela {p}", promela, check_promela)
        yield Op(COMPILE, f"ltl {p}", ltl, check_ltl)
        if self.mutants and p == self.mutant_profile:
            for name in chorc()["verify"].MUTATIONS:
                def mutant(name=name):
                    m = chorc()["verify"]
                    decl, _, ch = st["parsed"]
                    sys_ = m.MUTATIONS[name](st[p])
                    return None if sys_ is None else m.equiv_check(decl, ch, sys_).verdict

                def check_mutant(verdict, name=name):
                    expect(verdict != "equivalent", f"mutant {name} {p} judged equivalent")
                    return {"verdict": verdict or "inapplicable"}
                yield Op(VERDICT, f"mutant {name} {p}", mutant, check_mutant)

    def finish(self):
        pass


def make(name: str, root: Path, seed: int, workdir: Path):
    if name == "corpus":
        return Corpus(root, seed, workdir)
    return Generated(name, seed)


WORKLOADS = ("corpus", "interleave", "longchain")
