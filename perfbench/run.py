"""chorc benchmark: one workload per process, as a closed loop with one client.

    python3 perfbench/run.py --workload corpus|interleave|longchain|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory. The
program is imported from ``src/`` in process, single-threaded.

A set-up is a fresh import of every chorc module plus building the
workload's inputs. A run sets up ``SETUP_REPEATS`` times, then makes a fixed
number of rounds, ``--seconds`` over the workload's nominal round time
(``workloads.ROUND_S``): a pass over all of the workload's operations, one
more set-up, and a fixed number of repetitions of the compile and
simulation groups alone where they are too short to time well in a pass.
The number of rounds does not depend on the machine's speed, so every
operation gets the same number of timings on every run. Every output is
checked; an operation that raises counts as failed, a wrong output makes the
run incorrect.

Every timing is scaled to the reference speed of the machine by a probe,
a fixed piece of pure-Python work run between operations (``Stopwatch``).
``setup_s`` is the median of the set-ups. The pass metrics take every
operation at the median of its timings in the run and sum over a pass.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` untraced and traced passes alternate, so that both see
the same phases of the machine. The per-layer metrics are medians over the
traced passes' spans, not scaled, and ``trace.overhead`` is the traced over
the untraced ``pass_s``, minus one. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with environment, timings, determinism record and spans, is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

SETUP_REPEATS = 5
#: Seconds between machine-speed probes, and the probe's median time on a
#: 2-CPU x86-64 virtual machine with Python 3.11; timings are scaled to it.
PROBE_EVERY_S = 0.4
PROBE_REF_S = 0.020
#: Metrics printed and saved but left out of BENCHMARK.json, because they
#: are zero on some workload: the CLI runs only on corpus, and on longchain
#: Promela generation fails before validation or LTL output.
REPORT_ONLY_UNITS = {"failed_ops_ratio": "ratio", "cli.self_s": "s",
                     "promela.validate_s": "s", "promela.ltl_s": "s",
                     "promela.lines": "count"}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from workloads import COMPILE, SIM, VERDICT, CheckError  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement budget (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def commit() -> str:
    """The checked-out commit; "unknown" outside git. Git does not look
    above the repository root."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "commit": commit()}


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------

def setup(args, watch, times):
    """Set up SETUP_REPEATS times, appending each set-up's time to ``times``;
    return the first workload and a runner that sets up again. A set-up
    imports every chorc module afresh and builds the workload's inputs."""
    src = ROOT / "src"
    if not (src / "chorc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no chorc sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    def set_up():
        for name in [k for k in sys.modules if k == "chorc" or k.startswith("chorc.")]:
            del sys.modules[name]
        gc.collect()
        def load():
            workloads.import_chorc()
            return workloads.make(args.workload, ROOT, args.seed, workdir)
        return watch.time(load, times)

    wls = [set_up() for _ in range(SETUP_REPEATS)]
    return wls[0], set_up


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------

def probe():
    """A fixed piece of pure-Python work of the kind chorc's explorers do:
    build tuples, hash them into a dict, sort the items."""
    seen = {}
    for i in range(20000):
        key = (i & 255, i >> 8, "s")
        seen[key] = seen.get(key, 0) + 1
    return len(sorted(seen.items()))


class Stopwatch:
    """Times calls and probes the machine's speed between them.

    A shared virtual machine can change speed by up to 1.7 times (seen on
    2 CPUs), for moments and for minutes, so a whole run can fall into a
    fast or a slow phase. The probe runs no chorc code, so its time follows
    the machine alone; timings scaled by it follow the program."""

    def __init__(self):
        self.order = []   # (timings list, index) of every timing, in order taken
        self.marks = []   # (timings taken before the probe, probe seconds)
        self._last = None

    def _probe(self):
        # Without the collector: a collection the probe's allocations set off
        # would scan the program's heap, and charge its size to the machine.
        gc.disable()
        t0 = time.perf_counter()
        probe()
        self._last = time.perf_counter()
        gc.enable()
        self.marks.append((len(self.order), self._last - t0))

    def time(self, fn, into):
        """Call ``fn`` and return what it returns, appending its time to the
        list ``into`` even when it raises."""
        if self._last is None or time.perf_counter() - self._last >= PROBE_EVERY_S:
            self._probe()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            into.append(time.perf_counter() - t0)
            self.order.append((into, len(into) - 1))

    def scale(self):
        """Scale every timing taken to the reference speed, in place: by
        PROBE_REF_S over the mean of the probes just before and after it.
        Return the median probe time."""
        self._probe()
        at = [pos for pos, _ in self.marks]
        for k, (into, i) in enumerate(self.order):
            j = bisect.bisect_right(at, k)  # the first probe after timing k
            into[i] *= 2 * PROBE_REF_S / (self.marks[j - 1][1] + self.marks[j][1])
        self.order.clear()
        return median([sec for _, sec in self.marks])


class Tally:
    """Failures, checks and determinism records over every operation of a run."""

    def __init__(self):
        self.watch = Stopwatch()
        self.attempted = 0
        self.failed = defaultdict(int)     # "label: error" -> count
        self.tracebacks = {}               # "label: error" -> first traceback
        self.wrong = []                    # failed checks
        self.records = []                  # determinism record per whole pass
        self.op_info = {}                  # label -> (kind, simulation steps)

    def run(self, ops, times):
        """Run and check ``ops``, appending each one's time to ``times``;
        return the time they took and the determinism record of this batch."""
        total = 0.0
        record = {}
        for op in ops:
            self.attempted += 1
            try:
                out = self.watch.time(op.call, times[op.label])
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            total += times[op.label][-1]
            self.op_info.setdefault(op.label, (op.kind, 0))
            if isinstance(out, Exception):
                key = f"{op.label}: {type(out).__name__}: {out}"
                self.failed[key] += 1
                self.tracebacks.setdefault(key, "".join(traceback.format_exception(out)))
                continue
            try:
                rec = op.check(out)
            except CheckError as exc:
                self.wrong.append(f"{op.label}: {exc}")
                continue
            if op.kind == SIM:
                self.op_info[op.label] = (op.kind, rec["steps"])
            record[op.label] = rec
        return total, record

    def whole_pass(self, wl, times):
        """One pass over all of the workload's operations; its time."""
        gc.collect()
        total, record = self.run(wl.ops(), times)
        self.records.append(record)
        return total


def pass_metrics(times, op_info) -> dict:
    """End-to-end metrics of one pass, with every operation at the median
    of its timings in ``times``."""
    best = {label: median(ts) for label, ts in times.items()}
    by_kind = defaultdict(float)
    for label, t in best.items():
        by_kind[op_info[label][0]] += t
    steps = sum(n for kind, n in op_info.values() if kind == SIM)
    return {"pass_s": sum(best.values()), "verdict_s": by_kind[VERDICT],
            "compile_s": by_kind[COMPILE],
            "sim_steps_per_s": steps / by_kind[SIM] if by_kind[SIM] else 0.0}


def median(xs):
    return statistics.median(xs) if xs else 0.0


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def measure(args, spec):
    tally = Tally()
    setup_times = []
    wl, set_up = setup(args, tally.watch, setup_times)
    rounds = workloads.rounds(args.workload, args.seconds)
    times = defaultdict(list)  # label -> every timing of the operation
    result = {"environment": environment(args)}
    units = dict(REPORT_ONLY_UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    extra_record = {}
    if args.trace:
        import tracing
        tracer = tracing.Tracer(workloads.chorc()["parser"].tokenize)
        traced = defaultdict(list)
        per_pass, span_dump = [], []
        for i in range((rounds + 1) // 2):
            # Pairs of passes, in turn untraced first and traced first.
            if i % 2 == 0:
                tally.whole_pass(wl, times)
            tracer.install()
            try:
                tally.whole_pass(wl, traced)
            finally:
                tracer.uninstall()
            if i % 2 == 1:
                tally.whole_pass(wl, times)
            spans = tracer.take()
            per_pass.append(tracing.layer_metrics(spans))
            span_dump.append(tracer.dump(spans))
        probe_s = tally.watch.scale()
        metrics = {k: median([p[k] for p in per_pass]) for k in per_pass[0]}
        metrics["trace.overhead"] = (pass_metrics(traced, tally.op_info)["pass_s"]
                                     / pass_metrics(times, tally.op_info)["pass_s"] - 1)
        notes = dict.fromkeys(metrics, f"median of {len(per_pass)} traced passes")
        notes["trace.overhead"] = (f"{len(per_pass)} traced passes alternating with "
                                   f"{len(per_pass)} untraced ones")
        layer_counts = [{k: v for k, v in p.items() if units.get(k) == "count"}
                        for p in per_pass]
        if any(c != layer_counts[0] for c in layer_counts):
            tally.wrong.append("per-layer counts differ between traced passes")
        extra_record = {"layer counts": layer_counts[0]}
        result.update(per_pass=per_pass, spans=span_dump, traced_op_times=traced)
    else:
        pass_times = []
        for _ in range(rounds):
            pass_times.append(tally.whole_pass(wl, times))
            set_up()
            for kind, n in wl.reps.items():
                for _ in range(n):
                    tally.run((op for op in wl.ops() if op.kind == kind), times)
        probe_s = tally.watch.scale()
        metrics = pass_metrics(times, tally.op_info)
        n = min(len(ts) for ts in times.values())
        notes = dict.fromkeys(metrics, f"each operation at its median of at least {n} timings; "
                                       f"unscaled median whole pass {median(pass_times):.4g} s")
        metrics["setup_s"] = median(setup_times)
        notes["setup_s"] = f"median of {len(setup_times)}"
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["samples"] = {"pass_s": pass_times, "setup_s": setup_times}
    result["environment"]["probe_s"] = probe_s
    try:
        wl.finish()
    except CheckError as exc:
        tally.wrong.append(str(exc))
    if any(r != tally.records[0] for r in tally.records[1:]):
        tally.wrong.append("determinism record differs between passes")
    failed = sum(tally.failed.values())
    metrics["failed_ops_ratio"] = failed / tally.attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {"correct": not tally.wrong, "attempted": tally.attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}
    result.update(metrics=metrics, notes=notes, attempted=tally.attempted,
                  failures=dict(tally.failed), tracebacks=tally.tracebacks,
                  wrong=tally.wrong, record=dict(tally.records[0], **extra_record),
                  op_times=times, op_info=tally.op_info)
    return result, line, units


def report(result, line, units):
    env = result["environment"]
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in sorted(result["metrics"].items()):
        note = result["notes"].get(name)
        print(f"metric {name} = {value:.6g} {units.get(name, '')}"
              + (f" ({note})" if note else ""))
    print(f"failed_ops {sum(result['failures'].values())} of {result['attempted']} attempted")
    for what, count in sorted(result["failures"].items()):
        print(f"  failed x{count}: {what}")
    for what in result["wrong"]:
        print(f"  WRONG: {what}")
    record = json.dumps(result["record"], sort_keys=True)
    print(f"determinism_record {workloads.digest(record)} over {len(result['record'])} operations")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)
    print(f"result written to {path.relative_to(ROOT)}")
    print(json.dumps(line))


def run_all(args) -> int:
    """Every workload untraced and traced, each run in its own process, one
    after the other; ``--trace`` is ignored."""
    lines, worst = {}, 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            worst = max(worst, proc.returncode)
            if proc.returncode == 0:
                lines[f"{name} trace {trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(lines))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload == "all":
            return run_all(args)
        result, line, units = measure(args, spec)
    except (OSError, ImportError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    report(result, line, units)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
