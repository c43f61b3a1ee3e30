"""Command-line interface.

Subcommands: check, synth, explore, equiv, simulate, promela, ltl.
Exit codes: 0 success, 1 analysis failure (diagnostics, mismatch, failed
validation, synthesis error, runtime evaluation error), 2 usage or I/O error.

``main`` is the one front end. It parses the arguments with a parser built
once per process (``build_parser``), reads and parses the input, runs the
well-formedness check and, for the subcommands that take a synthesis
profile, synthesizes the system. Each ``cmd_*`` function then does only its
own work on what the front end produced.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import EvalError
from .parser import ParseError, parse_chor_source, parse_decls, parse_source
from .lang import check_well_formed
from .chorsem import explore, lts_to_dot
from .cbs import serialize_system, system_to_dot
from .synthesis import PROFILES, SynthError, synthesize
from .verify import equiv_check, invariant_suite
from .promela import (
    MAX_LEN, PromelaError, PromelaOptions, format_ltl, generate_promela,
    ltl_templates, validate_promela,
)
from .sim import simulate, trace_text


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _emit(path, text: str):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        _write(path, text)
    else:
        print(text, end="")


def _parse(path: str, parse, *extra):
    """Parse the file at ``path``; a parse error names that file."""
    try:
        return parse(_read(path), *extra)
    except ParseError as exc:
        print(f"{path}: parse error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _load(args):
    """Parse the input (single file, or --config declarations + chor file)."""
    if args.config:
        decl = _parse(args.config, parse_decls)
        name, ch = _parse(args.file, parse_chor_source, decl)
        return decl, name, ch
    return _parse(args.file, parse_source)


# Each subcommand receives the parsed arguments, the declarations, the
# choreography's name, the choreography and the synthesized system (None for
# the subcommands without a profile).

def cmd_check(args, decl, name, ch, system) -> int:
    print(f"{args.file}: ok ({name}: "
          f"{len(decl.components)} components)")
    return 0


def cmd_synth(args, decl, name, ch, system) -> int:
    _emit(args.output, serialize_system(system))
    print(f"{name}: {len(system.components)} components, "
          f"{len(system.gamma)} interactions", file=sys.stderr)
    if args.emit_dot:
        _write(args.emit_dot, system_to_dot(system))
    return 0


def cmd_explore(args, decl, name, ch, system) -> int:
    result = explore(ch, decl.initial_valuation(),
                     max_configs=args.max_configs, max_depth=args.max_depth)
    print(f"{name}: {len(result.graph)} configurations, "
          f"{len(result.finals)} final valuation(s), "
          f"{len(result.deadlocks)} deadlock(s)"
          + (", truncated" if result.truncated else ""))
    print("rules: " + ", ".join(sorted(result.rules_seen)))
    if args.dump_lts:
        _write(args.dump_lts, lts_to_dot(result))
    return 1 if (result.deadlocks or result.truncated) else 0


def cmd_equiv(args, decl, name, ch, system) -> int:
    findings = invariant_suite(system)
    for d in findings:
        print(d, file=sys.stderr)
    report = equiv_check(decl, ch, system,
                         max_configs=args.max_configs, max_depth=args.max_depth)
    print(f"{name}: {report.verdict} "
          f"(chor: {report.chor_states} states, sys: {report.sys_states} states)")
    for reason in report.reasons:
        print("  " + reason)
    return 0 if (report.equivalent and not findings) else 1


def cmd_simulate(args, decl, name, ch, system) -> int:
    result = simulate(system, seed=args.seed, max_steps=args.max_steps,
                      max_chan_len=args.max_chan_len)
    if args.trace:
        _write(args.trace, trace_text(result))
    print(f"{name}: {result.outcome} after {result.steps} step(s), seed {args.seed}")
    return 0 if result.outcome == "completed" else 1


def cmd_promela(args, decl, name, ch, system) -> int:
    opts = PromelaOptions(paper_ack=args.paper_ack_encoding, strict=args.strict,
                          max_len=args.max_chan_len, inline_ltl=args.inline_ltl)
    model = generate_promela(system, opts)
    problems = validate_promela(model.text)
    _emit(args.output, model.text)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def cmd_ltl(args, decl, name, ch, system) -> int:
    _emit(args.output, format_ltl(ltl_templates(system)))
    return 0


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # names the type in argparse's "invalid int value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    # Option groups shared by several subcommands (argparse ``parents``).
    inputs, profile, limits, output, chan_len = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    inputs.add_argument("file", help="input .chor file")
    inputs.add_argument("--config", default=None,
                        help="separate declarations file (two-file mode)")
    profile.add_argument("--profile", choices=PROFILES, default="default",
                         help="synthesis profile")
    profile.add_argument("--paper-ack-encoding", action="store_true",
                         help="acknowledge over the data channel itself "
                              "(implies --profile compat)")
    limits.add_argument("--max-configs", type=_int_at_least(1), default=200_000,
                        help="store at most this many states per exploration")
    limits.add_argument("--max-depth", type=_int_at_least(1), default=10_000,
                        help="expand at most this many BFS levels per exploration")
    output.add_argument("-o", "--output", default=None)
    chan_len.add_argument("--max-chan-len", type=_int_at_least(0), default=MAX_LEN)

    top = argparse.ArgumentParser(
        prog="chorc",
        description="Choreography compiler: synthesis, verification, "
                    "simulation and Promela generation.")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *parents):
        # A subcommand that takes a profile works on the synthesized system.
        p = sub.add_parser(name, help=help, parents=[inputs, *parents])
        p.set_defaults(fn=fn, synthesize=profile in parents)
        return p

    command("check", cmd_check, "parse and check well-formedness")
    p = command("synth", cmd_synth, "synthesize a component system", profile, output)
    p.add_argument("--emit-dot", default=None, metavar="PATH")
    p = command("explore", cmd_explore, "explore the choreography semantics", limits)
    p.add_argument("--dump-lts", default=None, metavar="PATH")
    command("equiv", cmd_equiv, "check choreography/system equivalence", profile, limits)
    p = command("simulate", cmd_simulate, "run the simulation harness", profile, chan_len)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_int_at_least(0), default=100_000)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a JSONL trace")
    p = command("promela", cmd_promela, "emit a Promela model", profile, output, chan_len)
    p.add_argument("--strict", action="store_true",
                   help="reject string-typed data instead of interning")
    p.add_argument("--inline-ltl", action="store_true",
                   help="append ltl blocks to the model")
    command("ltl", cmd_ltl, "emit LTL property templates", profile, output)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        decl, name, ch = _load(args)
        diags = check_well_formed(decl, ch)
        for d in diags:
            print(d, file=sys.stderr)
        if any(d.severity == "error" for d in diags):
            return 1
        system = None
        if args.synthesize:
            profile = "compat" if args.paper_ack_encoding else args.profile
            system = synthesize(decl, ch, profile)
        return args.fn(args, decl, name, ch, system)
    except (SynthError, EvalError, PromelaError) as exc:
        # Input-dependent failures of synthesis, of evaluation during
        # exploration or simulation (division or modulo by zero) and of
        # Promela emission (string data under --strict, and string
        # operators that interned codes cannot express).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # The parser, the structural hashes and the printers recurse over the
        # term structure, so a very long `;` chain exhausts the stack.
        print("error: input nested too deeply "
              f"(Python recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
