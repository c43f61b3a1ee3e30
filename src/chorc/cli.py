"""Command-line interface.

Subcommands: check, synth, explore, equiv, simulate, promela, ltl.
Exit codes: 0 success, 1 analysis failure (diagnostics, mismatch, failed
validation, synthesis error, runtime evaluation error), 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
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


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


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


def _check(decl, ch, quiet=False):
    diags = check_well_formed(decl, ch)
    errors = [d for d in diags if d.severity == "error"]
    if not quiet:
        for d in diags:
            print(d, file=sys.stderr)
    return errors


def _profile(args) -> str:
    if getattr(args, "paper_ack_encoding", False):
        return "compat"
    return args.profile


def cmd_check(args) -> int:
    decl, name, ch = _load(args)
    errors = _check(decl, ch)
    if errors:
        return 1
    print(f"{args.file}: ok ({name}: "
          f"{len(decl.components)} components)")
    return 0


def cmd_synth(args) -> int:
    decl, name, ch = _load(args)
    if _check(decl, ch):
        return 1
    system = synthesize(decl, ch, _profile(args))
    text = serialize_system(system)
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
    print(f"{name}: {len(system.components)} components, "
          f"{len(system.gamma)} interactions", file=sys.stderr)
    if args.emit_dot:
        _write(args.emit_dot, system_to_dot(system))
    return 0


def cmd_explore(args) -> int:
    decl, name, ch = _load(args)
    if _check(decl, ch):
        return 1
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


def cmd_equiv(args) -> int:
    decl, name, ch = _load(args)
    if _check(decl, ch):
        return 1
    system = synthesize(decl, ch, _profile(args))
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


def cmd_simulate(args) -> int:
    decl, name, ch = _load(args)
    if _check(decl, ch):
        return 1
    system = synthesize(decl, ch, _profile(args))
    result = simulate(system, seed=args.seed, max_steps=args.max_steps,
                      max_chan_len=args.max_chan_len)
    if args.trace:
        _write(args.trace, trace_text(result))
    print(f"{name}: {result.outcome} after {result.steps} step(s), seed {args.seed}")
    return 0 if result.outcome == "completed" else 1


def cmd_promela(args) -> int:
    decl, name, ch = _load(args)
    if _check(decl, ch):
        return 1
    system = synthesize(decl, ch, _profile(args))
    opts = PromelaOptions(paper_ack=args.paper_ack_encoding, strict=args.strict,
                          max_len=args.max_chan_len, inline_ltl=args.inline_ltl)
    model = generate_promela(system, opts)
    problems = validate_promela(model.text)
    if args.output:
        _write(args.output, model.text)
    else:
        print(model.text, end="")
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    return 0


def cmd_ltl(args) -> int:
    decl, name, ch = _load(args)
    if _check(decl, ch):
        return 1
    system = synthesize(decl, ch, _profile(args))
    text = format_ltl(ltl_templates(system))
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chorc",
        description="Choreography compiler: synthesis, verification, "
                    "simulation and Promela generation.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, profile=True):
        p.add_argument("file", help="input .chor file")
        p.add_argument("--config", default=None,
                       help="separate declarations file (two-file mode)")
        if profile:
            p.add_argument("--profile", choices=PROFILES, default="default",
                           help="synthesis profile")
            p.add_argument("--paper-ack-encoding", action="store_true",
                           help="acknowledge over the data channel itself "
                                "(implies --profile compat)")

    def limits(p):
        p.add_argument("--max-configs", type=_int_at_least(1), default=200_000,
                       help="store at most this many states per exploration")
        p.add_argument("--max-depth", type=_int_at_least(1), default=10_000,
                       help="expand at most this many BFS levels per exploration")

    p = sub.add_parser("check", help="parse and check well-formedness")
    common(p, profile=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("synth", help="synthesize a component system")
    common(p)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--emit-dot", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("explore", help="explore the choreography semantics")
    common(p, profile=False)
    limits(p)
    p.add_argument("--dump-lts", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("equiv", help="check choreography/system equivalence")
    common(p)
    limits(p)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("simulate", help="run the simulation harness")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_int_at_least(0), default=100_000)
    p.add_argument("--max-chan-len", type=_int_at_least(0), default=MAX_LEN)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a JSONL trace")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("promela", help="emit a Promela model")
    common(p)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--strict", action="store_true",
                   help="reject string-typed data instead of interning")
    p.add_argument("--max-chan-len", type=_int_at_least(0), default=MAX_LEN)
    p.add_argument("--inline-ltl", action="store_true",
                   help="append ltl blocks to the model")
    p.set_defaults(fn=cmd_promela)

    p = sub.add_parser("ltl", help="emit LTL property templates")
    common(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_ltl)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SynthError, EvalError, PromelaError) as exc:
        # Input-dependent failures of synthesis, of evaluation during
        # exploration or simulation (division or modulo by zero) and of
        # Promela emission (string data under --strict).
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
