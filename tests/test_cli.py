"""End-to-end tests for the command-line interface."""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from chorc import cli
from chorc.cli import main

from conftest import corpus_path, corpus_paths

BUYING = corpus_path("buying")
SYNC = corpus_path("comm_sync")

BAD = """
comp A { var x: int = 0; port p: ss of int binds x; }
choreography broken = A.p -> { A.p }
"""

CR_STRING = r"""
comp A { var msg: str = "a\rb"; port p: ss of str binds msg; }
comp B { var got: str = ""; port q: r of str binds got; }
choreography cr = A.p[msg != "\r", msg := msg + "\r"] -> { B.q[skip] }
"""


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestCheck:
    def test_ok(self, capsys):
        code, out, _ = run(["check", SYNC], capsys)
        assert code == 0
        assert "ok" in out

    def test_diagnostics_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.chor"
        bad.write_text(BAD)
        code, _, err = run(["check", str(bad)], capsys)
        assert code == 1
        assert "error" in err

    def test_missing_file_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "no/such/file.chor"])
        assert exc.value.code == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.chor"
        bad.write_bytes(b"// caf\xe9\nchoreography x = nil\n")
        with pytest.raises(SystemExit) as exc:
            main(["check", str(bad)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("argv, name", [
        (["synth", SYNC, "-o"], "x"), (["explore", SYNC, "--dump-lts"], "x.dot")])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, argv, name):
        target = tmp_path / "missing" / name
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(target)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{target}'\n")
        assert not target.parent.exists()

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.chor"
        bad.write_text("choreography x = @@")
        with pytest.raises(SystemExit) as exc:
            main(["check", str(bad)])
        assert exc.value.code == 1

    def test_escaped_carriage_return_survives_a_file(self, tmp_path, capsys):
        """Files are read with universal newlines, so a carriage return in
        a string literal is written as the escape \\r, and printed back so."""
        src = tmp_path / "cr.chor"
        src.write_text(CR_STRING)
        code, out, _ = run(["check", str(src)], capsys)
        assert code == 0
        assert "ok" in out
        code, out, _ = run(["synth", str(src)], capsys)
        assert code == 0
        assert 'var msg: str = "a\\rb"' in out


class TestSynth:
    def test_stdout_serialization(self, capsys):
        code, out, err = run(["synth", SYNC], capsys)
        assert code == 0
        assert "component" in out
        assert "interactions" in err

    def test_output_file_and_dot(self, tmp_path, capsys):
        out_f = tmp_path / "sys.txt"
        dot_f = tmp_path / "sys.dot"
        code, _, _ = run(["synth", BUYING, "-o", str(out_f),
                          "--emit-dot", str(dot_f)], capsys)
        assert code == 0
        assert "component" in out_f.read_text()
        assert dot_f.read_text().startswith("digraph")

    def test_profile_changes_interaction_count(self, tmp_path, capsys):
        _, _, err_d = run(["synth", BUYING], capsys)
        _, _, err_c = run(["synth", BUYING, "--profile", "compat"], capsys)
        assert "21 interactions" in err_d
        assert "27 interactions" in err_c

    def test_reruns_are_identical(self, capsys):
        _, out1, _ = run(["synth", BUYING], capsys)
        _, out2, _ = run(["synth", BUYING], capsys)
        assert out1 == out2


class TestTwoFileMode:
    def test_config_split(self, tmp_path, capsys):
        src = Path(SYNC).read_text()
        head, _, tail = src.partition("choreography")
        (tmp_path / "decls.chor").write_text(head)
        (tmp_path / "main.chor").write_text("choreography" + tail)
        code, out, _ = run(["check", str(tmp_path / "main.chor"),
                            "--config", str(tmp_path / "decls.chor")], capsys)
        assert code == 0

    @pytest.mark.parametrize("broken", ["decls", "main"])
    def test_parse_error_names_the_failing_file(self, broken, tmp_path, capsys):
        src = Path(SYNC).read_text()
        head, _, tail = src.partition("choreography")
        files = {"decls": head, "main": "choreography" + tail}
        files[broken] += "\n@@\n"
        for stem, text in files.items():
            (tmp_path / f"{stem}.chor").write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["check", str(tmp_path / "main.chor"),
                  "--config", str(tmp_path / "decls.chor")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{tmp_path / (broken + '.chor')}: parse error: ")


class TestExplore:
    def test_reports_rules(self, capsys):
        code, out, _ = run(["explore", SYNC], capsys)
        assert code == 0
        assert "synch-sendrcv" in out

    def test_dump_lts(self, tmp_path, capsys):
        # One solid node per configuration that the summary counts, the
        # expanded ones; a truncated run adds dashed nodes.
        dot = tmp_path / "lts.dot"
        for argv, dashed in (([SYNC], False),
                             ([corpus_path("producer_consumer"), "--max-configs", "5"], True)):
            _, out, _ = run(["explore", *argv, "--dump-lts", str(dot)], capsys)
            text = dot.read_text()
            assert text.startswith("digraph")
            nodes = [line for line in text.splitlines() if "shape=" in line]
            solid = [line for line in nodes if "style=dashed" not in line]
            assert out.split(": ", 1)[1].startswith(f"{len(solid)} configurations,"), argv
            assert (len(solid) < len(nodes)) == dashed, argv


class TestEquiv:
    def test_equivalent_exit_0(self, capsys):
        code, out, _ = run(["equiv", SYNC], capsys)
        assert code == 0
        assert "equivalent" in out

    def test_limits_flag(self, capsys):
        code, out, _ = run(
            ["equiv", corpus_path("microservice"), "--max-configs", "10"],
            capsys)
        assert code == 1
        assert "inconclusive" in out


class TestSimulate:
    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code, out, _ = run(["simulate", BUYING, "--seed", "3",
                            "--trace", str(trace)], capsys)
        assert code == 0
        assert "completed" in out
        lines = trace.read_text().splitlines()
        assert all(json.loads(l) for l in lines)

    def test_seed_reproducibility(self, tmp_path, capsys):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["simulate", BUYING, "--seed", "7", "--trace", str(t1)], capsys)
        run(["simulate", BUYING, "--seed", "7", "--trace", str(t2)], capsys)
        assert t1.read_bytes() == t2.read_bytes()


class TestPromelaAndLtl:
    def test_promela_stdout(self, capsys):
        code, out, _ = run(["promela", SYNC], capsys)
        assert code == 0
        assert "proctype" in out

    def test_paper_ack_implies_compat(self, capsys):
        code, out, _ = run(["promela", BUYING, "--paper-ack-encoding"], capsys)
        assert code == 0
        assert "synchRecv(" in out
        assert "chan ack_" not in out

    @pytest.mark.parametrize("command", ["synth", "equiv", "simulate", "ltl"])
    def test_paper_ack_only_on_promela(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, BUYING, "--paper-ack-encoding"])
        assert exc.value.code == 2

    def test_ltl_output(self, capsys):
        code, out, _ = run(["ltl", BUYING, "--profile", "compat"], capsys)
        assert code == 0
        assert "termination :" in out

    def test_inline_ltl(self, capsys):
        code, out, _ = run(["promela", SYNC, "--inline-ltl"], capsys)
        assert code == 0
        assert "ltl termination" in out

    @pytest.mark.parametrize("command", ["promela", "ltl"])
    def test_mod_operator(self, command, tmp_path, capsys):
        src = tmp_path / "mod.chor"
        src.write_text(MOD)
        code, out, err = run([command, str(src)], capsys)
        assert code == 0
        assert err == ""
        if command == "promela":
            assert "(((A_x % 3) + 3) % 3)" in out


MOD = """
comp A { var x: int = -7; port p: ss of int binds x; }
comp B { var y: int = 0; port q: r of int binds y; }
choreography modulo = A.p[x mod 3 != 1, x := x mod 3] -> { B.q[y := y mod 2] }
"""


DIV_ZERO = """
comp A { var x: int = 4; var z: int = 0; port p: ss of int binds x; }
comp B { var y: int = 0; port q: r of int binds y; }
choreography divzero = A.p[true, x := x / z] -> { B.q[skip] }
"""


class TestRuntimeErrors:
    @pytest.mark.parametrize("command", ["explore", "equiv", "simulate"])
    def test_division_by_zero_is_a_diagnostic(self, command, tmp_path):
        src = tmp_path / "divzero.chor"
        src.write_text(DIV_ZERO)
        proc = subprocess.run([sys.executable, "-m", "chorc.cli", command, str(src)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error: division by zero" in proc.stderr


def chain(tmp_path, n):
    """A file holding a `;` chain of ``n`` synchronous interactions."""
    src = tmp_path / "chain.chor"
    src.write_text(
        "comp A { var x: int = 1; port p: ss of int binds x; }\n"
        "comp B { var y: int = 0; port r: r of int binds y; }\n"
        "choreography chain = " + " ;\n".join(["A.p -> { B.r }"] * n))
    return str(src)


class TestDeepNesting:
    @pytest.mark.parametrize("command", ["check", "explore", "synth"])
    def test_long_chain_is_a_diagnostic(self, command, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "chorc.cli", command,
                               chain(tmp_path, 1000)], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: input nested too deeply")

    @pytest.mark.parametrize("command, shown", [
        ("explore", "chain: 601 configurations, 1 final valuation(s), 0 deadlock(s)\n"),
        ("equiv", "chain: equivalent (chor: 601 states, sys: 1200 states)\n"),
    ], ids=["explore", "equiv"])
    def test_explorers_take_a_chain_the_parser_takes(self, command, shown, tmp_path):
        """No hash or step table recurses over the chain, so 600 interactions
        explore within the default recursion limit."""
        proc = subprocess.run([sys.executable, "-m", "chorc.cli", command,
                               chain(tmp_path, 600)], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith(shown)

    @pytest.mark.parametrize("command", ["check", "synth"])
    def test_recursion_limit_in_process(self, command, tmp_path, capsys, monkeypatch):
        """The handler of ``main`` itself, under a recursion limit lowered
        to a little above the caller's depth, so that a short chain
        overflows it in the well-formedness check.

        A line tracer written in Python, as ``python -m trace`` is, runs a
        frame deeper than the line it traces, so it overflows first, and
        Python switches a tracer that raises off. The check is wrapped to
        put the tracer back as the error leaves it, so that the handler's
        lines are traced as well as run."""
        tracer, check = sys.gettrace(), cli.check_well_formed

        def retraced(*args):
            try:
                return check(*args)
            finally:
                sys.settrace(tracer)
        monkeypatch.setattr(cli, "check_well_formed", retraced)
        path = chain(tmp_path, 200)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            code, out, err = run([command, path], capsys)
        finally:
            sys.setrecursionlimit(limit)
        assert (code, out) == (1, "")
        assert err == f"error: input nested too deeply (Python recursion limit {depth + 100})\n"

    def test_dump_lts_takes_a_long_chain(self, tmp_path, capsys):
        """The DOT dump prints no term, so 900 interactions, well past the
        old limit of 325, dump in process."""
        dot = tmp_path / "chain.dot"
        code, out, err = run(["explore", chain(tmp_path, 900), "--dump-lts", str(dot)], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("chain: 901 configurations")
        assert dot.read_text().count("shape=") == 901


class TestPromelaErrors:
    def test_strict_string_data_is_a_diagnostic(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chorc.cli", "promela",
             corpus_path("strings"), "--strict"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: string value")

    STRING_DECLS = ('comp A { var s: str = "b"; var n: int = 0; port p: ss of int binds n; }\n'
                    'comp B { var u: str = ""; var m: int = 0; port r: r of int binds m; }\n')

    @pytest.mark.parametrize("op, chor, shown", [
        ("+", 'A.p[true, n := 1] -> { B.r[u := u + "x"] }', 'B.u + "x"'),
        ("<", 'A.p["a" < s, n := 1] -> { B.r }', '"a" < A.s'),
    ] + [(op, f'A.p[s {op} "a", n := 1] -> {{ B.r }}', f'A.s {op} "a"')
         for op in ("<", "<=", ">", ">=")])
    def test_string_arithmetic_and_ordering_are_refused(self, op, chor, shown,
                                                        tmp_path, capsys):
        """Interned codes do not add or order like the strings they stand
        for, so these operators on strings are a diagnostic, not a model."""
        path = tmp_path / "ord.chor"
        path.write_text(self.STRING_DECLS + f"choreography c = {chor}\n")
        assert run(["promela", str(path)], capsys) == (
            1, "", f"error: operator {op!r} on strings cannot be expressed "
                   f"in Promela: {shown}\n")

    def test_string_equality_is_emitted(self, tmp_path, capsys):
        path = tmp_path / "eq.chor"
        path.write_text(self.STRING_DECLS + 'choreography c = '
                        'A.p[s != "a" and s == "b", n := 1] -> { B.r }\n')
        code, out, _ = run(["promela", str(path)], capsys)
        assert code == 0
        assert "((A_s != 3) && (A_s == 1))" in out  # "a" is 3, "b" is 1


class TestNonAsciiInput:
    def test_superscript_digit_is_a_parse_error(self, tmp_path):
        src = tmp_path / "sup.chor"
        src.write_text("comp A { var n: int = \u00b2; port p: ss of int binds n; }\n"
                       "choreography t = nil\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "chorc.cli", "check", str(src)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stderr.startswith(f"{src}: parse error: 1:23: unexpected character")


#: Two components whose variables sanitize to one global ``a_b_c``.
SAME_GLOBAL = """
comp a_b { var c: int = 0; port p: ss of int binds c; }
comp a { var b_c: int = 0; port q: r of int binds b_c; }
choreography clash = a_b.p -> { a.q }
"""

#: Variable ``p_1`` of ``A`` and ``A.p#1``, the synthesized copy of port
#: ``p``, both become ``A_p_1``: the emitter does not keep user names and
#: synthesized names apart.
COPY_NAME = """
comp A { var x: int = 0; var p_1: int = 0; port p: ss of int binds x; }
comp B { var y: int = 0; port r: r of int binds y; }
choreography clash = A.p -> { B.r }
"""

#: Variable ``ctl`` of ``A`` and ``A.%c``, the control variable that the
#: default profile gives ``A`` here, both become ``A_ctl``.
CONTROL_NAME = """
comp A { var x: int = 0; var ctl: int = 0; port p: ss of int binds x; port q: ss of int binds x; }
comp B { var y: int = 0; port r: r of int binds y; }
choreography clash = A.p -> { B.r } ; A.q -> { B.r }
"""

#: A component named like the ``send`` macro.
MACRO_NAME = """
comp send { var x: int = 0; port p: ss of int binds x; }
comp B { var y: int = 0; port q: r of int binds y; }
choreography clash = send.p -> { B.q }
"""

#: A component named like the model's own ``init`` process.
INIT_NAME = """
comp init { var x: int = 0; port p: ss of int binds x; }
comp B { var y: int = 0; port q: r of int binds y; }
choreography clash = init.p -> { B.q }
"""

#: Variable ``code`` of component ``c`` becomes the global ``c_code``.
KEYWORD_GLOBAL = """
comp c { var code: int = 0; port p: ss of int binds code; }
comp B { var y: int = 0; port q: r of int binds y; }
choreography clash = c.p -> { B.q }
"""

#: A component named like the ``value`` local of every proctype.
LOCAL_NAME = """
comp value { var x: int = 0; port p: ss of int binds x; }
comp B { var y: int = 0; port q: r of int binds y; }
choreography clash = value.p -> { B.q }
"""


class TestPromelaNames:
    @pytest.mark.parametrize("source, name", [(SAME_GLOBAL, "a_b_c"),
                                              (MACRO_NAME, "send"),
                                              (COPY_NAME, "A_p_1"),
                                              (CONTROL_NAME, "A_ctl")],
                             ids=["global", "macro", "copy", "control"])
    def test_repeated_name_is_a_diagnostic(self, source, name, tmp_path, capsys):
        src = tmp_path / "clash.chor"
        src.write_text(source)
        code, out, err = run(["promela", str(src)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: Promela name {name} is declared twice\n"

    @pytest.mark.parametrize("source, message", [
        (INIT_NAME, "init is a Promela keyword"),
        (KEYWORD_GLOBAL, "c_code is a Promela keyword"),
        (LOCAL_NAME, "value is a proctype local"),
    ], ids=["proctype", "global", "local"])
    def test_reserved_name_is_a_diagnostic(self, source, message, tmp_path, capsys):
        src = tmp_path / "clash.chor"
        src.write_text(source)
        code, out, err = run(["promela", str(src)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: Promela name {message}\n"


class TestRepeatedCalls:
    """The argument parser is built once per process; no call sees the
    options of an earlier one."""

    def test_seed_defaults_again(self, capsys):
        assert "seed 5" in run(["simulate", BUYING, "--seed", "5"], capsys)[1]
        assert "seed 0" in run(["simulate", BUYING], capsys)[1]

    def test_ack_encoding_defaults_again(self, capsys):
        assert "chan ack_" not in run(["promela", BUYING, "--paper-ack-encoding"],
                                      capsys)[1]
        assert "chan ack_" in run(["promela", BUYING], capsys)[1]

    def test_single_file_after_config(self, tmp_path, capsys):
        head, _, tail = Path(SYNC).read_text().partition("choreography")
        (tmp_path / "decls.chor").write_text(head)
        (tmp_path / "main.chor").write_text("choreography" + tail)
        code, out, _ = run(["check", str(tmp_path / "main.chor"),
                            "--config", str(tmp_path / "decls.chor")], capsys)
        assert code == 0
        code, out, _ = run(["check", SYNC], capsys)
        assert code == 0
        assert out.startswith(f"{SYNC}: ok")

    def test_calls_that_do_not_explore_leave_no_cyclic_garbage(self, capsys):
        # What a call builds dies by reference counting when it returns.
        # The first call builds the argument parser, which lives on.
        run(["check", SYNC], capsys)
        gc.collect()
        gc.disable()
        try:
            for path in corpus_paths():
                assert main(["check", path]) == 0
                for command in ("synth", "simulate", "promela", "ltl"):
                    for profile in ("default", "compat"):
                        assert main([command, path, "--profile", profile]) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
            capsys.readouterr()


class TestUsage:
    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", SYNC, "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["explore", SYNC, "--max-configs", "0"],
        ["explore", SYNC, "--max-depth", "0"],
        ["equiv", SYNC, "--max-configs", "0"],
        ["equiv", SYNC, "--max-depth", "-3"],
        ["simulate", SYNC, "--max-steps", "-1"],
        ["simulate", SYNC, "--max-chan-len", "-1"],
        ["promela", SYNC, "--max-chan-len", "-1"],
        ["promela", SYNC, "--max-chan-len", "0"],
        ["simulate", SYNC, "--max-steps", "many"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[2:]))
    def test_out_of_range_limit_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert f"argument {argv[2]}: " in err

    def test_smallest_limits_are_accepted(self, capsys):
        assert run(["explore", SYNC, "--max-configs", "1", "--max-depth", "1"],
                   capsys)[0] == 1  # truncated
        assert run(["simulate", SYNC, "--max-steps", "0", "--max-chan-len", "0"],
                   capsys)[0] == 1  # step limit at step 0
        assert run(["promela", SYNC, "--max-chan-len", "1"], capsys)[0] == 0

    def test_help_for_subcommands(self):
        for cmd in ("check", "synth", "explore", "equiv", "simulate",
                    "promela", "ltl"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0

    def test_installed_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "chorc.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "chorc" in proc.stdout
