"""Tests for Promela emission and the LTL property templates."""

import ast
import math
import os
import random
import re

import pytest

from chorc import promela
from chorc.cbs import (
    AtomicComponent, CompositeSystem, Interaction, Transition, check_structure, sys_explore,
)
from chorc.core import SKIP, TRUE, BinOp, Lit, Port, Ref, Valuation, Variable
from chorc.promela import (
    MAX_LEN, PromelaError, PromelaOptions, _pexpr, _Symbols, format_ltl,
    generate_promela, ltl_templates, sanitize, validate_promela,
)
from chorc.parser import parse_source
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import MUTATIONS

from conftest import evaluate, generated, load_stem

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

MACROS = [
    "#define send(ch) ch!value",
    "#define recv(ch) ch?value",
]


def model_for(stem, profile="default", **opts):
    decl, _, ch = load_stem(stem)
    sys = synthesize(decl, ch, profile)
    return sys, generate_promela(sys, PromelaOptions(**opts))


def interned_strings(text):
    """The map of the interned-strings header of a model's text, string to
    code: empty if the text has no header."""
    if not text.startswith("/* interned strings:"):
        return {}
    entries = [line.strip().split(" = ", 1)
               for line in text.split("\n*/\n", 1)[0].splitlines()[1:]]
    return {ast.literal_eval(literal): int(code) for code, literal in entries}


def proctype_body(text, cid):
    m = re.search(rf"proctype {cid}\(\) \{{\n(.*?)\n\}}", text, re.S)
    assert m, f"no proctype for {cid}"
    return m.group(1)


class TestGeneral:
    def test_corpus_models_validate(self, corpus):
        for path, decl, name, ch in corpus:
            sys = synthesize(decl, ch)
            model = generate_promela(sys)
            assert validate_promela(model.text) == [], path

    def test_one_proctype_per_component_plus_init(self):
        _, model = model_for("seq_chain")
        assert model.text.count("proctype ") == 3
        assert "init {" in model.text
        assert model.text.count("run ") == 3

    def test_macros_verbatim(self):
        _, model = model_for("comm_sync")
        for macro in MACROS:
            assert macro in model.text

    def test_deterministic(self):
        _, m1 = model_for("buying", "compat")
        _, m2 = model_for("buying", "compat")
        assert m1.text == m2.text


class TestChannels:
    def test_ss_channels_are_rendezvous(self):
        _, model = model_for("comm_sync")
        assert re.search(r"chan ch_\w+ = \[0\] of \{ int \};", model.text)

    def test_as_channels_are_buffered(self):
        _, model = model_for("comm_async")
        assert re.search(r"chan ch_\w+ = \[MAX_LEN\] of \{ int \};", model.text)
        assert f"#define MAX_LEN {MAX_LEN}" in model.text

    def test_buffered_channels_hold_at_least_one_message(self):
        # A channel of length 0 is a rendezvous in SPIN, so a model with
        # MAX_LEN 0 would turn every asynchronous send into a handshake.
        assert "#define MAX_LEN 1\n" in model_for("comm_async", max_len=1)[1].text
        for bad in (0, -1):
            with pytest.raises(PromelaError, match="at least 1"):
                PromelaOptions(max_len=bad)

    def test_dedicated_ack_channels_by_default(self):
        _, model = model_for("comm_sync")
        assert "chan ack_" in model.text

    def test_paper_ack_mode_reuses_data_channel(self):
        _, model = model_for("comm_sync", "compat", paper_ack=True)
        assert "chan ack_" not in model.text
        assert "synchRecv(" in model.text


@pytest.fixture(scope="module")
def seller():
    _, model = model_for("buying", "compat", paper_ack=True)
    assert validate_promela(model.text) == []
    return proctype_body(model.text, "S")


class TestSellerProcess:
    def test_fourteen_arms_plus_end(self, seller):
        arms = re.findall(r":: \(currentLocation == (\w+)\) ->", seller)
        end = re.findall(r":: \(currentLocation == (\w+)\) -> break;", seller)
        assert len(end) == 1
        assert len(arms) == 14 + len(end)

    def test_branch_arms_offer_alternative_receives(self, seller):
        # The two choice points each present an inner if over two channels.
        inner = re.findall(r":: recv\((\w+)\) ->", seller)
        assert len(inner) == 4

    def test_every_receive_acknowledged(self, seller):
        # paper-ack mode: each buffered-looking recv is followed by sendAck
        # on the same channel; single receives use the synchRecv macro.
        for chan in re.findall(r":: recv\((\w+)\) ->", seller):
            assert f"sendAck({chan});" in seller


class TestStrings:
    def test_interned(self):
        _, model = model_for("strings")
        assert interned_strings(model.text)  # at least one literal interned
        assert "of { int }" in model.text  # str channels carry codes

    def test_comment_closer_in_a_string_keeps_the_header_a_comment(self):
        decl, _, ch = parse_source(
            'comp A { var s: str = "a*/b"; port p: ss of str binds s; }\n'
            'comp B { var t: str = ""; port r: r of str binds t; }\n'
            "choreography t = A.p -> { B.r }")
        model = generate_promela(synthesize(decl, ch, "default"))
        assert interned_strings(model.text) == {"a*/b": 1, "": 2}
        assert validate_promela(model.text) == []
        header = model.text.split("\n*/\n", 1)[0]
        assert "*/" not in header
        assert ast.literal_eval(header.splitlines()[1].split(" = ", 1)[1]) == "a*/b"

    def test_strict_mode_rejects_strings(self):
        with pytest.raises(PromelaError):
            model_for("strings", strict=True)

    def test_strict_mode_fine_without_strings(self):
        _, model = model_for("comm_sync", strict=True)
        assert validate_promela(model.text) == []


class TestValidator:
    def test_catches_unbalanced_blocks(self):
        _, model = model_for("comm_sync")
        broken = model.text.replace("od;", "", 1)
        assert validate_promela(broken)

    def test_catches_garbage_lines(self):
        _, model = model_for("comm_sync")
        assert validate_promela(model.text + "\nnot promela at all ((\n")

    def test_keyword_prefixed_names_are_not_keywords(self):
        decl, _, ch = parse_source(
            "comp fiA { var x: int = 1; port p: as of int binds x; }\n"
            "comp odB { var y: int = 0; port q: r of int binds y; }\n"
            "choreography prefixes = fiA.p[true, x := x + 1] -> { odB.q[y := y * 2] }\n")
        for profile in PROFILES:
            model = generate_promela(synthesize(decl, ch, profile))
            assert re.search(r"^\s*(fi|od)\w", model.text, re.M)
            assert validate_promela(model.text) == []


class _CInt(int):
    """An int whose / and % truncate toward zero, as in C and Promela."""

    def __mod__(self, other):
        return _CInt(int(math.fmod(self, other)))

    def __add__(self, other):
        return _CInt(int(self) + int(other))

    def __truediv__(self, other):
        q = abs(int(self)) // abs(int(other))
        return _CInt(q if (self < 0) == (other < 0) else -q)


class TestArithmetic:
    MOD = BinOp("mod", Ref("A.a"), Ref("A.b"))

    def test_mod_text(self):
        assert (_pexpr(self.MOD, _Symbols(False, {}))
                == "(((A_a % A_b) + A_b) % A_b)")

    def test_mod_is_floor_modulo_under_truncating_remainder(self):
        text = _pexpr(self.MOD, _Symbols(False, {}))
        for a in range(-6, 7):
            for b in (-3, -2, -1, 1, 2, 3):
                c_value = eval(text, {"A_a": _CInt(a), "A_b": _CInt(b)})
                python_value = evaluate(self.MOD, Valuation({"A.a": a, "A.b": b}))
                assert c_value == python_value == a % b, (a, b)

    def test_div_agrees_with_truncating_division(self):
        div = BinOp("/", Ref("A.a"), Ref("A.b"))
        text = _pexpr(div, _Symbols(False, {}))
        assert text == "(A_a / A_b)"
        for a in range(-6, 7):
            for b in (-3, -2, -1, 1, 2, 3):
                c_value = eval(text, {"A_a": _CInt(a), "A_b": _CInt(b)})
                python_value = evaluate(div, Valuation({"A.a": a, "A.b": b}))
                assert c_value == python_value == math.trunc(a / b), (a, b)


class TestExpressionWalk:
    @pytest.mark.parametrize("n", [50, 400])
    def test_each_node_visited_once(self, n):
        # A left-deep chain of + under an ordering: each level's left operand
        # is the whole chain below it, so a walk that looks into the left
        # operand again at every level reads some node's ``left`` n*n/2 times.
        reads = []

        class Counted(BinOp):
            def __getattribute__(self, name):
                if name == "left":
                    reads.append(name)
                return super().__getattribute__(name)

        chain = Ref("A.x")
        for i in range(n):
            chain = Counted("+", chain, Lit(i))
        expr = Counted("<", chain, Ref("A.x"))
        text = _pexpr(expr, _Symbols(False, {"A.x": "int"}))
        assert text.startswith("(" * (n + 1) + "A_x + 0)")
        assert len(reads) == n + 1


def _guarded_receive_system(extra_b=()):
    """``A`` sends asynchronously to ``B.r``, which ``B`` receives only when
    ``B.y > 5``; ``extra_b`` adds transitions leaving ``B``'s start."""
    ax, by = Variable("x", "A", "int"), Variable("y", "B", "int")
    send, recv = Port("a", "A", ax, "as"), Port("r", "B", by, "r")
    a = AtomicComponent(
        id="A", vars=((ax, 1),), ports=(send,), locations=("a0", "a1"),
        transitions=(Transition("a0", send, TRUE, SKIP, "a1"),), init="a0", end="a1")
    b = AtomicComponent(
        id="B", vars=((by, 0),), ports=(recv,), locations=("b0", "b1", "b2"),
        transitions=(Transition("b0", recv, BinOp(">", Ref("B.y"), Lit(5)), SKIP, "b1"),
                     *extra_b),
        init="b0", end="b1")
    return CompositeSystem(components=(a, b), gamma=(Interaction(send, (recv,)),))


class TestReceiveGuard:
    SHAPES = {
        "single receive": (),
        "several alternatives": (Transition("b0", None, TRUE, SKIP, "b2"),),
    }

    @pytest.mark.parametrize("paper_ack", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_guarded_receive_is_refused(self, shape, paper_ack):
        sys = _guarded_receive_system(self.SHAPES[shape])
        assert check_structure(sys) == []
        with pytest.raises(PromelaError, match=r"receive B\.r has a guard \(B\.y > 5\)"):
            generate_promela(sys, PromelaOptions(paper_ack=paper_ack))

    def test_unwired_send_is_refused(self):
        # The drop-interaction mutant keeps the transition on A.p#1, which
        # no interaction of gamma names.
        decl, _, ch = load_stem("comm_sync")
        mutant = MUTATIONS["drop-interaction"](synthesize(decl, ch))
        with pytest.raises(PromelaError, match=r"^send port A\.p#1 not wired in gamma$"):
            generate_promela(mutant, PromelaOptions())

    def test_the_guard_blocks_the_system(self):
        # What an unguarded recv(ch_B_r) would hide: B never receives.
        result = sys_explore(_guarded_receive_system())
        assert len(result.finals) == 0 and len(result.deadlocks) == 1


class TestSanitize:
    def test_symbols(self):
        assert sanitize("B1.cr@2") == "B1_cr_2"
        assert sanitize("p#1") == "p_1"


class TestEmissionWork:
    """Within one ``generate_promela`` call, each distinct name is sanitized
    once and each distinct expression node is translated once."""

    @pytest.mark.parametrize("source", ["buying", "longchain"])
    def test_each_name_and_node_once(self, monkeypatch, source):
        if source == "buying":
            decl, _, ch = load_stem(source)
        else:
            decl, _, ch = parse_source(generated(source, 1))
        names, nodes = [], []
        real_sanitize, real_ptext = promela.sanitize, promela._ptext

        def sanitize(name):
            names.append(name)
            return real_sanitize(name)

        def ptext(e, sym):
            nodes.append(e)
            return real_ptext(e, sym)

        monkeypatch.setattr(promela, "sanitize", sanitize)
        monkeypatch.setattr(promela, "_ptext", ptext)
        for profile in PROFILES:
            sys = synthesize(decl, ch, profile)
            for opts in (PromelaOptions(), PromelaOptions(paper_ack=True, inline_ltl=True)):
                names.clear()
                nodes.clear()
                generate_promela(sys, opts)
                assert names and len(names) == len(set(names)), (profile, opts)
                assert nodes and len(nodes) == len({id(e) for e in nodes}), (profile, opts)


class TestLtl:
    def test_golden_buying(self):
        decl, _, ch = load_stem("buying")
        sys = synthesize(decl, ch, "compat")
        text = format_ltl(ltl_templates(sys))
        with open(os.path.join(GOLDEN, "buying_compat.ltl")) as fh:
            assert text == fh.read()

    def test_four_template_families_present(self):
        decl, _, ch = load_stem("buying")
        sys = synthesize(decl, ch, "compat")
        names = [name for name, _ in ltl_templates(sys)]
        families = {n.split("_")[0] for n in names}
        assert families == {"termination", "livelock", "uniqueness",
                            "transaction"}

    def test_formulas_reference_only_currport_symbols(self):
        decl, _, ch = load_stem("buying")
        sys = synthesize(decl, ch, "compat")
        model = generate_promela(sys)
        defined = set(re.findall(r"#define (\w+) \d", model.text))
        for name, formula in ltl_templates(sys):
            for ident in re.findall(r"currPort_(\w+)", formula):
                assert f"currPort_{ident}" in model.text
            for ident in re.findall(r"== (\w+)", formula):
                assert ident in defined, (name, ident)

    def test_inline_ltl_blocks(self):
        _, model = model_for("buying", "compat", inline_ltl=True)
        assert re.search(r"ltl termination \{.*\}", model.text)
        assert validate_promela(model.text) == []


# -- cycle detection and the validator against references -----------------

def reference_cyclic_transitions(comp):
    """Cycle detection as it was before the SCC pass: one DFS per
    transition, asking whether its target reaches its source."""
    adj = {}
    for t in comp.transitions:
        adj.setdefault(t.src, []).append(t.dst)

    def reaches(src, dst):
        seen, todo = set(), [src]
        while todo:
            cur = todo.pop()
            if cur == dst:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            todo.extend(adj.get(cur, []))
        return False

    return [t for t in comp.transitions if reaches(t.dst, t.src)]


def graph_component(locations, edges):
    """A component whose location graph has the given ``(src, dst)`` edges,
    each a silent transition."""
    return AtomicComponent(
        id="G", vars=(), ports=(), locations=tuple(locations),
        transitions=tuple(Transition(a, None, TRUE, SKIP, b) for a, b in edges),
        init=locations[0])


def assert_cycles_match(sys, where):
    for comp in sys.components:
        got = promela._cyclic_transitions(comp)
        want = reference_cyclic_transitions(comp)
        assert [id(t) for t in got] == [id(t) for t in want], (where, comp.id)


class TestCyclicTransitions:
    def test_corpus(self, corpus):
        found = 0
        for path, decl, _, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                assert_cycles_match(sys, (path, profile))
                found += sum(len(promela._cyclic_transitions(c)) for c in sys.components)
        assert found > 0

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_buying_mutants(self, name):
        decl, _, ch = load_stem("buying")
        for profile in PROFILES:
            assert_cycles_match(MUTATIONS[name](synthesize(decl, ch, profile)),
                                (name, profile))

    def test_random_graphs(self):
        # Self-loops, parallel edges, locations only entered (never left)
        # and unconnected parts all occur among these graphs.
        rng = random.Random(15)
        for case in range(400):
            n = rng.randint(1, 9)
            locs = [f"l{i}" for i in range(n)]
            edges = [(rng.choice(locs), rng.choice(locs)) for _ in range(rng.randint(0, 2 * n))]
            if edges and case % 3 == 0:
                edges.append(edges[rng.randrange(len(edges))])
            if case % 5 == 0:
                edges.append((locs[-1], locs[-1]))
            comp = graph_component(locs, edges)
            assert_cycles_match(CompositeSystem(components=(comp,), gamma=()), edges)

    def test_long_ring_and_chain(self):
        # Deeper than Python's recursion limit: the pass is iterative.
        n = 5000
        locs = [f"l{i}" for i in range(n)]
        ring = graph_component(locs, [(locs[i], locs[(i + 1) % n]) for i in range(n)])
        assert promela._cyclic_transitions(ring) == list(ring.transitions)
        chain = graph_component(locs, [(locs[i], locs[i + 1]) for i in range(n - 1)])
        assert promela._cyclic_transitions(chain) == []

    def test_computed_once_per_component(self, monkeypatch, corpus):
        calls = []
        real = promela._cyclic_transitions

        def counting(comp):
            calls.append(comp)
            return real(comp)

        monkeypatch.setattr(promela, "_cyclic_transitions", counting)
        for _, decl, _, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                for run in (ltl_templates, generate_promela):
                    calls.clear()
                    run(sys)
                    assert calls == list(sys.components), (run.__name__, profile)


#: The validator's line shapes and block opener, frozen as they were when
#: every line was matched against all of them, less the shape that let a
#: stray ``*/`` through.
REFERENCE_LINE_SHAPE = re.compile("|".join(f"(?:{p})" for p in (
    r"^#define \w+(\(\w+\))? .+$",
    r"^(bool|int) \w+( = .+)?;$",
    r"^chan \w+ = \[\w+\] of \{ (int|bool) \};$",
    r"^proctype \w+\(\) \{$",
    r"^(init|atomic) \{$",
    r"^run \w+\(\);$",
    r"^(do|od;|if|fi;|\}|break;|skip;|:: if)$",
    r"^:: .*(->|;|break;)$",
    r"^ltl \w+ \{ .+ \}$",
    r"^[\w\[\]\(\)\.!?><=&|%+*/ _,-]+;$",  # plain statements
)))
REFERENCE_OPENER = re.compile(r"(?:^|\s)(do|if)$")

#: A comment, from ``/*`` to the first ``*/`` after it or to the end.
REFERENCE_COMMENT = re.compile(r"/\*.*?(?:\*/|\Z)", re.S)


def blank_comment(match):
    """A space for a comment, then the line breaks it spans."""
    return " " + "\n" * (len((match.group() + "x").splitlines()) - 1)


def reference_validate_promela(text):
    """The validator as it was before the opener prefilter: every test runs
    on every line, and ``REFERENCE_OPENER`` is searched on each. Comments
    are blanked out of the whole text first."""
    errors = []
    depth_brace = 0
    stack = []
    text = REFERENCE_COMMENT.sub(blank_comment, text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        depth_brace += line.count("{") - line.count("}")
        if depth_brace < 0:
            errors.append(f"line {lineno}: unbalanced '}}'")
        opener = REFERENCE_OPENER.search(line)
        if opener:
            stack.append((opener.group(1), lineno))
        if line in ("od", "od;"):
            if not stack or stack.pop()[0] != "do":
                errors.append(f"line {lineno}: 'od' without matching 'do'")
        if line in ("fi", "fi;"):
            if not stack or stack.pop()[0] != "if":
                errors.append(f"line {lineno}: 'fi' without matching 'if'")
        if not REFERENCE_LINE_SHAPE.match(line):
            errors.append(f"line {lineno}: unrecognized statement: {line!r}")
    if depth_brace != 0:
        errors.append("unbalanced braces at end of file")
    for kind, lineno in stack:
        errors.append(f"line {lineno}: unclosed '{kind}'")
    return errors


def damaged(text, rng):
    """``text`` with a few lines deleted, duplicated or cut short."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(lines))
        how = rng.choice(("delete", "duplicate", "truncate"))
        if how == "delete":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][:rng.randint(0, len(lines[i]))]
    return "\n".join(lines) + "\n"


class TestValidatorReference:
    def test_damaged_corpus_models(self, corpus):
        rng = random.Random(15)
        faults = set()
        for path, decl, _, ch in corpus:
            for profile in PROFILES:
                text = generate_promela(synthesize(decl, ch, profile),
                                        PromelaOptions(inline_ltl=True)).text
                assert validate_promela(text) == reference_validate_promela(text) == []
                for _ in range(10):
                    broken = damaged(text, rng)
                    errors = validate_promela(broken)
                    assert errors == reference_validate_promela(broken), (path, profile)
                    faults.update(e.split(": ", 1)[-1].split(" ", 1)[0] for e in errors)
        # The damage reaches the block pairing, not just line shapes.
        assert {"'od'", "'fi'", "unclosed", "unrecognized"} <= faults, faults

    #: Lines that open, close or fake comments and blocks, or move the brace
    #: depth, where a line-shape shortcut could skip a test.
    HOSTILE = ("/*x;", "x = 1; */", "*/", "/* a */", "od;", "od", "fi", "fi;", "{", "}",
               ":: do", ":: do;", ":: if", "do", "if", "", "   ", "#define X do",
               "#define Y {", "#define Z x if", "chan c = [0] of { int };",
               "chan c = [0] of { int } };", "int x = {1};", "x = y {;", ":: }x;",
               ":: {x ->", "ltl p { [] q }", "break;", "skip;", "\u00e9 = 1;",
               "#define \u00c9 1", "x = 1; /* {", "} */ x;", "/* } */ {", "a /**/ b;")

    def test_line_soup(self, corpus):
        pool = set()
        for _, decl, _, ch in corpus[::4]:
            pool.update(generate_promela(synthesize(decl, ch), PromelaOptions(inline_ltl=True))
                        .text.splitlines())
        pool = sorted(pool) + list(self.HOSTILE)
        rng = random.Random(24)
        faults = set()
        for _ in range(400):
            lines = [rng.choice(self.HOSTILE) if rng.random() < 0.4 else rng.choice(pool)
                     for _ in range(rng.randint(1, 30))]
            text = "\n".join(lines) + "\n"
            errors = validate_promela(text)
            assert errors == reference_validate_promela(text), text
            faults.update(e.split(": ", 1)[-1].split(" ", 1)[0] for e in errors)
        assert {"'od'", "'fi'", "unclosed", "unrecognized", "unbalanced"} <= faults, faults

    @pytest.mark.parametrize("text", ["/* { */\n", "int a = 0; /* } */\n",
                                      "x = 1; /* opens\nnot promela ((\n*/\n"])
    def test_text_inside_comments_is_ignored(self, text):
        assert validate_promela(text) == reference_validate_promela(text) == []

    @pytest.mark.parametrize("text, line", [("x = 1; */\n", "x = 1; */"), ("*/\n", "*/"),
                                            ("/* a */ */\n", "*/")])
    def test_stray_comment_closer(self, text, line):
        # SPIN rejects a ``*/`` that no ``/*`` opened.
        assert validate_promela(text) == reference_validate_promela(text) == [
            f"line 1: unrecognized statement: {line!r}"]

    def test_statement_that_opens_a_comment(self):
        text = "proctype A() {\n/*x;\n}\n"
        assert validate_promela(text) == reference_validate_promela(text) == [
            "unbalanced braces at end of file"]
