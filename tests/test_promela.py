"""Tests for Promela emission and the LTL property templates."""

import ast
import math
import os
import re

import pytest

from chorc.core import BinOp, Ref, Valuation, evaluate
from chorc.promela import (
    MAX_LEN, PromelaError, PromelaOptions, _pexpr, _Strings, format_ltl,
    generate_promela, ltl_templates, sanitize, validate_promela,
)
from chorc.parser import parse_source
from chorc.synthesis import PROFILES, synthesize

from conftest import load_stem

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

MACROS = [
    "#define send(ch) ch!value",
    "#define recv(ch) ch?value",
]


def model_for(stem, profile="default", **opts):
    decl, _, ch = load_stem(stem)
    sys = synthesize(decl, ch, profile)
    return sys, generate_promela(sys, PromelaOptions(**opts))


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
        assert model.strings  # at least one literal interned
        assert "of { int }" in model.text  # str channels carry codes

    def test_comment_closer_in_a_string_keeps_the_header_a_comment(self):
        decl, _, ch = parse_source(
            'comp A { var s: str = "a*/b"; port p: ss of str binds s; }\n'
            'comp B { var t: str = ""; port r: r of str binds t; }\n'
            "choreography t = A.p -> { B.r }")
        model = generate_promela(synthesize(decl, ch, "default"))
        assert model.strings == {"a*/b": 1, "": 2}
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
        assert (_pexpr(self.MOD, _Strings(False, {}))
                == "(((A_a % A_b) + A_b) % A_b)")

    def test_mod_is_floor_modulo_under_truncating_remainder(self):
        text = _pexpr(self.MOD, _Strings(False, {}))
        for a in range(-6, 7):
            for b in (-3, -2, -1, 1, 2, 3):
                c_value = eval(text, {"A_a": _CInt(a), "A_b": _CInt(b)})
                python_value = evaluate(self.MOD, Valuation({"A.a": a, "A.b": b}))
                assert c_value == python_value == a % b, (a, b)

    def test_div_agrees_with_truncating_division(self):
        div = BinOp("/", Ref("A.a"), Ref("A.b"))
        text = _pexpr(div, _Strings(False, {}))
        assert text == "(A_a / A_b)"
        for a in range(-6, 7):
            for b in (-3, -2, -1, 1, 2, 3):
                c_value = eval(text, {"A_a": _CInt(a), "A_b": _CInt(b)})
                python_value = evaluate(div, Valuation({"A.a": a, "A.b": b}))
                assert c_value == python_value == math.trunc(a / b), (a, b)


class TestSanitize:
    def test_symbols(self):
        assert sanitize("B1.cr@2") == "B1_cr_2"
        assert sanitize("p#1") == "p_1"


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
