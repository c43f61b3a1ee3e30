"""The expression language: precedence, non-chaining comparisons, and a
round-trip property over every operator of ``core.BINARY_OPS``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorc.core import BINARY_OPS, BinOp, FALSE, Lit, Neg, Not, Ref, TRUE, Update
from chorc.lang import Comm, GuardedSend, Loop, Seq, format_chor
from chorc.parser import ParseError, parse_decls, parse_source

DECLS = """
comp A {
  var x: int = 0;
  var y: int = -2;
  var b: bool = false;
  var s: str = "";
  port p: ss of int binds x;
  port q: as of int binds y;
}
comp B {
  var z: int = 0;
  port r: r of int binds z;
}
"""
DECL = parse_decls(DECLS)
A, B = DECL.components
PORT = {p.name: p for p in A.ports + B.ports}
X, Y, BV, S = Ref("A.x"), Ref("A.y"), Ref("A.b"), Ref("A.s")


def parse_guard(text):
    _, _, ch = parse_source(DECLS + f"choreography t = A.p[{text}] -> {{ B.r }}")
    return ch.send.guard


class TestPinned:
    def test_comparisons_do_not_chain(self):
        with pytest.raises(ParseError) as exc:
            parse_guard("x == y == x")
        assert exc.value.message == "expected ']', found '=='"

    def test_comparison_operand_of_comparison_is_parenthesized(self):
        assert parse_guard("(x == 1) == b") == BinOp("==", BinOp("==", X, Lit(1)), BV)
        assert parse_guard("b != (x < y)") == BinOp("!=", BV, BinOp("<", X, Y))

    def test_and_binds_looser_than_comparisons(self):
        assert parse_guard("x > 0 and y < 3") == BinOp(
            "and", BinOp(">", X, Lit(0)), BinOp("<", Y, Lit(3)))

    def test_mul_binds_tighter_than_add(self):
        assert parse_guard("x * y + x == 0") == BinOp(
            "==", BinOp("+", BinOp("*", X, Y), X), Lit(0))

    def test_levels_are_left_associative(self):
        assert parse_guard("x - y - 1 == 0").left == BinOp("-", BinOp("-", X, Y), Lit(1))
        assert parse_guard("b or b and b") == BinOp("or", BV, BinOp("and", BV, BV))

    @pytest.mark.parametrize("guard", [
        r's != "a\nb"', r's == "\t\"\\"', "(x == 1) == b", "b != (x < y)",
    ])
    def test_printed_guard_parses_back(self, guard):
        ch = parse_source(DECLS + f"choreography t = A.p[{guard}] -> {{ B.r }}")[2]
        assert parse_source(DECLS + f"choreography t = {format_chor(ch)}")[2] == ch

    def test_unary_operators_repeat(self):
        assert parse_guard("not not b") == Not(Not(BV))
        assert parse_guard("- -x == -3") == BinOp("==", Neg(Neg(X)), Neg(Lit(3)))


# ---------------------------------------------------------------------------
# Round trip: parse(format_chor(ch)) == ch
# ---------------------------------------------------------------------------

OPS = {kind: sorted(op for op, info in BINARY_OPS.items() if info.kind == kind)
       for kind in ("arith", "cmp", "bool")}

# Only terms the parser can produce: it never builds a negative Lit, since
# "-3" parses as Neg(Lit(3)), and string literals hold only characters the
# lexer reads raw or through an escape (\n \r \t \" \\).
LEAVES = {
    "int": st.one_of(st.integers(0, 20).map(Lit), st.sampled_from([X, Y])),
    "bool": st.sampled_from([TRUE, FALSE, BV]),
    "str": st.one_of(st.text('a "\\\n\r\t*/', max_size=4).map(Lit), st.just(S)),
}

# dtype -> its compound expressions: a unary node or a binary operator,
# with the type of the operands.
COMPOUNDS = {
    "int": st.sampled_from([(Neg, "int")] + [(op, "int") for op in OPS["arith"]]),
    "str": st.sampled_from([("+", "str")]),
    "bool": st.sampled_from(
        [(Not, "bool")] + [(op, "bool") for op in OPS["bool"] + ["==", "!="]]
        + [(op, t) for op in OPS["cmp"] for t in ("int", "str")]),
}


@st.composite
def exprs(draw, dtype, depth):
    """A well-typed expression of ``dtype`` nested at most ``depth`` deep."""
    if depth == 0 or draw(st.booleans()):
        return draw(LEAVES[dtype])
    make, operand = draw(COMPOUNDS[dtype])

    def sub():
        return draw(EXPRS[operand, depth - 1])

    if isinstance(make, str):
        return BinOp(make, sub(), sub())
    return make(sub())


# Built once: Hypothesis validates each new strategy object on first use.
EXPRS = {(t, d): exprs(t, d) for t in LEAVES for d in range(4)}


ASSIGNMENT = st.one_of(
    st.tuples(st.just("A.x"), EXPRS["int", 2]),
    st.tuples(st.just("A.b"), EXPRS["bool", 2]),
    st.tuples(st.just("A.s"), EXPRS["str", 2]),
)
UPDATE = st.lists(ASSIGNMENT, max_size=3).map(lambda a: Update(tuple(a)))


def sends(port):
    return st.builds(GuardedSend, port=st.just(PORT[port]),
                     guard=EXPRS["bool", 3], update=UPDATE)


def comm(send):
    return Comm(send=send, rcvs=((PORT["r"], Update()),))


# first ; while (cond) { body }: guards and updates on all three sends.
CHORS = st.builds(lambda first, cond, body: Seq(comm(first), Loop(cond, comm(body))),
                  sends("p"), sends("q"), sends("p"))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(CHORS)
def test_format_then_parse_is_identity(ch):
    text = DECLS + f"choreography t = {format_chor(ch)}"
    assert parse_source(text)[2] == ch, text
