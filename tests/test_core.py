"""Unit tests for expressions, valuations, updates, hash memoization and the
shared explorer."""

import dataclasses
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chorc.core import (
    BINARY_OPS, FALSE, SKIP, TRUE, BinOp, EvalError, Lit, Neg, Not, Port, Ref, Update,
    Valuation, Variable, apply_update, default_value, evaluate, explore_lts, expr_vars,
    format_expr, format_update, infer_type, memo_hash, update_vars, value_dtype,
)

from test_expr_syntax import EXPRS, UPDATE


def port(owner, name, ctype, var):
    return Port(name=name, owner=owner, ctype=ctype,
                var=Variable(name=var, owner=owner, dtype="int"))


def v(**bindings):
    return Valuation(bindings)


class TestValuation:
    def test_mapping_protocol(self):
        sigma = v(x=1, y=True)
        assert sigma["x"] == 1
        assert set(sigma) == {"x", "y"}
        assert len(sigma) == 2

    def test_set_is_persistent(self):
        sigma = v(x=1)
        sigma2 = sigma.set("x", 5)
        assert sigma["x"] == 1
        assert sigma2["x"] == 5

    def test_equality_and_hash_ignore_insertion_order(self):
        assert Valuation([("a", 1), ("b", 2)]) == Valuation([("b", 2), ("a", 1)])
        assert hash(v(a=1, b=2)) == hash(v(b=2, a=1))

    def test_set_chain_equals_dict_built(self):
        chained = v(a=1, b=2, c=3).set("c", 30).set("a", 10).set("b", 2)
        built = Valuation({"c": 30, "b": 2, "a": 10})
        assert chained == built
        assert hash(chained) == hash(built)
        assert repr(chained) == repr(built) == "{a=10, b=2, c=30}"
        assert v(a=1).set("b", 2) == v(a=1, b=2)

    def test_different_key_sets_are_unequal(self):
        assert v(a=1, b=2) != v(a=1, c=2)
        assert v(a=1) != v(a=1, b=2)
        assert v() == Valuation()

    def test_missing_name_raises(self):
        with pytest.raises(EvalError):
            v(x=1)["y"]
        with pytest.raises(EvalError):
            evaluate(Ref("y"), v(x=1).set("x", 2))

    def test_membership_and_get(self):
        sigma = v(a=1).set("a", 2)
        assert "a" in sigma
        assert "b" not in sigma
        assert "b" not in Valuation({"a": 1})
        assert sigma.get("a") == 2
        assert sigma.get("b") is None
        assert sigma.get("b", 0) == 0
        with pytest.raises(EvalError):
            sigma["b"]


class TestEvaluate:
    def test_arithmetic(self):
        sigma = v(**{"A.x": 7})
        e = BinOp("+", BinOp("*", Ref("A.x"), Lit(2)), Lit(1))
        assert evaluate(e, sigma) == 15

    def test_integer_division_and_mod(self):
        sigma = Valuation()
        assert evaluate(BinOp("/", Lit(7), Lit(2)), sigma) == 3
        assert evaluate(BinOp("mod", Lit(7), Lit(2)), sigma) == 1
        # `/` truncates toward zero, as in Promela; `mod` floors.
        for a, b, q in [(-7, 2, -3), (7, -2, -3), (-7, -2, 3), (-8, 2, -4), (-1, 2, 0)]:
            assert evaluate(BinOp("/", Lit(a), Lit(b)), sigma) == q, (a, b)
        assert evaluate(BinOp("mod", Lit(-7), Lit(2)), sigma) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(EvalError):
            evaluate(BinOp("/", Lit(1), Lit(0)), Valuation())
        with pytest.raises(EvalError, match="modulo by zero"):
            evaluate(BinOp("mod", Lit(1), Lit(0)), Valuation())

    def test_and_or_short_circuit(self):
        boom = BinOp("==", BinOp("/", Lit(1), Lit(0)), Lit(0))
        assert evaluate(BinOp("and", FALSE, boom), Valuation()) is False
        assert evaluate(BinOp("or", TRUE, boom), Valuation()) is True
        with pytest.raises(EvalError):
            evaluate(BinOp("and", TRUE, boom), Valuation())

    def test_comparison_and_boolean(self):
        sigma = v(**{"A.x": 3})
        e = BinOp("and", BinOp(">", Ref("A.x"), Lit(0)), Not(Lit(False)))
        assert evaluate(e, sigma) is True

    def test_negation(self):
        assert evaluate(Neg(Lit(4)), Valuation()) == -4

    def test_true_constant(self):
        assert evaluate(TRUE, Valuation()) is True


class TestUpdate:
    def test_skip(self):
        sigma = v(x=1)
        assert apply_update(SKIP, sigma) == sigma
        assert SKIP.is_skip

    def test_assignments_apply_left_to_right(self):
        # x := y; y := x is sequential: the second rhs sees the new x.
        f = Update((("A.x", Ref("A.y")), ("A.y", Ref("A.x"))))
        sigma = v(**{"A.x": 1, "A.y": 2})
        out = apply_update(f, sigma)
        assert out["A.x"] == 2 and out["A.y"] == 2

    def test_targets_and_vars(self):
        f = Update((("A.x", BinOp("+", Ref("A.x"), Lit(1))),))
        assert update_vars(f) == {"A.x"}


def reference_evaluate(expr, v):
    """The tree-walking evaluator that the compiled closures replaced."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Ref):
        return v[expr.qname]
    if isinstance(expr, Neg):
        return -reference_evaluate(expr.operand, v)
    if isinstance(expr, Not):
        return not reference_evaluate(expr.operand, v)
    if isinstance(expr, BinOp):
        _, kind, fn = BINARY_OPS[expr.op]
        a = reference_evaluate(expr.left, v)
        # A false left operand decides `and`, a true one `or`.
        if kind == "bool" and bool(a) is (expr.op == "or"):
            return bool(a)
        return fn(a, reference_evaluate(expr.right, v))
    raise AssertionError(f"not an expression: {expr!r}")


def reference_apply_update(f, v):
    for target, rhs in f.assignments:
        v = v.set(target, reference_evaluate(rhs, v))
    return v


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its value with its type (so that ``True``
    and ``1`` differ), or the message of the ``EvalError`` it raises."""
    try:
        value = fn(*args)
    except EvalError as exc:
        return "EvalError", str(exc)
    return type(value), value


VALUATIONS = st.builds(
    lambda x, y, b, s: Valuation({"A.x": x, "A.y": y, "A.b": b, "A.s": s}),
    st.integers(-4, 4), st.integers(-4, 4), st.booleans(), st.text("ab", max_size=2))

X, Y = Ref("A.x"), Ref("A.y")
BOOM = BinOp("==", BinOp("/", X, Lit(0)), Lit(0))
SIGMA = Valuation({"A.x": 1, "A.y": 0, "A.b": True, "A.s": ""})


class TestCompiledAgainstReference:
    """``evaluate`` and ``apply_update`` run closures compiled once per
    expression; the tree walker above is their oracle."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.one_of(*(EXPRS[t, 3] for t in ("int", "bool", "str"))), VALUATIONS)
    @example(BinOp("/", X, Y), SIGMA)
    @example(BinOp("mod", Lit(3), BinOp("-", X, X)), SIGMA)
    @example(BinOp("and", Ref("A.b"), BOOM), SIGMA)
    @example(BinOp("and", Not(Ref("A.b")), BOOM), SIGMA)
    @example(BinOp("or", Ref("A.b"), BOOM), SIGMA)
    @example(BinOp("or", Not(Ref("A.b")), BOOM), SIGMA)
    @example(BinOp("or", BinOp("<", X, Lit(0)), BinOp("==", X, Lit(1))), SIGMA)
    @example(BinOp("+", Ref("A.z"), Lit(1)), SIGMA)
    def test_evaluate(self, expr, sigma):
        assert outcome(evaluate, expr, sigma) == outcome(reference_evaluate, expr, sigma)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(UPDATE, VALUATIONS)
    @example(Update((("A.x", BinOp("/", Lit(1), Y)),)), SIGMA)
    @example(Update((("A.y", X), ("A.x", BinOp("mod", X, Y)))), SIGMA)
    @example(Update((("A.x", Y), ("A.y", X), ("A.b", BinOp("or", Ref("A.b"), BOOM)))),
             SIGMA)
    def test_apply_update(self, update, sigma):
        ours = outcome(apply_update, update, sigma)
        assert ours == outcome(reference_apply_update, update, sigma)
        if ours[0] is Valuation:
            assert repr(ours[1]) == repr(reference_apply_update(update, sigma))

    def test_compiled_once_per_instance(self):
        e = BinOp("+", X, Lit(1))
        assert e.compiled is e.compiled
        assert evaluate(e, SIGMA) == 2 and e.left.compiled is X.compiled
        twin = dataclasses.replace(e)
        assert twin == e and "compiled" not in vars(twin)
        assert "compiled" not in repr(e) and hash(twin) == hash(e)


class TestTypesAndFormatting:
    def test_defaults(self):
        assert default_value("int") == 0
        assert default_value("bool") is False
        assert default_value("str") == ""

    def test_value_dtype(self):
        assert value_dtype(3) == "int"
        assert value_dtype(True) == "bool"
        assert value_dtype("hi") == "str"

    def test_infer_type(self):
        env = {"A.x": "int", "A.b": "bool"}
        assert infer_type(BinOp("+", Ref("A.x"), Lit(1)), env) == "int"
        assert infer_type(BinOp("<", Ref("A.x"), Lit(1)), env) == "bool"
        assert infer_type(Not(Ref("A.b")), env) == "bool"

    def test_format_expr_minimal_parens(self):
        e = BinOp("*", BinOp("+", Ref("A.x"), Lit(1)), Lit(2))
        assert format_expr(e, strip_owner="A") == "(x + 1) * 2"
        e2 = BinOp("+", BinOp("*", Ref("A.x"), Lit(1)), Lit(2))
        assert format_expr(e2, strip_owner="A") == "x * 1 + 2"

    def test_format_expr_parenthesizes_comparison_operands_of_comparisons(self):
        eq = BinOp("==", Ref("A.x"), Lit(1))
        assert format_expr(BinOp("==", eq, TRUE), "A") == "(x == 1) == true"
        assert format_expr(BinOp("!=", TRUE, eq), "A") == "true != (x == 1)"
        assert format_expr(BinOp("and", eq, eq), "A") == "x == 1 and x == 1"

    def test_format_expr_escapes_strings(self):
        assert format_expr(Lit('a\nb\t"c\\')) == '"a\\nb\\t\\"c\\\\"'
        assert format_expr(Lit("a\rb")) == '"a\\rb"'

    def test_format_update(self):
        f = Update((("A.x", Lit(1)),))
        assert format_update(f, strip_owner="A") == "x := 1"

    def test_expr_vars(self):
        e = BinOp("+", Ref("A.x"), Neg(Ref("B.y")))
        assert expr_vars(e) == {"A.x", "B.y"}

    def test_port_pid_and_is_send(self):
        p = port("A", "p", "ss", "x")
        assert p.pid == "A.p"
        assert p.is_send
        assert not port("A", "q", "r", "x").is_send

    def test_port_label_is_shared(self):
        p = port("A", "p", "as", "x")
        assert p.label == frozenset({"A.p"})
        assert p.label is p.label


class TestMemoHash:
    def test_hash_is_kept_and_takes_no_part_in_eq_or_repr(self):
        def fresh():
            return Update((("A.x", BinOp("+", Ref("A.x"), Lit(1))),))

        hashed, unhashed = fresh(), fresh()
        assert hashed._hash is None
        h = hash(hashed)
        assert hashed._hash == h == hash((hashed.assignments,))
        assert unhashed._hash is None
        assert hashed == unhashed and repr(hashed) == repr(unhashed)
        assert "_hash" not in repr(hashed)
        assert hash(unhashed) == h

    def test_replace_starts_without_a_cached_hash(self):
        u = Update((("A.x", Lit(1)),))
        hash(u)
        v = dataclasses.replace(u, assignments=(("A.x", Lit(2)),))
        assert v._hash is None
        assert hash(v) == hash(((("A.x", Lit(2)),),))


class Counted:
    """A field value that counts how often it is hashed."""

    calls = 0

    def __hash__(self):
        Counted.calls += 1
        return 7

    def __repr__(self):
        return "Counted()"


@memo_hash
@dataclass(frozen=True)
class Plain:
    a: int
    b: object = None


class TestMemoHashOnSlots:
    """memo_hash on a frozen dataclass declared here, apart from the core
    classes. The kept hash lives in the instance ``__dict__``, over the
    class-level ``None`` default; no slotted class uses memo_hash."""

    def test_hash_is_computed_once(self):
        s = Plain(1, Counted())
        before = Counted.calls
        assert hash(s) == hash(s) == s._hash
        assert Counted.calls == before + 1

    def test_cache_takes_no_part_in_eq_repr_or_hash(self):
        hashed, fresh = Plain(1, "x"), Plain(1, "x")
        hash(hashed)
        assert hashed._hash is not None and fresh._hash is None
        assert hashed == fresh
        assert repr(hashed) == repr(fresh) == "Plain(a=1, b='x')"
        assert hash(hashed) == hash(fresh) == hash((1, "x"))
        assert hashed != Plain(2, "x")


class RingState:
    """An explorer state that counts how often states are hashed."""

    hashes = 0

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        RingState.hashes += 1
        return hash(self.n)

    def __eq__(self, other):
        return isinstance(other, RingState) and self.n == other.n


def ring(state):
    """Six states, each with three fresh successors."""
    return [("r", label, RingState((state.n + step) % 6))
            for label, step in (("a", 1), ("b", 2), ("c", -1))]


def explore_ring(**limits):
    limits = {"max_configs": 100, "max_depth": 100, **limits}
    return explore_lts(RingState(0), ring, lambda s: False, **limits)


class TestExploreLts:
    def test_each_successor_is_hashed_once(self):
        # Once to find or store each successor, once more to expand each
        # stored state, and once for the start.
        before = RingState.hashes
        res = explore_ring()
        edges = sum(len(out) for out in res.graph.values())
        assert (len(res.graph), edges) == (6, 18)
        assert RingState.hashes - before == edges + len(res.graph) + 1

    def test_max_configs_leaves_states_out(self):
        res = explore_ring(max_configs=2)
        assert res.truncated
        assert sorted(s.n for s in res.graph) == [0, 1]
        # After 2 and 5 are left out, the edge 1 -> 0 still finds 0.
        stored = {s: s for s in res.graph}
        for out in res.graph.values():
            for _, succ in out:
                assert succ not in stored or succ is stored[succ]
        assert [succ.n for _, succ in res.graph[stored[RingState(1)]]] == [2, 3, 0]

    def test_successor_may_be_the_state_itself(self):
        res = explore_lts("s", lambda s: [("r", "loop", s)], lambda s: False, 10, 10)
        assert res.graph == {"s": [("loop", "s")]}
        assert not res.truncated
