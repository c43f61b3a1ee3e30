"""Unit tests for expressions, valuations, updates, hash-consing and the
shared explorer."""

import dataclasses
import gc
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chorc import cbs, chorsem
from chorc.cbs import sys_explore, sys_steps_tagged
from chorc.core import (
    BINARY_OPS, FALSE, SKIP, TAU, TRUE, BinOp, EvalError, Event, Lit, Neg, Not, Part, Port,
    Ref, Update, Valuation, Variable, default_value, explore_lts, expr_vars, format_expr,
    format_update, infer_type, strong_components, update_vars, value_dtype,
)
from chorc.lang import Branch, Comm, GuardedSend, Loop, Nil, Par, Seq
from chorc.parser import parse_source
from chorc.synthesis import PROFILES, synthesize

from conftest import ROOT, apply_update, evaluate, load_stem
from test_expr_syntax import EXPRS, UPDATE


EITHER_ORDER = """
import gc
from chorc.core import BinOp, Lit, Ref, Update, expr_vars, update_vars
first = [BinOp("-", Ref(f"T.a{i}"), Lit(i)) for i in range(50)]
second = [BinOp("+", Ref(f"T.b{i}"), Lit(i)) for i in range(50)]
updates = [Update((("T.u", e),)) for e in second]
for e in first:
    e.compiled, expr_vars(e)
for e, f in zip(second, updates):
    expr_vars(e), e.compiled, update_vars(f), f.compiled
def dicts(nodes):
    return len([n for n in nodes if dict in map(type, gc.get_referents(n))])
print(dicts(first + [e.left for e in first]), dicts(second + [e.left for e in second]),
      dicts(updates))
"""


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
        with pytest.raises(EvalError, match="does not bind: b"):
            v(a=1).set("b", 2)

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


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


class TestPart:
    def test_parts_compare_by_identity(self):
        kinds = set(subclasses(Part))
        assert {cbs._Part, chorsem._Part} <= kinds
        sigma = Valuation({"A.x": 1, "A.y": 2})
        for cls in kinds:
            assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
            a, b = (object.__new__(cls) for _ in range(2))
            for part in (a, b):
                part._slots, part._values = sigma._slots, sigma._values
            assert a == a and a != b, cls
            assert hash(a) == object.__hash__(a), cls
            # Equal to no plain valuation, in either direction, as its hash
            # by identity requires.
            assert a != sigma and sigma != a, cls
            assert not (a == sigma) and not (sigma == a), cls
        twin = Valuation(sigma)
        assert twin == sigma and twin is not sigma and hash(twin) == hash(sigma)


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
        # One object per structure, so one closure per structure.
        twin = dataclasses.replace(e)
        assert twin is e and twin.compiled is e.compiled
        assert BinOp("+", Ref("A.x"), Lit(1)).compiled is e.compiled
        assert "compiled" not in repr(e)


class TestTypesAndFormatting:
    def test_defaults(self):
        assert default_value("int") == 0
        assert default_value("bool") is False
        assert default_value("str") == ""

    def test_value_dtype(self):
        assert value_dtype(3) == "int"
        assert value_dtype(True) == "bool"
        assert value_dtype("hi") == "str"
        with pytest.raises(TypeError, match=r"^not a data value: 1\.5$"):
            value_dtype(1.5)

    def test_infer_type(self):
        env = {"A.x": "int", "A.b": "bool"}
        assert infer_type(BinOp("+", Ref("A.x"), Lit(1)), env) == "int"
        assert infer_type(BinOp("<", Ref("A.x"), Lit(1)), env) == "bool"
        assert infer_type(Not(Ref("A.b")), env) == "bool"
        assert infer_type(Neg(Ref("A.x")), env) == "int"

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

    def test_formatting_leaves_no_cyclic_garbage(self):
        e = BinOp("*", BinOp("+", Ref("A.x"), Neg(Lit(1))), Not(Ref("B.b")))
        f = Update((("A.x", e), ("A.y", Lit("s"))))
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                format_expr(e, "A")
                format_update(f, "A")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_expr_vars(self):
        e = BinOp("+", Ref("A.x"), Neg(Ref("B.y")))
        assert expr_vars(e) == {"A.x", "B.y"}

    def test_vars_are_kept_on_the_node_and_shared(self):
        x = Ref("A.x")
        e = BinOp("+", x, Lit(1))
        assert expr_vars(e) is expr_vars(x) == {"A.x"}  # nothing new to hold
        f = Update((("A.x", e), ("A.y", Not(Ref("A.z")))))
        assert update_vars(f) is update_vars(f) == {"A.x", "A.y", "A.z"}

    @pytest.mark.skipif(sys.implementation.cache_tag != "cpython-311",
                        reason="the inline attribute layout of CPython 3.11")
    def test_vars_and_closures_in_either_order_give_no_node_a_dict(self):
        # CPython 3.11 keeps a node's attributes inline, but a lazily added
        # second one gives a node a dict of its own, which the node lists
        # among its referents, whenever the two come in the other order.
        # Which order comes first depends on the process's history, hence a
        # fresh one.
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run([sys.executable, "-c", EITHER_ORDER], capture_output=True,
                              text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0 0\n", "")

    def test_port_pid_and_is_send(self):
        p = port("A", "p", "ss", "x")
        assert p.pid == "A.p"
        assert p.is_send
        assert not port("A", "q", "r", "x").is_send



def carried_in_order(edges, events) -> bool:
    """Whether each edge carries one of ``events``, that very object, and
    the edges follow the order of ``events``; an event may repeat."""
    i = 0
    for event, _ in edges:
        while i < len(events) and events[i] is not event:
            i += 1
        if i == len(events):
            return False
    return True


class TestEvent:
    def test_of_labels_a_step_by_its_ports(self):
        p, q = port("A", "p", "ss", "x"), port("B", "q", "r", "y")
        assert Event.of(("r",), (p, q)) == \
            Event(("r",), (p, q), frozenset({"A.p", "B.q"}))
        assert Event.of(("r",), ()).label == TAU

    def test_each_static_step_shares_one_event(self, corpus):
        """On every reached state of both semantics, each edge carries the
        very event object of the static step that produced it, so all the
        edges one static step produces share that object."""
        carried = []
        for path, decl, _, ch in corpus:
            res = chorsem.explore(ch, decl.initial_valuation())
            for config, edges in res.graph.items():
                # A delivery per pending channel, then the term's steps.
                delivered = [queue[0][0].event for _, queue in config.pending]
                static = ([] if config.term is None else
                          [step[0] for step in chorsem._steps(config.term)])
                n = len(delivered)
                assert all(e is d for (e, _), d in zip(edges, delivered)), path
                assert carried_in_order(edges[n:], static), (path, config)
            carried += [e for out in res.graph.values() for e, _ in out]
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                for state in sys_explore(sys).graph:
                    for ci, loc in enumerate(state.locations):
                        static = [step[1] for step in sys._steps[ci].table[loc]]
                        assert carried_in_order(sys_steps_tagged(sys, state, (ci,)), static), \
                            (path, profile, state, ci)
        # Most static steps produce several edges.
        assert 2 * len({id(e) for e in carried}) < len(carried)


#: The hash-consed classes.
INTERNED = (Variable, Port, Lit, Ref, BinOp, Not, Neg, Update,
            GuardedSend, Nil, Comm, Branch, Loop, Seq, Par)

#: Checks, in a fresh interpreter that has built nothing else, that a term
#: is freed once the last reference to it is dropped.
FREED = """
import gc, sys, weakref
from chorc.cbs import sys_explore
from chorc.chorsem import explore
from chorc.lang import check_well_formed
from chorc.parser import parse_source
from chorc.synthesis import PROFILES, synthesize

with open(sys.argv[1]) as fh:
    decl, _, ch = parse_source(fh.read())
assert not check_well_formed(decl, ch)
assert explore(ch, decl.initial_valuation()).terminals
for profile in PROFILES:
    assert sys_explore(synthesize(decl, ch, profile)).terminals
root = weakref.ref(ch)
del decl, ch
gc.collect()
print("freed" if root() is None else "alive")
"""


class TestInterning:
    def test_identity_is_equality(self):
        for cls in INTERNED:
            assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
            assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
        assert Lit(3) is Lit(3) and Ref("A.x") is Ref("A.x")
        assert Update() is SKIP and Lit(True) is TRUE and Nil() is Nil()

    def test_literals_keep_their_type(self):
        assert Lit(1) is not Lit(True) and Lit(0) is not Lit(False)
        assert Lit(1) is not TRUE and Lit(0) is not FALSE
        assert [format_expr(Lit(x)) for x in (1, True, 0, False)] == \
            ["1", "true", "0", "false"]
        assert [infer_type(Lit(x), {}) for x in (1, True, 0, False)] == \
            ["int", "bool", "int", "bool"]
        two = BinOp("+", Lit(1), Lit(1))
        assert format_expr(two) == "1 + 1" and infer_type(two, {}) == "int"

    def test_hand_built_term_is_the_parsed_one(self):
        decl, _, ch = parse_source(
            "comp A { var x: int = 1; port p: as of int binds x; }\n"
            "comp B { var y: int = 0; port r: r of int binds y; }\n"
            "choreography c = A.p[x > 0, x := x - 1] -> { B.r[y := y + 1] } ; nil\n")
        x, y = Variable("x", "A", "int"), Variable("y", "B", "int")
        built = Seq(Comm(GuardedSend(Port("p", "A", x, "as"),
                                     BinOp(">", Ref("A.x"), Lit(0)),
                                     Update((("A.x", BinOp("-", Ref("A.x"), Lit(1))),))),
                         ((Port("r", "B", y, "r"),
                           Update((("B.y", BinOp("+", Ref("B.y"), Lit(1))),))),)),
                    Nil())
        assert built is ch
        a, = [c for c in decl.components if c.id == "A"]
        assert a.ports == (ch.first.send.port,)

    def test_replace_returns_the_canonical_node(self):
        u = Update((("A.x", Lit(1)),))
        assert dataclasses.replace(u) is u
        assert dataclasses.replace(u, assignments=(("A.x", Lit(2)),)) is \
            Update((("A.x", Lit(2)),))
        p = Port("p", "A", Variable("x", "A", "int"), "ss")
        assert dataclasses.replace(p, ctype="as") is Port("p", "A", p.var, "as")
        seq = Seq(Nil(), Nil())
        assert dataclasses.replace(seq.first) is seq.second
        assert dataclasses.replace(seq, second=seq) is Seq(Nil(), seq)

    def test_two_parses_yield_the_same_objects(self):
        first_decl, _, first = load_stem("buying")
        second_decl, _, second = load_stem("buying")
        assert first is second
        for a, b in zip(first_decl.components, second_decl.components):
            assert all(p is q for p, q in zip(a.ports, b.ports))
            assert all(v is w for (v, _), (w, _) in zip(a.vars, b.vars))

    def test_a_dropped_term_is_freed(self):
        path = os.path.join(ROOT, "corpus", "13_branch_in_loop.chor")
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run([sys.executable, "-c", FREED, path], capture_output=True,
                              text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "freed\n", "")

    def test_tables_reach_no_node(self):
        """A table's keys hold strings, ints and types only, and its values
        are weak references, so no table keeps a node alive."""
        def atoms(key):
            if isinstance(key, tuple):
                for part in key:
                    yield from atoms(part)
            else:
                yield key

        decl, _, ch = parse_source(
            "comp A { var x: int = 1; port p: as of int binds x; port q: ss of int binds x; }\n"
            "comp B { var y: int = 0; port r: r of int binds y; }\n"
            "choreography c = while (A.q[not (x < 0), x := -x]) {\n"
            "  choice A { A.p => A.p -> { B.r } | A.q => nil } } || nil\n")
        chorsem.explore(ch, decl.initial_valuation())
        for cls in INTERNED + (chorsem.Receipt, chorsem._Frame, chorsem._Part):
            assert cls._nodes, cls
            for key, ref in cls._nodes.items():
                assert all(isinstance(x, (str, int, type)) for x in atoms(key)), (cls, key)
                assert type(ref) is weakref.ref


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
    return [(label, RingState((state.n + step) % 6))
            for label, step in (("a", 1), ("b", 2), ("c", -1))]


def explore_ring(**limits):
    limits = {"max_configs": 100, "max_depth": 100, **limits}
    return explore_lts(RingState(0), ring, lambda s: False, **limits)


class TestExploreLts:
    def test_each_successor_is_hashed_once(self):
        # Once to find or number each successor, and once for the start;
        # expanding a stored state takes it by its id, unhashed.
        before = RingState.hashes
        res = explore_ring()
        hashes = RingState.hashes - before
        edges = sum(len(out) for out in res.graph.values())
        assert (len(res.graph), edges) == (6, 18)
        assert hashes == edges + 1

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
        res = explore_lts("s", lambda s: [("loop", s)], lambda s: False, 10, 10)
        assert res.graph == {"s": [("loop", "s")]}
        assert not res.truncated


def reference_components(succ: list) -> list:
    """Strongly connected components by brute force: each node's reachable
    set, then a component per class of nodes that reach each other,
    numbered from 0 in node order."""
    reach = []
    for v in range(len(succ)):
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    out = [-1] * len(succ)
    classes = 0
    for v in range(len(succ)):
        if out[v] < 0:
            for w in reach[v]:
                if v in reach[w]:
                    out[w] = classes
            classes += 1
    return out


def assert_components(succ, where) -> list:
    """``strong_components(succ)``, checked against the brute force: the
    same partition, ids 0 to k - 1, and every edge between two components
    going to the lower id."""
    got = strong_components(succ)
    want = reference_components(succ)
    pairs = set(zip(got, want))
    assert len(pairs) == len(set(got)) == len(set(want)), where
    assert set(got) == set(range(len(pairs))), where
    for v, targets in enumerate(succ):
        assert all(got[w] <= got[v] for w in targets), where
    return got


def lts_graph(res) -> list:
    """An untruncated exploration's successor lists, by state id."""
    assert not res.truncated
    succ = [[] for _ in res.states]
    for i, hi in enumerate(res.ends):
        succ[i] = res.targets[res.ends[i - 1] if i else 0:hi]
    return succ


class TestStrongComponents:
    def test_hand_built(self):
        assert assert_components([], "empty") == []
        assert assert_components([[0]], "self-loop") == [0]
        assert assert_components([[], [0], [1, 1]], "chain") == [0, 1, 2]
        # 0 -> 1 -> 2 -> 0 holds the cycle 1 -> 3 -> 1 and leaves to 4.
        nested = [[1], [2, 3], [0, 4], [1], []]
        assert assert_components(nested, "nested") == [1, 1, 1, 1, 0]
        # The cycle 2 <-> 3 cannot be reached from 0, and 4 only enters it.
        unreachable = [[1], [1], [3], [2], [3]]
        assert assert_components(unreachable, "unreachable") == [1, 0, 2, 2, 3]

    def test_deeper_than_the_recursion_limit(self):
        n = 5 * sys.getrecursionlimit()
        assert strong_components([[(v + 1) % n] for v in range(n)]) == [0] * n
        assert strong_components([[v + 1] for v in range(n - 1)] + [[]]) == \
            list(range(n - 1, -1, -1))

    def test_corpus_location_graphs_and_small_ltss(self, corpus):
        # Every corpus LTS of at most 200 states is acyclic, since each
        # loop changes a counter; the location graphs have the cycles.
        cyclic = 0
        for path, decl, _, ch in corpus:
            graphs = []
            res = chorsem.explore(ch, decl.initial_valuation())
            if len(res.states) <= 200:
                graphs.append(("chor", lts_graph(res)))
            for profile in PROFILES:
                system = synthesize(decl, ch, profile)
                for comp in system.components:
                    ids = {loc: i for i, loc in enumerate(comp.locations)}
                    succ = [[] for _ in ids]
                    for t in comp.transitions:
                        succ[ids[t.src]].append(ids[t.dst])
                    graphs.append((comp.id, succ))
                res = sys_explore(system)
                if len(res.states) <= 200:
                    graphs.append((profile, lts_graph(res)))
            for kind, succ in graphs:
                got = assert_components(succ, (path, kind))
                cyclic += len(set(got)) < len(got)
        assert cyclic > 0
