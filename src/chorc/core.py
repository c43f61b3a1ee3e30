"""Shared data model: values, variables, expressions, updates, valuations, ports.

Everything here is immutable and hashable so that interpreter configurations
can be memoized structurally. The frozen dataclasses here and the
choreography terms in ``lang`` are wrapped by ``memo_hash``: each instance
computes its structural hash once, on first use, and keeps it as an
instance attribute; equality and ``repr`` stay generated. The explorer
states are named tuples with no hash of their own. Their fields hash
cheaply: a choreography term by its memoized hash, a valuation by its
cached one, and a residual receive by the hash its ``chorsem.Receipt``
stored when it was built, so no port or update is hashed per state.

A ``Valuation`` is a tuple of values laid out over the sorted tuple of its
keys. The layout, a dict from key to slot, is built once by the
constructor and shared by every valuation derived from it by ``set`` and
``apply_update``, so a derived valuation costs one tuple splice per
assignment rather than a dict copy and a sort. A synchronous transfer is no
special case: the choreography's step tables express it as leading
``receiver := sender`` assignments of an ``Update``.

An expression or update compiles itself, on first use, into a closure over
a valuation, kept on the instance as ``compiled``: a tree of closures that
mirrors the expression tree, with the operand closures and the operator's
function bound when it is built. ``evaluate`` and ``apply_update`` call it,
and the step tables of both semantics store it, so no step dispatches on an
expression's type. ``dataclasses.replace`` builds an instance without one.

Both semantics describe a step by an ``Event``: the rules that derive it,
the ports that move and its transition label. Each semantics builds its
events when it compiles its step tables, at most one per static step, and
every edge a static step produces carries that step's event, so no step
allocates a label. A successor function returns (event, state) pairs.

``explore_lts`` is the one breadth-first explorer: the choreography
semantics (``chorsem.explore``) and the component-system semantics
(``cbs.sys_explore``) each pass it their start state, successor function and
termination test, and both get an ``Exploration`` back. Every state it
stores is one object, and every edge to a stored state points at that
object, so an exploration holds each reached state once and code that walks
the graph may compare stored states by identity. It hashes each successor
once to find or store it, and each stored state once more when it is
expanded. The rules an exploration used are read off its edges' events.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple, Union


class EvalError(Exception):
    """Runtime evaluation failure (division/modulo by zero, unbound variable)."""


def memo_hash(cls):
    """Class decorator for a frozen dataclass: keep the dataclass-generated
    structural hash on the instance after its first computation.

    The cached hash is stored with ``object.__setattr__``, past the frozen
    ``__setattr__``, over a class-level ``None`` default;
    ``dataclasses.replace`` builds a new instance and so starts without one.
    String hashes differ between interpreter runs, so an instance must not
    be pickled into another process once hashed.
    """
    structural = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None
    cls.__hash__ = __hash__
    return cls


class cached_attr:
    """A read-only attribute computed on first access and then kept as an
    instance attribute, which shadows this non-data descriptor.

    Used on frozen dataclasses. Unlike ``functools.cached_property`` before
    Python 3.12, the first access takes no lock, which matters for objects
    that the front end creates by the thousand and reads a few times each.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


#: Closed set of port communication types: synchronous send, asynchronous
#: send, receive, internal.
PORT_TYPES = ("ss", "as", "r", "in")

Value = Union[int, bool, str]

_DEFAULTS = {"int": 0, "bool": False, "str": ""}


def default_value(dtype: str) -> Value:
    return _DEFAULTS[dtype]


def value_dtype(value: Value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, str):
        return "str"
    raise TypeError(f"not a data value: {value!r}")


@memo_hash
@dataclass(frozen=True)
class Variable:
    """A typed variable owned by one component.

    The qualified name ``owner.name`` is unique system-wide.
    """

    name: str
    owner: str
    dtype: str

    @cached_attr
    def qname(self) -> str:
        return f"{self.owner}.{self.name}"


@memo_hash
@dataclass(frozen=True)
class Port:
    """A typed communication endpoint bound to one variable of its owner."""

    name: str
    owner: str
    var: Variable
    ctype: str  # one of PORT_TYPES

    def __post_init__(self):
        assert self.ctype in PORT_TYPES, self.ctype
        assert self.var.owner == self.owner, (self.var, self.owner)

    @cached_attr
    def pid(self) -> str:
        return f"{self.owner}.{self.name}"

    @property
    def dtype(self) -> str:
        return self.var.dtype

    @property
    def is_send(self) -> bool:
        return self.ctype in ("ss", "as")


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

def _div(a: int, b: int) -> int:
    """Integer division truncating toward zero, as in C and Promela."""
    if b == 0:
        raise EvalError("division by zero")
    q = a // b
    return q + 1 if q < 0 and q * b != a else q


def _mod(a: int, b: int) -> int:
    """Floor modulo: the result takes the sign of the divisor."""
    if b == 0:
        raise EvalError("modulo by zero")
    return a % b


class BinaryOp(NamedTuple):
    prec: int       # binding strength; higher binds tighter
    kind: str       # "arith", "cmp" or "bool"
    fn: Callable    # the meaning on two evaluated operands


#: Every binary operator of the expression language, by spelling: the parser,
#: the printer, the evaluator and the type checker all read it. Each level is
#: left-associative except the comparisons, which do not chain. ``evaluate``
#: short-circuits ``and`` and ``or``.
BINARY_OPS = {
    "or": BinaryOp(1, "bool", lambda a, b: bool(a) or bool(b)),
    "and": BinaryOp(2, "bool", lambda a, b: bool(a) and bool(b)),
    "==": BinaryOp(3, "cmp", operator.eq),
    "!=": BinaryOp(3, "cmp", operator.ne),
    "<": BinaryOp(3, "cmp", operator.lt),
    "<=": BinaryOp(3, "cmp", operator.le),
    ">": BinaryOp(3, "cmp", operator.gt),
    ">=": BinaryOp(3, "cmp", operator.ge),
    "+": BinaryOp(4, "arith", operator.add),
    "-": BinaryOp(4, "arith", operator.sub),
    "*": BinaryOp(5, "arith", operator.mul),
    "/": BinaryOp(5, "arith", _div),
    "mod": BinaryOp(5, "arith", _mod),
}

#: ``not`` and unary ``-`` bind tighter than every binary operator.
UNARY_PREC = 1 + max(op.prec for op in BINARY_OPS.values())


@memo_hash
@dataclass(frozen=True)
class Lit:
    value: Value

    @cached_attr
    def compiled(self) -> Callable:
        value = self.value
        return lambda v: value


@memo_hash
@dataclass(frozen=True)
class Ref:
    """Reference to a variable by qualified name."""

    qname: str

    @cached_attr
    def compiled(self) -> Callable:
        qname = self.qname
        return lambda v: v[qname]


@memo_hash
@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"

    @cached_attr
    def compiled(self) -> Callable:
        left, right = self.left.compiled, self.right.compiled
        # A false left operand decides `and`, a true one `or`.
        if self.op == "and":
            return lambda v: bool(left(v)) and bool(right(v))
        if self.op == "or":
            return lambda v: bool(left(v)) or bool(right(v))
        fn = BINARY_OPS[self.op].fn
        return lambda v: fn(left(v), right(v))


@memo_hash
@dataclass(frozen=True)
class Not:
    operand: "Expr"

    @cached_attr
    def compiled(self) -> Callable:
        operand = self.operand.compiled
        return lambda v: not operand(v)


@memo_hash
@dataclass(frozen=True)
class Neg:
    operand: "Expr"

    @cached_attr
    def compiled(self) -> Callable:
        operand = self.operand.compiled
        return lambda v: -operand(v)


Expr = Union[Lit, Ref, BinOp, Not, Neg]

TRUE = Lit(True)
FALSE = Lit(False)


class Valuation(Mapping):
    """An immutable total mapping from qualified variable names to values.

    Stored as ``_values``, a tuple aligned with the sorted keys, plus
    ``_slots``, the shared layout mapping each key to its position.
    """

    __slots__ = ("_slots", "_values", "_hash")

    def __init__(self, bindings: Mapping[str, Value] | Iterable[tuple[str, Value]] = ()):
        d = dict(bindings)
        keys = sorted(d)
        self._slots = {k: i for i, k in enumerate(keys)}
        self._values = tuple(d[k] for k in keys)
        self._hash = None

    def __getitem__(self, qname: str) -> Value:
        try:
            return self._values[self._slots[qname]]
        except KeyError:
            raise EvalError(f"unbound variable {qname!r}") from None

    # The Mapping mixins expect __getitem__ to raise KeyError, not EvalError.
    def __contains__(self, qname) -> bool:
        return qname in self._slots

    def get(self, qname: str, default=None):
        i = self._slots.get(qname)
        return default if i is None else self._values[i]

    def __iter__(self):
        return iter(self._slots)

    def __len__(self):
        return len(self._values)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self._values)
        return h

    def __eq__(self, other):
        if isinstance(other, Valuation):
            return (self._values == other._values
                    and (self._slots is other._slots or self._slots == other._slots))
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in zip(self._slots, self._values))
        return f"{{{inner}}}"

    def set(self, qname: str, value: Value) -> "Valuation":
        i = self._slots.get(qname)
        if i is None:
            return Valuation({**self, qname: value})
        out = object.__new__(Valuation)
        out._slots = self._slots
        out._values = self._values[:i] + (value,) + self._values[i + 1:]
        out._hash = None
        return out


def evaluate(expr: Expr, v: Valuation) -> Value:
    """Evaluate an expression against a valuation. Pure."""
    return expr.compiled(v)


# --------------------------------------------------------------------------
# Update functions
# --------------------------------------------------------------------------

Assignment = tuple[str, Expr]  # (target qualified name, right-hand side)


@memo_hash
@dataclass(frozen=True)
class Update:
    """An ordered sequence of assignments. The empty sequence is skip."""

    assignments: tuple[Assignment, ...] = ()

    @property
    def is_skip(self) -> bool:
        return not self.assignments

    @cached_attr
    def compiled(self) -> Callable:
        """The update as a closure from a valuation to the updated one."""
        steps = tuple((target, rhs.compiled) for target, rhs in self.assignments)
        if len(steps) == 1:
            (target, rhs), = steps
            return lambda v: v.set(target, rhs(v))

        def run(v):
            for target, rhs in steps:
                v = v.set(target, rhs(v))
            return v
        return run


SKIP = Update()


def apply_update(f: Update, v: Valuation) -> Valuation:
    """Apply assignments left to right; each rhs sees the latest bindings."""
    return f.compiled(v)


_queue_key = operator.itemgetter(0)


def find_queue(queues: tuple, key) -> tuple:
    """``key``'s position and queue in a table of nonempty FIFO queues kept
    as a tuple of (key, queue) pairs sorted by key; ``()`` if it has none."""
    if not queues:  # the common case, and the simulator's hot path
        return 0, ()
    i = bisect_left(queues, key, key=_queue_key)
    if i < len(queues) and queues[i][0] == key:
        return i, queues[i][1]
    return i, ()


def requeue(queues: tuple, key, push: tuple = (), pop: bool = False) -> tuple:
    """Update a table of FIFO queues (see ``find_queue``): drop the head of
    ``key``'s queue if ``pop``, then append ``push``. A queue left empty is
    removed from the table."""
    i, queue = find_queue(queues, key)
    j = i + 1 if queue else i
    queue = (queue[1:] if pop else queue) + push
    return queues[:i] + (((key, queue),) if queue else ()) + queues[j:]


# --------------------------------------------------------------------------
# Events and breadth-first exploration, shared by both semantics
# --------------------------------------------------------------------------

#: The label of a hidden step.
TAU = "tau"

Label = Union[str, frozenset]



class Event(NamedTuple):
    """What one static step of a semantics does, shared by every edge that
    step produces: the names of the semantic rules that derive it, outermost
    first; the ports that move, sender first; and its transition label, the
    frozenset of those ports' ids, or ``TAU`` for a hidden step."""

    rules: tuple
    ports: tuple
    label: Label

    @classmethod
    def of(cls, rules: tuple, ports: tuple, labels: dict) -> "Event":
        """The event of a step shown on ``ports``, hidden if no port moves.
        ``labels`` keeps one label object per set of port ids, so that the
        events built with it share their labels."""
        if not ports:
            return tuple.__new__(cls, (rules, ports, TAU))
        label = frozenset([p.pid for p in ports])
        return tuple.__new__(cls, (rules, ports, labels.setdefault(label, label)))


@dataclass
class Exploration:
    """The part of a labelled transition system that ``explore_lts`` reached.

    The keys of ``graph`` are the stored states, one object each; every edge
    target equal to a key is that key object. ``initial``, ``terminals`` and
    ``deadlocks`` hold the same objects.
    """

    initial: object
    graph: dict = field(default_factory=dict)      # state -> [(event, state)]
    terminals: set = field(default_factory=set)    # no successor, terminated
    deadlocks: set = field(default_factory=set)    # no successor, not terminated
    truncated: bool = False

    @property
    def finals(self) -> set:
        """Valuations of the terminal states."""
        return {s.sigma for s in self.terminals}

    @property
    def rules_seen(self) -> set:
        """Names of the rules that derive the stored edges."""
        chains = {event.rules for edges in self.graph.values() for event, _ in edges}
        return {rule for rules in chains for rule in rules}


def explore_lts(start, successors, is_terminal,
                max_configs: int, max_depth: int) -> Exploration:
    """Breadth-first closure of ``successors`` from ``start``, with
    memoization on states.

    ``successors(state)`` returns (event, state) pairs. Every
    stored state is expanded once; a state without successors is a terminal
    if ``is_terminal(state)`` and a deadlock otherwise. At most
    ``max_configs`` states are stored and at most ``max_depth`` BFS levels
    are expanded; a state left out by either limit marks the result
    truncated, and the graph then holds edges to states it does not store.

    Every stored state is one object, the first one equal to it that the
    search met. Each edge to a stored state points at that object, so a
    fresh successor equal to a stored one is not kept. A successor left out
    by ``max_configs`` stays the fresh object of its edge. An edge is the
    successor's own pair unless its state was already stored.
    """
    result = Exploration(start)
    seen = {start: start}
    store = seen.setdefault
    stored_count = 1
    frontier = [start]
    depth = 0
    while frontier:
        if depth >= max_depth:
            result.truncated = True
            break
        nxt_frontier = []
        for state in frontier:
            succs = successors(state)
            edges = result.graph[state] = []
            if not succs:
                if is_terminal(state):
                    result.terminals.add(state)
                else:
                    result.deadlocks.add(state)
            for edge in succs:
                succ = edge[1]
                stored = store(succ, succ)
                if len(seen) > stored_count:  # a new state
                    if stored_count >= max_configs:
                        del seen[succ]
                        result.truncated = True
                    else:
                        stored_count += 1
                        nxt_frontier.append(succ)
                elif stored is not succ:
                    edge = (edge[0], stored)
                edges.append(edge)
        frontier = nxt_frontier
        depth += 1
    return result


# --------------------------------------------------------------------------
# Expression utilities shared by the checker, printers and code generators
# --------------------------------------------------------------------------

def expr_vars(expr: Expr) -> set[str]:
    if isinstance(expr, Ref):
        return {expr.qname}
    if isinstance(expr, (Not, Neg)):
        return expr_vars(expr.operand)
    if isinstance(expr, BinOp):
        return expr_vars(expr.left) | expr_vars(expr.right)
    return set()


def update_vars(f: Update) -> set[str]:
    out = set()
    for target, rhs in f.assignments:
        out.add(target)
        out |= expr_vars(rhs)
    return out


def infer_type(expr: Expr, env: Mapping[str, str]) -> str:
    """Infer an expression's data type under ``env`` (qname -> dtype).

    Raises TypeError on ill-typed expressions.
    """
    if isinstance(expr, Lit):
        return value_dtype(expr.value)
    if isinstance(expr, Ref):
        if expr.qname not in env:
            raise TypeError(f"unknown variable {expr.qname!r}")
        return env[expr.qname]
    if isinstance(expr, Neg):
        if infer_type(expr.operand, env) != "int":
            raise TypeError("unary minus needs an int operand")
        return "int"
    if isinstance(expr, Not):
        if infer_type(expr.operand, env) != "bool":
            raise TypeError("not needs a bool operand")
        return "bool"
    if isinstance(expr, BinOp):
        lt = infer_type(expr.left, env)
        rt = infer_type(expr.right, env)
        kind = BINARY_OPS[expr.op].kind
        if kind == "arith":
            if expr.op == "+" and lt == rt == "str":
                return "str"
            if lt == rt == "int":
                return "int"
            raise TypeError(f"operator {expr.op!r} needs int operands, got {lt}/{rt}")
        if kind == "cmp":
            if lt != rt:
                raise TypeError(f"comparison {expr.op!r} across types {lt}/{rt}")
            if expr.op not in ("==", "!=") and lt == "bool":
                raise TypeError(f"ordering {expr.op!r} on bool")
            return "bool"
        if lt == rt == "bool":
            return "bool"
        raise TypeError(f"operator {expr.op!r} needs bool operands, got {lt}/{rt}")
    raise AssertionError(f"not an expression: {expr!r}")


#: The escapes the lexer reads inside a string literal.
_STRING_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
                                  "\t": "\\t"})


def format_expr(expr: Expr, strip_owner: str | None = None) -> str:
    """Render an expression in concrete syntax.

    With ``strip_owner`` set, references owned by that component print bare.
    """

    def ref_name(qname: str) -> str:
        if strip_owner is not None and qname.startswith(strip_owner + "."):
            return qname[len(strip_owner) + 1:]
        return qname

    def fmt(e: Expr, parent_prec: int) -> str:
        if isinstance(e, Lit):
            if isinstance(e.value, bool):
                return "true" if e.value else "false"
            if isinstance(e.value, str):
                return f'"{e.value.translate(_STRING_ESCAPES)}"'
            return str(e.value)
        if isinstance(e, Ref):
            return ref_name(e.qname)
        if isinstance(e, Neg):
            return f"-{fmt(e.operand, UNARY_PREC)}"
        if isinstance(e, Not):
            return f"not {fmt(e.operand, UNARY_PREC)}"
        if isinstance(e, BinOp):
            prec, kind, _ = BINARY_OPS[e.op]
            # Left-associative, except that comparisons do not chain.
            left = fmt(e.left, prec + 1 if kind == "cmp" else prec)
            text = f"{left} {e.op} {fmt(e.right, prec + 1)}"
            if prec < parent_prec:
                return f"({text})"
            return text
        raise AssertionError(e)

    return fmt(expr, 0)


def format_update(f: Update, strip_owner: str | None = None) -> str:
    if f.is_skip:
        return "skip"
    parts = []
    for target, rhs in f.assignments:
        name = target
        if strip_owner is not None and target.startswith(strip_owner + "."):
            name = target[len(strip_owner) + 1:]
        parts.append(f"{name} := {format_expr(rhs, strip_owner)}")
    return "; ".join(parts)
