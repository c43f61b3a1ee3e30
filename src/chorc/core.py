"""Shared data model: values, variables, expressions, updates, valuations, ports.

Everything here is immutable. The syntax classes here and the choreography
terms in ``lang`` are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): each derives from ``Interned``, and its
constructor, ``dataclasses.replace`` included, returns the one live object
with the given structure, building one only when none is alive. So two
parses of one text yield the same objects, equality and hashing are object
identity, and a hash needs neither a Python call nor a walk of the
structure. A literal is keyed by its value's type as well as its value, so
``Lit(1)`` and ``Lit(True)`` stay two objects.

A ``Valuation`` is a tuple of values laid out over the sorted tuple of its
keys. The layout, a dict from key to slot, is built once by the
constructor and shared by every valuation derived from it by ``set``, so a
derived valuation costs one tuple splice per assignment rather than a dict
copy and a sort; ``set`` never adds a key.

An expression or update compiles itself, on first use, into a closure over
a valuation, kept on the instance as ``compiled``: a tree of closures that
mirrors the expression tree, with the operand closures and the operator's
function bound when it is built. The step tables of both semantics store
it, so no step dispatches on an expression's type, and since a structure is
one object, it is compiled once for as long as it lives.

Both semantics describe a step by an ``Event``: the rules that derive it,
the ports that move and its transition label. Each semantics builds its
events when it compiles its step tables, at most one per static step, and
every edge a static step produces carries that step's event, so no step
allocates a label. A successor function returns (event, state) pairs.

Both explorers store a state partitioned (Laarman, van de Pol & Weber,
"Parallel recursive state compression for free", SPIN 2011): one ``Part``
per component, a valuation of the variables it holds, with its pending
receives in ``chorsem`` and its buffers in ``cbs``, that its table keeps
once per value, so a state, a tuple of parts (with a term and a frame in
``chorsem``), hashes and compares by identities, in C. Which parts a step
reads and writes is known from the text (Meijer, Kant, Blom & van de Pol,
"Read, write and copy dependencies for symbolic model checking", HVC
2014), so its cache is keyed by the parts it reads, the part alone where
that is all (Blom, van de Pol & Weber, "LTSmin", CAV 2010), and a miss
runs each component's compiled closures on that component's part: no
step lays several parts out as one valuation.

``explore_lts`` is the one breadth-first explorer: the choreography
semantics (``chorsem.explore``) and the component-system semantics
(``cbs.sys_explore``) each pass it their start state, successor function and
termination test, and both get an ``Exploration`` back: the LTS indexed as
by LTSmin's state table (Blom, van de Pol & Weber, CAV 2010), states
numbered in the order met and edges as flat lists of events and target
numbers, so an edge holds no tuple. Every stored state is one object, the
first equal one met. Each successor is hashed once, by the ``setdefault``
that finds or hands out its number, and a stored state is expanded by its
number; a running configuration's hash and a system state's combine
addresses in C. The rules an exploration used are read off its events.
``strong_components`` is the one routine for the strongly connected
components of a graph over int node ids.
"""

from __future__ import annotations

import operator
import weakref
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple, Union


class EvalError(Exception):
    """Runtime evaluation failure (division/modulo by zero, unbound variable)."""


class Interned:
    """Base of the hash-consed classes: one live object per structure.

    Each subclass has its own table from a key to a weak reference to the
    object built for it, and its ``__new__`` returns ``interned`` of a key
    made from its arguments, with each node argument by ``id``. An object
    holds the nodes it was built from, so the ids in its key stay theirs
    while it lives. Nothing in a table reaches a node, so an object is freed
    once nothing else holds it. A dead entry is replaced when its key comes
    up again, and a table drops its dead entries whenever it has doubled
    since it last did.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._nodes = {}
        cls._sweep_at = 64


_alloc, _setattr, _weakref = object.__new__, object.__setattr__, weakref.ref


def interned(cls, key, **fields):
    """The live object of the ``Interned`` subclass ``cls`` entered under
    ``key``, or else a new one, with ``fields`` as its attributes."""
    nodes = cls._nodes
    ref = nodes.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = _alloc(cls)
    # One attribute at a time keeps them in the object's inline values; a
    # whole dict set as ``__dict__`` reads about a sixth slower.
    for name, value in fields.items():
        _setattr(node, name, value)
    nodes[key] = _weakref(node)
    if len(nodes) >= cls._sweep_at:
        for dead in [k for k, ref in nodes.items() if ref() is None]:
            del nodes[dead]
        cls._sweep_at = 2 * len(nodes) + 64
    return node


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


class Memo(dict):
    """A dict that computes each missing value once, from its key. ``fn``
    must not reach the memo, or the two would form a cycle."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
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


@dataclass(frozen=True, eq=False, init=False)
class Variable(Interned):
    """A typed variable owned by one component.

    The qualified name ``owner.name`` is unique system-wide.
    """

    name: str
    owner: str
    dtype: str

    def __new__(cls, name: str, owner: str, dtype: str):
        return interned(cls, (name, owner, dtype), name=name, owner=owner, dtype=dtype)

    @cached_attr
    def qname(self) -> str:
        return f"{self.owner}.{self.name}"


@dataclass(frozen=True, eq=False, init=False)
class Port(Interned):
    """A typed communication endpoint bound to one variable of its owner."""

    name: str
    owner: str
    var: Variable
    ctype: str  # one of PORT_TYPES

    def __new__(cls, name: str, owner: str, var: Variable, ctype: str):
        assert ctype in PORT_TYPES, ctype
        assert var.owner == owner, (var, owner)
        return interned(cls, (name, owner, id(var), ctype),
                        name=name, owner=owner, var=var, ctype=ctype)

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
#: left-associative except the comparisons, which do not chain. A compiled
#: ``BinOp`` short-circuits ``and`` and ``or``.
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


@dataclass(frozen=True, eq=False, init=False)
class Lit(Interned):
    value: Value

    def __new__(cls, value: Value):
        return interned(cls, (type(value), value), value=value, _vars=None)

    @cached_attr
    def compiled(self) -> Callable:
        value = self.value
        return lambda v: value


@dataclass(frozen=True, eq=False, init=False)
class Ref(Interned):
    """Reference to a variable by qualified name."""

    qname: str

    def __new__(cls, qname: str):
        return interned(cls, qname, qname=qname, _vars=None)

    @cached_attr
    def compiled(self) -> Callable:
        qname = self.qname
        return lambda v: v[qname]


@dataclass(frozen=True, eq=False, init=False)
class BinOp(Interned):
    op: str
    left: "Expr"
    right: "Expr"

    def __new__(cls, op: str, left: "Expr", right: "Expr"):
        return interned(cls, (op, id(left), id(right)), op=op, left=left, right=right, _vars=None)

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


@dataclass(frozen=True, eq=False, init=False)
class Not(Interned):
    operand: "Expr"

    def __new__(cls, operand: "Expr"):
        return interned(cls, id(operand), operand=operand, _vars=None)

    @cached_attr
    def compiled(self) -> Callable:
        operand = self.operand.compiled
        return lambda v: not operand(v)


@dataclass(frozen=True, eq=False, init=False)
class Neg(Interned):
    operand: "Expr"

    def __new__(cls, operand: "Expr"):
        return interned(cls, id(operand), operand=operand, _vars=None)

    @cached_attr
    def compiled(self) -> Callable:
        operand = self.operand.compiled
        return lambda v: -operand(v)


# A ``|`` union: ``typing.Union`` caches its arguments, which would keep the
# classes, and so their intern tables, alive after the module is re-imported.
Expr = Lit | Ref | BinOp | Not | Neg

TRUE = Lit(True)
FALSE = Lit(False)


class Valuation(Mapping):
    """An immutable total mapping from qualified variable names to values.

    Stored as ``_values``, a tuple aligned with the sorted keys, plus
    ``_slots``, the shared layout mapping each key to its position. Its
    keys are fixed when it is built: ``set`` rebinds one, and ``union``
    builds the valuation of several.
    """

    __slots__ = ("_slots", "_values")

    def __init__(self, bindings: Mapping[str, Value] | Iterable[tuple[str, Value]] = ()):
        d = dict(bindings)
        keys = sorted(d)
        self._slots = {k: i for i, k in enumerate(keys)}
        self._values = tuple(d[k] for k in keys)

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
        return hash(self._values)

    def __eq__(self, other):
        # A part equals only itself (see ``Part``), so never a valuation.
        if isinstance(other, Valuation) and not isinstance(other, Part):
            return (self._values == other._values
                    and (self._slots is other._slots or self._slots == other._slots))
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in zip(self._slots, self._values))
        return f"{{{inner}}}"

    @classmethod
    def union(cls, valuations: Iterable["Valuation"]) -> "Valuation":
        """The valuation that binds what each of ``valuations`` binds; a
        name bound twice takes the later value."""
        bindings = {}
        for v in valuations:
            bindings.update(zip(v._slots, v._values))
        return cls(bindings)

    def set(self, qname: str, value: Value) -> "Valuation":
        """The valuation with ``qname`` rebound to ``value``; raises
        ``EvalError`` if it does not bind ``qname``, or if ``value``'s type
        is not that of the value bound (an ``int`` is no ``bool``)."""
        i = self._slots.get(qname)
        if i is None:
            raise EvalError(f"assignment to a variable the valuation does not bind: {qname}")
        values = self._values
        if type(value) is not type(values[i]):
            raise EvalError(f"assignment of a value of type {type(value).__name__} to a "
                            f"variable of type {type(values[i]).__name__}: {qname}")
        out = object.__new__(Valuation)
        out._slots = self._slots
        out._values = values[:i] + (value,) + values[i + 1:]
        return out


class Part(Valuation):
    """One part of a partitioned state (see the module docstring). Its
    table keeps one object per value, so it hashes and compares by
    identity: it is unequal to every other part and to every plain
    ``Valuation``, whatever they bind."""

    __slots__ = ()
    __hash__, __eq__ = object.__hash__, object.__eq__


# --------------------------------------------------------------------------
# Update functions
# --------------------------------------------------------------------------

Assignment = tuple[str, Expr]  # (target qualified name, right-hand side)


@dataclass(frozen=True, eq=False, init=False)
class Update(Interned):
    """An ordered sequence of assignments. The empty sequence is skip."""

    assignments: tuple[Assignment, ...] = ()

    def __new__(cls, assignments: tuple[Assignment, ...] = ()):
        return interned(cls, tuple([(target, id(rhs)) for target, rhs in assignments]),
                        assignments=tuple(assignments), _vars=None)

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


_queue_key = operator.itemgetter(0)


def find_queue(queues: tuple, key) -> tuple:
    """``key``'s position and queue in a table of nonempty FIFO queues kept
    as a tuple of (key, queue) pairs sorted by key; ``()`` if it has none."""
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
    def of(cls, rules: tuple, ports: tuple) -> "Event":
        """The event of a step shown on ``ports``, hidden if no port moves."""
        label = frozenset([p.pid for p in ports]) if ports else TAU
        return tuple.__new__(cls, (rules, ports, label))


@dataclass
class Exploration:
    """The part of a labelled transition system that ``explore_lts`` reached,
    indexed: a stored state's id is its position in ``states``, in
    breadth-first order. Edge ``k`` is ``events[k]`` to ``targets[k]``; the
    edges of expanded state ``i`` end at ``ends[i]``, after those of
    ``i - 1``. The initial state is ``states[0]``; ``terminals`` and
    ``deadlocks`` hold stored objects; ``levels`` is the number of
    breadth-first levels expanded. The dict that numbers states is
    ``explore_lts``'s own and is dropped when it returns.
    """

    states: list       # stored states, by id
    events: list       # per edge
    targets: list      # per edge: an id, or ~n into ``fresh``
    ends: list         # per expanded state, by id: the end of its edges
    fresh: list        # left-out successors, one per edge to one
    terminals: set     # no successor, terminated
    deadlocks: set     # no successor, not terminated
    truncated: bool
    levels: int = 0

    @property
    def finals(self) -> set:
        """Valuations of the terminal states."""
        return {s.sigma for s in self.terminals}

    @property
    def rules_seen(self) -> set:
        """Names of the rules that derive the stored edges."""
        chains = {event.rules for event in set(self.events)}
        return {rule for rules in chains for rule in rules}

    def edges(self, i: int) -> list:
        """Expanded state ``i``'s edges as (event, target state) pairs."""
        lo, hi = self.ends[i - 1] if i else 0, self.ends[i]
        states, fresh = self.states, self.fresh
        return [(event, states[t] if t >= 0 else fresh[~t])
                for event, t in zip(self.events[lo:hi], self.targets[lo:hi])]

    @cached_attr
    def graph(self) -> Mapping:
        """A read-only map from each expanded state to its edges (see
        ``edges``), built on first use."""
        return MappingProxyType({self.states[i]: self.edges(i) for i in range(len(self.ends))})


def explore_lts(start, successors, is_terminal,
                max_configs: int, max_depth: int) -> Exploration:
    """Breadth-first closure of ``successors`` from ``start``, with
    memoization on states.

    ``successors(state)`` returns (event, state) pairs. Every stored state
    is expanded once; a state without successors is a terminal if
    ``is_terminal(state)`` and a deadlock otherwise. At most
    ``max_configs`` states are stored and at most ``max_depth`` BFS levels
    are expanded; a state left out by either limit marks the result
    truncated. A successor that ``max_configs`` left out stays the fresh
    object of its edge, kept in ``fresh``.
    """
    states, index, events, targets, ends, fresh = [start], {start: 0}, [], [], [], []
    store, add_event, add_target = index.setdefault, events.append, targets.append
    result = Exploration(states, events, targets, ends, fresh, set(), set(), False)
    count, lo, depth = 1, 0, 0
    while lo < count:
        if depth >= max_depth:
            result.truncated = True
            break
        hi = count
        for state in states[lo:hi]:
            succs = successors(state)
            if not succs:
                (result.terminals if is_terminal(state) else result.deadlocks).add(state)
            for event, succ in succs:
                sid = store(succ, count)
                if sid == count:  # a new state
                    if count >= max_configs:
                        del index[succ]
                        result.truncated = True
                        sid = ~len(fresh)
                        fresh.append(succ)
                    else:
                        count += 1
                        states.append(succ)
                add_event(event)
                add_target(sid)
            ends.append(len(targets))
        lo, depth = hi, depth + 1
    result.levels = depth
    return result


def strong_components(succ: list) -> list:
    """The strongly connected components of the graph whose nodes are
    ``0 .. len(succ) - 1`` and whose edges go from each node ``v`` to each
    node of ``succ[v]``: a component id per node. Ids count up in the order
    the components close, which is reverse topological: an edge between two
    components goes to the lower id. One iterative pass of Tarjan's
    algorithm ("Depth-first search and linear graph algorithms", SIAM J.
    Comput. 1972), so no graph is too deep for it."""
    index = [-1] * len(succ)  # discovery number, -1 until visited
    low = [0] * len(succ)
    comp = [-1] * len(succ)   # component id, -1 while open
    stack = []                # visited nodes whose component is still open
    seen = closed = 0
    for start in range(len(succ)):
        if index[start] >= 0:
            continue
        index[start] = low[start] = seen
        seen += 1
        stack.append(start)
        work = [(start, iter(succ[start]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if index[w] < 0:
                    index[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while comp[v] < 0:  # v's component: v and the nodes above it
                        comp[stack.pop()] = closed
                    closed += 1
    return comp


# --------------------------------------------------------------------------
# Expression utilities shared by the checker, printers and code generators
# --------------------------------------------------------------------------

def union_shared(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, or ``a`` or ``b`` itself when it holds the other."""
    return b if a <= b else a if b <= a else a | b


def expr_vars(expr: Expr) -> frozenset:
    """The variables ``expr`` reads, found once per node and kept in the
    ``_vars`` it is built with: an attribute added lazily, after ``compiled``
    in some nodes and before it in others, would give those nodes dicts."""
    found = getattr(expr, "_vars", None)
    if found is None:
        found = (frozenset([expr.qname]) if isinstance(expr, Ref)
                 else expr_vars(expr.operand) if isinstance(expr, (Not, Neg))
                 else union_shared(expr_vars(expr.left), expr_vars(expr.right))
                 if isinstance(expr, BinOp) else frozenset())
        _setattr(expr, "_vars", found)
    return found


def update_vars(f: Update) -> frozenset:
    """The variables ``f`` assigns or reads, found once per node."""
    found = getattr(f, "_vars", None)
    if found is None:
        found = frozenset().union(*[{target, *expr_vars(rhs)} for target, rhs in f.assignments])
        _setattr(f, "_vars", found)
    return found


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
    return _fmt(expr, 0, strip_owner)


def _fmt(e: Expr, parent_prec: int, strip_owner: str | None) -> str:
    """``e`` in concrete syntax, parenthesized if its operator binds less
    tightly than ``parent_prec``."""
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        if isinstance(e.value, str):
            return f'"{e.value.translate(_STRING_ESCAPES)}"'
        return str(e.value)
    if isinstance(e, Ref):
        if strip_owner is not None and e.qname.startswith(strip_owner + "."):
            return e.qname[len(strip_owner) + 1:]
        return e.qname
    if isinstance(e, Neg):
        return f"-{_fmt(e.operand, UNARY_PREC, strip_owner)}"
    if isinstance(e, Not):
        return f"not {_fmt(e.operand, UNARY_PREC, strip_owner)}"
    if isinstance(e, BinOp):
        prec, kind, _ = BINARY_OPS[e.op]
        # Left-associative, except that comparisons do not chain.
        left = _fmt(e.left, prec + 1 if kind == "cmp" else prec, strip_owner)
        text = f"{left} {e.op} {_fmt(e.right, prec + 1, strip_owner)}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise AssertionError(e)


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
