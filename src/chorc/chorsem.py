"""Small-step interpreter for the choreography semantics.

A configuration pairs a runtime term with a valuation and a pool of pending
(residual) receives. An asynchronous send completes immediately on the
sender's side; the receives it leaves behind are appended, together with the
transferred value, to a FIFO queue keyed by the (send port, receive port)
channel and are consumed one at a time, in any interleaving with the rest of
the choreography. This makes the pending pool behave exactly like the
per-port buffers of the synthesized component system.

Each term structure is compiled once, on first use, into a step table: one
static step (event, guard, update, sends, next term) per way the term can
move. A synchronous send becomes one update whose first assignments copy
the sent value to the receivers; ``Seq`` and ``Par`` lift their operands'
tables, and ``Par`` decides the independence of its operands once. A step
keeps its guard and update as their compiled closures (see ``core``), None
for a literal ``true`` guard and for skip, so ``chor_steps_tagged`` only
calls closures and builds configurations.

The tables of a root term and of every term reached from it live in one
tables object kept on the root, so every exploration of the root reuses
them. They are hash-consed: each next term in a table is the one canonical
object of its structure, and each residual receive a step leaves behind is
one ``Receipt`` per (receive port, update), built with its hash. So the terms
of the configurations an exploration meets compare by identity, and a pool
of pending receives hashes without a Python call per port or update.

A step's event (see ``core.Event``) lists the semantic rules that derive
it, outermost first, as its rules: a lifted step's event is its operand's
with the ``Seq`` or ``Par`` rule put in front, sharing the ports and the
label. Its ports are the ports that move: the sender and, for a synchronous
send, the receivers; the port of a choice or a loop's test; the receive port
of a delivery, whose event its ``Receipt`` keeps. A step moves no port only
for ``nil`` and a loop's exit, whose label is ``TAU``; every other label is
the set of the ports' ids. ``explore`` runs the shared breadth-first
explorer (``core.explore_lts``) over ``chor_steps_tagged``; the final
configurations it reaches are its terminals, and its ``rules_seen`` measure
rule coverage.

Configurations are named tuples. Equality and hashing run over the fields,
whose own hashes are memoized (terms, valuations) or stored (receipts), so
a configuration keeps no hash of its own. Equality stays structural, so
configurations from two parses of one choreography compare equal.
``lts_to_dot`` orders nodes and edges by the repr, built once per
configuration drawn, in which a pending entry prints as (port, update,
value).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .core import (
    SKIP, TAU, TRUE, Event, Exploration, Label, Not, Port, Ref, Update, Valuation,
    explore_lts, requeue,
)
from .lang import Branch, Chor, Comm, Loop, Nil, Par, Seq, participants

#: Rule names appearing in transition tags.
CHOR_RULES = (
    "nil",
    "synch-sendrcv",
    "asynch-sendrcv-1",
    "asynch-sendrcv-2",
    "master-branching",
    "iterative-tt",
    "iterative-ff",
    "sequential-1",
    "sequential-2",
    "parallel-1",
    "parallel-2",
    "parallel-3",
    "parallel-4",
)


class Receipt:
    """The receive side of an asynchronous send: the receive port and its
    update. Built once per (port, update) when a step table is compiled,
    with the update's closure, or None for skip, as ``apply``, and the
    event of the delivery as ``event``.

    Its structural hash is stored when it is built, and equality tests
    identity first, so a configuration with pending receives hashes and
    compares its pool without a call per port or update. Receipts from
    different tables still compare by structure. The repr prints the port
    and the update, so that a pending entry reads as a (port, update, value)
    triple.
    """

    __slots__ = ("port", "update", "apply", "qname", "event", "_hash")

    def __init__(self, port: Port, update: Update, event: Event):
        self.port = port
        self.update = update
        self.apply = update.compiled if update.assignments else None
        self.qname = port.var.qname
        self.event = event
        self._hash = hash((port, update))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Receipt):
            return self.port == other.port and self.update == other.update
        return NotImplemented

    def __repr__(self):
        return f"{self.port!r}, {self.update!r}"


#: One residual receive: its receipt and the value captured at send time.
PendingRecv = tuple  # (Receipt, Value)

#: Pending pool: sorted tuple of (channel key, FIFO queue of PendingRecv).
#: The channel key is (send port id, receive port id).
Pending = tuple


class Running(NamedTuple):
    term: Optional[Chor]  # None once the term itself has terminated
    sigma: Valuation
    pending: Pending = ()


class Final(NamedTuple):
    sigma: Valuation


ChorConfig = Union[Running, Final]


#: Builds a ``Running`` or ``Final`` from its fields without the Python-level
#: ``__new__`` that ``NamedTuple`` generates: one call less per successor.
_new = tuple.__new__


def initial_config(ch: Chor, sigma0: Valuation) -> Running:
    return Running(term=ch, sigma=sigma0, pending=())


class _Tables:
    """The compiled steps of one root term and of every term reached from
    it: step tables keyed by term structure, one canonical object per term
    structure that a step can reach, one ``Receipt`` per (receive port,
    update) and one label object per set of port ids. A term registered
    here keeps the tables as ``_tables`` unless it already kept others."""

    __slots__ = ("steps", "terms", "receipts", "labels")

    def __init__(self):
        self.steps = {}
        self.terms = {}
        self.receipts = {}
        self.labels = {}

    def canon(self, term: Chor) -> Chor:
        """The canonical object equal to ``term``. A ``Seq`` or ``Par``
        built from canonical operands is cheap to look up: its equality test
        compares the operands by identity."""
        stored = self.terms.setdefault(term, term)
        if stored is term and "_tables" not in vars(term):
            object.__setattr__(term, "_tables", self)
        return stored

    def receipt(self, port: Port, update: Update) -> Receipt:
        key = (port, update)
        try:
            return self.receipts[key]
        except KeyError:
            receipt = self.receipts[key] = Receipt(
                port, update if update.assignments else SKIP,
                Event.of(("asynch-sendrcv-2",), (port,), self.labels))
            return receipt

    def step(self, rule: str, ports: tuple, guard, update, sends, nxt) -> tuple:
        """One static step, with its event, and with the guard and the
        update as their compiled closures, or None for a literal ``true``
        guard and for skip."""
        return (Event.of((rule,), ports, self.labels),
                None if guard == TRUE else guard.compiled,
                update.compiled if update.assignments else None, sends, nxt)


def _tables(term: Chor) -> _Tables:
    """The tables that ``term`` was registered in; otherwise new ones, kept
    on ``term``, which becomes their root."""
    try:
        return term._tables
    except AttributeError:
        tables = _Tables()
        tables.canon(term)
        return tables


def _steps(term: Chor, tables: _Tables) -> tuple:
    """The step table of ``term``'s structure: compiled on first use, then
    kept in ``tables``."""
    try:
        return tables.steps[term]
    except KeyError:
        steps = tables.steps[term] = _compile(term, tables)
        return steps


def _lift(steps, running: str, terminated: str, rest: Chor, wrap) -> tuple:
    """An operand's steps seen from the enclosing ``Seq`` or ``Par``: a step
    that terminates the operand continues with ``rest``, any other step with
    ``wrap`` of the operand's next term."""
    return tuple(
        (event._replace(rules=(terminated,) + event.rules), guard, update, sends, rest)
        if nxt is None else
        (event._replace(rules=(running,) + event.rules), guard, update, sends, wrap(nxt))
        for event, guard, update, sends, nxt in steps
    )


def _compile(term: Chor, tables: _Tables) -> tuple:
    """Static steps of ``term`` as (event, guard, update, sends, next term),
    built by ``_Tables.step``; next term is None when the step terminates the
    term, and otherwise canonical in ``tables``. ``sends`` lists the
    residual receives of an asynchronous send as (channel key, receipt,
    sent variable)."""
    canon, step = tables.canon, tables.step
    if isinstance(term, Nil):
        return (step("nil", (), TRUE, SKIP, (), None),)

    if isinstance(term, Comm):
        snd = term.send.port
        if snd.ctype == "ss":
            # The transfer comes first, then the sender's update, then the
            # receivers' in order.
            assignments = []
            for r, _ in term.rcvs:
                if r.dtype != snd.dtype:
                    raise TypeError(f"transfer dtype mismatch: "
                                    f"{snd.pid}:{snd.dtype} -> {r.pid}:{r.dtype}")
                assignments.append((r.var.qname, Ref(snd.var.qname)))
            assignments += term.send.update.assignments
            for _, f in term.rcvs:
                assignments += f.assignments
            ports = (snd,) + tuple(r for r, _ in term.rcvs)
            return (step("synch-sendrcv", ports, term.send.guard,
                          Update(tuple(assignments)), (), None),)
        sends = tuple(((snd.pid, r.pid), tables.receipt(r, f), snd.var.qname)
                      for r, f in term.rcvs)
        return (step("asynch-sendrcv-1", (snd,), term.send.guard,
                      term.send.update, sends, None),)

    if isinstance(term, Branch):
        return tuple(
            step("master-branching", (gs.port,), gs.guard, gs.update, (), canon(cont))
            for gs, cont in term.conts
        )

    if isinstance(term, Loop):
        cond = term.cond
        return (
            step("iterative-tt", (cond.port,), cond.guard, cond.update, (),
                  canon(Seq(canon(term.body), canon(term)))),
            step("iterative-ff", (), Not(cond.guard), SKIP, (), None),
        )

    if isinstance(term, Seq):
        second = canon(term.second)
        return _lift(_steps(term.first, tables), "sequential-1", "sequential-2", second,
                     lambda nxt: canon(Seq(nxt, second)))

    if isinstance(term, Par):
        left, right = canon(term.left), canon(term.right)
        lifted = _lift(_steps(left, tables), "parallel-1", "parallel-3", right,
                       lambda nxt: canon(Par(nxt, right)))
        # Dependent operands (shared components) run in a fixed left-to-right
        # order, so that every component keeps a single execution flow.
        if participants(left) & participants(right):
            return lifted
        return lifted + _lift(_steps(right, tables), "parallel-2", "parallel-4", left,
                              lambda nxt: canon(Par(left, nxt)))

    raise AssertionError(term)


def chor_steps_tagged(config: ChorConfig, tables: Optional[_Tables] = None):
    """Successors of a configuration as (event, configuration) pairs.

    ``tables`` holds the compiled steps; by default, the tables of the
    configuration's term (see ``_tables``)."""
    if isinstance(config, Final):
        return []
    term, sigma, pending = config
    out = []

    # Residual receives: consume the head of any channel queue.
    for i, (chan, queue) in enumerate(pending):
        receipt, value = queue[0]
        after = sigma.set(receipt.qname, value)
        if receipt.apply is not None:
            after = receipt.apply(after)
        if len(queue) > 1:
            rest = pending[:i] + ((chan, queue[1:]),) + pending[i + 1:]
        else:
            rest = pending[:i] + pending[i + 1:]
        out.append((receipt.event, _new(Running, (term, after, rest))
                    if term is not None or rest else _new(Final, (after,))))

    # Term steps: the payload of a send is read before the update runs.
    if term is not None:
        for event, guard, update, sends, nxt in _steps(term, tables or _tables(term)):
            if guard is not None and not guard(sigma):
                continue
            queues = pending
            for chan, receipt, var in sends:
                queues = requeue(queues, chan, push=((receipt, sigma[var]),))
            after = sigma if update is None else update(sigma)
            out.append((event, _new(Running, (nxt, after, queues))
                        if nxt is not None or queues else _new(Final, (after,))))
    return out


# --------------------------------------------------------------------------
# Exhaustive exploration
# --------------------------------------------------------------------------

def explore(ch: Chor, sigma0: Valuation,
            max_configs: int = 200_000, max_depth: int = 10_000) -> Exploration:
    """Breadth-first closure of chor_steps_tagged (see ``core.explore_lts``)."""
    tables = _tables(ch)
    # The successor function is looked up at each call, so that a wrapper
    # installed on this module sees every call.
    return explore_lts(initial_config(tables.canon(ch), sigma0),
                       lambda config: chor_steps_tagged(config, tables),
                       lambda c: isinstance(c, Final), max_configs, max_depth)


def _label_text(label: Label) -> str:
    if label == TAU:
        return "tau"
    return "{" + ", ".join(sorted(label)) + "}"


def _config_key(config: ChorConfig) -> str:
    return repr(config)


def lts_to_dot(result: Exploration) -> str:
    """Render an explored LTS as a DOT digraph. On a truncated exploration,
    edge targets the graph does not store are drawn dashed."""
    ids = {}

    def node_id(config):
        if config not in ids:
            ids[config] = f"n{len(ids)}"
        return ids[config]

    def declare(config, style=""):
        nid = node_id(config)
        if isinstance(config, Final):
            lines.append(f'  {nid} [shape=doublecircle, label="final"{style}];')
        else:
            shape = "box" if config in result.deadlocks else "circle"
            lines.append(f'  {nid} [shape={shape}, label=""{style}];')

    keys = {}

    def key(config):
        """``_config_key`` of ``config``, computed once per configuration."""
        k = keys.get(config)
        if k is None:
            k = keys[config] = _config_key(config)
        return k

    lines = ["digraph lts {", "  rankdir=LR;"]
    ordering = sorted(result.graph, key=key)
    if result.initial in result.graph:
        ordering.remove(result.initial)
        ordering.insert(0, result.initial)
    for config in ordering:
        declare(config)
    for config in ordering:
        nid = node_id(config)
        for event, succ in sorted(result.graph[config],
                                  key=lambda e: (_label_text(e[0].label), key(e[1]))):
            if succ not in ids:
                declare(succ, ", style=dashed")
            lines.append(f'  {nid} -> {node_id(succ)} [label="{_label_text(event.label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
