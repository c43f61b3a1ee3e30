"""Small-step interpreter for the choreography semantics.

A configuration pairs a runtime term with a valuation and a pool of pending
(residual) receives. An asynchronous send completes immediately on the
sender's side; the receives it leaves behind are appended, together with the
transferred value, to a FIFO queue keyed by the (send port, receive port)
channel and are consumed one at a time, in any interleaving with the rest of
the choreography. This makes the pending pool behave exactly like the
per-port buffers of the synthesized component system.

Each term is compiled once, on first use, into a step table kept on the
term: one static step (event, guard, update, sends, next term) per way the
term can move. A synchronous send becomes one update whose first
assignments copy the sent value to the receivers; ``Seq`` and ``Par`` lift
their operands' tables, and ``Par`` decides the independence of its
operands once. A step keeps its guard and update as their compiled closures
(see ``core``), None for a literal ``true`` guard and for skip, so
``chor_steps_tagged`` only calls closures and builds configurations.

Terms are hash-consed (see ``core``), so every exploration of a term, and
of any term equal to it, reuses the tables built for it while it lives. A
residual receive that a step leaves behind is a ``Receipt``, hash-consed
too: one live object per (receive port, update), holding the update's
closure and the delivery's event. A label is built once per static step,
with its event, and never per edge.

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

Configurations are named tuples with no hash of their own. Their terms and
receipts hash and compare by identity and their valuations by a cached
hash, so equal configurations, from two parses of one choreography too,
are equal tuples. ``lts_to_dot`` orders nodes and edges as the repr does,
in which a pending entry prints as (port, update, value), by a key built
once per configuration drawn from the repr of each field, with each term
printed once.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import (
    SKIP, TAU, TRUE, Event, Exploration, Interned, Label, Not, Port, Ref, Update,
    Valuation, explore_lts, interned, requeue,
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


class Receipt(Interned):
    """The receive side of an asynchronous send: the receive port and its
    update, with the update's closure, or None for skip, as ``apply``, and
    the event of the delivery as ``event``. Hash-consed: one live object
    per (port, update). The repr prints the port and the update, so that a
    pending entry reads as a (port, update, value) triple.
    """

    def __new__(cls, port: Port, update: Update):
        return interned(cls, (id(port), id(update)), port=port, update=update,
                        apply=update.compiled if update.assignments else None,
                        qname=port.var.qname,
                        event=Event.of(("asynch-sendrcv-2",), (port,)))

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


ChorConfig = Running | Final  # not typing.Union: see core.Expr


#: Builds a ``Running`` or ``Final`` from its fields without the Python-level
#: ``__new__`` that ``NamedTuple`` generates: one call less per successor.
_new = tuple.__new__


def initial_config(ch: Chor, sigma0: Valuation) -> Running:
    return Running(term=ch, sigma=sigma0, pending=())


def _step(rule: str, ports: tuple, guard, update, sends, nxt) -> tuple:
    """One static step, with its event, and with the guard and the update
    as their compiled closures, or None for a literal ``true`` guard and
    for skip."""
    return (Event.of((rule,), ports),
            None if guard is TRUE else guard.compiled,
            update.compiled if update.assignments else None, sends, nxt)


def _steps(term: Chor) -> tuple:
    """The step table of ``term``: compiled on first use, then kept on the
    term."""
    try:
        return term._steps
    except AttributeError:
        steps = _compile(term)
        object.__setattr__(term, "_steps", steps)
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


def _compile(term: Chor) -> tuple:
    """Static steps of ``term`` as (event, guard, update, sends, next term),
    built by ``_step``; next term is None when the step terminates the term.
    ``sends`` lists the residual receives of an asynchronous send as
    (channel key, receipt, sent variable)."""
    if isinstance(term, Nil):
        return (_step("nil", (), TRUE, SKIP, (), None),)

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
            return (_step("synch-sendrcv", ports, term.send.guard,
                          Update(tuple(assignments)), (), None),)
        sends = tuple(((snd.pid, r.pid), Receipt(r, f), snd.var.qname)
                      for r, f in term.rcvs)
        return (_step("asynch-sendrcv-1", (snd,), term.send.guard,
                      term.send.update, sends, None),)

    if isinstance(term, Branch):
        return tuple(
            _step("master-branching", (gs.port,), gs.guard, gs.update, (), cont)
            for gs, cont in term.conts
        )

    if isinstance(term, Loop):
        cond = term.cond
        return (
            _step("iterative-tt", (cond.port,), cond.guard, cond.update, (),
                  Seq(term.body, term)),
            _step("iterative-ff", (), Not(cond.guard), SKIP, (), None),
        )

    if isinstance(term, Seq):
        second = term.second
        return _lift(_steps(term.first), "sequential-1", "sequential-2", second,
                     lambda nxt: Seq(nxt, second))

    if isinstance(term, Par):
        left, right = term.left, term.right
        lifted = _lift(_steps(left), "parallel-1", "parallel-3", right,
                       lambda nxt: Par(nxt, right))
        # Dependent operands (shared components) run in a fixed left-to-right
        # order, so that every component keeps a single execution flow.
        if participants(left) & participants(right):
            return lifted
        return lifted + _lift(_steps(right), "parallel-2", "parallel-4", left,
                              lambda nxt: Par(left, nxt))

    raise AssertionError(term)


def chor_steps_tagged(config: ChorConfig):
    """Successors of a configuration as (event, configuration) pairs."""
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
        for event, guard, update, sends, nxt in _steps(term):
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
    # The successor function is looked up on this module at each call of
    # ``explore``, so that a wrapper installed on it sees every step.
    return explore_lts(initial_config(ch, sigma0), chor_steps_tagged,
                       lambda c: isinstance(c, Final), max_configs, max_depth)


def _label_text(label: Label) -> str:
    if label == TAU:
        return "tau"
    return "{" + ", ".join(sorted(label)) + "}"


def _config_key(config: ChorConfig, term_texts: dict) -> tuple:
    """A sort key that orders configurations as their ``repr`` does. That
    text is ``Final(sigma=...)`` or ``Running(term=..., sigma=...,
    pending=...)``, so the key is the class name, then each field's repr:
    comparing those one by one gives the order of the whole text because
    no term, valuation or pool repr is a proper prefix of another of its
    kind. Each is ``None`` or ends at the bracket that closes its first
    one, outside any string literal, so two of them that differ do so at a
    character both have. ``term_texts`` keeps each term's repr, so a term
    shared by many configurations is printed once."""
    if isinstance(config, Final):
        return ("Final", repr(config.sigma))
    term, sigma, pending = config
    text = term_texts.get(term)
    if text is None:
        text = term_texts[term] = repr(term)
    return ("Running", text, repr(sigma), repr(pending))


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

    keys, term_texts = {}, {}

    def key(config):
        """``_config_key`` of ``config``, computed once per configuration."""
        k = keys.get(config)
        if k is None:
            k = keys[config] = _config_key(config, term_texts)
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
