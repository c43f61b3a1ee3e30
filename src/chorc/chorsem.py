"""Small-step interpreter for the choreography semantics.

A configuration pairs a runtime term with a valuation and a pool of pending
(residual) receives. An asynchronous send completes immediately on the
sender's side; the receives it leaves behind are appended, together with the
transferred value, to a FIFO queue keyed by the (send port, receive port)
channel and are consumed one at a time, in any interleaving with the rest of
the choreography. This makes the pending pool behave exactly like the
per-port buffers of the synthesized component system.

Each term is compiled once, on first use, into a step table kept on the term
instance: one static step (rule tags, label, guard, update, sends, next term)
per way the term can move. A synchronous send becomes one update whose first
assignments copy the sent value to the receivers; ``Seq`` and ``Par`` lift
their operands' tables, and ``Par`` decides the independence of its operands
once. ``chor_steps_tagged`` then only evaluates guards and applies updates.

Rule tags list the semantic rules that produced a transition, outermost
first; the test suite uses them to measure rule coverage. ``explore`` runs
the shared breadth-first explorer (``core.explore_lts``) over
``chor_steps_tagged``; the final configurations it reaches are its terminals.

Configurations are named tuples. Equality and hashing run over the fields,
whose own hashes are memoized (terms, valuations, ports, updates), so a
configuration keeps no hash of its own; ``lts_to_dot`` orders nodes by its
repr. A label on one port is that port's shared ``Port.label``, so neither
the step tables nor a residual receive build a frozenset per step.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .core import (
    SKIP, TRUE, Exploration, Not, Ref, Update, Valuation, apply_update, evaluate,
    explore_lts, requeue,
)
from .lang import Branch, Chor, Comm, Loop, Nil, Par, Seq, participants

#: Silent label.
TAU = "tau"

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

Label = Union[str, frozenset]

#: One residual receive: the receive port, its update function and the value
#: captured at send time.
PendingRecv = tuple  # (Port, Update, Value)

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


def initial_config(ch: Chor, sigma0: Valuation) -> Running:
    return Running(term=ch, sigma=sigma0, pending=())


def _config(term: Optional[Chor], sigma: Valuation, pending: Pending) -> ChorConfig:
    """Final once neither the term nor a pending receive is left."""
    if term is None and not pending:
        return Final(sigma)
    return Running(term, sigma, pending)


def _steps(term: Chor) -> tuple:
    """The step table of ``term``: compiled on first use, then kept on the
    term instance."""
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
        ((terminated,) + tags, label, guard, update, sends, rest) if nxt is None
        else ((running,) + tags, label, guard, update, sends, wrap(nxt))
        for tags, label, guard, update, sends, nxt in steps
    )


def _compile(term: Chor) -> tuple:
    """Static steps of ``term`` as (tags, label, guard, update, sends, next
    term); next term is None when the step terminates the term. ``sends``
    lists the residual receives of an asynchronous send as (channel key,
    receive port, receive update, sent variable)."""
    if isinstance(term, Nil):
        return ((("nil",), TAU, TRUE, SKIP, (), None),)

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
            label = frozenset({snd.pid} | {r.pid for r, _ in term.rcvs})
            return ((("synch-sendrcv",), label, term.send.guard,
                     Update(tuple(assignments)), (), None),)
        sends = tuple(((snd.pid, r.pid), r, f, snd.var.qname) for r, f in term.rcvs)
        return ((("asynch-sendrcv-1",), snd.label, term.send.guard,
                 term.send.update, sends, None),)

    if isinstance(term, Branch):
        return tuple(
            (("master-branching",), gs.port.label, gs.guard, gs.update, (), cont)
            for gs, cont in term.conts
        )

    if isinstance(term, Loop):
        cond = term.cond
        return (
            (("iterative-tt",), cond.port.label, cond.guard, cond.update, (),
             Seq(term.body, term)),
            (("iterative-ff",), TAU, Not(cond.guard), SKIP, (), None),
        )

    if isinstance(term, Seq):
        return _lift(_steps(term.first), "sequential-1", "sequential-2", term.second,
                     lambda nxt: Seq(nxt, term.second))

    if isinstance(term, Par):
        left = _lift(_steps(term.left), "parallel-1", "parallel-3", term.right,
                     lambda nxt: Par(nxt, term.right))
        # Dependent operands (shared components) run in a fixed left-to-right
        # order, so that every component keeps a single execution flow.
        if participants(term.left) & participants(term.right):
            return left
        return left + _lift(_steps(term.right), "parallel-2", "parallel-4", term.left,
                            lambda nxt: Par(term.left, nxt))

    raise AssertionError(term)


def chor_steps_tagged(config: ChorConfig):
    """Successors of a configuration as (rule tags, label, configuration)."""
    if isinstance(config, Final):
        return []
    out = []

    # Residual receives: consume the head of any channel queue.
    for chan, queue in config.pending:
        port, f, value = queue[0]
        sigma = config.sigma.set(port.var.qname, value)
        sigma = apply_update(f, sigma)
        rest = requeue(config.pending, chan, pop=True)
        out.append((("asynch-sendrcv-2",), port.label,
                    _config(config.term, sigma, rest)))

    # Term steps: the payload of a send is read before the update runs.
    if config.term is not None:
        for tags, label, guard, update, sends, nxt in _steps(config.term):
            if not evaluate(guard, config.sigma):
                continue
            pending = config.pending
            for chan, port, f, var in sends:
                pending = requeue(pending, chan, push=((port, f, config.sigma[var]),))
            out.append((tags, label, _config(nxt, apply_update(update, config.sigma), pending)))
    return out


# --------------------------------------------------------------------------
# Exhaustive exploration
# --------------------------------------------------------------------------

def explore(ch: Chor, sigma0: Valuation,
            max_configs: int = 200_000, max_depth: int = 10_000) -> Exploration:
    """Breadth-first closure of chor_steps_tagged (see ``core.explore_lts``);
    ``rules_seen`` holds rule names, not tag chains."""
    result = explore_lts(initial_config(ch, sigma0), chor_steps_tagged,
                         lambda c: isinstance(c, Final), max_configs, max_depth)
    result.rules_seen = {rule for tags in result.rules_seen for rule in tags}
    return result


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

    lines = ["digraph lts {", "  rankdir=LR;"]
    ordering = sorted(result.graph, key=_config_key)
    if result.initial in result.graph:
        ordering.remove(result.initial)
        ordering.insert(0, result.initial)
    for config in ordering:
        declare(config)
    for config in ordering:
        nid = node_id(config)
        for label, succ in sorted(result.graph[config],
                                  key=lambda e: (_label_text(e[0]), _config_key(e[1]))):
            if succ not in ids:
                declare(succ, ", style=dashed")
            lines.append(f'  {nid} -> {node_id(succ)} [label="{_label_text(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
