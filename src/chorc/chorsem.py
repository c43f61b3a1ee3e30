"""Small-step interpreter for the choreography semantics.

A configuration pairs a runtime term with a valuation and a pool of pending
(residual) receives. An asynchronous send completes immediately on the
sender's side; the receives it leaves behind are appended, together with the
transferred value, to a FIFO queue keyed by the (send port, receive port)
channel and are consumed one at a time, in any interleaving with the rest of
the choreography. This makes the pending pool behave exactly like the
per-port buffers of the synthesized component system.

Each transition is tagged with the chain of semantic rules that produced it
(outermost rule first); the test suite uses the tags to measure rule
coverage. ``explore`` runs the shared breadth-first explorer
(``core.explore_lts``) over ``chor_steps_tagged``; the final configurations
it reaches are its terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from functools import lru_cache

from .core import (
    Exploration, Valuation, apply_update, evaluate, explore_lts, memo_hash, requeue,
    transfer,
)
from .lang import Branch, Chor, Comm, Loop, Nil, Par, Seq, participants

_participants = lru_cache(maxsize=None)(participants)

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


@memo_hash
@dataclass(frozen=True)
class Running:
    term: Optional[Chor]  # None once the term itself has terminated
    sigma: Valuation
    pending: Pending = ()


@dataclass(frozen=True)
class Final:
    sigma: Valuation


ChorConfig = Union[Running, Final]


def initial_config(ch: Chor, sigma0: Valuation) -> Running:
    return Running(term=ch, sigma=sigma0, pending=())


def _step_term(term: Chor, sigma: Valuation):
    """Term-level successors of (term, sigma).

    Yields (tags, label, next_term, sigma', sent) where next_term is None
    when the term has terminated and sent lists residual receives created by
    an asynchronous send as (channel key, (port, update, value)).
    """
    out = []
    if isinstance(term, Nil):
        out.append((("nil",), TAU, None, sigma, ()))
        return out

    if isinstance(term, Comm):
        snd = term.send
        if evaluate(snd.guard, sigma):
            if snd.port.ctype == "ss":
                rcv_ports = [p for p, _ in term.rcvs]
                after = transfer(sigma, snd.port, rcv_ports)
                after = apply_update(snd.update, after)
                for _, f in term.rcvs:
                    after = apply_update(f, after)
                label = frozenset({snd.port.pid} | {p.pid for p in rcv_ports})
                out.append((("synch-sendrcv",), label, None, after, ()))
            else:
                payload = sigma[snd.port.var.qname]
                after = apply_update(snd.update, sigma)
                sent = tuple(
                    ((snd.port.pid, p.pid), (p, f, payload))
                    for p, f in term.rcvs
                )
                out.append((
                    ("asynch-sendrcv-1",),
                    frozenset({snd.port.pid}),
                    None, after, sent,
                ))
        return out

    if isinstance(term, Branch):
        for gs, cont in term.conts:
            if evaluate(gs.guard, sigma):
                out.append((
                    ("master-branching",),
                    frozenset({gs.port.pid}),
                    cont,
                    apply_update(gs.update, sigma),
                    (),
                ))
        return out

    if isinstance(term, Loop):
        if evaluate(term.cond.guard, sigma):
            out.append((
                ("iterative-tt",),
                frozenset({term.cond.port.pid}),
                Seq(term.body, term),
                apply_update(term.cond.update, sigma),
                (),
            ))
        else:
            out.append((("iterative-ff",), TAU, None, sigma, ()))
        return out

    if isinstance(term, Seq):
        for tags, label, nxt, sig, sent in _step_term(term.first, sigma):
            if nxt is None:
                out.append((("sequential-2",) + tags, label, term.second, sig, sent))
            else:
                out.append((
                    ("sequential-1",) + tags, label,
                    Seq(nxt, term.second), sig, sent,
                ))
        return out

    if isinstance(term, Par):
        # Dependent operands (shared components) run in a fixed left-to-right
        # order, so that every component keeps a single execution flow.
        independent = not (_participants(term.left) & _participants(term.right))
        for tags, label, nxt, sig, sent in _step_term(term.left, sigma):
            if nxt is None:
                out.append((("parallel-3",) + tags, label, term.right, sig, sent))
            else:
                out.append((
                    ("parallel-1",) + tags, label, Par(nxt, term.right), sig, sent,
                ))
        if not independent:
            return out
        for tags, label, nxt, sig, sent in _step_term(term.right, sigma):
            if nxt is None:
                out.append((("parallel-4",) + tags, label, term.left, sig, sent))
            else:
                out.append((
                    ("parallel-2",) + tags, label, Par(term.left, nxt), sig, sent,
                ))
        return out

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
        if config.term is None and not rest:
            succ: ChorConfig = Final(sigma)
        else:
            succ = Running(config.term, sigma, rest)
        out.append((("asynch-sendrcv-2",), frozenset({port.pid}), succ))

    # Term steps.
    if config.term is not None:
        for tags, label, nxt, sigma, sent in _step_term(config.term, config.sigma):
            pending = config.pending
            for chan, item in sent:
                pending = requeue(pending, chan, push=(item,))
            if nxt is None and not pending:
                succ = Final(sigma)
            else:
                succ = Running(nxt, sigma, pending)
            out.append((tags, label, succ))
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
