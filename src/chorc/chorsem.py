"""Small-step interpreter for the choreography semantics.

A configuration (``Running``) pairs a runtime term, None once it has
terminated, with a valuation and the pending (residual) receives; it is
final, and prints as ``Final(sigma=...)``, once the term has terminated and
nothing is pending. An asynchronous send completes immediately on the
sender's side; the receives it leaves behind are appended, together with
the transferred value, to a FIFO queue per receiving component, in arrival
order. A component with a pending entry moves only by consuming its oldest
one: no step of the term in which it takes part fires until its queue has
drained, while components with nothing pending move freely. So a process's
later actions follow its receive, and only interactions with disjoint
participants swap, as in the asynchronous choreography calculi
(Cruz-Filipe & Montesi, "On asynchrony and choreographies", ICE 2017;
Carbone & Montesi, "Deadlock-freedom-by-design", POPL 2013), and as a
synthesized component, one sequential automaton, behaves.

A term's step has one shape, (event, action, next term). A delivery is no
term step: consuming a message in transit is an ordinary reduction that
keeps the term. Each term is compiled once, on first use, into a step table
kept on the term, one static step per way the term can move. An action
(``_Action``) holds its initiator's guard as a compiled closure (see
``core``), None for ``true``, the variable it sends, its residual receives,
its owners, the components whose pending entries hold it back (the owners
of the moving ports, the master for a loop's exit, and nobody for
``nil``), and its moves: one per component whose variables it touches,
initiator first, each that component's update, None for skip, and for a
synchronous receiver the variable that takes the sent value first. ``Seq``
and ``Par`` lift their operands' tables, sharing the actions, and ``Par``
reads once whether its operands are dependent (``lang.shared``). A
residual receive is a ``Receipt``, one live object per (receive port,
update), which keeps the delivery's event.

Configuration layout. A configuration is stored as (term, parts, frame),
partitioned as ``core`` describes: one part (``_Part``) per component,
holding the values of its variables, which are contiguous in sorted-key
order, since ``.`` sorts below every identifier character, and its
``queue`` of pending (receipt, value) entries, oldest first. A ``_Frame``,
one per set of keys, lays the parts out, in component order, and keeps
its ``receivers``, the sorted indices of the parts that an action laid out
in it sends to: only those parts can hold a queue. Frames and parts are
hash-consed by value like terms (see ``core.Interned``), so equal
configurations from two parses are equal tuples. ``sigma`` views the
parts as one valuation, their ``Valuation.union``, which only finals and
``repr`` read, and ``pending`` views the queues.

Caches. An action is laid out in the frame it last ran in, and again,
with an empty cache, when it runs in another. It keeps a cache from the
parts it reads, its owners' and its receivers', to the new parts it
writes, or ``False`` if an owner has a pending entry or its guard fails;
on a miss each move runs on its own component's part, and each receiver's
part gets the payload queued. A delivery of a part's oldest entry is kept
on that part. Actions live on the terms. Compiling a term with
``lang.faults``, which ``check_well_formed`` reports too, raises
``EvalError`` with the first one's message, and so does a step that
assigns a variable the initial valuation does not bind (``Valuation.set``).

A step's event (see ``core.Event``) lists the semantic rules that derive
it, outermost first, as its rules: a lifted step's event is its operand's
with the ``Seq`` or ``Par`` rule put in front, sharing the ports and the
label. Its ports are the ports that move: the sender and, for a synchronous
send, the receivers; the port of a choice or a loop's test; the receive port
of a delivery. A step moves no port only for ``nil`` and a loop's exit,
whose label is ``TAU``; every other label is the set of the ports' ids.
``explore`` runs the shared breadth-first explorer (``core.explore_lts``)
over ``chor_steps_tagged``; the final configurations it reaches are its
terminals, and its ``rules_seen`` measure rule coverage.

``lts_to_dot`` draws the exploration in the explorer's own order: node
``n<i>`` is the i-th configuration met, so its names are the state ids
of the ``Exploration``, and it prints no term.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Optional

from .core import (
    SKIP, TAU, TRUE, EvalError, Event, Exploration, Interned, Label, Not, Part, Port, Update,
    Valuation, explore_lts, expr_vars, interned,
)
from .lang import Branch, Chor, Comm, Loop, Nil, Par, Seq, faults, shared

#: The key of an action that touches no part; what a component without one reads.
_NO_PARTS, _NO_VALUES = itemgetter(slice(0, 0)), Valuation()


class _Action:
    """What a static step does, shared by its lifted copies (see the module
    docstring): its initiator's ``guard``, the ``var`` it sends, its
    ``moves``, one (owner, received variable or None, update) per component
    whose values it touches, initiator first, and its ``sends``, one
    (receiving component, receipt) per residual receive. Laid out in
    ``frame``, ``at`` holds each move's part index, None if it has none,
    ``to`` each send's (index, receipt), ``waits`` the owners' indices,
    ``key`` picks the parts it reads, ``writes`` holds the indices of those
    it writes and ``sole`` the index if there is one."""

    __slots__ = ("guard", "var", "moves", "sends", "owners", "frame", "at", "to", "waits", "key",
                 "writes", "sole", "cache")

    def __init__(self, guard, var: Optional[str], moves: tuple, sends=(), owners=frozenset()):
        self.guard = None if guard is TRUE else guard.compiled
        self.moves = tuple([(owner, received, f.compiled if f.assignments else None)
                            for owner, received, f in moves])
        self.var, self.sends, self.owners, self.frame = var, sends, owners, None

    def lay_out(self, frame: _Frame):
        """Lay the action out in ``frame``, with an empty cache, and add the
        parts it sends to to the frame's ``receivers``."""
        part_of = frame.part_of
        at = self.at = tuple([part_of.get(owner) for owner, _, _ in self.moves])
        to = self.to = tuple([(part_of.get(comp), receipt) for comp, receipt in self.sends])
        self.waits = tuple(sorted([part_of[o] for o in self.owners if o in part_of]))
        pushed = [i for i, _ in to if i is not None]
        held = sorted(set(self.waits).union(pushed))  # the moves' owners are owners
        self.key = itemgetter(*held) if held else _NO_PARTS
        self.writes = tuple([i for i, (_, received, f) in zip(at, self.moves)
                             if received is not None or f is not None] + [i for i, _ in to])
        self.sole = self.writes[0] if len(self.writes) == 1 else None
        self.frame, self.cache = frame, {}
        frame.receivers = tuple(sorted(set(frame.receivers).union(pushed)))


class Receipt(Interned):
    """The receive side of an asynchronous send: the receive port and its
    update, and the delivery's event. Hash-consed: one live object per
    (port, update). The repr prints the port and the update, so that a
    pending entry reads as a (port, update, value) triple.
    """

    def __new__(cls, port: Port, update: Update):
        return interned(cls, (id(port), id(update)), port=port, update=update,
                        event=Event.of(("asynch-sendrcv-2",), (port,)))

    def __repr__(self):
        return f"{self.port!r}, {self.update!r}"


class _Frame(Interned):
    """The layout of the parts of valuations over ``keys``, sorted: one
    part per run of keys with one owner. ``layouts`` lays out each part,
    ``part_of`` maps an owner to the index of its part and ``receivers``
    holds the sorted indices of the parts its actions send to."""

    def __new__(cls, keys: tuple):
        ref = cls._nodes.get(keys)
        if ref is not None and ref() is not None:
            return ref()
        layouts, part_of = [], {}
        for k in keys:
            owner = k.partition(".")[0]
            if owner not in part_of:
                part_of[owner] = len(layouts)
                layouts.append({})
            layouts[-1][k] = len(layouts[-1])
        return interned(cls, keys, layouts=tuple(layouts), part_of=part_of, receivers=())

    def split(self, sigma: Valuation) -> tuple:
        parts, n = [], 0
        for layout in self.layouts:
            parts.append(_part(layout, sigma._values[n:n + len(layout)]))
            n += len(layout)
        return tuple(parts)


class _Part(Part, Interned):
    """A component's share of a configuration: the valuation of its
    variables and its ``queue`` of pending (receipt, value) entries, oldest
    first; one live object per layout, values and queue. ``delivery``
    keeps the delivery of its oldest entry (see ``_deliver``)."""

    __slots__ = ("__weakref__", "queue", "delivery")


def _part(slots: dict, values: tuple, queue: tuple = ()) -> _Part:
    return interned(_Part, (id(slots), values, queue and tuple([(id(r), v) for r, v in queue])),
                    _slots=slots, _values=values, queue=queue, delivery=None)


class Running(tuple):
    """A configuration, stored as (term, parts, frame); the term is None
    once it has terminated. ``Running(term, sigma)`` builds one with
    nothing pending from its views."""

    __slots__ = ()

    def __new__(cls, term: Optional[Chor], sigma: Valuation):
        frame = _Frame(tuple(sigma))
        return _new(cls, (term, frame.split(sigma), frame))

    term = property(itemgetter(0))
    sigma = property(lambda self: Valuation.union(self[1]))
    #: The nonempty queues, as (receiving component, queue) in component order.
    pending = property(lambda self: tuple([(comp, part.queue) for comp, part
                                           in zip(self[2].part_of, self[1]) if part.queue]))

    def __repr__(self):
        if _final(self):
            return f"Final(sigma={self.sigma!r})"
        return f"Running(term={self.term!r}, sigma={self.sigma!r}, pending={self.pending!r})"


def _final(config: Running) -> bool:
    """Whether the term has terminated and nothing is pending."""
    return config[0] is None and not any([config[1][i].queue for i in config[2].receivers])


#: Builds a ``Running`` from its fields without the Python-level ``__new__``
#: of its class: one call less per successor.
_new = tuple.__new__


def initial_config(ch: Chor, sigma0: Valuation) -> Running:
    return Running(ch, sigma0)


def _step(rule: str, ports: tuple, owner: Optional[str], guard, update: Update, nxt,
          var=None, receives=(), sends=()) -> tuple:
    """One static step of a term: its event, its ``_Action`` and its next
    term. ``owner``, None for ``nil``, starts it: under ``guard``
    it runs ``update`` and sends ``var``, which each of a synchronous
    send's ``receives``, (receive port, update) pairs, takes into the
    port's variable before its update."""
    moves = [(owner, None, update)] if var or expr_vars(guard) or update.assignments else []
    for r, f in receives:  # ``var`` is set, so the sender moves first
        moves.append((r.owner, r.var.qname, f))
    owners = frozenset([p.owner for p in ports] + [owner] * (owner is not None))
    return Event.of((rule,), ports), _Action(guard, var, tuple(moves), sends, owners), nxt


def _steps(term: Chor) -> tuple:
    """The step table of ``term``: compiled on first use, then kept on the
    term."""
    steps = getattr(term, "_steps", None)
    if steps is None:
        steps = _compile(term)
        object.__setattr__(term, "_steps", steps)
    return steps


def _lift(steps, running: str, terminated: str, rest: Chor, wrap) -> tuple:
    """An operand's steps seen from the enclosing ``Seq`` or ``Par``: a step
    that terminates the operand continues with ``rest``, any other step with
    ``wrap`` of the operand's next term."""
    return tuple(
        (event._replace(rules=(terminated,) + event.rules), act, rest)
        if nxt is None else
        (event._replace(rules=(running,) + event.rules), act, wrap(nxt))
        for event, act, nxt in steps
    )


def _compile(term: Chor) -> tuple:
    """Static steps of ``term``, built by ``_step``; next term is None when
    the step terminates the term. An asynchronous send's action lists its
    residual receives as (receiving component, receipt). Raises
    ``EvalError`` with the first of the term's ``faults``."""
    found = faults(term)
    if found:
        raise EvalError(found[0].message)
    if isinstance(term, Nil):
        return (_step("nil", (), None, TRUE, SKIP, None),)

    if isinstance(term, Comm):
        gs, snd = term.send, term.send.port
        if snd.ctype == "ss":
            ports = (snd,) + tuple(r for r, _ in term.rcvs)
            return (_step("synch-sendrcv", ports, snd.owner, gs.guard, gs.update, None,
                          snd.var.qname, receives=term.rcvs),)
        sends = tuple((r.owner, Receipt(r, f)) for r, f in term.rcvs)
        return (_step("asynch-sendrcv-1", (snd,), snd.owner, gs.guard, gs.update, None,
                      snd.var.qname, sends=sends),)

    if isinstance(term, Branch):
        return tuple(
            _step("master-branching", (gs.port,), gs.port.owner, gs.guard, gs.update, cont)
            for gs, cont in term.conts
        )

    if isinstance(term, Loop):
        cond = term.cond
        owner = cond.port.owner
        return (
            _step("iterative-tt", (cond.port,), owner, cond.guard, cond.update,
                  Seq(term.body, term)),
            _step("iterative-ff", (), owner, Not(cond.guard), SKIP, None),
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
        if shared(term):
            return lifted
        return lifted + _lift(_steps(right), "parallel-2", "parallel-4", left,
                              lambda nxt: Par(left, nxt))

    raise AssertionError(term)


def _splice(parts: tuple, act: _Action, news: tuple) -> tuple:
    """``parts`` with the parts ``act`` writes replaced by ``news``."""
    out = list(parts)
    for i, part in zip(act.writes, news):
        out[i] = part
    return tuple(out)


def _run(act: _Action, parts: tuple):
    """``act`` on a configuration's ``parts``, each move on its own
    component's part: False if an owner has a pending entry or the guard
    fails, else the new parts it writes, in the order of ``writes``: its
    moves', then its receivers', each with the payload, the sent variable's
    value before the update, queued."""
    for i in act.waits:
        if parts[i].queue:
            return False
    vals = [_NO_VALUES if i is None else parts[i] for i in act.at]
    if act.guard is not None and not act.guard(vals[0] if vals else _NO_VALUES):
        return False
    payload = None if act.var is None else vals[0][act.var]
    news = []
    for part, (_, received, update) in zip(vals, act.moves):
        if received is None and update is None:
            continue
        after = part if received is None else part.set(received, payload)
        if update is not None:
            after = update(after)
        news.append(_part(after._slots, after._values))  # a mover, an owner, queues nothing
    for i, receipt in act.to:
        if i is None:  # no part to queue in: the delivery's assignment fails
            _NO_VALUES.set(receipt.port.var.qname, payload)
        part = parts[i]
        news.append(_part(part._slots, part._values, part.queue + ((receipt, payload),)))
    return tuple(news)


def _deliver(part: _Part) -> tuple:
    """The delivery of ``part``'s oldest entry, (event, new part): the value
    is assigned to the receive port's variable, then the update runs. Kept
    on the part."""
    (receipt, value), rest = part.queue[0], part.queue[1:]
    after = part.set(receipt.port.var.qname, value)
    if receipt.update.assignments:
        after = receipt.update.compiled(after)
    part.delivery = receipt.event, _part(after._slots, after._values, rest)
    return part.delivery


def chor_steps_tagged(config: Running):
    """Successors of a configuration as (event, configuration) pairs: the
    delivery of each queued part's oldest entry, in component order, then
    the term's steps that no component with a pending entry acts in. The
    payload of a send is read before its update runs. A step that writes
    one part copies ``scratch`` with that part in it."""
    term, parts, frame = config
    out = []
    scratch = list(parts)
    for i in frame.receivers:
        part = parts[i]
        if part.queue:
            event, scratch[i] = part.delivery or _deliver(part)
            out.append((event, _new(Running, (term, tuple(scratch), frame))))
            scratch[i] = part
    if term is None:
        return out
    try:
        steps = term._steps
    except AttributeError:
        steps = _steps(term)
    for event, act, nxt in steps:
        if act.frame is not frame:
            act.lay_out(frame)
        k = act.key(parts)
        news = act.cache.get(k)
        if news is None:
            news = act.cache[k] = _run(act, parts)
        if news is False:
            continue
        i = act.sole
        if i is None:
            after = _splice(parts, act, news) if news else parts
        else:
            scratch[i] = news[0]
            after = tuple(scratch)
            scratch[i] = parts[i]
        out.append((event, _new(Running, (nxt, after, frame))))
    return out


# --------------------------------------------------------------------------
# Exhaustive exploration
# --------------------------------------------------------------------------

def explore(ch: Chor, sigma0: Valuation,
            max_configs: int = 200_000, max_depth: int = 10_000) -> Exploration:
    """Breadth-first closure of chor_steps_tagged (see ``core.explore_lts``)."""
    # The successor function is looked up on this module at each call of
    # ``explore``, so that a wrapper installed on it sees every step.
    return explore_lts(initial_config(ch, sigma0), chor_steps_tagged, _final, max_configs,
                       max_depth)


def _label_text(label: Label) -> str:
    if label == TAU:
        return "tau"
    return "{" + ", ".join(sorted(label)) + "}"


def lts_to_dot(result: Exploration) -> str:
    """Render an explored LTS as a DOT digraph in the explorer's order.
    Node ``n<i>`` is stored state ``i``, and the distinct successors that
    ``max_configs`` left out follow, in the order their edges met them; a
    node that was not expanded is drawn dashed. Each expanded state's
    edges follow, in stored order."""
    states, fresh, expanded = result.states, result.fresh, len(result.ends)
    left_out = {config: n for n, config in enumerate(dict.fromkeys(fresh), len(states))}
    lines = ["digraph lts {", "  rankdir=LR;"]
    for i, config in enumerate(chain(states, left_out)):
        style = "" if i < expanded else ", style=dashed"
        if _final(config):
            lines.append(f'  n{i} [shape=doublecircle, label="final"{style}];')
        else:
            shape = "box" if config in result.deadlocks else "circle"
            lines.append(f'  n{i} [shape={shape}, label=""{style}];')
    lo = 0
    for i, hi in enumerate(result.ends):
        for event, t in zip(result.events[lo:hi], result.targets[lo:hi]):
            target = t if t >= 0 else left_out[fresh[~t]]
            lines.append(f'  n{i} -> n{target} [label="{_label_text(event.label)}"];')
        lo = hi
    lines.append("}")
    return "\n".join(lines) + "\n"
