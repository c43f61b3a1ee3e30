"""Small-step interpreter for the choreography semantics.

A configuration (``Running``) pairs a runtime term, None once it has
terminated, with a valuation and a pool of pending (residual) receives; it
is final, and prints as ``Final(sigma=...)``, once the term has terminated
and the pool is empty. An asynchronous send completes immediately on the
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

Every step has one shape, (event, action, next term, next pool), with
``_KEEP`` for what it leaves as it is: a term step keeps the pool, or
pushes its sends onto it, and a delivery keeps the term, since consuming a
message in transit is an ordinary reduction. Each term is compiled once, on
first use, into a step table kept on the term, one static step per way the
term can move. An action (``_Action``) holds its initiator's guard as a
compiled closure (see ``core``), None for ``true``, the variable it sends,
its residual receives, its owners, the components whose pending entries
hold it back (the owners of the moving ports, the master for a loop's
exit, and nobody for ``nil`` or a delivery), and its moves: one per
component whose variables it touches, initiator first, each that
component's update, None for skip, and for a synchronous receiver the
variable that takes the sent value first. ``Seq`` and ``Par`` lift their
operands' tables, sharing the actions, and ``Par`` reads once whether its
operands are dependent (``lang.shared``). A residual receive is a
``Receipt``, one live object per (receive port, update), which keeps the
delivery's event and, per delivered value, its action: assign the value to
the port's variable, then run the update.

Configuration layout. A configuration is stored as (term, parts, pool),
partitioned as ``core`` describes: one part (``_Part``) per component,
holding the values of its variables, which are contiguous in sorted-key
order, since ``.`` sorts below every identifier character. A ``_Frame``,
one per set of keys, lays the parts out. The pool is one ``_Pool``, which
keeps its ``deliveries``, the step of each receiver's oldest entry, and its
``receivers``, whose term steps wait. Frames, parts and pools are
hash-consed by value like terms (see ``core.Interned``), so equal
configurations from two parses are equal tuples. ``sigma`` views the
parts as one valuation, their ``Valuation.union``, which only finals and
``repr`` read, and ``pending`` views the pool as its queues.

Caches. An action is laid out in the frame it last ran in, and again,
with empty caches, when it runs in another. It keeps a cache from the
parts it touches to its result, the new parts it writes and the payload
it sends, or nothing if its guard fails, and one from (pool, payload) to
the pool a send leaves; on a miss each move runs on its own component's
part. Actions live on the terms and receipts. Compiling a term with
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
    SKIP, TAU, TRUE, EvalError, Event, Exploration, Interned, Label, Lit, Not, Part, Port,
    Update, Valuation, cached_attr, explore_lts, expr_vars, interned, requeue,
)
from .lang import Branch, Chor, Comm, Loop, Nil, Par, Seq, faults, shared

#: The next term of a delivery and the next pool of a term step: what the
#: step leaves as it is.
_KEEP = object()


#: The key of an action that touches no part; what a component without one reads.
_NO_PARTS, _NO_VALUES = itemgetter(slice(0, 0)), Valuation()


class _Action:
    """What a static step does, shared by its lifted copies (see the module
    docstring): its initiator's ``guard``, the ``var`` it sends and its
    ``moves``, one (owner, received variable or None, update) per component
    whose part it touches, initiator first. Laid out in ``frame``, ``at``
    holds each move's part index, None if it has none, ``key`` picks the
    parts, ``writes`` holds the indices of those it writes and ``sole`` the
    index if there is one."""

    __slots__ = ("guard", "var", "moves", "sends", "owners", "frame", "at", "key", "writes",
                 "sole", "cache", "pushes")

    def __init__(self, guard, var: Optional[str], moves: tuple, sends=(), owners=frozenset()):
        self.guard = None if guard is TRUE else guard.compiled
        self.moves = tuple([(owner, received, f.compiled if f.assignments else None)
                            for owner, received, f in moves])
        self.var, self.sends, self.owners, self.frame = var, sends, owners, None

    def lay_out(self, frame: _Frame):
        """Lay the action out in ``frame``, with empty caches."""
        at = self.at = tuple([frame.part_of.get(owner) for owner, _, _ in self.moves])
        held = [i for i in at if i is not None]
        self.key = itemgetter(*held) if held else _NO_PARTS
        self.writes = tuple([i for i, (_, received, f) in zip(at, self.moves)
                             if received is not None or f is not None])
        self.sole = self.writes[0] if len(self.writes) == 1 else None
        self.frame, self.cache, self.pushes = frame, {}, {}


class Receipt(Interned):
    """The receive side of an asynchronous send: the receive port and its
    update, the delivery's event, and ``actions``, the delivery's action per
    delivered value. Hash-consed: one live object per (port, update). The
    repr prints the port and the update, so that a pending entry reads as a
    (port, update, value) triple.
    """

    def __new__(cls, port: Port, update: Update):
        return interned(cls, (id(port), id(update)), port=port, update=update,
                        event=Event.of(("asynch-sendrcv-2",), (port,)), actions={})

    def __repr__(self):
        return f"{self.port!r}, {self.update!r}"

    def action(self, value) -> _Action:
        """The delivery of ``value``: built once, then kept."""
        act = self.actions.get(value)
        if act is None:
            update = Update(((self.port.var.qname, Lit(value)),) + self.update.assignments)
            act = self.actions[value] = _Action(TRUE, None, ((self.port.owner, None, update),))
        return act


class _Frame(Interned):
    """The layout of the parts of valuations over ``keys``, sorted: one
    part per run of keys with one owner. ``layouts`` lays out each part and
    ``part_of`` maps an owner to the index of its part."""

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
        return interned(cls, keys, layouts=tuple(layouts), part_of=part_of)

    def split(self, sigma: Valuation) -> tuple:
        parts, n = [], 0
        for layout in self.layouts:
            parts.append(_part(layout, sigma._values[n:n + len(layout)]))
            n += len(layout)
        return tuple(parts)


class _Part(Part, Interned):
    """The valuation of a component's variables in a configuration: one
    live object per layout and values."""

    __slots__ = ("__weakref__",)


def _part(slots: dict, values: tuple) -> _Part:
    return interned(_Part, (id(slots), values), _slots=slots, _values=values)


class _Pool(Interned):
    """A pending pool of one frame, as ``pending``, interned under
    ``pending`` with each receipt by its id."""

    @cached_attr
    def receivers(self) -> frozenset:
        """The components with a pending entry: none of their term steps
        fires."""
        return frozenset([comp for comp, _ in self.pending])

    @cached_attr
    def deliveries(self) -> tuple:
        """The static step (event, action, ``_KEEP``, rest pool) of each
        receiving component's oldest entry, in component order."""
        out, pending = [], self.pending
        for i, (comp, queue) in enumerate(pending):
            receipt, value = queue[0]
            more = len(queue) > 1
            rest = _pool(self.frame, pending[:i] + ((comp, queue[1:]),) * more + pending[i + 1:])
            out.append((receipt.event, receipt.action(value), _KEEP, rest))
        return tuple(out)


def _pool(frame: _Frame, pending: tuple) -> _Pool:
    ids = tuple([(comp, tuple([(id(r), v) for r, v in queue])) for comp, queue in pending])
    return interned(_Pool, (id(frame), ids), frame=frame, pending=pending)


#: Pending pool: tuple of (receiving component, FIFO queue of (receipt, value
#: captured at send time)), sorted by component, each queue in arrival order.
Pending = tuple


class Running(tuple):
    """A configuration, stored as (term, parts, pool); the term is None
    once it has terminated. ``Running(term, sigma, pending)`` builds one
    from its views."""

    __slots__ = ()

    def __new__(cls, term: Optional[Chor], sigma: Valuation, pending: Pending = ()):
        frame = _Frame(tuple(sigma))
        return _new(cls, (term, frame.split(sigma), _pool(frame, pending)))

    term = property(itemgetter(0))
    sigma = property(lambda self: Valuation.union(self[1]))
    pending = property(lambda self: self[2].pending)

    def __repr__(self):
        if _final(self):
            return f"Final(sigma={self.sigma!r})"
        return f"Running(term={self.term!r}, sigma={self.sigma!r}, pending={self.pending!r})"


def _final(config: Running) -> bool:
    """Whether the term has terminated and the pool is empty."""
    return config[0] is None and not config[2].pending


#: Builds a ``Running`` from its fields without the Python-level ``__new__``
#: of its class: one call less per successor.
_new = tuple.__new__


def initial_config(ch: Chor, sigma0: Valuation) -> Running:
    return Running(term=ch, sigma=sigma0, pending=())


def _step(rule: str, ports: tuple, owner: Optional[str], guard, update: Update, nxt,
          var=None, receives=(), sends=()) -> tuple:
    """One static step of a term: its event, its ``_Action``, its next term
    and ``_KEEP``. ``owner``, None for ``nil``, starts it: under ``guard``
    it runs ``update`` and sends ``var``, which each of a synchronous
    send's ``receives``, (receive port, update) pairs, takes into the
    port's variable before its update."""
    moves = [(owner, None, update)] if var or expr_vars(guard) or update.assignments else []
    for r, f in receives:  # ``var`` is set, so the sender moves first
        moves.append((r.owner, r.var.qname, f))
    owners = frozenset([p.owner for p in ports] + [owner] * (owner is not None))
    return Event.of((rule,), ports), _Action(guard, var, tuple(moves), sends, owners), nxt, _KEEP


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
        (event._replace(rules=(terminated,) + event.rules), act, rest, _KEEP)
        if nxt is None else
        (event._replace(rules=(running,) + event.rules), act, wrap(nxt), _KEEP)
        for event, act, nxt, _ in steps
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


def _run(act: _Action, parts: tuple) -> tuple:
    """``act`` on a configuration's ``parts``, each move on its own
    component's part: () if the guard fails, else the new parts it writes,
    in the order of ``writes``, and the payload, the sent variable's value
    before the update."""
    vals = [_NO_VALUES if i is None else parts[i] for i in act.at]
    if act.guard is not None and not act.guard(vals[0] if vals else _NO_VALUES):
        return ()
    payload = None if act.var is None else vals[0][act.var]
    news = []
    for part, (_, received, update) in zip(vals, act.moves):
        if received is None and update is None:
            continue
        after = part if received is None else part.set(received, payload)
        if update is not None:
            after = update(after)
        news.append(_part(after._slots, after._values))
    return tuple(news), payload


def _push(act: _Action, pool: _Pool, payload) -> _Pool:
    """``pool`` with ``act``'s residual receives of ``payload`` queued."""
    queues = pool.pending
    for comp, receipt in act.sends:
        queues = requeue(queues, comp, push=((receipt, payload),))
    new = act.pushes[pool, payload] = _pool(pool.frame, queues)
    return new


def chor_steps_tagged(config: Running):
    """Successors of a configuration as (event, configuration) pairs: one
    delivery per receiving component, in component order, then the term's
    steps that no component with a pending entry acts in. The payload of a
    send is read before its update runs. A step that writes one part
    copies ``scratch`` with that part in it."""
    term, parts, pool = config
    steps = ()
    if term is not None:
        try:
            steps = term._steps
        except AttributeError:
            steps = _steps(term)
    waiting = None
    if pool.pending:
        steps, waiting = pool.deliveries + steps, pool.receivers
    frame = pool.frame
    out = []
    scratch = list(parts)
    for event, act, nxt, rest in steps:
        if waiting is not None and not waiting.isdisjoint(act.owners):
            continue
        if act.frame is not frame:
            act.lay_out(frame)
        k = act.key(parts)
        res = act.cache.get(k)
        if res is None:
            res = act.cache[k] = _run(act, parts)
        if not res:
            continue
        news, payload = res
        if nxt is _KEEP:
            nxt = term
        if rest is _KEEP:
            rest = pool
            if act.sends:
                rest = act.pushes.get((pool, payload)) or _push(act, pool, payload)
        i = act.sole
        if i is None:
            after = _splice(parts, act, news) if news else parts
        else:
            scratch[i] = news[0]
            after = tuple(scratch)
            scratch[i] = parts[i]
        out.append((event, _new(Running, (nxt, after, rest))))
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
