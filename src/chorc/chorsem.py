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
term can move. An action (``_Action``) holds the step's guard and update as
their compiled closures (see ``core``), None for ``true`` and skip, its
residual receives, the variable it sends and its owners, the components
whose pending entries hold it back: the owners of the moving ports, the
master for a loop's exit, and nobody for ``nil`` or a delivery. A
synchronous send becomes one update whose first assignments copy the sent
value to the receivers; ``Seq`` and ``Par`` lift their operands' tables,
sharing the actions, and ``Par`` reads once whether its operands are
dependent (``lang.shared``). A residual receive is a ``Receipt``, one live
object per (receive port, update), which keeps the delivery's event and,
per delivered value, its action: assign the value to the port's variable,
then run the update.

Configuration layout. A configuration is stored as (term, parts, pool),
partitioned as ``core`` describes: one part (``_Part``) per component,
holding the values of its variables, which are contiguous in sorted-key
order, since ``.`` sorts below every identifier character. A ``_Frame``,
one per set of keys, lays the parts out. The pool is one ``_Pool``, which
keeps its ``deliveries``, the step of each receiver's oldest entry, and its
``receivers``, whose term steps wait. Frames, parts and pools are
hash-consed by value like terms (see ``core.Interned``), so equal
configurations from two parses are equal tuples. ``sigma`` and ``pending``
view the parts as one valuation and the pool as its queues.

Caches. An action is its own view (``core.View``) in the frame it last
ran in, laid out again, with empty caches, when it runs in another: it
knows the parts it writes and keeps a cache from the parts it touches to
its result, the new parts it writes and the payload it sends, or nothing
if its guard fails, and one from (pool, payload) to the pool a send
leaves. Actions live on the terms and receipts. The touched variables are
read off the expressions, so a guard or update that reads another
component's variable is served too. A step that assigns a variable the
initial valuation does not bind raises ``EvalError``;
``check_well_formed`` rejects such input.

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
    Ref, Update, Valuation, View, cached_attr, explore_lts, expr_vars, interned, requeue,
    update_vars,
)
from .lang import Branch, Chor, Comm, Loop, Nil, Par, Seq, shared

#: The next term of a delivery and the next pool of a term step: what the
#: step leaves as it is.
_KEEP = object()


class _Action(View):
    """What a static step does, shared by its lifted copies (see the module
    docstring), laid out in ``frame``, the frame it last ran in: the view
    of the parts its guard, update and sent variable touch, ``writes``, the
    indices of those the update writes, ``sole``, the index if there is
    one, and its caches."""

    __slots__ = ("guard", "update", "sends", "var", "owners", "exprs", "frame", "writes",
                 "sole", "cache", "pushes")

    def __init__(self, guard, update: Update, sends: tuple, var: Optional[str],
                 owners: frozenset):
        self.guard = None if guard is TRUE else guard.compiled
        self.update = update.compiled if update.assignments else None
        self.sends, self.var, self.owners = sends, var, owners
        self.exprs, self.frame = (guard, update), None

    def lay_out(self, frame: _Frame):
        """Lay the action out in ``frame``, with empty caches."""
        guard, update = self.exprs
        part_of = frame.part_of.get
        at = sorted(set(map(part_of, (*expr_vars(guard), *update_vars(update), self.var)))
                    - {None})
        self.writes = tuple(sorted(set(map(part_of, map(itemgetter(0), update.assignments)))
                                   - {None}))
        View.__init__(self, at, [frame.layouts[i] for i in at], self.writes)
        self.sole = self.writes[0] if len(self.writes) == 1 else None
        self.frame, self.cache, self.pushes = frame, {}, {}

    def written(self, vals: Valuation, after: Valuation) -> tuple:
        """The written parts of ``after``, an update of ``vals``."""
        if after._slots is not vals._slots:
            raise EvalError("assignment to a variable the initial valuation does not bind: "
                            + ", ".join(sorted(set(after) - set(vals))))
        news = [self.split(after, j) for j in self.writes]
        return tuple([_part(v._slots, v._values) for v in news])


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
            act = self.actions[value] = _Action(TRUE, update, (), None, frozenset())
        return act


class _Frame(Interned):
    """The layout of the parts of valuations over ``keys``, sorted: one
    part per run of keys with one owner. ``slots`` lays out the whole
    valuation, ``layouts`` each part and ``part_of`` maps a key to its
    part."""

    def __new__(cls, keys: tuple):
        ref = cls._nodes.get(keys)
        if ref is not None and ref() is not None:
            return ref()
        layouts, part_of, last = [], {}, None
        for k in keys:
            owner = k.partition(".")[0]
            if owner != last:
                layouts.append({})
                last = owner
            layouts[-1][k], part_of[k] = len(layouts[-1]), len(layouts) - 1
        return interned(cls, keys, slots=dict(zip(keys, range(len(keys)))),
                        layouts=tuple(layouts), part_of=part_of)

    def split(self, sigma: Valuation) -> tuple:
        parts, n = [], 0
        for layout in self.layouts:
            parts.append(_part(layout, sigma._values[n:n + len(layout)]))
            n += len(layout)
        return tuple(parts)

    def sigma(self, parts: tuple) -> Valuation:
        return Valuation.over(self.slots, tuple(chain.from_iterable([p._values for p in parts])))


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
    sigma = property(lambda self: self[2].frame.sigma(self[1]))
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


def _step(rule: str, ports: tuple, guard, update, nxt, sends=(), var=None,
          owners=()) -> tuple:
    """One static step of a term: its event, its ``_Action``, its next term
    and ``_KEEP``. The action's owners are those of ``ports`` and any in
    ``owners``."""
    owners = frozenset([p.owner for p in ports]).union(owners)
    return Event.of((rule,), ports), _Action(guard, update, sends, var, owners), nxt, _KEEP


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
    residual receives as (receiving component, receipt)."""
    if isinstance(term, Nil):
        return (_step("nil", (), TRUE, SKIP, None),)

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
                          Update(tuple(assignments)), None),)
        sends = tuple((r.owner, Receipt(r, f)) for r, f in term.rcvs)
        return (_step("asynch-sendrcv-1", (snd,), term.send.guard, term.send.update, None,
                      sends, snd.var.qname),)

    if isinstance(term, Branch):
        return tuple(
            _step("master-branching", (gs.port,), gs.guard, gs.update, cont)
            for gs, cont in term.conts
        )

    if isinstance(term, Loop):
        cond = term.cond
        return (
            _step("iterative-tt", (cond.port,), cond.guard, cond.update,
                  Seq(term.body, term)),
            _step("iterative-ff", (), Not(cond.guard), SKIP, None, owners=(cond.port.owner,)),
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


def _run(act: _Action, key) -> tuple:
    """``act`` on the parts ``key`` picked: () if its guard fails, else
    the parts it writes and the payload, read before the update."""
    vals = act.merged(key)
    if act.guard is not None and not act.guard(vals):
        return ()
    payload = vals[act.var] if act.sends else None
    return act.written(vals, vals if act.update is None else act.update(vals)), payload


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
            res = act.cache[k] = _run(act, k)
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
