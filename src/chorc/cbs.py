"""Atomic components, interactions and composite-system semantics.

An atomic component is a guarded labelled transition system over locations,
ports and local variables. A composite system is a set of atomic components
plus an interaction set gamma; its semantics steps over joint locations, a
global valuation and per-receive-port FIFO buffers.

Every step is started by one component: the sender of an interaction (with
its receivers for a synchronous one, alone for an asynchronous one, whose
payload goes to the receivers' buffers) or the component taking a local
recv/internal step. ``component_steps`` returns one component's steps; the
simulator asks for them on a component's turn unless ``known_steps``, which
reads the positions' caches (below) and runs no guard, says it starts none.
``sys_steps_tagged``, the successor function of the explorer, returns every
component's steps in turn. Both run one loop, ``_fire``, over a set of
components.

The structure rules a component's own text breaks are found once per
component object, with no closure built (``AtomicComponent._findings``), and
``check_structure`` never reads the step tables, so a system that is only
checked, serialized or emitted compiles nothing. A system's first step
(``CompositeSystem._steps``) builds the step tables: once per component
object, its local steps and its alternatives on the ports it owns, each
guard and update as a compiled closure, or None for ``true`` and skip
(``AtomicComponent._tables``); then, per component position, a table from
every location a state can hold there to a flat tuple of static steps, its
send steps and then its local ones. A send step covers one interaction and
all of its sender's transitions on the send port from that location, and
holds the interaction's send record. The tables, like ``check_structure``'s
findings, are cached on the instance, so ``dataclasses.replace`` yields a
system with fresh ones.

A system made from another by a local change, as a mutant is, comes from
``CompositeSystem.derive``, and once its parent has stepped it shares the
parent's positions (below) with their tables, parts and caches, and builds
only the dirty ones: a position whose component's transitions, ports or
initial location changed (a changed end location leaves every position
clean), a position that sends to such a component, and a position whose
sent interactions changed. Another number of components, other ids or
other variables make every position dirty.

A system state (``SysState``) is a tuple of one part per component
position, partitioned as ``core`` describes: the valuation of the
variables the component declares, with its location and its nonempty
receive buffers, those of the receive ports it owns. Each position keeps
one part per distinct (location, values, buffers). A state's joint
``locations``, global valuation ``sigma`` and ``buffers`` are views.

A component reads and writes only its own part, so a position
(``_Position``) is itself the cache of its component's steps: a dict from
each part asked for to the steps the component starts from it, ``()`` for
none, which a miss fills. A component whose part has not changed has not
changed whether it can move. Every guard and update of a send runs on its
own component's part. A send record follows from the text, so it is built with its
interaction: the positions it writes, its sender's and then its
receivers', a key that picks their parts, and one cache, shared by the
sends from every location, that maps those parts to their new ones. An
asynchronous send appends the payload to the receivers' buffers after its
sender's update; a rendezvous checks every receiver's buffer and guard,
then runs the sender's update and, for each receiver in order, sets its
bound variable to the payload and runs its update, so an update runs, and
may raise, only once it can fire. A system fails with ``EvalError`` when
compiled, with the message of its first ``check_structure`` finding that
says its parts cannot be kept apart or a send is miswired (``_REFUSED``): a
component id or a variable declared twice, a port bound to a variable its
component does not declare, a transition on a port its component does not
own or declare, or one whose guard or update uses a variable its component
does not declare; or an interaction that breaks ``lang.wiring``, as a term
may not, so a send writes its sender's part and each receiver's, each once.
So does an interaction with a declared sender and an undeclared receive port.

A step's event (see ``core.Event``) names its rule and the ports of the
transitions it fires, the sender's first: an asynchronous send moves its
sender alone, a synchronous one its sender and every receiver. The sends of
one interaction share one event, built once with its label, whatever
location they leave. Only sends are shown in the label; a receive or
internal step is ``TAU``. ``sys_explore`` runs the shared breadth-first
explorer (``core.explore_lts``) over ``sys_steps_tagged``.

The component positions fall into groups that no interaction joins
(``CompositeSystem._groups``, found once per system from its ids and gamma
alone). A step reads and writes only the parts of its own group, so the reachable
states are the product of each group's, which ``sys_explore`` explores
alone when asked to fire only that group's positions; ``verify`` reads the
groups to explore each once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, product
from operator import itemgetter
from typing import Optional

from .core import (
    TAU, TRUE, EvalError, Event, Exploration, Expr, Lit, Part, Port, Update, Valuation,
    cached_attr, explore_lts, expr_vars, find_queue, format_expr, format_update, requeue,
    union_shared, update_vars,
)
from .lang import Diagnostic, wiring

@dataclass(frozen=True)
class Transition:
    src: str
    port: Optional[Port]  # None is a silent (epsilon) internal transition
    guard: Expr
    update: Update
    dst: str


@dataclass(frozen=True)
class AtomicComponent:
    id: str
    vars: tuple  # of (Variable, initial Value)
    ports: tuple  # of Port
    locations: tuple  # of str
    transitions: tuple  # of Transition
    init: str
    end: Optional[str] = None  # location marking successful termination

    def outgoing(self, loc: str) -> tuple:
        return self._by_src.get(loc, ())

    @cached_attr
    def _by_src(self) -> dict:
        """Source location -> its transitions, in declaration order."""
        out = {}
        for t in self.transitions:
            out.setdefault(t.src, []).append(t)
        return {src: tuple(ts) for src, ts in out.items()}

    @cached_attr
    def _findings(self) -> tuple:
        """The (code, message) of each structure rule its own text breaks,
        in the order ``check_structure`` reports them; no closure is built."""
        found, locs, own = [], set(self.locations), {var.qname for var, _ in self.vars}
        if self.init not in locs:
            found.append(("bad-init", f"{self.id}: initial location {self.init} undeclared"))
        if self.end is not None and self.end not in locs:
            found.append(("bad-end", f"{self.id}: end location {self.end} undeclared"))
        for p in self.ports:
            if p.var.qname not in own:
                found.append(("undeclared-var", f"{self.id}: port {p.pid} binds {p.var.qname}, "
                                                f"which {self.id} does not declare"))
        sending, receiving = set(), set()  # the locations left on such ports
        for t in self.transitions:
            if t.src not in locs or t.dst not in locs:
                found.append(("bad-transition",
                              f"{self.id}: transition {t.src}->{t.dst} uses undeclared location"))
            p = t.port
            if p is not None:
                if p.owner != self.id or p not in self.ports:
                    found.append(("foreign-port", f"{self.id}: transition uses port {p.pid}"))
                if p.ctype != "in":
                    (receiving if p.ctype == "r" else sending).add(t.src)
            used = union_shared(expr_vars(t.guard), update_vars(t.update))
            if not used <= own:
                found.append(("foreign-var", f"{self.id}: transition at {t.src} uses "
                                             + ", ".join(sorted(used - own))))
        # No location may mix outgoing send and receive ports.
        for loc in self.locations:
            if loc in sending and loc in receiving:
                found.append(("mixed-location",
                              f"{self.id}: location {loc} mixes outgoing send and receive"))
        return tuple(found)

    @cached_attr
    def _tables(self) -> tuple:
        """Its step tables apart from any system, built when a system holding
        it first steps: its initial valuation, each source location's local
        steps, in order, per port it owns, each source location's
        alternatives, and the locations it can hold, its initial location
        and then every transition target. A local step is (rule, event,
        guard, update, target location) for an internal transition, plus
        (port id, bound variable) for a receive, whose event is hidden; an
        alternative is a transition as (guard, update, target location). A
        guard or update is its compiled closure, or None for ``true`` and
        skip."""
        local, offers = {}, {}
        for t in self.transitions:
            port = t.port
            guard = None if t.guard is TRUE else t.guard.compiled
            update = t.update.compiled if t.update.assignments else None
            if port is None or port.ctype == "in":
                local[t.src] = local.get(t.src, ()) + ((
                    "internal", _new(Event, (("internal",), () if port is None else (port,), TAU)),
                    guard, update, t.dst),)
            elif port.ctype == "r":
                local[t.src] = local.get(t.src, ()) + ((
                    "recv", _new(Event, (("recv",), (port,), TAU)),
                    guard, update, t.dst, port.pid, port.var.qname),)
            if port is not None and port.owner == self.id:
                alts = offers.setdefault(port, {})
                alts[t.src] = alts.get(t.src, ()) + ((guard, update, t.dst),)
        holdable = tuple(dict.fromkeys((self.init, *[t.dst for t in self.transitions])))
        return Valuation({var.qname: init for var, init in self.vars}), local, offers, holdable


@dataclass(frozen=True)
class Interaction:
    send: Port
    receivers: tuple  # of Port

    @cached_attr
    def _findings(self) -> tuple:
        """Its ``lang.wiring`` findings, as ``check_structure`` reports them."""
        return wiring(self.send, self.receivers)

    @cached_attr
    def _event(self) -> Event:
        """The event its sends share, in every system that holds it."""
        snd = self.send
        return (Event.of(("asynch-send",), (snd,)) if snd.ctype == "as"
                else Event.of(("synch-send",), (snd, *self.receivers)))


@dataclass(frozen=True)
class CompositeSystem:
    components: tuple  # of AtomicComponent
    gamma: tuple  # of Interaction

    #: The system ``derive`` made it from, or None; not a field.
    _parent = None

    def derive(self, **changes) -> "CompositeSystem":
        """``dataclasses.replace(self, **changes)``, which steps with the
        compiled positions of ``self`` that the changes leave alone, once
        ``self`` has stepped (see ``_steps``)."""
        new = replace(self, **changes)
        object.__setattr__(new, "_parent", self)
        return new

    @cached_attr
    def _steps(self) -> tuple:
        """One ``_Position`` per component position, holding a table from
        each location a state can hold there to the static steps the
        component starts at it: the interactions it sends there, in gamma
        order, then its recv/internal steps, in transition order (see
        ``_run``). Built on the first step from the components' tables
        (``AtomicComponent._tables``, built here unless another system
        built them) and one pass over gamma: a component id names its
        position; a receive port's buffer lives in its owner's part; a
        port's alternatives are those of its owner's transitions on it; and
        each interaction becomes one send record and one send step per
        location its sender leaves on the send port.
        A send step is (rule, event, alternatives, sent variable,
        receivers, key, writes, cache): an asynchronous send's receivers
        are (component position, port id), a synchronous send's (component
        position, port id, bound variable, location -> alternatives on the
        port); its event and record (the positions it writes, the sender's
        and then the receivers', the key that picks their parts from a
        state, and the cache) are its interaction's.

        A system ``derive`` made from a parent that has stepped, with the
        parent's component ids and variables at every position, takes each
        position the change leaves clean from the parent, the very object
        with its table, parts and caches, and builds only the dirty ones. A
        position is dirty if its component's transitions, ports or initial
        location differ from the parent's (its end location does not
        count), if one of its sends has a receiver at such a position,
        whose alternatives it holds, or if the interactions it sends differ
        from the parent's, in order. A clean position's steps and send
        records are then the parent's to the letter. A rebuilt
        position has a table of parts of its own, so no cache entry whose
        key holds one of its parts can be one the parent made; every
        other entry follows from clean positions' parts and steps alone.

        Raises ``EvalError`` with the message of the first finding of
        ``_declarations`` or of the components' or interactions'
        ``_findings`` whose code is in ``_REFUSED``, or of an undeclared
        receive port's ``unknown-port`` (see the module docstring). A
        system that keeps positions, and its parent's ports at each, skips
        ``_declarations``, whose findings are then the parent's."""
        components, parent = self.components, self._parent
        kept = parent is not None and vars(parent).get("_steps")
        if kept and [(c.id, c.vars) for c in components] != \
                [(c.id, c.vars) for c in parent.components]:
            kept = None
        # The parent stepped, so its declarations hold nothing refused.
        declared = () if kept and all(c.ports == old.ports for c, old in zip(
            components, parent.components)) else _declarations(components)
        for code, message in chain(declared, *[c._findings for c in components],
                                   *[inter._findings for inter in self.gamma]):
            if code in _REFUSED:
                raise EvalError(message)
        position = {c.id: i for i, c in enumerate(components)}  # ids are unique
        tables = [c._tables for c in components]
        dirty = range(len(components))
        if kept:
            sent = _sent(position, len(components), self.gamma)
            was = sent if self.gamma == parent.gamma else \
                _sent(position, len(components), parent.gamma)
            changed = {i for i, (c, old) in enumerate(zip(components, parent.components))
                       if c is not old and (c.transitions, c.ports, c.init)
                       != (old.transitions, old.ports, old.init)}
            # The ids of the changed positions: a send to one holds its
            # alternatives.
            into = {components[i].id for i in changed}
            dirty = {i for i, (now, then) in enumerate(zip(sent, was))
                     if i in changed or now != then or into and any(
                         not into.isdisjoint([r.owner for r in inter.receivers])
                         for inter in now)}
        sends = [{} for _ in components]  # location -> its send steps
        for inter in self.gamma:
            snd = inter.send
            i = position.get(snd.owner)
            if i is None or i not in dirty:
                # No sender (``check_structure``): it never fires. A clean
                # position's sends were checked when its parent stepped.
                continue
            receiving = [position.get(r.owner) for r in inter.receivers]
            for j, r in zip(receiving, inter.receivers):
                if j is None or r.pid not in [p.pid for p in components[j].ports]:
                    raise EvalError(_UNKNOWN_PORT.format(r.pid))
            targets = tuple([(j, r.pid) if snd.ctype == "as" else
                             (j, r.pid, r.var.qname, tables[j][2].get(r, {}))
                             for j, r in zip(receiving, inter.receivers)])
            event = inter._event
            writes = (i, *receiving)
            key, cache = itemgetter(*writes), {}
            for src, alts in tables[i][2].get(snd, {}).items():
                sends[i].setdefault(src, []).append(
                    (event.rules[0], event, alts, snd.var.qname, targets, key, writes, cache))
        positions = list(kept) if kept else [None] * len(components)
        for i in dirty:
            sending, (vals, local, _, holdable) = sends[i], tables[i]
            pos = positions[i] = _Position()
            pos.table = {loc: (*sending.get(loc, ()), *local.get(loc, ())) for loc in holdable}
            pos.initial = _part(pos, holdable[0], vals, ())
        return tuple(positions)

    @cached_attr
    def _groups(self) -> tuple:
        """The component positions split into the most groups such that the
        sender and receivers of every interaction that can fire, one whose
        sender the system holds, are in one group, as tuples of positions.
        A step of one group then reads and writes only that group's parts,
        so the reachable states are the product of each group's. Groups
        follow their first positions, and each group's positions their
        order, never a set's."""
        components, group = self.components, {}  # id -> its group's positions
        for i, c in enumerate(components):
            group.setdefault(c.id, []).append(i)
        get = group.get
        for inter in self.gamma:
            g = get(inter.send.owner)
            if g is None:  # no sender: it never fires (see ``_steps``)
                continue
            for r in inter.receivers:
                h = get(r.owner)
                if h is not None and h is not g:
                    if len(h) > len(g):
                        g, h = h, g
                    g += h  # the smaller group joins the larger
                    for i in h:
                        group[components[i].id] = g
        firsts = {id(g): g for g in (group[c.id] for c in components)}
        return tuple(tuple(sorted(g)) for g in firsts.values())

    @cached_attr
    def _diagnostics(self) -> tuple:
        return tuple(_structure_diagnostics(self))

    def initial_state(self) -> "SysState":
        """Every component at its initial location, with its variables'
        initial values and empty buffers."""
        return _new(SysState, [pos.initial for pos in self._steps])


def _sent(position: dict, n: int, gamma: tuple) -> list:
    """Per component position of ``n``, the interactions of ``gamma`` it
    sends, in gamma order: those whose send port its component owns."""
    out = [[] for _ in range(n)]
    for inter in gamma:
        i = position.get(inter.send.owner)
        if i is not None:
            out[i].append(inter)
    return out


class SysState(tuple):
    """A system state: one part per component position (see the module
    docstring), hashed and compared as a tuple of part identities. The
    joint locations, the global valuation and the buffers are views."""

    __slots__ = ()

    @property
    def locations(self) -> tuple:
        """Aligned with ``CompositeSystem.components``."""
        return tuple([part.loc for part in self])

    @property
    def sigma(self) -> Valuation:
        """Every declared variable, each read from the part that holds it."""
        return Valuation.union(self)

    @property
    def buffers(self) -> tuple:
        """The nonempty buffers as a sorted tuple of (receive port id,
        tuple of values)."""
        return tuple(sorted([q for part in self for q in part.queues]))

    def __repr__(self):
        return (f"SysState(locations={self.locations!r}, sigma={self.sigma!r}, "
                f"buffers={self.buffers!r})")


class _Part(Part):
    """One component position's share of a system state: the valuation of
    the variables it holds, with its location and its nonempty receive
    buffers (see ``find_queue``). ``_part`` makes one per distinct share."""

    __slots__ = ("loc", "queues")

    def __init__(self, loc: str, vals: Valuation, queues: tuple):
        self._slots, self._values = vals._slots, vals._values
        self.loc, self.queues = loc, queues


class _Position(dict):
    """A component position's compiled semantics, and its cache of steps:
    a dict from each part asked for to the steps its component starts from
    it (see ``_run``), which a miss fills. It holds its static step table
    (``CompositeSystem._steps``), its table of parts and its initial part."""

    __slots__ = ("table", "parts", "initial")

    def __init__(self):
        self.parts = {}  # (location, values, buffers) -> the part

    def __missing__(self, part: _Part) -> tuple:
        steps = self[part] = _run(self, part)
        return steps


# --------------------------------------------------------------------------
# Semantics
# --------------------------------------------------------------------------

#: Builds a ``SysState`` from its parts, or an ``Event`` from its fields
#: without the Python-level ``__new__`` that ``NamedTuple`` generates.
_new = tuple.__new__


def _part(pos: _Position, loc: str, vals: Valuation, queues: tuple) -> _Part:
    """The one part of ``pos`` with these fields."""
    return pos.parts.setdefault((loc, vals._values, queues), _Part(loc, vals, queues))


def _run(pos: _Position, part: _Part) -> tuple:
    """The steps of ``pos``'s table at its ``part``'s location whose guards
    hold on ``part``, as (sends, local steps), each in table order, or
    ``()`` if there are none. A local step is (event, new part). A send is
    (event, its key, its cache, the positions it writes, static step, the
    sender's enabled alternatives), which ``_fire`` looks up by the parts
    the send writes."""
    queues = part.queues
    sends, steps = [], []
    for step in pos.table[part.loc]:
        rule = step[0]
        if rule == "internal":
            _, event, guard, update, dst = step
            if guard is None or guard(part):
                after = part if update is None else update(part)
                steps.append((event, _part(pos, dst, after, queues)))
            continue
        if rule == "recv":
            _, event, guard, update, dst, pid, var = step
            queue = queues and find_queue(queues, pid)[1]
            if queue and (guard is None or guard(part)):
                after = part.set(var, queue[0])
                if update is not None:
                    after = update(after)
                steps.append((event, _part(pos, dst, after, requeue(queues, pid, pop=True))))
            continue
        _, event, alts, _, _, key, writes, cache = step
        enabled = [alt for alt in alts if alt[0] is None or alt[0](part)]
        if enabled:
            sends.append((event, key, cache, writes, step, enabled))
    return (tuple(sends), tuple(steps)) if sends or steps else ()


def _rendezvous(positions: tuple, state: SysState, step: tuple, enabled: list) -> tuple:
    """How send ``step`` fires from ``state`` with its sender's ``enabled``
    alternatives, each guard and update run on its own component's part.
    Each way is a tuple of the new parts of the positions it writes. The
    payload is the sent variable's value before the update. An
    asynchronous send appends it to each receiver's buffer and runs each
    alternative's update. A synchronous send checks the receivers' buffers
    and guards first, then, for each choice of alternatives, runs the
    sender's update and, for each receiver in order, sets its bound
    variable to the payload and runs its update."""
    rule, _, _, var, targets, _, writes, _ = step
    i = writes[0]
    sender = state[i]
    payload = sender[var]
    if rule == "asynch-send":
        received = [_part(positions[j], state[j].loc, state[j],
                          requeue(state[j].queues, pid, push=(payload,))) for j, pid in targets]
        return tuple([(_part(positions[i], dst, sender if update is None else update(sender),
                             sender.queues), *received) for _, update, dst in enabled])
    choices, received = [], []
    for j, pid, bound, by_loc in targets:
        part = state[j]
        if part.queues and find_queue(part.queues, pid)[1]:
            return ()
        got = [alt for alt in by_loc.get(part.loc, ()) if alt[0] is None or alt[0](part)]
        if not got:
            return ()
        choices.append(got)
        received.append(part.set(bound, payload))
    out = []
    for moves in product(enabled, *choices):
        news = []
        for j, vals, (_, update, dst) in zip(writes, (sender, *received), moves):
            after = vals if update is None else update(vals)
            news.append(_part(positions[j], dst, after, state[j].queues))
        out.append(tuple(news))
    return tuple(out)


def _fire(sys: CompositeSystem, state: SysState, cis) -> list:
    """The steps that components ``cis`` start from ``state``, in that
    order, as (event, state): each component's steps from its part, read
    from its position's cache (see ``_run``), a send's from the parts it
    writes (see ``_rendezvous``). Each successor is one copy of ``parts``,
    a list of the state's parts made for the first successor, into which a
    step writes its new parts and from which it then restores the state's."""
    positions = sys._steps
    out = []
    append = out.append
    parts = None
    for i in cis:
        steps = positions[i][state[i]]
        if not steps:
            continue
        sends, local = steps
        if parts is None:
            parts = list(state)
        for event, getter, cache, writes, step, enabled in sends:
            key = getter(state)
            fired = cache.get(key)
            if fired is None:
                fired = cache[key] = _rendezvous(positions, state, step, enabled)
            if not fired:
                continue
            if len(writes) == 2:  # one receiver, the common case
                j = writes[1]
                for parts[i], parts[j] in fired:
                    append((event, _new(SysState, parts)))
            else:
                for news in fired:
                    for j, new in zip(writes, news):
                        parts[j] = new
                    append((event, _new(SysState, parts)))
            for j in writes:
                parts[j] = state[j]
        for event, new in local:
            parts[i] = new
            append((event, _new(SysState, parts)))
        if local:
            parts[i] = state[i]
    return out


def component_steps(sys: CompositeSystem, state: SysState, ci: int) -> list:
    """Steps that component ``ci`` starts from ``state``, as (event, state):
    the interactions it sends at its location, in gamma order, then its own
    recv/internal steps, in transition order."""
    return _fire(sys, state, (ci,))


def known_steps(sys: CompositeSystem, state: SysState) -> list:
    """Per component position, the steps its component starts from
    ``state`` as its position's cache holds them (see ``_run``): ``()`` if
    it starts none, None if no step has asked for them yet. Fills no miss,
    so it runs no guard."""
    return list(map(dict.get, sys._steps, state))


def sys_steps_tagged(sys: CompositeSystem, state: SysState, cis=None) -> list:
    """Successors of a system state as (event, state): the steps of each
    component in turn (see ``component_steps``), or of components ``cis``
    only."""
    return _fire(sys, state, range(len(state)) if cis is None else cis)


def is_terminal(sys: CompositeSystem, state: SysState, cis=None) -> bool:
    """Successful termination: empty buffers and every component, or every
    one of ``cis``, at its end location. A component without an end
    marking can never terminate."""
    comps = sys.components
    for i in range(len(state)) if cis is None else cis:
        part, end = state[i], comps[i].end
        if part.queues or end is None or part.loc != end:
            return False
    return True


def sys_explore(sys: CompositeSystem, max_configs: int = 200_000,
                max_depth: int = 10_000, cis=None) -> Exploration:
    """Breadth-first closure of sys_steps_tagged from the initial state (see
    ``core.explore_lts``). With ``cis``, only components ``cis`` step, and
    a state where they start none is terminal if they have terminated: for
    a group of ``CompositeSystem._groups``, the reachable states of that
    group, every other component at its initial part. Every step is taken
    through ``sys_steps_tagged``, looked up on each call, so that whatever
    wraps it, as ``perfbench``'s tracer does to count and time steps, sees
    every exploration's."""
    fire = range(len(sys.components)) if cis is None else cis
    return explore_lts(sys.initial_state(), lambda s: sys_steps_tagged(sys, s, fire),
                       lambda s: is_terminal(sys, s, fire), max_configs, max_depth)


# --------------------------------------------------------------------------
# Structural checks
# --------------------------------------------------------------------------

def check_structure(sys: CompositeSystem) -> list:
    """Structural sanity of a composite system, as a fresh list; empty iff
    clean. Checked once per system."""
    return list(sys._diagnostics)


#: The codes of the findings of ``_declarations`` and of the components' and
#: interactions' ``_findings`` that ``CompositeSystem._steps`` refuses: a
#: component's part cannot be kept apart from another's, or a send is miswired.
_REFUSED = frozenset({"duplicate-component", "duplicate-var", "undeclared-var",
                      "foreign-port", "foreign-var", "send-port-type", "empty-receivers",
                      "recv-port-type", "comm-dtype", "distinct-receivers"})

#: The ``unknown-port`` message, for an interaction's port id.
_UNKNOWN_PORT = "interaction references undeclared port {}"


def _declarations(components: tuple):
    """The (code, message) of each component id, port and variable declared
    twice, in order: the first findings ``check_structure`` reports."""
    ids, pids, declared = set(), set(), {}  # declared: variable -> its first declarer
    for comp in components:
        if comp.id in ids:
            yield "duplicate-component", f"component {comp.id} declared twice"
        ids.add(comp.id)
        for p in comp.ports:
            if p.pid in pids:
                yield "duplicate-port", f"port {p.pid} declared twice"
            pids.add(p.pid)
        own = set()
        for var, _ in comp.vars:
            if var.qname in own:
                yield "duplicate-var", f"{comp.id}: variable {var.qname} declared twice"
            elif declared.setdefault(var.qname, comp.id) != comp.id:
                yield "duplicate-var", (f"{comp.id}: variable {var.qname} also declared "
                                        f"by {declared[var.qname]}")
            own.add(var.qname)


def _structure_diagnostics(sys: CompositeSystem) -> list:
    """What ``check_structure`` reports: the declarations' findings, each
    component's own (``AtomicComponent._findings``), then gamma's, found in
    one pass over gamma, each interaction's own (``Interaction._findings``)
    first, and one over the ports the transitions take."""
    comps = sys.components
    diags = [Diagnostic(code, message)
             for code, message in chain(_declarations(comps), *[c._findings for c in comps])]

    def report(code: str, message: str):
        diags.append(Diagnostic(code, message))
    pids = {p.pid for comp in comps for p in comp.ports}

    # Each interaction's wiring and its ports; one port, one interaction.
    uses: dict[str, int] = {}
    for inter in sys.gamma:
        diags += [Diagnostic(*found) for found in inter._findings]
        for pid in dict.fromkeys([inter.send.pid] + [r.pid for r in inter.receivers]):
            if pid not in pids:
                report("unknown-port", _UNKNOWN_PORT.format(pid))
            uses[pid] = uses.get(pid, 0) + 1
    for pid, n in sorted(uses.items()):
        if n > 1:
            report("port-conflict", f"port {pid} occurs in {n} interactions")

    # Every communicating port used on a transition is wired exactly once;
    # internal ports are never wired.
    for p in [t.port for comp in comps for t in comp.transitions if t.port is not None]:
        if p.ctype == "in":
            if p.pid in uses:
                report("internal-wired", f"internal port {p.pid} occurs in gamma")
        elif p.pid not in uses:
            report("unconnected-port", f"port {p.pid} used on a transition but absent from gamma")
    return diags


# --------------------------------------------------------------------------
# Canonical serialization and DOT export
# --------------------------------------------------------------------------

def serialize_system(sys: CompositeSystem) -> str:
    """Stable plain-text rendering of a composite system."""
    lines = []
    for comp in sorted(sys.components, key=lambda c: c.id):
        lines.append(f"component {comp.id} {{")
        for var, init in sorted(comp.vars, key=lambda vi: vi[0].name):
            lines.append(f"  var {var.name}: {var.dtype} = {format_expr(Lit(init))}")
        for p in sorted(comp.ports, key=lambda p: p.name):
            lines.append(f"  port {p.name}: {p.ctype} of {p.dtype} binds {p.var.name}")
        lines.append(f"  init {comp.init}")
        if comp.end is not None:
            lines.append(f"  end {comp.end}")
        for loc in sorted(comp.locations):
            lines.append(f"  location {loc}")
        for t in sorted(comp.transitions,
                        key=lambda t: (t.src, _port_name(t.port), t.dst,
                                       format_expr(t.guard), format_update(t.update))):
            g = format_expr(t.guard, comp.id)
            f = format_update(t.update, comp.id)
            lines.append(f"  {t.src} --{_port_name(t.port)}[{g}, {f}]--> {t.dst}")
        lines.append("}")
    lines.append(f"gamma ({len(sys.gamma)} interactions) {{")
    for inter in sorted(sys.gamma, key=lambda i: i.send.pid):
        rcvs = ", ".join(sorted(r.pid for r in inter.receivers))
        lines.append(f"  {inter.send.pid} -> {{ {rcvs} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _port_name(port: Optional[Port]) -> str:
    return "eps" if port is None else port.name


def system_to_dot(sys: CompositeSystem) -> str:
    """One DOT cluster per component automaton plus dashed interaction edges."""
    lines = ["digraph system {", "  rankdir=LR;", "  compound=true;"]

    def loc_id(cid, loc):
        return _dot_label(f"{cid}__{loc}")

    for i, comp in enumerate(sorted(sys.components, key=lambda c: c.id)):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label={_dot_label(comp.id)};')
        for loc in sorted(comp.locations):
            shape = "doublecircle" if loc == comp.end else "circle"
            peripheries = ', style=bold' if loc == comp.init else ""
            lines.append(f'    {loc_id(comp.id, loc)} [shape={shape}, '
                         f'label={_dot_label(loc)}{peripheries}];')
        for t in sorted(comp.transitions, key=lambda t: (t.src, _port_name(t.port), t.dst)):
            g = format_expr(t.guard, comp.id)
            lines.append(
                f'    {loc_id(comp.id, t.src)} -> {loc_id(comp.id, t.dst)} '
                f'[label={_dot_label(f"{_port_name(t.port)} [{g}]")}];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_label(text: str) -> str:
    """``text`` as a quoted DOT string: each backslash, then each double
    quote, escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
