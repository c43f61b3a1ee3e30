"""Atomic components, interactions and composite-system semantics.

An atomic component is a guarded labelled transition system over locations,
ports and local variables. A composite system is a set of atomic components
plus an interaction set gamma; its semantics steps over joint locations, a
global valuation and per-receive-port FIFO buffers.

Every step is started by one component: the sender of an interaction (with
its receivers for a synchronous one, alone for an asynchronous one, whose
payload goes to the receivers' buffers) or the component taking a local
recv/internal step. ``component_steps`` returns one component's steps; the
simulator asks for them once per turn. ``sys_steps_tagged``, the successor
function of the explorer, returns every component's steps in turn. Both run
one loop, ``_fire``, over a set of components.

The semantics is compiled once per system, in one eager pass on the first
step (``CompositeSystem._steps``): each component gets a plain table from
every location a state can hold there, its initial location and every
transition target, to a flat tuple of static steps, built by
``_compile_location``. A step holds its rule, its event, its guards and
updates as compiled closures (None for a literal ``true`` guard or a skip
update, so they cost nothing), its target locations and the port ids,
variables and receiver tables it needs, so firing it only calls closures
and builds the successor. A send step covers one interaction and all of
its sender's transitions on the send port from that location. The tables
are cached on the instance, so ``dataclasses.replace`` yields a system
with fresh ones.

A component keeps its transitions indexed by source location. System
states are named tuples, hashed over their fields with no cache of their
own; their valuations share the slot layout of the initial valuation (see
``core.Valuation``).

A step's event (see ``core.Event``) names its rule and the ports of the
transitions it fires, the sender's first: an asynchronous send moves its
sender alone, a synchronous one its sender and every receiver. The sends of
one interaction share one event, built once with its label, whatever
location they leave. Only sends are shown in the label; a receive or
internal step is ``TAU``. ``sys_explore`` runs the shared breadth-first
explorer (``core.explore_lts``) over ``sys_steps_tagged``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import (
    TAU, TRUE, Event, Exploration, Expr, Lit, Port, Update, Valuation, cached_attr,
    explore_lts, expr_vars, find_queue, format_expr, format_update, requeue, update_vars,
)
from .lang import Diagnostic

SYS_RULES = ("synch-send", "asynch-send", "recv", "internal")


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


@dataclass(frozen=True)
class Interaction:
    send: Port
    receivers: tuple  # of Port, nonempty

    @cached_attr
    def pids(self) -> frozenset:
        return frozenset({self.send.pid} | {r.pid for r in self.receivers})


@dataclass(frozen=True)
class CompositeSystem:
    components: tuple  # of AtomicComponent
    gamma: tuple  # of Interaction

    @cached_attr
    def _steps(self) -> tuple:
        """Per component position: a table from each location a state can
        hold there, the initial location and every transition target, to
        the static steps the component starts at it (see
        ``_compile_location``). Built in one pass: a component id names
        its first position, a port's alternatives by source location are
        those of the transitions that position's component takes on it
        (see ``_alt``), and each interaction of gamma, in gamma order,
        becomes one send step entry of its sender, with one event and, for
        a synchronous send, its receivers' alternatives."""
        position = {}
        for i, c in enumerate(self.components):
            position.setdefault(c.id, i)
        offers = {}  # port -> source location -> alternatives on that port
        for i, c in enumerate(self.components):
            for t in c.transitions:
                if t.port is not None and position.get(t.port.owner) == i:
                    offers.setdefault(t.port, {}).setdefault(t.src, []).append(_alt(t))
        offers = {p: {src: tuple(alts) for src, alts in by_src.items()}
                  for p, by_src in offers.items()}
        sends = tuple([] for _ in self.components)
        for inter in self.gamma:
            snd = inter.send
            if snd.ctype == "as":
                rule, ports = "asynch-send", (snd,)
                rcvs = tuple(r.pid for r in inter.receivers)
            elif snd.ctype == "ss":
                rule, ports = "synch-send", (snd,) + inter.receivers
                rcvs = tuple((position[r.owner], r.pid, r.var.qname, offers.get(r, {}))
                             for r in inter.receivers)
            else:
                continue  # not a send port (``check_structure``): never fires
            sends[position[snd.owner]].append(
                (rule, Event.of((rule,), ports), offers.get(snd, {}), snd.var.qname, rcvs))
        return tuple(
            {loc: _compile_location(c, s, loc)
             for loc in dict.fromkeys((c.init, *(t.dst for t in c.transitions)))}
            for c, s in zip(self.components, sends))

    def initial_state(self) -> "SysState":
        sigma = Valuation({
            var.qname: init
            for c in self.components
            for var, init in c.vars
        })
        return SysState(tuple(c.init for c in self.components), sigma, ())


class SysState(NamedTuple):
    locations: tuple  # aligned with CompositeSystem.components
    sigma: Valuation
    buffers: tuple  # sorted tuple of (receive port id, tuple of values)


# --------------------------------------------------------------------------
# Semantics
# --------------------------------------------------------------------------

#: Builds a ``SysState`` or an ``Event`` from its fields without the
#: Python-level ``__new__`` that ``NamedTuple`` generates.
_new = tuple.__new__


def _alt(t: Transition) -> tuple:
    """A transition as (guard, update, target location), with the guard and
    the update as their compiled closures, or None for ``true`` and skip."""
    return (None if t.guard == TRUE else t.guard.compiled,
            t.update.compiled if t.update.assignments else None, t.dst)


def _compile_location(comp: AtomicComponent, sends: list, loc: str) -> tuple:
    """The static steps that ``comp`` starts at ``loc``: the interactions it
    sends there, in gamma order, then its recv/internal transitions, in
    transition order (see ``_fire`` for what each step does). ``sends``
    holds one (rule, event, location -> alternatives, sent variable,
    receivers) per interaction ``comp`` sends (see
    ``CompositeSystem._steps``). Each step keeps its rule in slot 0 and its
    event in slot 1.

    A send step is (rule, event, alternatives, sent variable, receivers):
    its alternatives are the sender's transitions on the send port from
    ``loc``; an asynchronous send's receivers are their port ids, and a
    synchronous send's are (component position, port id, bound variable,
    location -> alternatives on the port). A local step is
    (rule, event, guard, update, target location) for an internal
    transition, plus (port id, bound variable) for a receive. Only sends
    are shown in the label; a receive or internal step is hidden."""
    steps = [(rule, event, by_src[loc], var, rcvs)
             for rule, event, by_src, var, rcvs in sends if loc in by_src]
    for t in comp.outgoing(loc):
        guard, update, dst = _alt(t)
        if t.port is None or t.port.ctype == "in":
            ports = () if t.port is None else (t.port,)
            steps.append(("internal", _new(Event, (("internal",), ports, TAU)),
                          guard, update, dst))
        elif t.port.ctype == "r":
            steps.append(("recv", _new(Event, (("recv",), (t.port,), TAU)),
                          guard, update, dst, t.port.pid, t.port.var.qname))
        # A send is taken above, through its interaction.
    return tuple(steps)


def _fire(sys: CompositeSystem, state: SysState, cis) -> list:
    """The steps that components ``cis`` start from ``state``, in that
    order, as (event, state): each component's compiled steps at its
    location (see ``_compile_location``) whose guards hold."""
    locations, sigma, buffers = state
    tables = sys._steps
    out = []
    for ci in cis:
        for step in tables[ci][locations[ci]]:
            rule = step[0]
            if rule == "internal":
                _, event, guard, update, dst = step
                if guard is not None and not guard(sigma):
                    continue
                after = sigma if update is None else update(sigma)
                out.append((event, _new(SysState, (
                    locations[:ci] + (dst,) + locations[ci + 1:], after, buffers))))
                continue
            if rule == "recv":
                _, event, guard, update, dst, pid, var = step
                queue = find_queue(buffers, pid)[1]
                if not queue or guard is not None and not guard(sigma):
                    continue
                after = sigma.set(var, queue[0])
                if update is not None:
                    after = update(after)
                out.append((event, _new(SysState, (
                    locations[:ci] + (dst,) + locations[ci + 1:], after,
                    requeue(buffers, pid, pop=True)))))
                continue
            _, event, alts, var, rcvs = step
            enabled = [alt for alt in alts if alt[0] is None or alt[0](sigma)]
            if not enabled:
                continue
            if rule == "asynch-send":
                # The payload goes to every receiver's buffer before the
                # sender's update runs.
                payload, queues = (sigma[var],), buffers
                for pid in rcvs:
                    queues = requeue(queues, pid, push=payload)
                for _, update, dst in enabled:
                    out.append((event, _new(SysState, (
                        locations[:ci] + (dst,) + locations[ci + 1:],
                        sigma if update is None else update(sigma), queues))))
                continue
            # Synchronous: every receiver must offer an enabled transition on
            # its port and that port's buffer must be empty; all step
            # together. The payload is copied first, then the sender's update
            # runs, then the receivers' in order.
            choices = []
            for ri, pid, _, by_loc in rcvs:
                if find_queue(buffers, pid)[1]:
                    break
                ts = [alt for alt in by_loc.get(locations[ri], ())
                      if alt[0] is None or alt[0](sigma)]
                if not ts:
                    break
                choices.append(ts)
            else:
                payload = sigma[var]
                for _, update, dst in enabled:
                    for combo in itertools.product(*choices):
                        after = sigma
                        for rcv in rcvs:
                            after = after.set(rcv[2], payload)
                        if update is not None:
                            after = update(after)
                        locs = list(locations)
                        locs[ci] = dst
                        for rcv, (_, r_update, r_dst) in zip(rcvs, combo):
                            if r_update is not None:
                                after = r_update(after)
                            locs[rcv[0]] = r_dst
                        out.append((event, _new(SysState, (tuple(locs), after, buffers))))
    return out


def component_steps(sys: CompositeSystem, state: SysState, ci: int) -> list:
    """Steps that component ``ci`` starts from ``state``, as (event, state):
    the interactions it sends at its location, in gamma order, then its own
    recv/internal steps, in transition order."""
    return _fire(sys, state, (ci,))


def sys_steps_tagged(sys: CompositeSystem, state: SysState) -> list:
    """Successors of a system state as (event, state): the steps of each
    component in turn (see ``component_steps``)."""
    return _fire(sys, state, range(len(sys.components)))


def is_terminal(sys: CompositeSystem, state: SysState) -> bool:
    """Successful termination: empty buffers and every component at its end
    location. A component without an end marking can never terminate."""
    if state.buffers:
        return False
    for comp, loc in zip(sys.components, state.locations):
        if comp.end is None or loc != comp.end:
            return False
    return True


def sys_explore(sys: CompositeSystem, max_configs: int = 200_000,
                max_depth: int = 10_000) -> Exploration:
    """Breadth-first closure of sys_steps_tagged from the initial state (see
    ``core.explore_lts``)."""
    return explore_lts(sys.initial_state(), lambda s: sys_steps_tagged(sys, s),
                       lambda s: is_terminal(sys, s), max_configs, max_depth)


# --------------------------------------------------------------------------
# Structural checks
# --------------------------------------------------------------------------

def check_structure(sys: CompositeSystem) -> list:
    """Structural sanity of a composite system; empty iff clean."""
    diags: list[Diagnostic] = []
    ids = set()
    all_ports = {}
    for comp in sys.components:
        if comp.id in ids:
            diags.append(Diagnostic("duplicate-component", f"component {comp.id} declared twice"))
        ids.add(comp.id)
        for p in comp.ports:
            if p.pid in all_ports:
                diags.append(Diagnostic("duplicate-port", f"port {p.pid} declared twice"))
            all_ports[p.pid] = p

    for comp in sys.components:
        locs = set(comp.locations)
        if comp.init not in locs:
            diags.append(Diagnostic(
                "bad-init", f"{comp.id}: initial location {comp.init} undeclared"))
        if comp.end is not None and comp.end not in locs:
            diags.append(Diagnostic(
                "bad-end", f"{comp.id}: end location {comp.end} undeclared"))
        own_vars = {var.qname for var, _ in comp.vars}
        own_ports = set(comp.ports)
        for t in comp.transitions:
            if t.src not in locs or t.dst not in locs:
                diags.append(Diagnostic(
                    "bad-transition",
                    f"{comp.id}: transition {t.src}->{t.dst} uses undeclared location"))
            if t.port is not None and (t.port.owner != comp.id or t.port not in own_ports):
                diags.append(Diagnostic(
                    "foreign-port", f"{comp.id}: transition uses port {t.port.pid}"))
            used = expr_vars(t.guard) | update_vars(t.update)
            if not used <= own_vars:
                diags.append(Diagnostic(
                    "foreign-var",
                    f"{comp.id}: transition at {t.src} uses "
                    + ", ".join(sorted(used - own_vars))))
        # No location may mix outgoing send and receive ports.
        for loc in comp.locations:
            kinds = {t.port.ctype for t in comp.outgoing(loc) if t.port is not None}
            if kinds & {"ss", "as"} and "r" in kinds:
                diags.append(Diagnostic(
                    "mixed-location",
                    f"{comp.id}: location {loc} mixes outgoing send and receive"))

    # Interaction shape and one-port-one-interaction.
    uses: dict[str, int] = {}
    for inter in sys.gamma:
        if not inter.send.is_send:
            diags.append(Diagnostic(
                "bad-interaction", f"{inter.send.pid} is not a send port"))
        if not inter.receivers:
            diags.append(Diagnostic(
                "bad-interaction", f"interaction on {inter.send.pid} has no receivers"))
        owners = {inter.send.owner}
        for r in inter.receivers:
            if r.ctype != "r":
                diags.append(Diagnostic(
                    "bad-interaction", f"{r.pid} is not a receive port"))
            if r.dtype != inter.send.dtype:
                diags.append(Diagnostic(
                    "bad-interaction",
                    f"dtype mismatch {inter.send.pid}:{inter.send.dtype} -> "
                    f"{r.pid}:{r.dtype}"))
            if r.owner in owners:
                diags.append(Diagnostic(
                    "bad-interaction",
                    f"component {r.owner} occurs twice in interaction on "
                    f"{inter.send.pid}"))
            owners.add(r.owner)
        for pid in inter.pids:
            if pid not in all_ports:
                diags.append(Diagnostic(
                    "unknown-port", f"interaction references undeclared port {pid}"))
            uses[pid] = uses.get(pid, 0) + 1
    for pid, n in sorted(uses.items()):
        if n > 1:
            diags.append(Diagnostic(
                "port-conflict", f"port {pid} occurs in {n} interactions"))

    # Every communicating port used on a transition is wired exactly once;
    # internal ports are never wired.
    for comp in sys.components:
        for t in comp.transitions:
            p = t.port
            if p is None:
                continue
            if p.ctype == "in":
                if p.pid in uses:
                    diags.append(Diagnostic(
                        "internal-wired", f"internal port {p.pid} occurs in gamma"))
            elif p.pid not in uses:
                diags.append(Diagnostic(
                    "unconnected-port",
                    f"port {p.pid} used on a transition but absent from gamma"))
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
        return f"\"{cid}__{loc}\""

    for i, comp in enumerate(sorted(sys.components, key=lambda c: c.id)):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="{comp.id}";')
        for loc in sorted(comp.locations):
            shape = "doublecircle" if loc == comp.end else "circle"
            peripheries = ', style=bold' if loc == comp.init else ""
            lines.append(f'    {loc_id(comp.id, loc)} [shape={shape}, label="{loc}"{peripheries}];')
        for t in sorted(comp.transitions, key=lambda t: (t.src, _port_name(t.port), t.dst)):
            g = format_expr(t.guard, comp.id)
            lines.append(
                f'    {loc_id(comp.id, t.src)} -> {loc_id(comp.id, t.dst)} '
                f'[label="{_port_name(t.port)} [{g}]"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
