"""Synthesis of a controller-free component system from a choreography.

The transformation folds over the syntactic structure of the choreography,
growing each component's automaton from its unique context location. Send
and receive ports are copied per communication so that every copy is wired
to exactly one interaction, which is what makes the result controller-free.

Only a well-formed choreography is transformed: ``synthesize`` refuses any
other with the first error of ``lang.check_well_formed``, type rules
included, before it builds anything, so the rules have one statement for
the explorers and synthesis alike. The built system is checked once, by
``verify.invariant_suite``; a finding there is a bug of this module.

Control interactions are wired in three places of ``_Builder``: ``notify``
(a master telling the participants which choice arm or loop iteration
follows, ``br``/``cont`` ports), the break of ``synth_loop`` (``brk``) and
``synth_seq_sync`` (``cs``/``cr``). All of them, like every data
communication, go through ``wire``, the one place that adds an interaction;
``advance`` is the one place that moves a context along a new transition.
A loop's entry notification is synchronous whatever the type of its
condition port, like its break, so the master cannot break while a
participant still holds an entry or the body's messages in its buffers.

Who a notification goes to and which components a sequential
synchronization joins are read off each term's ``lang.Shape``: its
participants, its starts, and its end set under the profile, ``ends`` or
``sender_ends``. Two profiles are supported:

* ``default`` is the lean placement: the end set of a synchronous
  communication is its receivers, branch joins are made with silent
  epsilon transitions, and the sequential synchronization is anchored on
  the first starter of the second choreography (so the component about to
  act is the one that receives the go-ahead).
* ``compat`` is a denser, sender-centric placement: the end set of any
  communication is its sender, branch joins merge the per-choice contexts
  into a single location (no epsilon), and the sequential synchronization
  is anchored on an end component of the first choreography. It trades
  extra control interactions for merge-style joins and is the profile the
  Promela ack-encoding mode builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    Expr, Not, Port, SKIP, TRUE, Update, Variable, default_value,
)
from .cbs import AtomicComponent, CompositeSystem, Interaction, Transition
from .lang import (
    Branch, Chor, Comm, GuardedSend, Loop, Nil, Par, Seq, SystemDecl, check_well_formed, shape,
)
from .verify import invariant_suite

PROFILES = ("default", "compat")

#: Name of the per-component control scratch variable carried by generated
#: control ports (one per data type actually needed). The ``%`` prefix keeps
#: these out of the surface language's namespace, and downstream tools drop
#: them when projecting states onto user-declared variables. It does not keep
#: them out of Promela's: the emitter spells ``%c`` as ``ctl``, so a user
#: variable ``ctl`` of the same component takes the same Promela name.
CONTROL_VAR = "%c"


class SynthError(Exception):
    pass


@dataclass
class _Builder:
    decl: SystemDecl
    profile: str
    vars: dict = field(default_factory=dict)        # cid -> [(Variable, init)]
    ports: dict = field(default_factory=dict)       # cid -> [Port]
    locations: dict = field(default_factory=dict)   # cid -> {str: None}, in creation order
    transitions: dict = field(default_factory=dict)  # cid -> [Transition]
    rank: dict = field(default_factory=dict)        # cid -> its place in the declaration
    context: dict = field(default_factory=dict)     # cid -> location
    gamma: list = field(default_factory=list)
    ctl_vars: dict = field(default_factory=dict)    # cid -> {dtype: Variable}
    copy_counters: dict = field(default_factory=dict)  # base pid -> int
    ctl_counters: dict = field(default_factory=dict)   # name class -> int
    loc_counters: dict = field(default_factory=dict)   # cid -> int

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise SynthError(f"unknown profile {self.profile!r}")
        for i, comp in enumerate(self.decl.components):
            cid = comp.id
            self.rank[cid] = i
            self.ctl_vars[cid] = {}
            self.vars[cid] = list(comp.vars)
            self.ports[cid] = list(comp.ports)
            self.locations[cid] = {f"L{cid}_0": None}
            self.transitions[cid] = []
            self.context[cid] = f"L{cid}_0"
            self.loc_counters[cid] = 0

    # -- naming helpers ------------------------------------------------------

    def order(self, cids) -> list:
        return sorted(cids, key=self.rank.__getitem__)

    def fresh_loc(self, cid: str) -> str:
        self.loc_counters[cid] += 1
        loc = f"L{cid}_{self.loc_counters[cid]}"
        self.locations[cid][loc] = None
        return loc

    def fresh_copy(self, port: Port, ctype: str | None = None) -> Port:
        k = self.copy_counters.get(port.pid, 0) + 1
        self.copy_counters[port.pid] = k
        copy = Port(name=f"{port.name}#{k}", owner=port.owner, var=port.var,
                    ctype=port.ctype if ctype is None else ctype)
        self.ports[port.owner].append(copy)
        return copy

    def ctl_var(self, cid: str, dtype: str) -> Variable:
        if dtype not in self.ctl_vars[cid]:
            name = CONTROL_VAR if dtype == "int" else f"{CONTROL_VAR}_{dtype}"
            var = Variable(name, cid, dtype)
            self.ctl_vars[cid][dtype] = var
            self.vars[cid].append((var, default_value(dtype)))
        return self.ctl_vars[cid][dtype]

    def ctl_port(self, owner: str, klass: str, ctype: str,
                 dtype: str = "int") -> Port:
        k = self.ctl_counters.get(klass, 0) + 1
        self.ctl_counters[klass] = k
        port = Port(name=f"{klass}@{k}", owner=owner,
                    var=self.ctl_var(owner, dtype), ctype=ctype)
        self.ports[owner].append(port)
        return port

    # -- primitive growth steps ----------------------------------------------

    def advance(self, cid: str, port, guard: Expr, update: Update):
        """Add a transition from the component's context to a fresh location
        and move the context there. A ``None`` port is a silent epsilon."""
        dst = self.fresh_loc(cid)
        self.transitions[cid].append(
            Transition(self.context[cid], port, guard, update, dst))
        self.context[cid] = dst

    def add_eps(self, cid: str, src: str, dst: str):
        """Add a silent transition. No (src, dst) pair repeats: a join's
        silent edges end at a location just made, and a loop's back edge
        starts at the context, which has no outgoing transition."""
        self.transitions[cid].append(Transition(src, None, TRUE, SKIP, dst))

    def wire(self, send: Port, guard: Expr, update: Update, rcvs):
        """One communication: sender transition, receiver transitions and the
        connecting interaction. Ports are already final (copied/control)."""
        self.advance(send.owner, send, guard, update)
        receivers = []
        for port, f in rcvs:
            self.advance(port.owner, port, TRUE, f)
            receivers.append(port)
        self.gamma.append(Interaction(send=send, receivers=tuple(receivers)))

    def notify(self, master: str, gs: GuardedSend, K: list, klass: str,
               ctype: str | None = None):
        """The master's notification of a choice arm or a loop entry: a copy
        of its send port, re-typed ``ctype`` if given, wired to a fresh
        ``klass`` control port of each component of ``K``. With nobody to
        notify, it is a local step of the master on a copy of the port
        re-typed ``in``."""
        if K:
            send = self.fresh_copy(gs.port, ctype)
            rcvs = [(self.ctl_port(k, klass, "r", send.dtype), SKIP) for k in K]
            self.wire(send, gs.guard, gs.update, rcvs)
        else:
            port = self.fresh_copy(gs.port, ctype="in")
            self.advance(master, port, gs.guard, gs.update)

    # -- transformation proper -----------------------------------------------

    def synth(self, ch: Chor):
        if isinstance(ch, Nil):
            return
        if isinstance(ch, Comm):
            send = self.fresh_copy(ch.send.port)
            rcvs = [(self.fresh_copy(p), f) for p, f in ch.rcvs]
            self.wire(send, ch.send.guard, ch.send.update, rcvs)
            return
        if isinstance(ch, Branch):
            self.synth_branch(ch)
            return
        if isinstance(ch, Loop):
            self.synth_loop(ch)
            return
        if isinstance(ch, Seq):
            self.synth(ch.first)
            self.synth_seq_sync(ch.first, ch.second)
            self.synth(ch.second)
            return
        if isinstance(ch, Par):
            self.synth(ch.left)
            self.synth(ch.right)
            return
        raise AssertionError(ch)

    def synth_branch(self, ch: Branch):
        K = self.order(shape(ch).participants - {ch.master})
        base = dict(self.context)
        snapshots = []
        for gs, cont in ch.conts:
            self.context = dict(base)
            self.notify(ch.master, gs, K, "br")
            self.synth(cont)
            snapshots.append(dict(self.context))
        self.join(base, snapshots)

    def join(self, base, snapshots):
        """Join the per-choice contexts of each component into one location.

        The default profile adds a fresh location and silent epsilon
        transitions to it. A component untouched by every choice keeps its
        context: giving it a silent hop as well would be harmless but
        multiplies interleavings during exploration. The compat profile
        merges the contexts into a fresh location instead (context locations
        have no outgoing transitions, so retargeting incoming transitions is
        a sound quotient), and keeps a context all choices share."""
        for cid in self.decl.component_ids():
            ends = list(dict.fromkeys(snap[cid] for snap in snapshots))
            if ends == [base[cid]] or (len(ends) == 1 and self.profile == "compat"):
                self.context[cid] = ends[0]
                continue
            join = self.fresh_loc(cid)
            if self.profile == "default":
                for end in ends:
                    self.add_eps(cid, end, join)
            else:
                dropped = set(ends)
                for t in self.transitions[cid]:
                    assert t.src not in dropped, (
                        f"cannot merge location {t.src} of {cid}: it has an "
                        f"outgoing transition")
                self.transitions[cid] = [
                    t if t.dst not in dropped
                    else Transition(t.src, t.port, t.guard, t.update, join)
                    for t in self.transitions[cid]
                ]
                # Silent transitions end at loop heads, which have outgoing
                # transitions, so none is retargeted here.
                for loc in dropped:
                    self.locations[cid].pop(loc, None)
            self.context[cid] = join

    def synth_loop(self, ch: Loop):
        master = ch.cond.port.owner
        K = self.order(shape(ch.body).participants - {master})
        before = dict(self.context)
        # Synchronous, like the break (see the module docstring).
        self.notify(master, ch.cond, K, "cont", "ss")
        self.synth(ch.body)
        # Re-iteration: silent back edges to the loop head.
        for cid in K + [master]:
            self.add_eps(cid, self.context[cid], before[cid])
            self.context[cid] = before[cid]
        # Break: the master evaluates the negated condition; participants
        # follow unconditionally through one synchronous interaction.
        brk_guard = Not(ch.cond.guard)
        if K:
            brk = self.ctl_port(master, "brk", "ss")
            self.wire(brk, brk_guard, SKIP,
                      [(self.ctl_port(k, "brk", "r"), SKIP) for k in K])
        else:
            self.advance(master, self.ctl_port(master, "brk", "in"), brk_guard, SKIP)

    def synth_seq_sync(self, first: Chor, second: Chor):
        """Synchronize the end of ``first`` with the start of ``second``."""
        default = self.profile == "default"
        ends = shape(first).ends if default else shape(first).sender_ends
        starts = shape(second).starts
        if not ends or not starts:
            return
        anchor = self.order(starts if default else ends)[0]
        J = self.order((ends | starts) - {anchor})
        if not J:
            return
        cs = self.ctl_port(anchor, "cs", "ss")
        rcvs = [(self.ctl_port(j, "cr", "r"), SKIP) for j in J]
        self.wire(cs, TRUE, SKIP, rcvs)

    # -- result --------------------------------------------------------------

    def build(self) -> CompositeSystem:
        comps = []
        for comp in self.decl.components:
            cid = comp.id
            comps.append(AtomicComponent(
                id=cid,
                vars=tuple(self.vars[cid]),
                ports=tuple(self.ports[cid]),
                locations=tuple(self.locations[cid]),
                transitions=tuple(self.transitions[cid]),
                init=f"L{cid}_0",
                end=self.context[cid],
            ))
        return CompositeSystem(components=tuple(comps), gamma=tuple(self.gamma))


def synthesize(decl: SystemDecl, ch: Chor, profile: str = "default") -> CompositeSystem:
    """Transform a well-formed choreography into a composite system.

    A choreography that is not well formed is refused before anything is
    built: ``SynthError`` carries the first error of ``check_well_formed``
    as ``"code: message"``; warnings pass. The built system must pass
    ``verify.invariant_suite``, so any finding it reports is a synthesis
    bug, also raised as ``SynthError``."""
    for d in check_well_formed(decl, ch):
        if d.severity == "error":
            raise SynthError(f"{d.code}: {d.message}")
    builder = _Builder(decl=decl, profile=profile)
    builder.synth(ch)
    sys = builder.build()
    diags = invariant_suite(sys)
    if diags:
        raise SynthError(
            "synthesized system failed structural checks:\n"
            + "\n".join(str(d) for d in diags))
    return sys
