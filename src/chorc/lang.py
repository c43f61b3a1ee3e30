"""Choreography AST, declarations, structural functions and static checks.

The choreography terms are hash-consed like the syntax in ``core``: one live
object per term structure, compared and hashed by identity.

One fold works out who takes part in a term, who starts it, who ends it
under each synthesis profile and whether it can stand at a term with no
participants: ``shape``, which keeps its ``Shape`` on the term, so each
term is folded once however many terms enclose it. ``shared`` reads it to
decide whether the operands of a ``||`` are dependent, for both the
``parallel-independence`` warning and the choreography semantics.

``faults`` states every static rule but the type rules for one term, in one
place: ``check_well_formed`` reports each term's faults and then its type
findings, and the choreography semantics refuses to compile a term with a
fault, synchronous or asynchronous alike. A communication's part of them,
how its send port is wired to its receive ports, is ``wiring``, which holds
a hand-built system's interactions to the same rule with the same texts."""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_
from typing import NamedTuple

from .core import (
    Expr, Interned, Port, TRUE, Update, Valuation, Variable, cached_attr, default_value,
    expr_vars, format_expr, format_update, infer_type, interned, update_vars, Value,
)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    line: int = 0
    col: int = 0
    severity: str = "error"  # "error" or "warning"

    def __str__(self):
        where = f"{self.line}:{self.col}: " if self.line else ""
        return f"{where}{self.severity}: {self.code}: {self.message}"


@dataclass(frozen=True)
class ComponentDecl:
    id: str
    vars: tuple[tuple[Variable, Value], ...]  # (variable, initial value)
    ports: tuple[Port, ...]


@dataclass(frozen=True)
class SystemDecl:
    components: tuple[ComponentDecl, ...]

    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    def type_env(self) -> dict[str, str]:
        return {
            var.qname: var.dtype
            for c in self.components
            for var, _ in c.vars
        }

    def initial_valuation(self) -> Valuation:
        return Valuation({
            var.qname: init if init is not None else default_value(var.dtype)
            for c in self.components
            for var, init in c.vars
        })

    @cached_attr
    def _chor_sides(self) -> dict:
        """(term, max_configs, max_depth) -> the choreography side of
        ``verify.equiv_check``, which fills it. It holds no configuration
        and dies with these declarations; ``dataclasses.replace`` yields
        declarations with an empty one."""
        return {}

    @cached_attr
    def _checks(self) -> dict:
        """term -> its ``check_well_formed`` findings under these
        declarations, as a tuple; kept and dropped like ``_chor_sides``."""
        return {}


# --------------------------------------------------------------------------
# Choreography terms
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, init=False)
class GuardedSend(Interned):
    """A send port together with its guard and update function."""

    port: Port
    guard: Expr
    update: Update

    def __new__(cls, port: Port, guard: Expr, update: Update):
        return interned(cls, (id(port), id(guard), id(update)),
                        port=port, guard=guard, update=update)


@dataclass(frozen=True, eq=False, init=False)
class Nil(Interned):
    def __new__(cls):
        return interned(cls, ())


@dataclass(frozen=True, eq=False, init=False)
class Comm(Interned):
    """One send port wired to a nonempty list of receive ports."""

    send: GuardedSend
    rcvs: tuple[tuple[Port, Update], ...]

    def __new__(cls, send: GuardedSend, rcvs: tuple[tuple[Port, Update], ...]):
        return interned(cls, (id(send), tuple([(id(p), id(f)) for p, f in rcvs])),
                        send=send, rcvs=tuple(rcvs))


@dataclass(frozen=True, eq=False, init=False)
class Branch(Interned):
    """Master-decided choice between guarded continuations."""

    master: str
    conts: tuple[tuple[GuardedSend, "Chor"], ...]

    def __new__(cls, master: str, conts: tuple[tuple[GuardedSend, "Chor"], ...]):
        return interned(cls, (master, tuple([(id(gs), id(cont)) for gs, cont in conts])),
                        master=master, conts=tuple(conts))


@dataclass(frozen=True, eq=False, init=False)
class Loop(Interned):
    cond: GuardedSend
    body: "Chor"

    def __new__(cls, cond: GuardedSend, body: "Chor"):
        return interned(cls, (id(cond), id(body)), cond=cond, body=body)


@dataclass(frozen=True, eq=False, init=False)
class Seq(Interned):
    first: "Chor"
    second: "Chor"

    def __new__(cls, first: "Chor", second: "Chor"):
        return interned(cls, (id(first), id(second)), first=first, second=second)


@dataclass(frozen=True, eq=False, init=False)
class Par(Interned):
    left: "Chor"
    right: "Chor"

    def __new__(cls, left: "Chor", right: "Chor"):
        return interned(cls, (id(left), id(right)), left=left, right=right)


Chor = Nil | Comm | Branch | Loop | Seq | Par  # not typing.Union: see core.Expr


# --------------------------------------------------------------------------
# Structural functions over choreographies
# --------------------------------------------------------------------------

class Shape(NamedTuple):
    """Who takes part in a term, who must be told to start it, and who must
    finish for it to finish: ``ends`` under the default synthesis profile,
    ``sender_ends`` under compat.

    A communication starts at its sender, a choice and a loop at their
    master; a ``;`` starts as its first operand and ends as its second, a
    ``||`` starts and ends as both operands together, and a loop ends in its
    master. Under default a communication ends in its receivers if it is
    synchronous and in its sender if not, and a choice in the owners of its
    arm ports and the participants of its arms. Under compat a communication
    ends in its sender, and a choice in its arms' sender ends, or in its
    master if they have none.

    ``idles`` says whether the term can stand, not yet ended, at a term
    with no participants: ``nil`` can, and so can a choice with such an
    arm, a ``;`` whose second operand can and a ``||`` with such an
    operand; a communication and a loop never can. Two independent
    operands of a ``||`` that both can may each stand at such a term while
    the other has ended, which the semantics makes one configuration.
    """

    participants: frozenset[str]
    starts: frozenset[str]
    ends: frozenset[str]
    sender_ends: frozenset[str]
    idles: bool


def shape(term: Chor) -> Shape:
    """The ``Shape`` of ``term``: worked out on first use, from its
    operands' shapes, then kept on the term."""
    out = getattr(term, "_shape", None)
    if out is not None:
        return out
    if isinstance(term, Nil):
        nobody = frozenset()
        out = Shape(nobody, nobody, nobody, nobody, True)
    elif isinstance(term, Comm):
        sender = frozenset([term.send.port.owner])
        rcvs = frozenset([p.owner for p, _ in term.rcvs])
        out = Shape(sender | rcvs, sender,
                    rcvs if term.send.port.ctype == "ss" else sender, sender, False)
    elif isinstance(term, Branch):
        master = frozenset([term.master])
        ends, sender_ends, idles = set(), set(), False
        for gs, cont in term.conts:
            arm = shape(cont)
            ends.add(gs.port.owner)
            ends |= arm.participants
            sender_ends |= arm.sender_ends
            idles |= arm.idles
        ends = frozenset(ends)
        out = Shape(master | ends, master, ends, frozenset(sender_ends) or master, idles)
    elif isinstance(term, Loop):
        master = frozenset([term.cond.port.owner])
        out = Shape(master | shape(term.body).participants, master, master, master, False)
    elif isinstance(term, Seq):
        first, second = shape(term.first), shape(term.second)
        out = Shape(first.participants | second.participants, first.starts,
                    second.ends, second.sender_ends, second.idles)
    elif isinstance(term, Par):
        # ``|`` is the union of each set and the ``or`` of ``idles``.
        out = Shape(*map(or_, shape(term.left), shape(term.right)))
    else:
        raise AssertionError(term)
    object.__setattr__(term, "_shape", out)
    return out


def shared(par: Par) -> frozenset[str]:
    """The components that both operands of ``par`` take part in. Operands
    that share one are dependent: they run in order, left first, not
    interleaved."""
    return shape(par.left).participants & shape(par.right).participants


# --------------------------------------------------------------------------
# Pretty printing (round-trips through the parser)
# --------------------------------------------------------------------------

def _fmt_guarded_send(gs: GuardedSend) -> str:
    owner = gs.port.owner
    return (f"{gs.port.pid}[{format_expr(gs.guard, owner)}, "
            f"{format_update(gs.update, owner)}]")


def format_chor(ch: Chor) -> str:
    """Render a choreography term in concrete syntax."""
    if isinstance(ch, Nil):
        return "nil"
    if isinstance(ch, Comm):
        rcvs = ", ".join(
            f"{p.pid}[{format_update(f, p.owner)}]" for p, f in ch.rcvs
        )
        return f"{_fmt_guarded_send(ch.send)} -> {{ {rcvs} }}"
    if isinstance(ch, Branch):
        conts = " | ".join(
            f"{_fmt_guarded_send(gs)} => {format_chor(cont)}"
            for gs, cont in ch.conts
        )
        return f"choice {ch.master} {{ {conts} }}"
    if isinstance(ch, Loop):
        return f"while ({_fmt_guarded_send(ch.cond)}) {{ {format_chor(ch.body)} }}"
    if isinstance(ch, Seq):
        return f"({format_chor(ch.first)} ; {format_chor(ch.second)})"
    if isinstance(ch, Par):
        return f"({format_chor(ch.left)} || {format_chor(ch.right)})"
    raise AssertionError(ch)


# --------------------------------------------------------------------------
# Well-formedness
# --------------------------------------------------------------------------

def _check_locality(diags, owner: str, guard: Expr, update: Update, what: str):
    for qname in sorted(expr_vars(guard) | update_vars(update)):
        if not qname.startswith(owner + "."):
            diags.append(Diagnostic(
                "locality",
                f"{what} on component {owner} uses foreign variable {qname}",
            ))


def _check_types(diags, env, guard: Expr, update: Update, what: str):
    try:
        if infer_type(guard, env) != "bool":
            diags.append(Diagnostic("guard-type", f"{what} guard is not boolean"))
    except TypeError as exc:
        diags.append(Diagnostic("guard-type", f"{what} guard: {exc}"))
    for target, rhs in update.assignments:
        try:
            rhs_t = infer_type(rhs, env)
            if target not in env:
                diags.append(Diagnostic("unknown-var", f"{what}: unknown target {target}"))
            elif env[target] != rhs_t:
                diags.append(Diagnostic(
                    "assign-type",
                    f"{what}: assigning {rhs_t} to {target} of type {env[target]}",
                ))
        except TypeError as exc:
            diags.append(Diagnostic("assign-type", f"{what}: {exc}"))


def check_well_formed(decl: SystemDecl, ch: Chor) -> list[Diagnostic]:
    """Static checks beyond what the grammar enforces.

    Returns an empty list iff the choreography is well formed. The
    findings are worked out on the first call for ``decl`` and ``ch`` and
    kept on ``decl`` (``SystemDecl._checks``); each call gets a new list.
    """
    found = decl._checks.get(ch)
    if found is None:
        diags: list[Diagnostic] = []
        _check_term(diags, decl.type_env(), ch)
        found = decl._checks[ch] = tuple(diags)
    return list(found)


def _send_port(port: Port) -> list:
    """A communication's, a choice arm's or a loop test's port sends."""
    return [] if port.is_send else [("send-port-type", f"port {port.pid} is not a send port")]


def wiring(send: Port, receivers) -> tuple:
    """The (code, message) of each rule that a ``Comm`` or a system's
    ``Interaction`` from ``send`` to ``receivers`` breaks, in order:
    ``send`` is a send port, there are receivers, and each is a receive
    port of its data type on a component of its own, not the sender's."""
    found = _send_port(send)
    if not receivers:
        found.append(("empty-receivers", f"communication on {send.pid} without receivers"))
    owners = {send.owner}
    for p in receivers:
        if p.ctype != "r":
            found.append(("recv-port-type", f"port {p.pid} is not a receive port"))
        if p.dtype != send.dtype:
            found.append(("comm-dtype", f"receiver {p.pid}:{p.dtype} does not match sender "
                                        f"{send.pid}:{send.dtype}"))
        if p.owner in owners:
            found.append(("distinct-receivers",
                          f"component {p.owner} occurs twice in communication on {send.pid}"))
        owners.add(p.owner)
    return tuple(found)


def _check_guarded_send(diags, gs: GuardedSend, context: str):
    """A choice arm or a loop condition."""
    diags += [Diagnostic(*found) for found in _send_port(gs.port)]
    _check_locality(diags, gs.port.owner, gs.guard, gs.update, f"{context} {gs.port.pid}")


def faults(term: Chor) -> list[Diagnostic]:
    """What ``term`` itself, not a subterm, breaks of every rule but the
    type rules, in ``check_well_formed``'s order: a communication's
    ``wiring`` and locality, a choice's arms, a loop's test. The
    choreography semantics refuses a term with any. They are worked out on
    first use and kept on the term; each call gets a new list."""
    found = getattr(term, "_faults", None)
    if found is not None:
        return list(found)
    diags: list[Diagnostic] = []
    if isinstance(term, Comm):
        snd = term.send
        diags += [Diagnostic(*found) for found in wiring(snd.port, [p for p, _ in term.rcvs])]
        _check_locality(diags, snd.port.owner, snd.guard, snd.update, f"send {snd.port.pid}")
        for p, f in term.rcvs:
            _check_locality(diags, p.owner, TRUE, f, f"receive {p.pid}")
    elif isinstance(term, Branch):
        for gs, _ in term.conts:
            if gs.port.owner != term.master:
                diags.append(Diagnostic(
                    "branch-port-ownership",
                    f"continuation port {gs.port.pid} does not belong to "
                    f"master {term.master}",
                ))
            _check_guarded_send(diags, gs, "choice")
    elif isinstance(term, Loop):
        _check_guarded_send(diags, term.cond, "loop condition")
    object.__setattr__(term, "_faults", tuple(diags))
    return diags


def _check_term(diags, env, term: Chor):
    """Appends to ``diags`` what is wrong with ``term`` and its subterms:
    each term's ``faults``, then its type findings."""
    diags += faults(term)
    if isinstance(term, Comm):
        snd = term.send
        _check_types(diags, env, snd.guard, snd.update, f"send {snd.port.pid}")
        for p, f in term.rcvs:
            _check_types(diags, env, TRUE, f, f"receive {p.pid}")
    elif isinstance(term, Branch):
        for gs, cont in term.conts:
            _check_types(diags, env, gs.guard, gs.update, f"choice {gs.port.pid}")
            _check_term(diags, env, cont)
    elif isinstance(term, Loop):
        cond = term.cond
        _check_types(diags, env, cond.guard, cond.update, f"loop condition {cond.port.pid}")
        _check_term(diags, env, term.body)
    elif isinstance(term, Seq):
        _check_term(diags, env, term.first)
        _check_term(diags, env, term.second)
    elif isinstance(term, Par):
        common = shared(term)
        if common:
            # Dependent parallel operands are executed in a fixed
            # left-to-right order (no interleaving), so this is flagged
            # but does not reject the choreography.
            diags.append(Diagnostic(
                "parallel-independence",
                "parallel operands share components ("
                + ", ".join(sorted(common))
                + "); they will run in order, not interleaved",
                severity="warning",
            ))
        _check_term(diags, env, term.left)
        _check_term(diags, env, term.right)
    elif not isinstance(term, Nil):
        raise AssertionError(term)
