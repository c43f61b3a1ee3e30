"""Equivalence checking between a choreography and a synthesized system.

The check is extensional on small instances: both sides are explored
exhaustively and compared on their sets of successful final valuations,
projected onto the user-declared variables (generated control scratch
variables are dropped). A deadlock on either side, or a missing/extra final
state, refutes equivalence; truncation of either exploration makes the
verdict inconclusive.

The choreography side depends on the declarations, the term and the limits,
never on the system, so it is explored once per (declarations, term,
limits): ``equiv_check`` keeps what it reads of it, the projection keys,
the number of stored configurations, the projected finals, the deadlock
count and the truncation flag, on the ``SystemDecl`` it is given, and
every later check against that object reads it there. Both profiles and
every mutant of a term share one exploration, and the summary holds no
configuration, so it dies with the declarations. Fresh declarations, as a
new parse or ``dataclasses.replace`` makes, explore afresh.

The module also carries the structural invariant suite and a small set of
mutation operators used to validate that the checker actually has teeth. A
mutant is derived from its system (``CompositeSystem.derive``), so once the
system has been explored the mutant shares its compiled positions and warm
caches, and builds only those the mutation touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core import Valuation
from .chorsem import explore
from .cbs import (
    AtomicComponent, CompositeSystem,
    check_structure, sys_explore,
)
from .lang import Chor, Diagnostic, SystemDecl


# --------------------------------------------------------------------------
# Equivalence
# --------------------------------------------------------------------------

def user_variables(decl: SystemDecl) -> tuple:
    """Qualified names of the user-declared variables, in a stable order."""
    return tuple(sorted(decl.type_env()))


def project(sigma: Valuation, keys) -> tuple:
    return tuple(sigma[k] for k in keys)


@dataclass
class EquivReport:
    verdict: str  # "equivalent" | "mismatch" | "inconclusive"
    chor_states: int = 0
    sys_states: int = 0
    chor_finals: set = field(default_factory=set)
    sys_finals: set = field(default_factory=set)
    chor_deadlocks: int = 0
    sys_deadlocks: int = 0
    reasons: list = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"


@dataclass(frozen=True)
class _ChorSide:
    """What ``equiv_check`` reads of a choreography's exploration."""
    keys: tuple         # the projection keys, ``user_variables``
    states: int         # expanded configurations, ``chor_states``
    finals: frozenset   # projected final valuations
    deadlocks: int
    truncated: bool


def _chor_side(decl: SystemDecl, ch: Chor, max_configs: int, max_depth: int) -> _ChorSide:
    """The choreography side of ``equiv_check`` under these limits, explored
    on the first call for ``decl`` and kept on it (``SystemDecl._chor_sides``).
    The exploration is dropped on return; one that raises keeps nothing."""
    memo, key = decl._chor_sides, (ch, max_configs, max_depth)
    side = memo.get(key)
    if side is None:
        keys = user_variables(decl)
        res = explore(ch, decl.initial_valuation(),
                      max_configs=max_configs, max_depth=max_depth)
        side = memo[key] = _ChorSide(keys, len(res.ends),
                                     frozenset([project(s, keys) for s in res.finals]),
                                     len(res.deadlocks), res.truncated)
    return side


def equiv_check(decl: SystemDecl, ch: Chor, sys: CompositeSystem,
                max_configs: int = 200_000, max_depth: int = 10_000) -> EquivReport:
    """Compare ``sys`` with ``ch`` under ``decl`` (see the module docstring).
    The choreography is explored on the first check of ``ch`` under these
    limits against this ``decl`` object, and read back on every later one."""
    chor = _chor_side(decl, ch, max_configs, max_depth)
    sys_res = sys_explore(sys, max_configs=max_configs, max_depth=max_depth)
    report = EquivReport(
        verdict="equivalent",
        chor_states=chor.states,
        sys_states=len(sys_res.ends),
        chor_finals=set(chor.finals),
        sys_finals={project(s, chor.keys) for s in sys_res.finals},
        chor_deadlocks=chor.deadlocks,
        sys_deadlocks=len(sys_res.deadlocks),
    )
    if chor.truncated or sys_res.truncated:
        report.verdict = "inconclusive"
        report.reasons.append("state-space exploration truncated by limits")
        return report
    if chor.deadlocks:
        report.reasons.append(
            f"choreography deadlocks in {chor.deadlocks} configuration(s)")
    if sys_res.deadlocks:
        report.reasons.append(
            f"system deadlocks in {len(sys_res.deadlocks)} state(s)")
    only_chor = report.chor_finals - report.sys_finals
    only_sys = report.sys_finals - report.chor_finals
    if only_chor:
        report.reasons.append(
            f"{len(only_chor)} final state(s) reachable only in the choreography")
    if only_sys:
        report.reasons.append(
            f"{len(only_sys)} final state(s) reachable only in the system")
    if report.reasons:
        report.verdict = "mismatch"
    return report


# --------------------------------------------------------------------------
# Invariant suite
# --------------------------------------------------------------------------

def invariant_suite(sys: CompositeSystem) -> list:
    """Structural invariants expected of every synthesized system.

    Includes all basic structure checks (one port per interaction, no
    location mixing outgoing sends and receives, dtype agreement, ...) plus
    synthesis-specific ones: exactly one marked end location per component
    and no transition leaving it. ``synthesis.synthesize`` checks every
    system it builds against them.
    """
    diags = check_structure(sys)
    for comp in sys.components:
        if comp.end is None:
            diags.append(Diagnostic(
                "no-end", f"{comp.id}: no end location marked"))
        elif any(t.src == comp.end for t in comp.transitions):
            diags.append(Diagnostic(
                "end-not-final",
                f"{comp.id}: end location {comp.end} has outgoing transitions"))
    return diags


# --------------------------------------------------------------------------
# Mutation operators
# --------------------------------------------------------------------------

def _replace_component(sys: CompositeSystem, comp: AtomicComponent,
                       **changes) -> CompositeSystem:
    new = replace(comp, **changes)
    return sys.derive(components=tuple(new if c.id == comp.id else c for c in sys.components))


def mutate_drop_eps(sys: CompositeSystem):
    """Remove one silent (epsilon) transition."""
    for comp in sys.components:
        for t in comp.transitions:
            if t.port is None:
                ts = tuple(x for x in comp.transitions if x != t)
                return _replace_component(sys, comp, transitions=ts)
    return None


def mutate_swap_break_guard(sys: CompositeSystem):
    """Swap the guards of a loop's break transition and its entry transition
    (they leave the same location with complementary guards)."""
    for comp in sys.components:
        for brk in comp.transitions:
            if brk.port is None or not brk.port.name.startswith("brk@"):
                continue
            if not brk.port.is_send and brk.port.ctype != "in":
                continue
            for entry in comp.outgoing(brk.src):
                if entry is brk:
                    continue
                ts = tuple(
                    replace(t, guard=entry.guard) if t == brk
                    else (replace(t, guard=brk.guard) if t == entry else t)
                    for t in comp.transitions
                )
                return _replace_component(sys, comp, transitions=ts)
    return None


def mutate_merge_port_copies(sys: CompositeSystem):
    """Merge two copies of the same send port: transitions that used the
    second copy are rewired to the first, while gamma keeps both."""
    for comp in sys.components:
        by_base = {}
        for p in comp.ports:
            if "#" not in p.name or not p.is_send:
                continue
            by_base.setdefault((p.name.split("#")[0], p.ctype), []).append(p)
        for copies in by_base.values():
            if len(copies) < 2:
                continue
            keep, drop = copies[0], copies[1]
            if not any(t.port == drop for t in comp.transitions):
                continue
            ts = tuple(
                replace(t, port=keep) if t.port == drop else t
                for t in comp.transitions
            )
            return _replace_component(sys, comp, transitions=ts)
    return None


def mutate_drop_interaction(sys: CompositeSystem):
    """Remove one interaction from gamma."""
    if not sys.gamma:
        return None
    return sys.derive(gamma=sys.gamma[1:])


def mutate_unmark_end(sys: CompositeSystem):
    """Forget the end marking of one component, so nothing terminates."""
    for comp in sys.components:
        if comp.end is not None:
            return _replace_component(sys, comp, end=None)
    return None


#: Name -> operator; each returns a mutated system or None if inapplicable.
MUTATIONS = {
    "drop-eps": mutate_drop_eps,
    "swap-break-guard": mutate_swap_break_guard,
    "merge-port-copies": mutate_merge_port_copies,
    "drop-interaction": mutate_drop_interaction,
    "unmark-end": mutate_unmark_end,
}

