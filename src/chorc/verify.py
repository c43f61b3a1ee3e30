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

The system side is explored once per check. Both sides are summed up from
their groups, which move apart from each other, by one function,
``_grouped``: on the system side the groups of components that no
interaction joins (``cbs``'s ``CompositeSystem._groups``), on the
choreography side the ``operands`` of the term's top-level chain of
``||``s with no component in common. Each group is explored once, from
the initial state, and the reachable states are the product of the
groups', so ``chor_states`` and ``sys_states`` are the product of the
groups' counts, a state is stuck when every group's part is, and a final
is one final of each group, each projected on the keys its components
hold. A key that no group holds never moves, so it is read off the first
group's finals, and where the product has no terminal state no final is
read, as the whole's projection reads none. Where one exploration of the
whole could tell otherwise, the whole is explored with the caller's
limits, so every count, final, verdict and error is the one that
exploration gives: one group, or a group whose exploration raises or is
truncated within what the groups before it leave of the limits (the
product's states are the product of the groups', its depth the sum).
The choreography side reads one more such case off the term before it
groups: two operands that can stand at a term with no participants, such
as ``nil`` (``lang.Shape.idles``), which the whole can merge. Each side
is summed up in one record, ``_Side``.

The module also carries the structural invariant suite and a small set of
mutation operators used to validate that the checker actually has teeth. A
mutant is derived from its system (``CompositeSystem.derive``), so once the
system has been explored the mutant shares its compiled positions and warm
caches, and builds only those the mutation touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from .core import EvalError, Exploration, Valuation
from .chorsem import explore
from .cbs import (
    AtomicComponent, CompositeSystem,
    check_structure, sys_explore,
)
from .lang import Chor, Diagnostic, Par, SystemDecl, shape, shared


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
class _Side:
    """What ``equiv_check`` reads of one side's exploration."""
    keys: tuple         # the projection keys, ``user_variables``
    states: int         # expanded configurations or states, ``*_states``
    finals: frozenset   # projected final valuations
    deadlocks: int
    truncated: bool


def _summary(res: Exploration, keys: tuple) -> _Side:
    return _Side(keys, len(res.ends), frozenset([project(s, keys) for s in res.finals]),
                 len(res.deadlocks), res.truncated)


def operands(term: Chor) -> tuple:
    """The operands of ``term``'s top-level chain of independent ``||``s
    (``lang.shared`` is empty), left to right; any other term is one
    operand. Worked out on first use, then kept on the term."""
    out = getattr(term, "_operands", None)
    if out is None:
        out = (operands(term.left) + operands(term.right)
               if isinstance(term, Par) and not shared(term) else (term,))
        object.__setattr__(term, "_operands", out)
    return out


def _chor_side(decl: SystemDecl, ch: Chor, max_configs: int, max_depth: int) -> _Side:
    """The choreography side of ``equiv_check`` under these limits, summed
    up from its ``operands`` (``_grouped``) on the first call for ``decl``
    and kept on it (``SystemDecl._chor_sides``). The explorations are
    dropped on return; one that raises keeps nothing.

    The operands are handed to ``_grouped`` only if fewer than two of them
    can stand, not yet ended, at a term with no participants
    (``Shape.idles``), as a choice's ``nil`` arm. With two, the whole's
    configuration with one at ``nil`` and the other ended can be the one
    with the roles swapped, so the product would count it twice
    (``05_branch_two`` beside a renamed copy: 24 configurations, not
    5 x 5), and the whole term is explored instead. With at most one, the
    operands that have not ended are those whose components the term
    names, so the whole's configurations are one to one with the
    product."""
    memo, key = decl._chor_sides, (ch, max_configs, max_depth)
    side = memo.get(key)
    if side is None:
        sigma0 = decl.initial_valuation()
        ops = operands(ch) if sum(shape(t).idles for t in operands(ch)) < 2 else ()
        groups = [({var.qname for c in decl.components if c.id in shape(t).participants
                    for var, _ in c.vars},
                   lambda *limits, t=t: explore(t, sigma0, *limits))
                  for t in ops]
        side = memo[key] = _grouped(user_variables(decl), groups,
                                    lambda *limits: explore(ch, sigma0, *limits),
                                    max_configs, max_depth)
    return side


def _sys_side(sys: CompositeSystem, keys: tuple, max_configs: int, max_depth: int) -> _Side:
    """The system side of ``equiv_check`` under these limits, summed up
    from its groups, ``sys._groups`` (``_grouped``)."""
    groups = [({var.qname for i in cis for var, _ in sys.components[i].vars},
               lambda *limits, cis=cis: sys_explore(sys, *limits, cis=cis))
              for cis in sys._groups]
    return _grouped(keys, groups, lambda *limits: sys_explore(sys, *limits),
                    max_configs, max_depth)


def _grouped(keys: tuple, groups: list, whole, max_configs: int, max_depth: int) -> _Side:
    """One side of ``equiv_check`` under these limits, from ``groups`` that
    move apart from each other: per group, the variables it holds and a
    function of (max_configs, max_depth) that explores it from the initial
    state. The reachable states of the whole are the product of the
    groups', its stuck states the product of theirs, its terminals too,
    and its finals each combination of the groups' finals over the keys
    each group holds, the first group's with the keys that no group holds,
    which never move; with no terminal state it reads no finals, so an
    unbound key raises exactly where the whole's projection does. Its
    breadth-first depth is the sum of theirs. Each group is explored within
    what the groups before it leave of the limits: ``max_configs`` over
    the product of their states, ``max_depth`` less the sum of their
    depths. The side is summed up instead from ``whole``, one exploration
    of the whole under the caller's limits, where there are fewer than two
    groups or where that exploration could tell otherwise: a group's
    exploration raises (another group's error may come first in the
    whole's order; a key declared twice is refused by every group) or is
    truncated, so that the product would be too.
    It reads nothing but the explorations, the same on both sides: where
    the groups' product is not the whole's state space, as for two
    choreography operands that can idle (see ``_chor_side``), the caller
    hands over no groups."""
    own = [[k for k in keys if k in names] for names, _ in groups]
    if own:  # a key that no group holds never moves: the first group's finals hold it
        held = set().union(*own)
        own[0] += [k for k in keys if k not in held]
    runs, states, depth = [], 1, 0
    for _, run in groups if len(groups) > 1 else ():
        try:
            res = run(max_configs // states, max_depth - depth)
        except EvalError:
            break
        if res.truncated:
            break
        states, depth = states * len(res.states), depth + res.levels - 1
        runs.append(res)
    if not runs or len(runs) < len(groups):
        return _summary(whole(max_configs, max_depth), keys)
    stuck = terminals = 1
    for res in runs:
        stuck *= len(res.terminals) + len(res.deadlocks)
        terminals *= len(res.terminals)
    finals = frozenset()
    if terminals:
        at = {k: n for n, k in enumerate(k for ks in own for k in ks)}
        order = [at[k] for k in keys]
        per_group = [{project(s, ks) for s in res.finals} for res, ks in zip(runs, own)]
        finals = frozenset([tuple([row[n] for n in order])
                            for row in (sum(combo, ()) for combo in product(*per_group))])
    return _Side(keys, states, finals, stuck - terminals, False)


def equiv_check(decl: SystemDecl, ch: Chor, sys: CompositeSystem,
                max_configs: int = 200_000, max_depth: int = 10_000) -> EquivReport:
    """Compare ``sys`` with ``ch`` under ``decl`` (see the module docstring).
    The choreography is explored on the first check of ``ch`` under these
    limits against this ``decl`` object, and read back on every later one."""
    chor = _chor_side(decl, ch, max_configs, max_depth)
    side = _sys_side(sys, chor.keys, max_configs, max_depth)
    report = EquivReport(
        verdict="equivalent",
        chor_states=chor.states,
        sys_states=side.states,
        chor_finals=set(chor.finals),
        sys_finals=set(side.finals),
        chor_deadlocks=chor.deadlocks,
        sys_deadlocks=side.deadlocks,
    )
    if chor.truncated or side.truncated:
        report.verdict = "inconclusive"
        report.reasons.append("state-space exploration truncated by limits")
        return report
    if chor.deadlocks:
        report.reasons.append(
            f"choreography deadlocks in {chor.deadlocks} configuration(s)")
    if side.deadlocks:
        report.reasons.append(
            f"system deadlocks in {side.deadlocks} state(s)")
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

