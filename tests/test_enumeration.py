"""Bounded-exhaustive choreographies: every small term over three components.

The terms are built as syntax trees, by size, over components A, B and C,
each with ``var x: int`` (initial 1, 2 and 3), ``var h: int = 0`` and
``var k: int = 0``, the ports ``s: ss``, ``a: as`` and ``r: r`` binding
``x``, and ``c: ss`` and ``d: as`` binding ``k``:

- size 1: the 18 communications. Each sender sends over ``s`` or ``a`` to
  each nonempty set of the others; the sender's update is ``x := x + 1``
  and each receiver's ``h := h * 3 + x``, so the order of deliveries shows
  in the finals;
- size 2: every ``;`` and ``||`` of two communications; every two-arm
  ``choice`` of them per master and pair of arm-port kinds, guarded by
  ``x < 3`` and ``x >= 2``; every ``while (M.c[k < 2, k := k + 1])`` or
  ``M.d`` loop over one. That is 3,672 terms.

Each term is printed with ``format_chor`` and parsed back, which must give
the very term, so ``parse`` after ``format_chor`` is checked too. The term
must be well-formed, and under each profile no component of its
synthesized system may have two silent transitions with the same source
and target, the system must pass the invariant suite, the equivalence
check must say ``equivalent``, and a simulation with a fixed seed must
complete at a final that, projected onto the user variables, is a final of
the choreography. Each ``verify.MUTATIONS`` mutant of the explored system,
which takes the positions the mutation leaves clean from it, must get the
very equivalence report, verdict and counts, of a cold rebuild of it. The
mutant's check reads the choreography side that the system's check kept
on the declarations; the cold rebuild is checked against fresh
declarations, so its choreography is explored cold too. With ``traces``,
the term's simulated traces at the default capacity and at
``max_chan_len=0`` must also be ``test_sim.reference_simulate``'s.

Tier-1 checks a fixed-seed sample of the size-2 terms, chosen without
looking at any outcome, and the mutants of the first ones picked. The whole
enumeration, mutants and traces included, with its counts per profile,
runs with ``PYTHONPATH=src python tests/test_enumeration.py``.
"""

import random
import sys
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

import pytest

from chorc.cbs import CompositeSystem
from chorc.core import BinOp, Lit, Ref, TRUE, Update
from chorc.lang import (
    Branch, Comm, GuardedSend, Loop, Par, Seq, check_well_formed, format_chor,
)
from chorc.parser import parse_source
from chorc.sim import simulate, trace_text
from chorc.synthesis import PROFILES, synthesize
from chorc.verify import MUTATIONS, equiv_check, invariant_suite, project, user_variables

COMPONENTS = ("A", "B", "C")

DECLS = "".join(f"""
comp {c} {{
  var x: int = {i};
  var h: int = 0;
  var k: int = 0;
  port s: ss of int binds x;
  port a: as of int binds x;
  port r: r of int binds x;
  port c: ss of int binds k;
  port d: as of int binds k;
}}""" for i, c in enumerate(COMPONENTS, 1))

#: The size-2 terms that tier-1 checks, and the seed that picks them.
SAMPLE, SEED = 800, 20

#: How many of those, the first ones picked, also have their mutants
#: checked against cold rebuilds.
MUTANT_SAMPLE = 120

#: The seed of each term's simulation.
SIM_SEED = 0


def declared_ports():
    """Each component's declared ports, by name."""
    decl, _, _ = parse_source(DECLS + "\nchoreography t = nil")
    return {c.id: {p.name: p for p in c.ports} for c in decl.components}


def assign(target, op, left, right):
    return Update(((target, BinOp(op, left, right)),))


def communications(ports):
    """The size-1 terms."""
    out = []
    for snd, kind in product(COMPONENTS, ("s", "a")):
        others = [c for c in COMPONENTS if c != snd]
        bump = assign(f"{snd}.x", "+", Ref(f"{snd}.x"), Lit(1))
        for n in (1, 2):
            for rcvs in combinations(others, n):
                out.append(Comm(GuardedSend(ports[snd][kind], TRUE, bump), tuple(
                    (ports[r]["r"], assign(f"{r}.h", "+",
                                           BinOp("*", Ref(f"{r}.h"), Lit(3)), Ref(f"{r}.x")))
                    for r in rcvs)))
    return out


def terms(ports, size):
    """Every term of ``size`` (1 or 2), in a fixed order."""
    comms = communications(ports)
    if size == 1:
        return comms
    out = [op(first, second) for op in (Seq, Par) for first, second in product(comms, comms)]
    for m in COMPONENTS:
        low = BinOp("<", Ref(f"{m}.x"), Lit(3))
        high = BinOp(">=", Ref(f"{m}.x"), Lit(2))
        for kinds in (("c", "c"), ("c", "d"), ("d", "d")):
            first, second = (ports[m][kind] for kind in kinds)
            out += [Branch(m, ((GuardedSend(first, low, Update()), one),
                               (GuardedSend(second, high, Update()), two)))
                    for one, two in product(comms, comms)]
    for m, kind in product(COMPONENTS, ("c", "d")):
        cond = GuardedSend(ports[m][kind], BinOp("<", Ref(f"{m}.k"), Lit(2)),
                           assign(f"{m}.k", "+", Ref(f"{m}.k"), Lit(1)))
        out += [Loop(cond, body) for body in comms]
    return out


def outcomes(term, mutants=False, traces=False):
    """The term's outcome under each profile, after the checks common to
    both: its text parses back to it and it is well-formed. The outcome is
    the equivalence verdict, unless the invariant suite finds something or
    the simulation does not complete at a final of the choreography, or,
    with ``mutants``, a ``verify.MUTATIONS`` mutant of the explored system,
    which takes positions from it, gets another equivalence report than a
    cold rebuild of the mutant checked against fresh declarations, or, with
    ``traces``, a simulated trace at the default capacity or at
    ``max_chan_len=0`` differs from the per-turn reference's."""
    decl, _, parsed = parse_source(DECLS + "\nchoreography t = " + format_chor(term))
    assert parsed is term, format_chor(term)
    errors = [d for d in check_well_formed(decl, term) if d.severity == "error"]
    assert not errors, (format_chor(term), errors)
    out = {}
    for profile in PROFILES:
        system = synthesize(decl, term, profile)
        silent = [(c.id, t.src, t.dst) for c in system.components
                  for t in c.transitions if t.port is None]
        assert len(silent) == len(set(silent)), (format_chor(term), profile)
        if invariant_suite(system):
            out[profile] = "invariant findings"
            continue
        report = equiv_check(decl, term, system)
        run = simulate(system, SIM_SEED)
        if run.outcome != "completed":
            out[profile] = f"simulation {run.outcome}"
        elif project(run.final.sigma, user_variables(decl)) not in report.chor_finals:
            out[profile] = "simulated final not a choreography final"
        else:
            out[profile] = report.verdict
        for kw in ({}, {"max_chan_len": 0}) if traces else ():
            from test_sim import reference_simulate  # test_sim imports this module
            if trace_text(simulate(system, SIM_SEED, **kw)) != trace_text(
                    reference_simulate(system, SIM_SEED, **kw)):
                out[profile] = f"simulated trace differs from the reference, {kw}"
        for name, mutate in MUTATIONS.items() if mutants else ():
            mutant = mutate(system)
            if mutant is not None and equiv_check(decl, term, mutant) != equiv_check(
                    replace(decl), term, CompositeSystem(mutant.components, mutant.gamma)):
                out[profile] = f"mutant {name} differs from a cold rebuild"
    return out


def test_sizes():
    ports = declared_ports()
    assert [len(terms(ports, size)) for size in (1, 2)] == [18, 3672]
    assert len(set(terms(ports, 2))) == 3672  # no two terms alike


def test_sample_of_size_two():
    ports = declared_ports()
    sample = random.Random(SEED).sample(terms(ports, 2), SAMPLE)
    bad = [(format_chor(term), found) for i, term in enumerate(sample)
           for found in [outcomes(term, mutants=i < MUTANT_SAMPLE)]
           if set(found.values()) != {"equivalent"}]
    assert not bad, f"{len(bad)} of {SAMPLE} terms, first: {bad[:3]}"


@pytest.mark.parametrize("text", [
    "A.a -> { B.r } ; B.s -> { C.r }",
    "A.a[true, x := x + 1] -> { B.r } ; A.s -> { B.r }",
    "A.a -> { B.r } || B.s -> { A.r }",
    "A.a -> { C.r } ; B.a -> { C.r }",
])
def test_receiver_acts_after_its_delivery(text):
    """The smallest mismatches under the rule that let a receiver act
    ahead of its pending delivery, and two asynchronous sends from
    different senders to one receiver, whose order of arrival shows in
    its ``x``."""
    _, _, term = parse_source(DECLS + "\nchoreography t = " + text)
    assert outcomes(term) == dict.fromkeys(PROFILES, "equivalent")


def main():
    ports = declared_ports()
    counts = {profile: Counter() for profile in PROFILES}
    for term in terms(ports, 2):
        for profile, verdict in outcomes(term, mutants=True, traces=True).items():
            counts[profile][verdict] += 1
    for profile, tally in counts.items():
        print(profile, " ".join(f"{v}={n}" for v, n in sorted(tally.items())))
    return 0 if all(set(tally) == {"equivalent"} for tally in counts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
