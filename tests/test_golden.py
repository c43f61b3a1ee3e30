"""Golden counts that pin the explorers' and the simulator's behaviour.

``golden/corpus_counts.json`` records, for every corpus file, the
configurations, final valuations, deadlocks and rules seen of the
choreography explorer and the SHA-256 of its ``lts_to_dot`` text, and under
each synthesis profile the states, terminals, deadlocks and rules seen of the
system explorer plus the SHA-256 of the simulation trace for seeds 0 and 1.
A change to the state representation or to the explorer must leave all of
them unchanged. The DOT text draws states in the explorer's numbering,
which follows the successor functions, so its digest does not depend on
the hash seed.

Regenerate (only for an intended change of behaviour) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os

from chorc.cbs import sys_explore
from chorc.chorsem import explore, lts_to_dot
from chorc.sim import simulate, trace_text
from chorc.synthesis import PROFILES, synthesize

from conftest import corpus_paths, load

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "corpus_counts.json")
SIM_SEEDS = (0, 1)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_counts(path) -> dict:
    decl, _, ch = load(path)
    chor = explore(ch, decl.initial_valuation())
    out = {"chor": {"configs": len(chor.graph), "finals": len(chor.finals),
                    "deadlocks": len(chor.deadlocks),
                    "rules": sorted(chor.rules_seen),
                    "dot": sha256(lts_to_dot(chor))}}
    for profile in PROFILES:
        system = synthesize(decl, ch, profile)
        res = sys_explore(system)
        out[profile] = {
            "states": len(res.graph), "terminals": len(res.terminals),
            "deadlocks": len(res.deadlocks), "rules": sorted(res.rules_seen),
            "traces": [sha256(trace_text(simulate(system, seed)))
                       for seed in SIM_SEEDS],
        }
    return out


def all_counts() -> dict:
    return {os.path.basename(p): corpus_counts(p) for p in corpus_paths()}


def test_corpus_counts_match_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert all_counts() == golden


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(all_counts(), fh, indent=1, sort_keys=True)
        fh.write("\n")
