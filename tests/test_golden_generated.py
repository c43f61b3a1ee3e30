"""Golden digests of the Promela and LTL text of the benchmark's generated
inputs, which are larger than any corpus file.

``golden/generated_promela.json`` records, for ``perfbench/gen.py``'s
interleave and longchain at seeds 0 and 1 under each synthesis profile, the
SHA-256 of ``generate_promela``'s text under the default options,
``paper_ack`` and ``inline_ltl``, and of ``format_ltl(ltl_templates(...))``.

``golden/depth2_promela.json`` records one SHA-256 over the
``generate_promela`` texts of ``tests/test_enumeration.py``'s fixed sample
of size-2 terms, each synthesized under each profile, with the default
options and with ``paper_ack`` and ``inline_ltl`` together. The sample
holds every kind of term, so the digest pins the emitter on more shapes of
location and transition than the corpus and the generated inputs have.

Regenerate both (only for an intended change of output) with
``PYTHONPATH=src python tests/test_golden_generated.py``.
"""

import hashlib
import json
import os
import random

from chorc.parser import parse_source
from chorc.promela import PromelaOptions, format_ltl, generate_promela, ltl_templates
from chorc.synthesis import PROFILES, synthesize

from conftest import generated
from test_enumeration import DECLS, SAMPLE, SEED, declared_ports, terms

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "generated_promela.json")
DEPTH2_GOLDEN = os.path.join(GOLDEN_DIR, "depth2_promela.json")

OPTIONS = {"default": PromelaOptions(), "paper_ack": PromelaOptions(paper_ack=True),
           "inline_ltl": PromelaOptions(inline_ltl=True)}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def generated_text() -> dict:
    out = {}
    for name in ("interleave", "longchain"):
        for seed in (0, 1):
            decl, _, ch = parse_source(generated(name, seed))
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                digests = {opts: sha256(generate_promela(sys, OPTIONS[opts]).text)
                           for opts in OPTIONS}
                digests["ltl"] = sha256(format_ltl(ltl_templates(sys)))
                out[f"{name} {seed} {profile}"] = digests
    return out


def depth2_digest() -> dict:
    decl, _, _ = parse_source(DECLS + "\nchoreography t = nil")
    digest = hashlib.sha256()
    sample = random.Random(SEED).sample(terms(declared_ports(), 2), SAMPLE)
    for term in sample:
        for profile in PROFILES:
            sys = synthesize(decl, term, profile)
            for opts in (PromelaOptions(), PromelaOptions(paper_ack=True, inline_ltl=True)):
                digest.update(generate_promela(sys, opts).text.encode())
    return {"terms": len(sample), "sha256": digest.hexdigest()}


def test_generated_text_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert generated_text() == golden


def test_depth2_text_matches_golden():
    with open(DEPTH2_GOLDEN) as fh:
        golden = json.load(fh)
    assert depth2_digest() == golden


if __name__ == "__main__":
    for path, make in ((GOLDEN, generated_text), (DEPTH2_GOLDEN, depth2_digest)):
        with open(path, "w") as fh:
            json.dump(make(), fh, indent=1, sort_keys=True)
            fh.write("\n")
