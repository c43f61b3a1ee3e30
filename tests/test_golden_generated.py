"""Golden digests of the Promela and LTL text of the benchmark's generated
inputs, which are larger than any corpus file.

``golden/generated_promela.json`` records, for ``perfbench/gen.py``'s
interleave and longchain at seeds 0 and 1 under each synthesis profile, the
SHA-256 of ``generate_promela``'s text under the default options,
``paper_ack`` and ``inline_ltl``, and of ``format_ltl(ltl_templates(...))``.

Regenerate (only for an intended change of output) with
``PYTHONPATH=src python tests/test_golden_generated.py``.
"""

import hashlib
import json
import os

from chorc.parser import parse_source
from chorc.promela import PromelaOptions, format_ltl, generate_promela, ltl_templates
from chorc.synthesis import PROFILES, synthesize

from conftest import generated

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "generated_promela.json")

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


def test_generated_text_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert generated_text() == golden


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(generated_text(), fh, indent=1, sort_keys=True)
        fh.write("\n")
