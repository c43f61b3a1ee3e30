"""Golden digests of every text the compiler emits on the corpus.

``golden/corpus_text.json`` records, for every corpus file, the exit code of
``chorc synth``, ``promela`` and ``ltl`` under each synthesis profile and of
``promela --paper-ack-encoding``, with the SHA-256 of each one's stdout and
of the ``--emit-dot`` file of ``synth``. ``explore`` and ``equiv`` are pinned
by ``golden/corpus_counts.json`` (see ``test_golden.py``). These outputs do
not depend on the hash seed.

Regenerate (only for an intended change of output) with
``PYTHONPATH=src python tests/test_golden_text.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from chorc.cli import main
from chorc.synthesis import PROFILES

from conftest import corpus_paths

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "corpus_text.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv) -> dict:
    """Exit code and stdout digest of one in-process ``chorc`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": sha256(out.getvalue())}


def corpus_text(path, tmp: str) -> dict:
    dot = os.path.join(tmp, "system.dot")
    out = {}
    for profile in PROFILES:
        out[f"synth {profile}"] = run(["synth", path, "--profile", profile,
                                       "--emit-dot", dot])
        with open(dot) as fh:
            out[f"synth {profile}"]["dot"] = sha256(fh.read())
        for command in ("promela", "ltl"):
            out[f"{command} {profile}"] = run([command, path, "--profile", profile])
    out["promela paper-ack"] = run(["promela", path, "--paper-ack-encoding"])
    return out


def all_text() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {os.path.basename(p): corpus_text(p, tmp) for p in corpus_paths()}


def test_corpus_text_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert all_text() == golden


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(all_text(), fh, indent=1, sort_keys=True)
        fh.write("\n")
