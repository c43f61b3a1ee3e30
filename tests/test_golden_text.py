"""Golden digests of every text the compiler emits on the corpus.

``golden/corpus_text.json`` records, for every corpus file, the exit code
and the SHA-256 of stdout and of stderr of ``chorc check``, of ``explore
--dump-lts`` with the digest of its DOT file, under each synthesis profile
of ``synth --emit-dot`` with the digest of its DOT file, ``equiv``,
``promela``, ``ltl`` and ``simulate --seed 3 --trace`` with the digest of
its trace file, and of ``promela --paper-ack-encoding``. Each file is named
relative to the repository root, as ``check`` prints it. The explorers'
counts are pinned by ``golden/corpus_counts.json`` too (see
``test_golden.py``). These outputs do not depend on the hash seed.

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

from conftest import ROOT, corpus_paths

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "corpus_text.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv, written=None) -> dict:
    """Exit code and stdout and stderr digests of one in-process ``chorc``
    run, and under ``written`` the digest of the file it writes there."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    pinned = {"exit": code, "stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue())}
    if written is not None:
        key, path = written
        with open(path) as fh:
            pinned[key] = sha256(fh.read())
        os.remove(path)
    return pinned


def corpus_text(path, tmp: str) -> dict:
    dot, trace = os.path.join(tmp, "out.dot"), os.path.join(tmp, "trace.txt")
    out = {"check": run(["check", path]),
           "explore": run(["explore", path, "--dump-lts", dot], ("lts", dot))}
    for profile in PROFILES:
        out[f"synth {profile}"] = run(["synth", path, "--profile", profile, "--emit-dot", dot],
                                      ("dot", dot))
        for command in ("equiv", "promela", "ltl"):
            out[f"{command} {profile}"] = run([command, path, "--profile", profile])
        out[f"simulate {profile}"] = run(["simulate", path, "--profile", profile, "--seed", "3",
                                          "--trace", trace], ("trace", trace))
    out["promela paper-ack"] = run(["promela", path, "--paper-ack-encoding"])
    return out


def all_text() -> dict:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            return {os.path.basename(p): corpus_text(os.path.relpath(p), tmp)
                    for p in corpus_paths()}
    finally:
        os.chdir(cwd)


def test_corpus_text_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert all_text() == golden


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(all_text(), fh, indent=1, sort_keys=True)
        fh.write("\n")
