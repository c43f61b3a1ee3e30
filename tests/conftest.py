import glob
import importlib.util
import os
import sys

import pytest

from chorc.core import find_queue
from chorc.parser import parse_source

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")

#: The choreography semantics' rule names, as the paper gives them: a frozen
#: copy that the rules an exploration reports are checked against.
CHOR_RULES = (
    "nil",
    "synch-sendrcv",
    "asynch-sendrcv-1",
    "asynch-sendrcv-2",
    "master-branching",
    "iterative-tt",
    "iterative-ff",
    "sequential-1",
    "sequential-2",
    "parallel-1",
    "parallel-2",
    "parallel-3",
    "parallel-4",
)


def corpus_paths():
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.chor")))
    assert paths, "corpus directory is empty"
    return paths


def corpus_path(stem):
    """Resolve a corpus file by its numeric-prefix-free stem, e.g. 'buying'."""
    for path in corpus_paths():
        base = os.path.basename(path)
        if base.split("_", 1)[-1] == stem + ".chor":
            return path
    raise FileNotFoundError(stem)


def generated(name, seed):
    """A generated benchmark input, from ``perfbench/gen.py`` as it is."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    gen = sys.modules.get(spec.name)
    if gen is None:
        gen = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = gen  # dataclasses look their module up
        spec.loader.exec_module(gen)
    return gen.GENERATORS[name](seed).text


def evaluate(expr, v):
    """Evaluate an expression against a valuation, by its compiled closure."""
    return expr.compiled(v)


def apply_update(f, v):
    """Apply an update's assignments left to right, each right-hand side
    seeing the latest bindings, by its compiled closure."""
    return f.compiled(v)


def buffer(state, pid):
    """The FIFO buffer of receive port ``pid`` in a system state."""
    return find_queue(state.buffers, pid)[1]


def load(path):
    with open(path) as fh:
        return parse_source(fh.read())


def load_stem(stem):
    return load(corpus_path(stem))


@pytest.fixture(scope="session")
def corpus():
    """All corpus programs, parsed once: list of (path, decl, name, chor)."""
    out = []
    for path in corpus_paths():
        decl, name, ch = load(path)
        out.append((path, decl, name, ch))
    return out
