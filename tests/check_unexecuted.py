"""Check the statements of ``src/chorc`` that tier-1 leaves unexecuted
against the list of those it may leave, ``tests/unexecuted.json``.

Run tier-1 under the standard library's line tracer first, then this
script on the directory it wrote:

    PYTHONPATH=src python -m trace --count --missing --coverdir COVER \\
        --ignore-dir "$(python -c 'import sys; print(sys.prefix)')" \\
        --ignore-dir "$(python -c 'import sys; print(sys.base_prefix)')" \\
        --module pytest -q
    python tests/check_unexecuted.py COVER

Each ``>>>>>>`` line of a ``chorc.*.cover`` file is one unexecuted line of
a statement. The list keys each such line by its module and its text,
stripped, never by its number, so an edit elsewhere in the module leaves
it valid; a text that occurs on several unexecuted lines of a module is
listed once per line. The script fails, naming each one, on an unexecuted
line that the list does not hold and on a listed line that now runs, so
the list can only be kept exact. The tracer's line tables depend on the
Python version; the list is kept for Python 3.11.
"""

import collections
import glob
import json
import os
import sys

LIST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "unexecuted.json")
MARK = ">>>>>> "


def unexecuted(coverdir: str) -> collections.Counter:
    """(module, stripped text) of each unexecuted line, with its count."""
    found = collections.Counter()
    paths = glob.glob(os.path.join(coverdir, "chorc.*.cover"))
    if not paths:
        sys.exit(f"no chorc.*.cover file in {coverdir}")
    for path in paths:
        module = os.path.basename(path)[len("chorc."):-len(".cover")]
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(MARK):
                    found[module, line[len(MARK):].strip()] += 1
    return found


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(LIST, encoding="utf-8") as fh:
        entries = json.load(fh)
    missing = [e for e in entries if not e.get("reason")]
    if missing:
        sys.exit(f"{LIST}: entries without a reason: {missing}")
    listed = collections.Counter((e["module"], e["statement"]) for e in entries)
    found = unexecuted(argv[1])
    unlisted, runs = found - listed, listed - found
    for (module, text), n in sorted(unlisted.items()):
        print(f"unexecuted and not listed ({n}x): {module}: {text}")
    for (module, text), n in sorted(runs.items()):
        print(f"listed but executed ({n}x): {module}: {text}")
    print(f"{sum(found.values())} unexecuted line(s), {len(entries)} listed")
    return 1 if unlisted or runs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
