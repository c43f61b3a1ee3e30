"""Print the size of each module of ``src/chorc``: its physical lines and
its code lines, those that hold a token other than a comment, a docstring
or a line break, then the totals.

    python tests/code_lines.py
"""

import ast
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "chorc")

#: Tokens that make no line a code line.
SPACE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(path: str) -> tuple:
    """(physical lines, code lines) of the module at ``path``."""
    with open(path, "rb") as fh:
        source = fh.read()
    docs = docstring_lines(ast.parse(source))
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SPACE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count(b"\n"), len(code - docs)


def main() -> int:
    total = [0, 0]
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            lines, code = sizes(os.path.join(SRC, name))
            total[0] += lines
            total[1] += code
            print(f"{name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{total[0]:>8}{total[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
