"""Count the code lines of each module of a package.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the string that opens a module, class or function
body).  Blank lines, comment lines and docstring lines do not count, and an
import statement counts as one line however it is wrapped, so that the
figure tracks code rather than how an import list is laid out.

Usage::

    python tools/code_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/uamm_lab``.  The script prints one line
per module, largest first, then the total; it reports only and always
exits 0.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _import_continuations(tree: ast.AST) -> set[int]:
    """Every line of an import statement after its first."""
    return {n for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for n in range(node.lineno + 1, node.end_lineno + 1)}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(source)
    return len(lines - _docstring_lines(tree) - _import_continuations(tree))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0] if args else "src/uamm_lab")
    counts = {path.stem: code_lines(path.read_text())
              for path in sorted(package.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
