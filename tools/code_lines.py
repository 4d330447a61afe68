"""Count the code lines of the ``frobcoord`` package, module by module.

A code line holds at least one token that is neither a comment nor part
of a docstring: a statement that is a string literal alone, such as the
one that opens a module, class or function body, or one documenting an
attribute.  Blank lines do not count.  A token spanning several lines,
such as a multi-line string, counts every line it spans.

Run from the repository root::

    python tools/code_lines.py            # src/frobcoord
    python tools/code_lines.py some/dir   # any directory of modules
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else \
        Path(__file__).resolve().parent.parent / "src" / "frobcoord"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
