"""Count the code lines of src/spindtc, one count per file and a total,
then the total of tests/ by the same rule, so that code moved from src into
the tests shows.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT (ENCODING and ENDMARKER are skipped too), and the lines of
module, class and function docstrings are excluded.

Run from anywhere: python3 tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "spindtc"
TESTS = ROOT / "tests"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docstrings = _docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:24s} {count:5d}")
    print(f"{'total':24s} {total:5d}")
    tests = sum(code_lines(path.read_text()) for path in TESTS.glob("*.py"))
    print(f"{'tests total':24s} {tests:5d}")


if __name__ == "__main__":
    main()
