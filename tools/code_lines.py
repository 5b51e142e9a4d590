"""Count the code lines of each module of the entwit package.

A code line is a physical line that holds part of a statement: blank
lines, comment lines and the lines of module, class and function
docstrings are not counted. Standard library only.

    python3 tools/code_lines.py

Counts src/entwit under the repository root, the parent of tools/, and
prints one "module count" line per module, largest first, then the total.
"""

import ast
import io
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pkg = os.path.join(root, "src", "entwit")
    counts = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                counts[name[:-3]] = code_lines(fh.read())
    for mod, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{mod} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
