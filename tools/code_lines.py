"""Code lines of the Python files under some directories.

Run from the repository root:

    python tools/code_lines.py [DIRECTORY ...]

A code line is a line that is not blank, not a comment alone and not inside a
docstring (the ``ast`` span of the string that opens a module, class or
function body).  It prints one ``N path`` line per ``.py`` file under the
given directories (default ``src/dcasim``), sorted by path, then ``N total``.
It only counts; it sets no threshold.  Standard library only.
"""

import ast
import os
import sys


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    skip = _docstring_lines(ast.parse(source, path))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if n not in skip and line.strip() and not line.lstrip().startswith("#"))


def main(argv) -> int:
    paths = sorted(os.path.join(root, name)
                   for directory in (argv or ["src/dcasim"])
                   for root, _, names in os.walk(directory)
                   for name in names if name.endswith(".py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
