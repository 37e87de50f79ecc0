"""Statement coverage of the package under the Tier-1 suite, with no dependency
beyond pytest.

Run from the repository root:

    python tools/statement_coverage.py [pytest arguments]

It traces line events in ``src/dcasim`` frames with ``sys.settrace`` while
``pytest.main`` runs the suite in this process, then lists every statement
none of whose header lines ran (for a compound statement such as ``if``, the
lines before its body).  The body of ``if __name__ == "__main__":`` is
exempt.  It exits with pytest's code if a test fails, with 1 if a statement
never ran, and with 0 otherwise.  Tracing makes the suite several times
slower.
"""

import ast
import os
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "dcasim") + os.sep

hits = defaultdict(set)   # file -> executed line numbers


def _local(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(PACKAGE) else None


def _is_main_guard(node) -> bool:
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == "__name__")


def _statements(tree):
    """(first line, header lines) of every statement but docstrings and a ``__main__`` body."""
    for node in ast.walk(tree):
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if not isinstance(block, list) or (_is_main_guard(node) and name == "body"):
                continue
            for k, stmt in enumerate(block):
                if (k == 0 and name == "body" and isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    continue        # a docstring is not executed
                first = min([stmt.lineno] + [d.lineno for d in
                                             getattr(stmt, "decorator_list", [])])
                if isinstance(stmt, ast.If):
                    last = stmt.test.end_lineno
                elif isinstance(getattr(stmt, "body", None), list):
                    last = max(stmt.body[0].lineno - 1, stmt.lineno)
                else:
                    last = stmt.end_lineno
                yield first, range(first, last + 1)


def unexecuted():
    """``path:line`` of each package statement that never ran."""
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        missed += [f"{os.path.relpath(path, ROOT)}:{first}"
                   for first, header in sorted(_statements(tree), key=lambda s: s[0])
                   if not hits[path].intersection(header)]
    return missed


def main(argv) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    # set before pytest imports dcasim, so module-level statements are traced too
    sys.settrace(_global)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            *argv])
    finally:
        sys.settrace(None)
    if code != 0:
        print(f"the suite failed (pytest exit {code})", file=sys.stderr)
        return int(code)
    missed = unexecuted()
    for where in missed:
        print(f"never ran: {where}")
    print(f"{len(missed)} package statements never ran under the suite")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
