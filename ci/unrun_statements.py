"""List the statements of src/quasiprime that no tier-1 test runs in process.

Runs the tier-1 suite (tests/) in this process under sys.settrace, then
checks each statement of src/quasiprime, as ast parses it, against the lines
that ran.  A statement counts as run when a line of its own ran: its lines
for a simple statement, its decorators and header for a compound one.
Docstrings, `global` statements and `try` (whose header compiles to no code)
are left out.  The statements that only a child process runs are listed in
CHILD_ONLY, each with the test that runs it there.  Run from anywhere, with
the test dependencies installed:

    python ci/unrun_statements.py

It exits 1 when the tests fail, when a statement outside CHILD_ONLY goes
unrun, or when an entry of CHILD_ONLY now runs in process or names no
statement.  Tracing makes tier-1 about 2.5 times slower.  pytest does not
collect this file: tier-1 collects only tests/.
"""

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quasiprime"

CLOSED_STDOUT = "tests/test_shell.py::TestUsageAndCaps::test_a_closed_stdout_exits_141_quietly"

# (module, statement's source) -> the test that runs it in a fresh process
CHILD_ONLY = {
    ("__main__.py", "import sys"): CLOSED_STDOUT,
    ("__main__.py", "from .shell import main"): CLOSED_STDOUT,
    ("__main__.py", "sys.exit(main())"): CLOSED_STDOUT,
    ("shell.py", "argv = sys.argv[1:]"): CLOSED_STDOUT,
    ("shell.py", "devnull = os.open(os.devnull, os.O_WRONLY)"): CLOSED_STDOUT,
    ("shell.py", "os.dup2(devnull, sys.stdout.fileno())"): CLOSED_STDOUT,
    ("shell.py", "os.close(devnull)"): CLOSED_STDOUT,
    ("shell.py", "return 141"): CLOSED_STDOUT,
}


def own_lines(node: ast.stmt) -> range:
    """The lines whose code is node's own, not that of a statement in it."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def statements(source: str):
    """Each statement of source that compiles to code of its own, in line order."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    return sorted((node for node in ast.walk(tree) if isinstance(node, ast.stmt) and node not in docstrings
                   and not isinstance(node, (ast.Global, ast.Nonlocal, ast.Try))), key=lambda node: node.lineno)


def run_tier_1() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit code, and the lines of each package file that ran."""
    ran: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, str | None] = {}  # a code object's file name -> its package file, if any

    def lines(frame, event, arg):
        if event == "line":
            ran[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = Path(os.path.realpath(name))
            ours[name] = path.name if path.parent == PACKAGE else None
        return lines if ours[name] else None

    # A test that sets a trace function of its own (rho's constant is read
    # off its frame so) gets it run beside this one, not in its place.
    settrace = sys.settrace

    def beside(theirs):
        settrace(calls if theirs in (None, calls) else both(calls, theirs))

    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    settrace(calls)
    sys.settrace = beside
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace = settrace
        settrace(None)
    return int(code), ran


def both(first, second):
    """A trace function that runs first and second, each as if it ran alone."""

    def trace(frame, event, arg):
        a, b = first(frame, event, arg), second(frame, event, arg)
        return both(a, b) if a and b else a or b

    return trace


def main() -> int:
    code, ran = run_tier_1()
    unlisted, listed = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in statements(source):
            if ran[path.name].isdisjoint(own_lines(node)):
                text = ast.get_source_segment(source, node).partition("\n")[0]
                if (path.name, text) in CHILD_ONLY:
                    listed.add((path.name, text))
                else:
                    unlisted.append(f"{path.relative_to(ROOT)}:{node.lineno}: {text}")
    stale = sorted(set(CHILD_ONLY) - listed)
    print(f"\n{len(listed)} statements run only in a child process, as listed")
    for line in unlisted:
        print(f"unrun: {line}")
    for name, text in stale:
        print(f"listed but run in process, or not found: {name}: {text}")
    if code:
        print(f"the tests failed (exit {code})")
    return 1 if code or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
