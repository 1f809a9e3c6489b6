"""Function-body statements of ``src/eikograph`` that a pytest run never executes.

    python3 tools/uncovered.py [PYTEST ARGS...]

Runs pytest in this process with the given arguments (for example ``-q
tests``) under a ``sys.settrace`` tracer that records the lines run in the
package's files; frames of any other file are not traced line by line.
Then prints every statement inside a function body, docstrings excluded,
of which no line ran, as ``path:line: source``, in file and line order,
and last the count.  A compound statement (``if``, ``for``, ``try``, ...)
counts as run when a line of its header ran; its body's statements are
judged one by one.  The reduction kernel's template,
``hamiltonians._KERNEL_SOURCE``, is judged too, at its lines in
``hamiltonians.py``: the generic kernels compiled from it under their own
file name run its lines one for one, so their lines count.  Other code
compiled from strings, the inlined kernels among it, and code run in
subprocesses the tests start, is not seen.  Exits with pytest's exit code.
Standard library plus pytest.  The tier-1 suite took 90 s under it against
53 s without (2-core x86-64, Python 3.11.7).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Callable, Collection

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eikograph"
# hamiltonians compiles _GENERIC and _GENERIC_CAUSAL from _KERNEL_SOURCE under this name
KERNEL = ("hamiltonians.py", "_KERNEL_SOURCE", "<generic hamiltonian kernel>")


def statements(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement inside a function body of
    ``source``, in line order; a compound statement's range is its header,
    up to the line before its first body statement.  A function's
    docstring is no statement; a nested ``def`` or ``class`` line is one,
    and a nested function's body is judged as its own."""
    spans = []

    def body(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            blocks = [b for b in (getattr(stmt, k, None) for k in ("body", "orelse", "finalbody")) if b]
            blocks += [h.body for h in getattr(stmt, "handlers", ())]
            blocks += [c.body for c in getattr(stmt, "cases", ())]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                spans.append((stmt.lineno, stmt.lineno))
            elif blocks:
                first = min(s.lineno for b in blocks for s in b)
                spans.append((stmt.lineno, max(stmt.lineno, first - 1)))
                for b in blocks:
                    body(b)
            else:
                spans.append((stmt.lineno, stmt.end_lineno))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stmts = node.body
            if isinstance(stmts[0], ast.Expr) and isinstance(stmts[0].value, ast.Constant) \
                    and isinstance(stmts[0].value.value, str):
                stmts = stmts[1:]
            body(stmts)
    return sorted(spans)


def uncovered(source: str, executed: set[int]) -> list[int]:
    """First lines of the statements of ``source`` of which no line is in ``executed``."""
    return [first for first, last in statements(source)
            if not any(line in executed for line in range(first, last + 1))]


def report(label: str, source: str, executed: set[int]) -> list[str]:
    """``label:line: source`` for each statement :func:`uncovered` finds."""
    text = source.splitlines()
    return [f"{label}:{line}: {text[line - 1].strip()}" for line in uncovered(source, executed)]


def template(source: str, name: str) -> tuple[int, str]:
    """The module-level string assigned to ``name`` in ``source``: its first
    line in ``source``, and its text padded with newlines so that each of its
    lines keeps its line number in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name] \
                and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            return node.value.lineno, "\n" * (node.value.lineno - 1) + node.value.value
    raise LookupError(f"no module-level string {name}")


def trace_lines(prefix: str, run: Callable[[], object],
                names: Collection[str] = ()) -> tuple[object, dict[str, set[int]]]:
    """``run()``'s result and the lines it ran, by absolute file path, in
    files under ``prefix``, and by file name in code compiled under one of
    ``names``, on this thread and threads started meanwhile.  The trace
    functions set before are set again afterwards."""
    executed: dict[str, set[int]] = {}
    tracers: dict[str, Callable | None] = {}  # by co_filename: the file's line tracer, or None

    def tracer(lines: set[int]) -> Callable:
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = name if name in names else os.path.abspath(name)
            tracers[name] = tracer(executed.setdefault(path, set())) \
                if name in names or path.startswith(prefix) else None
        return tracers[name]

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, executed


def main(argv: list[str]) -> int:
    import pytest

    module, name, filename = KERNEL
    code, executed = trace_lines(str(PACKAGE) + os.sep, lambda: pytest.main(argv), {filename})
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        label, source = str(path.relative_to(ROOT)), path.read_text()
        lines = report(label, source, executed.get(str(path), set()))
        if path.name == module:  # the template's line k is the kernel's line k
            first, text = template(source, name)
            lines += report(label, text, {first - 1 + k for k in executed.get(filename, ())})
            lines.sort(key=lambda line: int(line.split(":")[1]))
        for line in lines:
            print(line)
        count += len(lines)
    print(f"{count} function-body statements never executed")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
