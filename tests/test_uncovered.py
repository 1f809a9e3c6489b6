"""The statement finder, report and tracer of tools/uncovered.py, on small
source strings."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "uncovered", Path(__file__).resolve().parents[1] / "tools" / "uncovered.py")
uncovered = importlib.util.module_from_spec(spec)
spec.loader.exec_module(uncovered)

SOURCE = '''\
TOP = 1


def f(x):
    """Docstring, no statement."""
    try:
        y = 1
    except ValueError:
        y = 2
    if x:
        pass
    elif x is None:
        return 0
    total = (
        x
        + y
    )

    def inner():
        return 1

    return [
        total,
    ]


class K:
    a = 1

    def method(self):
        """Docstring."""
        return self.a
'''


def test_statements_are_function_body_lines_with_header_spans():
    assert uncovered.statements(SOURCE) == [
        (6, 6), (7, 7), (9, 9), (10, 10), (11, 11), (12, 12), (13, 13),
        (14, 17), (19, 19), (20, 20), (22, 24), (32, 32),
    ]


def test_a_compound_header_spans_up_to_its_first_body_line():
    source = "def g(a,\n      b):\n    if (a and\n            b):\n        return 1\n    return 2\n"
    assert uncovered.statements(source) == [(3, 4), (5, 5), (6, 6)]


def test_a_statement_runs_when_any_of_its_lines_ran():
    executed = {6, 7, 10, 11, 16, 19, 23}
    assert uncovered.uncovered(SOURCE, executed) == [9, 12, 13, 20, 32]


def test_report_prints_path_line_and_stripped_source():
    assert uncovered.report("src/m.py", SOURCE, {6, 7, 10, 11, 16, 19, 23}) == [
        "src/m.py:9: y = 2",
        "src/m.py:12: elif x is None:",
        "src/m.py:13: return 0",
        "src/m.py:20: return 1",
        "src/m.py:32: return self.a",
    ]


def test_tracer_records_lines_under_the_prefix_only(tmp_path):
    path = str(tmp_path / "m.py")
    scope: dict = {}
    exec(compile(SOURCE, path, "exec"), scope)
    before = sys.gettrace()
    result, executed = uncovered.trace_lines(str(tmp_path), lambda: scope["f"](1))
    assert sys.gettrace() is before
    assert result == [2]
    assert list(executed) == [path]
    assert uncovered.uncovered(SOURCE, executed[path]) == [9, 12, 13, 20, 32]
    _, elsewhere = uncovered.trace_lines(str(tmp_path / "other"), lambda: scope["f"](0))
    assert elsewhere == {}


MODULE = '''\
X = 1
T = """
def k(a):
    if a:
        return 1
    return 2
"""
'''


def test_template_keeps_the_line_numbers_of_its_module():
    first, text = uncovered.template(MODULE, "T")
    assert first == 2
    assert text.splitlines()[2:6] == MODULE.splitlines()[2:6]
    assert uncovered.statements(text) == [(4, 4), (5, 5), (6, 6)]


def test_tracer_records_code_compiled_under_a_given_name(tmp_path):
    first, text = uncovered.template(MODULE, "T")
    scope: dict = {}
    exec(compile(text[first - 1:], "<k>", "exec"), scope)  # T's own text: its line 1 is empty
    result, executed = uncovered.trace_lines(str(tmp_path), lambda: scope["k"](0), {"<k>"})
    assert result == 2
    assert executed == {"<k>": {3, 5}}
    ran = {first - 1 + line for line in executed["<k>"]}
    assert uncovered.report("m.py", text, ran) == ["m.py:5: return 1"]


def test_the_generic_kernels_run_the_template_line_for_line():
    from eikograph import hamiltonians

    module, name, filename = uncovered.KERNEL
    path = Path(hamiltonians.__file__)
    first, _ = uncovered.template(path.read_text(), name)
    lines = path.read_text().splitlines()
    assert path.name == module
    for kernel in (hamiltonians._GENERIC, hamiltonians._GENERIC_CAUSAL):
        code = kernel.__code__
        assert code.co_filename == filename
        ran = [first - 1 + line for _, _, line in code.co_lines() if line is not None]
        assert lines[min(ran) - 1].startswith("def kernel(")
        assert lines[max(ran) - 1].strip() == "roots[i] = root"
