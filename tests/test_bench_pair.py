"""The pair summary of tools/bench_pair.py: medians, quartiles and wins."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

DECLARED = [{"name": "step_p50_s", "unit": "s", "better": "lower"},
            {"name": "vertices_per_s", "unit": "1/s", "better": "higher"}]


def pairs(parent, change, name):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_lower_is_better_counts_wins_and_quartiles():
    runs = pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 1.0, 4.5, 1.0], "step_p50_s")
    for r in runs:
        r["parent"]["vertices_per_s"] = r["change"]["vertices_per_s"] = 1.0
    s = bench_pair.summarize(runs, DECLARED)["step_p50_s"]
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "spread": pytest.approx(2.0 / 3.0)}
    assert s["change"]["median"] == 1.0
    assert s["change_wins"] == 3  # the tie at 2.0 counts for neither side
    assert s["change_over_parent"] == pytest.approx(1.0 / 3.0)
    assert s["pairs"] == 5


def test_higher_is_better_and_a_single_pair():
    runs = pairs([100.0], [150.0], "vertices_per_s")
    runs[0]["parent"]["step_p50_s"] = runs[0]["change"]["step_p50_s"] = 1.0
    s = bench_pair.summarize(runs, DECLARED)["vertices_per_s"]
    assert s["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0, "spread": 0.0}
    assert s["change_wins"] == 1
    assert s["change_over_parent"] == 1.5
