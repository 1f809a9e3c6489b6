"""The pair summary of tools/bench_pair.py: medians, quartiles, wins, the
median log ratio, the sign test and the mark of a ratio inside the A/A
pair ratios."""

from __future__ import annotations

import importlib.util
import json
import math
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


def test_a_root_holding_bytecode_is_refused(tmp_path, capsys):
    roots = {}
    for side in ("parent", "change"):
        root = roots[side] = tmp_path / side
        (root / "src" / "eikograph").mkdir(parents=True)
        (root / "perfbench").mkdir()
        (root / "BENCHMARK.json").write_text('{"end_to_end": [], "per_layer": [], "run_seconds": 1}')
    (roots["change"] / "src" / "eikograph" / "__pycache__").mkdir()
    (roots["change"] / "perfbench" / "__pycache__").mkdir()
    assert bench_pair.bytecode_dirs(roots["parent"]) == []
    assert bench_pair.bytecode_dirs(roots["change"]) == ["perfbench/__pycache__", "src/eikograph/__pycache__"]
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pair.main([str(roots["parent"]), str(roots["change"]), "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "change root" in err and "perfbench/__pycache__" in err and "src/eikograph/__pycache__" in err
    assert not out.exists()


def test_each_side_records_its_src_line_count(tmp_path, monkeypatch):
    roots = {}
    for side, lines in (("parent", 5), ("change", 3)):
        root = roots[side] = tmp_path / side
        (root / "src" / "eikograph" / "sub").mkdir(parents=True)
        (root / "perfbench").mkdir()
        (root / "BENCHMARK.json").write_text('{"end_to_end": [], "per_layer": [], "run_seconds": 1}')
        (root / "src" / "eikograph" / "a.py").write_text("x = 1\n" * (lines - 1))
        (root / "src" / "eikograph" / "sub" / "b.py").write_text("y = 2\n")
        (root / "src" / "eikograph" / "notes.txt").write_text("not python\n" * 7)
    meta = {"git_sha": None, "src_sha256": "s", "python": "3", "implementation": "C", "nproc": 2}
    monkeypatch.setattr(bench_pair, "run_once", lambda *args: {"correct": True, "failed_frac": 0.0, "_meta": dict(meta)})
    monkeypatch.setattr(bench_pair, "AA_FILE", tmp_path / "none.json")
    out = tmp_path / "bench.json"
    assert bench_pair.main([str(roots["parent"]), str(roots["change"]), "--workloads", "sweep", "--pairs", "1",
                            "--out", str(out), "--parent-sha", "p", "--change-sha", "c"]) == 0
    sides = json.loads(out.read_text())["sides"]
    assert sides == {"parent": {"git_sha": "p", "src_sha256": "s", "src_lines": 5},
                     "change": {"git_sha": "c", "src_sha256": "s", "src_lines": 3}}


@pytest.mark.parametrize("wins,losses,p", [
    (9, 1, 0.021484375),  # 2 * (1 + 10) / 2**10
    (10, 0, 0.001953125),  # 2 / 2**10
    (1, 9, 0.021484375),
    (5, 5, 1.0),
    (0, 0, 1.0),  # every pair tied
])
def test_sign_test_p_by_hand(wins, losses, p):
    assert bench_pair.sign_test_p(wins, losses) == p


def test_log_ratio_median_and_sign_test_in_the_summary():
    parent = [1.0] * 10
    change = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2.0]  # 9 wins, 1 loss
    runs = pairs(parent, change, "step_p50_s")
    for r in runs:
        r["parent"]["vertices_per_s"] = r["change"]["vertices_per_s"] = 1.0
    s = bench_pair.summarize(runs, DECLARED)
    assert s["step_p50_s"]["log_ratio_median"] == math.log(0.5)
    assert s["step_p50_s"]["sign_test_p"] == 0.021484375
    assert s["vertices_per_s"]["log_ratio_median"] == 0.0  # all ties
    assert s["vertices_per_s"]["sign_test_p"] == 1.0


def test_a_ratio_inside_the_aa_pair_ratios_is_marked(tmp_path):
    # a hand-made A/A file: hjb step_p50_s pair ratios 0.9, 1.05 and 1.2
    aa_runs = pairs([1.0, 2.0, 1.0], [0.9, 2.1, 1.2], "step_p50_s")
    aa_file = tmp_path / "BENCH_AA.json"
    aa_file.write_text(json.dumps({"workloads": {"hjb": {
        "runs": aa_runs, "end_to_end": {"step_p50_s": {}}}}}))
    ranges = bench_pair.aa_ranges(aa_file)
    assert ranges == {"hjb": {"step_p50_s": (pytest.approx(0.9), pytest.approx(1.2))}}
    assert bench_pair.aa_ranges(tmp_path / "missing.json") == {}

    declared = DECLARED[:1]
    inside = bench_pair.summarize(pairs([1.0] * 3, [0.95] * 3, "step_p50_s"), declared, ranges["hjb"])
    outside = bench_pair.summarize(pairs([1.0] * 3, [0.8] * 3, "step_p50_s"), declared, ranges["hjb"])
    plain = bench_pair.summarize(pairs([1.0] * 3, [0.95] * 3, "step_p50_s"), declared)
    s = inside["step_p50_s"]
    assert s["inside_aa"] is True and s["aa_pair_ratios"] == [pytest.approx(0.9), pytest.approx(1.2)]
    assert outside["step_p50_s"]["inside_aa"] is False
    assert "inside_aa" not in plain["step_p50_s"]  # no A/A run of this workload: no mark

    assert bench_pair.summary_line("hjb", "step_p50_s", s).endswith(" [inside A/A pair ratios 0.900-1.200]")
    for unmarked in (outside["step_p50_s"], plain["step_p50_s"]):
        assert "A/A" not in bench_pair.summary_line("hjb", "step_p50_s", unmarked)


def test_the_checked_in_aa_file_covers_every_declared_metric():
    declared = json.loads((bench_pair.AA_FILE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    for workload, ranges in bench_pair.aa_ranges(bench_pair.AA_FILE).items():
        assert set(ranges) == {m["name"] for m in declared}, workload
        assert all(0.0 < lo <= hi for lo, hi in ranges.values()), workload
