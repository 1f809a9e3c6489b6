"""tools/mem_layers.py at toy sizes: its layers, its version 1 writer, the
trace and the table."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import eikograph as ek

spec = importlib.util.spec_from_file_location(
    "mem_layers", Path(__file__).resolve().parents[1] / "tools" / "mem_layers.py")
mem_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mem_layers)


def test_layers_run_under_the_trace(tmp_path):
    built = mem_layers.layers(ek, tmp_path, sweep=[("grid", {"n": 4}), ("gasket", {"level": 2})], file_n=5,
                              refine_h=0.5, field=("grid", {"n": 3}))
    assert [name for name, _ in built] == [
        "fixture grid n=4", "fixture gasket level=2", "read_graph grid n=5 version 2",
        "read_graph grid n=5 version 1", "refine grid n=5 h_max=0.5", "field_on rhs_f grid n=3"]
    grid = ek.fixture("grid", n=5).graph
    assert built[2][1]() == built[3][1]() == grid
    assert len(built[4][1]().vertices) == 25 + 40
    f = built[5][1]()
    assert f.role == "rhs_f" and f.graph == ek.fixture("grid", n=3).graph
    assert all(0.5 <= x <= 2.0 for x in f.values.values()) and built[5][1]() == f  # values drawn once, untraced
    for _, build in built:
        kept, peak = mem_layers.traced(build)
        assert 0 < kept <= peak


def test_version_1_keeps_partial_coords():
    g = ek.refine(ek.build_graph({"vertices": ["a", {"id": "b", "coords": [1.0]}],
                                  "edges": [{"a": "a", "b": "b", "length": 1.0}]}), 0.5)
    assert ek.build_graph(mem_layers.version_1(g)) == g


def test_table_of_one_and_two_sides():
    one = {"fixture grid n=4": (1.0, 2.0)}
    assert mem_layers.table([one]).splitlines()[1].split() == ["fixture", "grid", "n=4", "1.00", "2.00"]
    row = mem_layers.table([one, {"fixture grid n=4": (0.75, 2.0)}]).splitlines()[1]
    assert row.split()[3:] == ["1.00", "->", "0.75", "(-25.0%)", "2.00", "->", "2.00", "(+0.0%)"]


def test_usage(capsys):
    assert mem_layers.main([]) == 2
    assert "usage" in capsys.readouterr().err
