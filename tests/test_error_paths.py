"""Refusals of bad input: through the CLI each one exits 2 with one
``error:`` line and no traceback, and in the library it raises the
package's error with a message that names what is wrong."""

from __future__ import annotations

import json
import math

import pytest

from eikograph import (
    DirichletProblem,
    FieldError,
    ProblemError,
    ValidationError,
    chord_from_coords,
    constant_field,
    curve_along,
    distance_to_boundary,
    fixture,
    induce_intrinsic,
    refine,
)
from eikograph.graph import settle

from test_cli import run_cli


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, err
    return lines[0]


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    """A directory holding grid n = 2 as g.json and its solution u.csv."""
    monkeypatch.chdir(tmp_path)
    run_cli("fixture", "--name", "grid", "--n", "2", "--out", "g.json")
    run_cli("solve", "--graph", "g.json", "--f", "const:1", "--zeta", "const:0", "--out", "u.csv")
    capsys.readouterr()
    return tmp_path


@pytest.mark.parametrize("argv,message", [
    (["fixture", "--name", "circle", "--n", "2", "--out", "x.json"], "circle fixture needs n >= 3"),
    (["fixture", "--name", "binary_tree", "--depth", "0", "--out", "x.json"],
     "binary_tree fixture needs depth >= 1"),
    (["fixture", "--name", "gasket", "--level", "-1", "--out", "x.json"], "gasket fixture needs level >= 0"),
    (["check", "csub", "--graph", "g.json", "--u", "u.csv"], "check csub needs --f"),
    (["check", "monge", "--graph", "g.json", "--u", "u.csv", "--f", "const:1", "--tol", "abc"],
     "argument --tol: invalid float value: 'abc'"),
    (["refine", "--graph", "g.json", "--h-max", "0", "--out", "x.json"], "h_max must be positive, got 0.0"),
], ids=["circle-n", "tree-depth", "gasket-level", "csub-without-f", "tol-not-a-number", "h-max-zero"])
def test_bad_arguments_exit_2(workdir, capsys, argv, message):
    assert run_cli(*argv) == 2
    assert message in one_error_line(capsys)
    assert not (workdir / "x.json").exists()


def test_coincident_points_joined_by_an_edge_exit_2(workdir, capsys):
    (workdir / "pts.csv").write_text("vertex_id,x\na,0.0\nb,0.0\nc,1.0\n")
    (workdir / "adj.csv").write_text("a,b\na,b\nb,c\n")
    assert run_cli("induce-metric", "--points", "pts.csv", "--edges", "adj.csv", "--out", "x.json") == 2
    assert "d('a', 'b') = 0.0 is not positive" in one_error_line(capsys)


@pytest.mark.parametrize("key,value,message", [
    ("ids", [], "graph has no vertices"),
    ("coords_at", 5, "graph coords_at must be a list, got int"),
    ("length", [1.0, 1.0, 1.0, 10**400], "a length must be a positive finite number"),
    ("coords", [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 10**400], "vertex 'v1_1': coords must be numbers"),
])
def test_bad_version_2_graph_file_exits_2(workdir, capsys, key, value, message):
    spec = json.loads((workdir / "g.json").read_text())
    assert spec["version"] == 2
    (workdir / "g.json").write_text(json.dumps({**spec, key: value}))
    assert run_cli("solve", "--graph", "g.json", "--f", "const:1", "--zeta", "const:0", "--out", "v.csv") == 2
    assert message in one_error_line(capsys)
    assert not (workdir / "v.csv").exists()


@pytest.fixture
def grid():
    return fixture("grid", n=3).graph


def test_settle_needs_a_seed(grid):
    with pytest.raises(ValidationError, match="label setting needs at least one seed"):
        settle(grid, [])


def test_curve_needs_a_vertex(grid):
    with pytest.raises(ValidationError, match="curve needs at least one vertex"):
        curve_along(grid, [])


def test_refine_refuses_a_nan_h_max(grid):
    with pytest.raises(ValidationError, match="h_max must be positive, got nan"):
        refine(grid, math.nan)


@pytest.mark.parametrize("which,message", [
    ("f", "f must have role rhs_f, got 'solution_u'"),
    ("zeta", "zeta must have role boundary_zeta, got 'solution_u'"),
])
def test_problem_fields_of_the_wrong_role_are_refused(grid, which, message):
    fields = {"f": constant_field(grid, 1.0, "rhs_f"), "zeta": constant_field(grid, 0.0, "boundary_zeta")}
    fields[which] = constant_field(grid, 0.0, "solution_u")
    with pytest.raises(FieldError, match=message):
        DirichletProblem(grid, fields["f"], fields["zeta"])


def test_distance_to_boundary_needs_a_boundary():
    with pytest.raises(ProblemError, match="graph has no boundary vertices"):
        distance_to_boundary(fixture("circle", n=5).graph)


def test_field_lookup_of_an_unknown_vertex(grid):
    with pytest.raises(FieldError, match=r"field \(rhs_f\) has no value at vertex 'nope'"):
        constant_field(grid, 1.0, "rhs_f")["nope"]


def test_grid_connectivity_is_4_or_8():
    with pytest.raises(ValidationError, match="grid connectivity must be 4 or 8"):
        fixture("grid", n=3, connectivity=6)


def test_induce_intrinsic_refuses_coords_of_an_id_it_was_not_given():
    pts = {"a": (0.0,), "b": (1.0,), "c": (2.0,)}
    with pytest.raises(ValidationError, match="coords reference unknown vertex 'c'"):
        induce_intrinsic(["a", "b"], chord_from_coords(pts), [("a", "b")], coords=pts)
