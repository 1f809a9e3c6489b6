"""The package reads a graph's lists and coord columns, never its
``edges``, ``adjacency`` or ``coords`` views: with the three properties made
to raise, every entry point that walks the edges or reads coords still
runs, and gives what it gives with the views in place."""

from __future__ import annotations

import dataclasses

import pytest

from eikograph import (
    ConvergenceError,
    DirichletProblem,
    FieldError,
    MetricGraph,
    ValidationError,
    build_graph,
    builtin_hamiltonian,
    check_boundary_consistency,
    check_c_subsolution,
    check_c_supersolution,
    check_hamiltonian_monge,
    check_monge,
    check_regularity,
    chord_from_coords,
    compare,
    counterexample_suite,
    edge_costs,
    equivalence_suite,
    expression_hamiltonian,
    field_from_expression,
    fixture,
    induce_intrinsic,
    random_comparison_instance,
    read_graph,
    refine,
    solve_dirichlet,
    solve_general,
    write_graph,
)
from eikograph.cli import emit_plot_data, run

from test_graph import COORD_SPECS, REPLACED


class ViewRead(BaseException):
    """Raised by a view property; a BaseException, so no ``except Exception`` hides it."""


def _refuse(self):
    raise ViewRead("a view of the lists was read")


def _problem(g, f="linear:1,0.5", zeta="linear:0,0.25"):
    return DirichletProblem(g, field_from_expression(g, f, "rhs_f"), field_from_expression(g, zeta, "boundary_zeta"))


def _solved():
    p = _problem(fixture("grid", n=6, connectivity=8).graph)
    return p, solve_dirichlet(p)


def _checks():
    p, vf = _solved()
    return [check(p.graph, vf.u, p.f) for check in (check_monge, check_c_subsolution, check_c_supersolution)] + [
        check_regularity(p.graph, vf.u)]


def _induced():
    coords = {f"q{i}_{j}": (float(i), 0.5 * j) for i in range(5) for j in range(5)}
    pairs = [(f"q{i}_{j}", f"q{i + di}_{j + dj}") for i in range(5) for j in range(5)
             for di, dj in ((1, 0), (0, 1), (1, 1)) if i + di < 5 and j + dj < 5]
    return induce_intrinsic(sorted(coords), chord_from_coords(coords), pairs, boundary=["q0_0"], coords=coords)


def _general():
    g = fixture("grid", n=5).graph
    H = builtin_hamiltonian("affine-rho")
    zeta = field_from_expression(g, "const:0", "boundary_zeta")
    vf, h, sweeps = solve_general(g, H, zeta)
    return vf, h, sweeps, check_hamiltonian_monge(g, vf.u, H)


def _past_picard(H):
    """solve_general after two solves: the causal pass, or the refusal that names the longest edge."""
    g = fixture("grid", n=5).graph
    try:
        return solve_general(g, H, field_from_expression(g, "const:0", "boundary_zeta"), max_iter=2)
    except ConvergenceError as exc:
        return str(exc), exc.history


def _edge_costs():
    g = fixture("circle", n=9).graph
    return edge_costs(g, field_from_expression(g, "linear:1,0.5", "rhs_f"))


def _round_trip(tmp_path, g=None):
    path = str(tmp_path / "g.json")
    write_graph(fixture("gasket", level=3).graph if g is None else g, path)
    return read_graph(path)


def _solve_plot(tmp_path):
    """solve --plot with linear fields, as the command line runs it: the exit code and the files."""
    g, u, plot = (str(tmp_path / name) for name in ("g.json", "u.csv", "plot.csv"))
    write_graph(fixture("grid", n=5).graph, g)
    code = run(["solve", "--graph", g, "--f", "linear:1,0.5", "--zeta", "linear:0,0.25,1", "--out", u,
                "--plot", plot, "--plot-layout", "coords"])
    return code, open(u).read(), open(plot).read()


def _plots(tmp_path, name):
    """emit_plot_data of a COORD_SPECS graph in both layouts, or the error that refuses one."""
    g = build_graph(COORD_SPECS[name])
    u = field_from_expression(g, "const:0.5", "solution_u")
    texts = []
    for layout in ("auto", "coords"):
        try:
            emit_plot_data(u, g, str(tmp_path / "p.csv"), layout)
            texts.append((tmp_path / "p.csv").read_text())
        except ValidationError as exc:
            texts.append(str(exc))
    return texts


def _linear(g, expr="linear:1,0.5,1"):
    """A linear field's values, or the FieldError that names a vertex without coords[axis]."""
    try:
        return dict(field_from_expression(g, expr, "rhs_f").values)
    except FieldError as exc:
        return str(exc)


CASE_KINDS = {  # run on each COORD_SPECS graph: coords_at, dim 0 and a -0.0 coordinate
    "write-read": lambda tmp_path, name: _round_trip(tmp_path, build_graph(COORD_SPECS[name])),
    "refine": lambda tmp_path, name: refine(build_graph(COORD_SPECS[name]), 0.3),
    "plot": _plots,
    "linear": lambda tmp_path, name: _linear(build_graph(COORD_SPECS[name])),  # "a" has no coords
}

CASES = {
    "refine-split": lambda tmp_path: refine(fixture("grid", n=4, connectivity=8).graph, 0.3),
    "refine-none": lambda tmp_path: refine(fixture("binary_tree", depth=3).graph, 10.0),
    "induce_intrinsic": lambda tmp_path: _induced(),
    "edge_costs": lambda tmp_path: _edge_costs(),
    "write-read": _round_trip,
    "solve_dirichlet": lambda tmp_path: _solved(),
    "check_boundary_consistency": lambda tmp_path: check_boundary_consistency(*_solved()),
    "four checks": lambda tmp_path: _checks(),
    "solve_general": lambda tmp_path: _general(),
    "solve_general-causal": lambda tmp_path: _past_picard(builtin_hamiltonian("affine-rho")),
    "solve_general-refused": lambda tmp_path: _past_picard(expression_hamiltonian("p - exp(-4*rho)")),
    "equivalence_suite": lambda tmp_path: equivalence_suite(fixture("grid", n=4), "linear:1,0.5", levels=2),
    "compare": lambda tmp_path: compare(random_comparison_instance(3)),
    "solve --plot": _solve_plot,
    "counterexample_suite": lambda tmp_path: [(c.name, c.center, dict(c.u.values)) for c in counterexample_suite(40)],
    **{f"{kind}-{name}": (lambda tmp_path, case=case, name=name: case(tmp_path, name))
       for kind, case in CASE_KINDS.items() for name in COORD_SPECS},
    "replace-write-read": lambda tmp_path: _round_trip(
        tmp_path, dataclasses.replace(fixture("interval", n=4).graph, coords=REPLACED)),
}


@pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())
def test_runs_without_the_views(make, tmp_path, monkeypatch):
    monkeypatch.setattr(MetricGraph, "edges", property(_refuse))
    monkeypatch.setattr(MetricGraph, "adjacency", property(_refuse))
    monkeypatch.setattr(MetricGraph, "coords", property(_refuse))
    without = make(tmp_path)
    monkeypatch.undo()
    again = make(tmp_path)
    assert repr(again) == repr(without) and again == without


def test_the_guard_catches_a_reader(monkeypatch):
    g = fixture("interval", n=3).graph
    g.coords  # a view made before the guard, and kept, does not get past it
    monkeypatch.setattr(MetricGraph, "edges", property(_refuse))
    monkeypatch.setattr(MetricGraph, "coords", property(_refuse))
    with pytest.raises(ViewRead):
        len(g.edges)
    with pytest.raises(ViewRead):
        g.coords["v0"]
