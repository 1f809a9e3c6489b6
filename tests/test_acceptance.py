"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any assertion failure marks that criterion red.
"""

from __future__ import annotations

import math
import random

from eikograph import (
    ComparisonInstance,
    DirichletProblem,
    builtin_hamiltonian,
    check_boundary_consistency,
    check_c_subsolution,
    check_c_supersolution,
    check_monge,
    check_regularity,
    chord_from_coords,
    compare,
    constant_field,
    counterexample_suite,
    distances_from,
    edge_costs,
    equivalence_suite,
    field_on,
    fixture,
    induce_intrinsic,
    intrinsic_distance,
    random_comparison_instance,
    random_metric_graph,
    solve_dirichlet,
    solve_general,
    validate_hamiltonian,
)
from eikograph.cli import run as cli_run

from oracles import adjacency, value_iteration


def _interval_problem(n=200, zeta=None):
    g = fixture("interval", n=n).graph
    f = constant_field(g, 1.0, "rhs_f")
    if zeta is None:
        zeta = {v: 0.0 for v in g.boundary}
    z = field_on(g, zeta, "boundary_zeta")
    return DirichletProblem(g, f, z)


def _passline(k, text):
    print(f"criterion {k}: PASS — {text}")


def test_criterion_01_interval_exactness():
    p = _interval_problem()
    g = p.graph
    vf = solve_dirichlet(p)
    worst = max(abs(vf.u[v] - (1.0 - abs(g.coords[v][0]))) for v in g.vertices)
    assert worst <= 1e-12
    assert check_monge(g, vf.u, p.f).passed
    assert check_c_subsolution(g, vf.u, p.f).passed
    assert check_c_supersolution(g, vf.u, p.f).passed
    assert check_regularity(g, vf.u).passed
    _passline(1, f"u = 1-|x| within {worst:.2e}; all four checks pass at defaults")


def test_criterion_02_counterexample_rejection():
    p = _interval_problem()
    g = p.graph
    u = field_on(g, {v: abs(g.coords[v][0]) - 1.0 for v in g.vertices}, "solution_u")
    report = check_monge(g, u, p.f)
    center = min(g.vertices, key=lambda v: (abs(g.coords[v][0]), v))
    assert report.failures() == [center]
    assert abs(report.residuals[center] - 1.0) <= 1e-12
    _passline(2, f"|x|-1 fails only at {center} with residual {report.residuals[center]}")


def test_criterion_03_intrinsic_metric():
    n = 1000
    coords = {
        f"c{k:04d}": (math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    }
    ids = tuple(sorted(coords))
    adjacency = tuple((ids[k], ids[(k + 1) % n]) for k in range(n))
    chord = chord_from_coords(coords)
    g = induce_intrinsic(ids, chord, adjacency, coords=coords)  # d <= d~ checked on every edge
    d, _ = intrinsic_distance(g, "c0000", "c0500")
    assert abs(d - math.pi) < 1e-4
    assert abs(chord("c0000", "c0500") - 2.0) < 1e-12
    d_int = distances_from(g, ["c0000"])
    assert all(chord("c0000", v) <= d_int[v] + 1e-12 for v in ids)
    _passline(3, f"antipodal intrinsic distance {d} vs pi, chord 2; "
                 f"d <= d~ on all {n} edges and from c0000 to all {n} points")


def test_criterion_04_oracle_equivalence():
    checked = 0
    for seed in range(20):
        g = random_metric_graph(seed, n_max=50)
        rng = random.Random(10_000 + seed)
        f = field_on(g, {v: rng.uniform(0.5, 2.0) for v in g.vertices}, "rhs_f")
        z = field_on(g, {v: rng.uniform(-0.5, 0.5) for v in sorted(g.boundary)}, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        oracle = value_iteration(g, edge_costs(g, f), {b: z[b] for b in g.boundary})
        assert all(vf.u[v] == oracle[v] for v in g.vertices)
        checked += 1
        # threshold 0 with f zeroed on random patches (zero-cost plateaus)
        values = dict(f.values)
        for c in rng.sample(g.vertices, max(1, len(g.vertices) // 6)):
            values[c] = 0.0
            for y, _ in adjacency(g)[c]:
                values[y] = 0.0
        f0 = field_on(g, values, "rhs_f")
        vf = solve_dirichlet(DirichletProblem(g, f0, z, threshold=0.0))
        oracle = value_iteration(g, edge_costs(g, f0), {b: z[b] for b in g.boundary})
        assert all(vf.u[v] == oracle[v] for v in g.vertices)
        checked += 1
    for level in range(5):
        g = fixture("gasket", level=level).graph
        f = constant_field(g, 1.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        oracle = value_iteration(g, edge_costs(g, f), {b: 0.0 for b in g.boundary})
        assert all(vf.u[v] == oracle[v] for v in g.vertices)
        checked += 1
    _passline(4, f"{checked} instances match the Bellman-Ford value-iteration oracle")


def test_criterion_05_equivalence_suite():
    report = equivalence_suite(fixture("grid", n=32), "linear:1,0.5", "const:0", levels=3)
    assert report.checks_ok
    assert report.monotone_ok
    r = report.monge_residuals
    assert r[0] >= r[1] >= r[2]
    _passline(5, f"grid(32) all checks pass at Lip(f)*h+1e-9; monge residuals {list(r)}")


def test_criterion_06_comparison_principle():
    for seed in range(100):
        report = compare(random_comparison_instance(seed))
        assert report.hypothesis_failed is None, (seed, report.hypothesis_failed)
        assert report.comparison_passed is True, seed
        assert report.max_excess <= 1e-12
    p = _interval_problem()
    vf = solve_dirichlet(p)
    g = p.graph
    half = field_on(g, {v: 0.5 * vf.u[v] for v in g.vertices}, "solution_u")
    swapped = compare(ComparisonInstance(graph=g, f=p.f, u_sub=vf.u, v_super=half))
    assert swapped.hypothesis_failed == "monge-super"
    assert swapped.comparison_passed is None
    _passline(6, "100 scaled instances pass; swapped instance rejected at the hypothesis")


def test_criterion_07_hamiltonian_reduction():
    g = fixture("interval", n=200).graph
    z = constant_field(g, 0.0, "boundary_zeta")
    vf_q, _, _ = solve_general(g, builtin_hamiltonian("quadratic"), z, bisect_tol=1e-9)
    ref = solve_dirichlet(DirichletProblem(g, constant_field(g, 1.0, "rhs_f"), z))
    quad_err = max(abs(vf_q.u[v] - ref.u[v]) for v in g.vertices)
    assert quad_err <= 1e-9

    g2 = fixture("interval", n=2000).graph
    z2 = constant_field(g2, 0.0, "boundary_zeta")
    vf, _, iterations = solve_general(g2, builtin_hamiltonian("affine-rho"), z2)
    assert iterations <= 100
    rho_err = max(
        abs(vf.u[v] - (1.0 - math.exp(-(1.0 - abs(g2.coords[v][0])))))
        for v in g2.vertices
    )
    assert rho_err <= 1e-5
    _passline(7, f"p^2-1 within {quad_err:.2e}; p+rho-1 converged in {iterations} "
                 f"iterations, error {rho_err:.2e}")


def test_criterion_08_paper_counterexamples():
    fixtures = counterexample_suite()
    for fx in fixtures:
        assert not validate_hamiltonian(fx.hamiltonian, fx.graph).passed
    plateau = fixtures[2]
    report = check_regularity(plateau.graph, plateau.u)
    assert abs(report.residuals[plateau.center] - 1.0) <= 1e-12
    _passline(8, "ex1, ex2 and plateau rejected; plateau solution has "
                 f"regularity residual {report.residuals[plateau.center]} at x=0")


def test_criterion_09_boundary_consistency():
    g = fixture("interval", n=200).graph
    p = DirichletProblem(
        g,
        constant_field(g, 1.0, "rhs_f"),
        field_on(g, {"v0": 0.0, "v200": 3.0}, "boundary_zeta"),
    )
    vf = solve_dirichlet(p)
    assert abs(vf.u["v200"] - 2.0) <= 1e-12
    assert vf.attained["v200"] is False
    cert = check_boundary_consistency(p, vf)
    assert abs(cert.lipschitz_L - 1.5) <= 1e-9
    assert cert.inf_f == 1.0
    assert cert.lipschitz_L > cert.inf_f
    assert not cert.zeta_lipschitz_ok
    _passline(9, f"u(1) = {vf.u['v200']} unattained; L = {cert.lipschitz_L} > inf f = 1")


def test_criterion_10_determinism(tmp_path):
    captures = []
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        g = d / "g.json"
        gg = d / "grid.json"
        files = {
            "u": d / "u.csv", "plot": d / "plot.csv", "check": d / "check.csv",
            "suite": d / "suite.csv", "uh": d / "uh.csv", "h": d / "h.csv",
            "metric": d / "metric.json", "refined": d / "r.json",
            "cmp": d / "cmp.csv",
        }
        assert cli_run(["fixture", "--name", "interval", "--n", "200", "--out", str(g)]) == 0
        assert cli_run(["fixture", "--name", "grid", "--n", "12", "--out", str(gg)]) == 0
        assert cli_run(["solve", "--graph", str(g), "--f", "const:1", "--zeta", "const:0",
                        "--out", str(files["u"]), "--plot", str(files["plot"])]) == 0
        assert cli_run(["check", "monge", "--graph", str(g), "--u", str(files["u"]),
                        "--f", "const:1", "--report", str(files["check"])]) == 0
        assert cli_run(["suite", "--fixture", "gasket", "--level", "3", "--f", "const:1",
                        "--levels", "2", "--report", str(files["suite"])]) == 0
        assert cli_run(["solve-h", "--graph", str(g), "--hamiltonian", "quadratic",
                        "--zeta", "const:0", "--out", str(files["uh"]),
                        "--h-out", str(files["h"])]) == 0
        assert cli_run(["refine", "--graph", str(g), "--h-max", "0.005",
                        "--out", str(files["refined"])]) == 0
        assert cli_run(["compare", "--graph", str(g), "--f", "const:1",
                        "--u", str(files["u"]), "--v", str(files["u"]),
                        "--report", str(files["cmp"])]) == 0
        pts = d / "pts.csv"
        adj = d / "adj.csv"
        n = 64
        with open(pts, "w", newline="") as fh:
            fh.write("vertex_id,x,y\n")
            for k in range(n):
                th = 2.0 * math.pi * k / n
                fh.write(f"c{k:02d},{math.cos(th)!r},{math.sin(th)!r}\n")
        with open(adj, "w", newline="") as fh:
            fh.write("a,b\n")
            for k in range(n):
                fh.write(f"c{k:02d},c{(k + 1) % n:02d}\n")
        assert cli_run(["induce-metric", "--points", str(pts), "--edges", str(adj),
                        "--out", str(files["metric"])]) == 0
        captures.append({name: path.read_bytes() for name, path in files.items()}
                        | {"g": g.read_bytes(), "gg": gg.read_bytes()})
    assert captures[0] == captures[1]
    _passline(10, f"{len(captures[0])} artifacts byte-identical across repeated runs")
