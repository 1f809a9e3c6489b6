"""Dirichlet solver: value formula, invariants, boundary consistency."""

from __future__ import annotations

import random

import pytest

from eikograph import (
    DirichletProblem,
    FieldError,
    ProblemError,
    check_boundary_consistency,
    check_c_subsolution,
    constant_field,
    distance_to_boundary,
    edge_costs,
    field_on,
    fixture,
    random_metric_graph,
    refine,
    solve_dirichlet,
)
from eikograph.graph import close, edge_key, settle
from eikograph.solver import boundary_seeds, value_function

from oracles import adjacency, retry_loop_exits, value_iteration


def interval_problem(n=200, f_value=1.0, zeta=None):
    g = fixture("interval", n=n).graph
    f = constant_field(g, f_value, "rhs_f")
    if zeta is None:
        z = constant_field(g, 0.0, "boundary_zeta")
    else:
        z = field_on(g, zeta, "boundary_zeta")
    return DirichletProblem(g, f, z)


def zero_patches(g, values, rng, centers):
    """Copy of values with f zeroed at random centers and their neighbors."""
    out = dict(values)
    for c in rng.sample(g.vertices, centers):
        out[c] = 0.0
        for y, _ in adjacency(g)[c]:
            out[y] = 0.0
    return out


def middle_band(g):
    """A sixth of the vertices, contiguous in the first coordinate."""
    order = sorted(g.vertices, key=lambda v: (g.coords[v][0], v))
    width = len(order) // 6
    start = (len(order) - width) // 2
    return set(order[start : start + width])


def reference_exits(p, vf):
    seeds = {y: p.zeta[y] for y in p.graph.boundary}
    return retry_loop_exits(p.graph, edge_costs(p.graph, p.f), seeds, vf.u)


def assert_exits_along_equalities(p, vf):
    """Every exit is an attained boundary vertex that x reaches along edges
    a -> b with u(a) == fl(u(b) + cost) through vertices of the same exit."""
    g = p.graph
    costs = edge_costs(g, p.f)
    u = vf.u
    for x in g.vertices:
        e = vf.exit_vertex[x]
        assert e in g.boundary and vf.attained[e], x
        seen, stack = {x}, [x]
        while stack and e not in seen:
            a = stack.pop()
            for b, _ in adjacency(g)[a]:
                if b not in seen and vf.exit_vertex[b] == e and u[a] == u[b] + costs[edge_key(a, b)]:
                    seen.add(b)
                    stack.append(b)
        assert e in seen, x


def random_problem(seed):
    g = random_metric_graph(seed)
    rng = random.Random(seed + 10_000)
    f = field_on(g, {v: rng.uniform(0.5, 2.0) for v in g.vertices}, "rhs_f")
    z = field_on(g, {v: rng.uniform(-0.5, 0.5) for v in sorted(g.boundary)}, "boundary_zeta")
    return DirichletProblem(g, f, z)


class TestSolveInterval:
    def test_distance_cone(self):
        p = interval_problem()
        vf = solve_dirichlet(p)
        g = p.graph
        for v in g.vertices:
            assert abs(vf.u[v] - (1.0 - abs(g.coords[v][0]))) <= 1e-12

    def test_homogeneity_power_of_two_exact(self):
        u1 = solve_dirichlet(interval_problem(f_value=1.0))
        u2 = solve_dirichlet(interval_problem(f_value=2.0))
        g = u1.u.graph
        for v in g.vertices:
            assert u2.u[v] == 2.0 * u1.u[v]

    def test_homogeneity_generic_scale(self):
        c = 1.7
        g = fixture("interval", n=100).graph
        f = constant_field(g, 1.0, "rhs_f")
        z = field_on(g, {"v0": 0.1, "v100": 0.3}, "boundary_zeta")
        base = solve_dirichlet(DirichletProblem(g, f, z))
        fc = constant_field(g, c, "rhs_f")
        zc = field_on(g, {"v0": c * 0.1, "v100": c * 0.3}, "boundary_zeta")
        scaled = solve_dirichlet(DirichletProblem(g, fc, zc))
        for v in g.vertices:
            assert close(scaled.u[v], c * base.u[v])


class TestBellmanInvariants:
    def test_bellman_equation_holds_exactly(self):
        for seed in (0, 1, 2):
            p = random_problem(seed)
            vf = solve_dirichlet(p)
            g = p.graph
            costs = edge_costs(g, p.f)
            for x in g.vertices:
                candidates = [
                    costs[(x, y) if x <= y else (y, x)] + vf.u[y]
                    for y, _l in adjacency(g)[x]
                ]
                if x in g.boundary:
                    candidates.append(p.zeta[x])
                assert vf.u[x] == min(candidates)

    def test_edge_lipschitz_at_tol_zero(self):
        for seed in (3, 4):
            p = random_problem(seed)
            vf = solve_dirichlet(p)
            report = check_c_subsolution(p.graph, vf.u, p.f, tol=0.0)
            assert report.passed and report.max_residual == 0.0

    def test_monotone_in_boundary_data(self):
        g = fixture("interval", n=50).graph
        f = constant_field(g, 1.0, "rhs_f")
        z1 = field_on(g, {"v0": 0.0, "v50": 0.0}, "boundary_zeta")
        z2 = field_on(g, {"v0": 0.2, "v50": 0.1}, "boundary_zeta")
        u1 = solve_dirichlet(DirichletProblem(g, f, z1))
        u2 = solve_dirichlet(DirichletProblem(g, f, z2))
        assert all(u1.u[v] <= u2.u[v] for v in g.vertices)

    def test_monotone_in_rhs(self):
        g = random_metric_graph(9)
        rng = random.Random(9)
        z = field_on(g, {v: 0.0 for v in g.boundary}, "boundary_zeta")
        vals = {v: rng.uniform(0.5, 1.5) for v in g.vertices}
        f1 = field_on(g, vals, "rhs_f")
        f2 = field_on(g, {v: x + rng.uniform(0.0, 0.5) for v, x in vals.items()}, "rhs_f")
        u1 = solve_dirichlet(DirichletProblem(g, f1, z))
        u2 = solve_dirichlet(DirichletProblem(g, f2, z))
        assert all(u1.u[v] <= u2.u[v] for v in g.vertices)

    def test_refinement_exactness(self):
        g = fixture("interval", n=20).graph
        f = constant_field(g, 1.3, "rhs_f")
        z = field_on(g, {"v0": 0.0, "v20": 0.25}, "boundary_zeta")
        base = solve_dirichlet(DirichletProblem(g, f, z))
        r = refine(g, g.h_max / 4.0)
        fr = constant_field(r, 1.3, "rhs_f")
        zr = field_on(r, {"v0": 0.0, "v20": 0.25}, "boundary_zeta")
        fine = solve_dirichlet(DirichletProblem(r, fr, zr))
        for v in g.vertices:
            assert close(base.u[v], fine.u[v], abs_tol=1e-12)


class TestGridOracle:
    def test_64_grid_distance_to_ring(self):
        fix = fixture("grid", n=64)
        g = fix.graph
        f = constant_field(g, 1.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        # integer arithmetic throughout: both the reference and the oracle are exact
        for v in g.vertices:
            assert vf.u[v] == fix.reference[v]
        oracle = value_iteration(g, edge_costs(g, f), {b: 0.0 for b in g.boundary})
        assert all(vf.u[v] == oracle[v] for v in g.vertices)


class TestExitData:
    def test_exit_vertices_are_boundary_and_attained(self):
        p = random_problem(12)
        vf = solve_dirichlet(p)
        g = p.graph
        for x in g.vertices:
            e = vf.exit_vertex[x]
            assert e in g.boundary
            assert vf.attained[e]

    def test_constant_shift_keeps_distance_field(self):
        g = fixture("interval", n=40).graph
        f = constant_field(g, 1.0, "rhs_f")
        c = 0.75
        z = field_on(g, {v: c for v in g.boundary}, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        dist = distance_to_boundary(g)
        for v in g.vertices:
            assert close(vf.u[v] - c, dist[v])

    def test_incompatible_data_flagged_not_attained(self):
        p = interval_problem(zeta={"v0": 0.0, "v200": 3.0})
        vf = solve_dirichlet(p)
        assert abs(vf.u["v200"] - 2.0) <= 1e-12
        assert vf.attained["v0"] is True
        assert vf.attained["v200"] is False
        assert vf.exit_vertex["v200"] == "v0"


class TestExitReference:
    """Settle-order exits against the retry-loop reference in oracles.py."""

    def check(self, p):
        vf = solve_dirichlet(p)
        assert vf.exit_vertex == reference_exits(p, vf)
        assert_exits_along_equalities(p, vf)

    def test_random_graphs_positive_f(self):
        for seed in range(40):
            g = random_metric_graph(seed)
            rng = random.Random(20_000 + seed)
            f = field_on(g, {v: rng.uniform(0.5, 2.0) for v in g.vertices}, "rhs_f")
            z = field_on(g, {v: rng.uniform(-0.5, 0.5) for v in sorted(g.boundary)}, "boundary_zeta")
            self.check(DirichletProblem(g, f, z))

    def test_random_graphs_zero_patches(self):
        for seed in range(40):
            g = random_metric_graph(seed)
            rng = random.Random(30_000 + seed)
            values = {v: rng.uniform(0.5, 2.0) for v in g.vertices}
            values = zero_patches(g, values, rng, max(1, len(g.vertices) // 6))
            f = field_on(g, values, "rhs_f")
            z = field_on(g, {v: rng.uniform(-0.5, 0.5) for v in sorted(g.boundary)}, "boundary_zeta")
            self.check(DirichletProblem(g, f, z, threshold=0.0))

    @pytest.mark.parametrize("name,params", [
        ("grid", {"n": 8}),
        ("grid", {"n": 7, "connectivity": 8}),
        ("gasket", {"level": 3}),
        ("binary_tree", {"depth": 5}),
    ])
    def test_fixtures_zero_middle_band(self, name, params):
        g = fixture(name, **params).graph
        band = middle_band(g)
        rng = random.Random(7)
        f = field_on(g, {v: 0.0 if v in band else rng.uniform(0.5, 2.0) for v in g.vertices}, "rhs_f")
        z = field_on(g, {v: rng.uniform(-0.5, 0.5) for v in sorted(g.boundary)}, "boundary_zeta")
        self.check(DirichletProblem(g, f, z, threshold=0.0))

    def test_exact_tie_breaks_to_smallest_id(self):
        from eikograph import build_graph

        g = build_graph({
            "vertices": ["a", "b", "c", "x"],
            "edges": [{"a": "x", "b": y, "length": 1.0} for y in ("c", "a", "b")],
            "boundary": ["c", "b", "a"],
        })
        p = DirichletProblem(g, constant_field(g, 1.0, "rhs_f"), constant_field(g, 0.0, "boundary_zeta"))
        vf = solve_dirichlet(p)
        assert vf.exit_vertex["x"] == reference_exits(p, vf)["x"] == "a"

    def test_exact_zero_cost_tie_pinned(self):
        # f = 0 and zeta = 0: every vertex ties at label 0 with both exits;
        # the retry loop picked n007, settle order picks n006
        g = random_metric_graph(17, n_min=4, n_max=9)
        p = DirichletProblem(
            g, constant_field(g, 0.0, "rhs_f"), constant_field(g, 0.0, "boundary_zeta"), threshold=0.0
        )
        vf = solve_dirichlet(p)
        assert sorted(g.boundary) == ["n006", "n007"]
        inner = [f"n{i:03d}" for i in range(6)]
        assert all(reference_exits(p, vf)[x] == "n007" for x in inner)
        assert all(vf.exit_vertex[x] == "n006" for x in inner)
        assert_exits_along_equalities(p, vf)


class TestBoundaryCertificate:
    def test_compatible_two_point_data(self):
        # L = 0.25 <= inf f = 1: the strong condition holds, two-sided bound checked
        p = interval_problem(zeta={"v0": 0.0, "v200": 0.5})
        vf = solve_dirichlet(p)
        cert = check_boundary_consistency(p, vf)
        assert close(cert.lipschitz_L, 0.25)
        assert cert.zeta_lipschitz_ok
        assert cert.curve_condition_ok
        assert cert.weak_bound_ok
        assert cert.two_sided_ok is True

    def test_incompatible_data_certificate(self):
        p = interval_problem(zeta={"v0": 0.0, "v200": 3.0})
        vf = solve_dirichlet(p)
        cert = check_boundary_consistency(p, vf)
        assert close(cert.lipschitz_L, 1.5)
        assert cert.lipschitz_L > cert.inf_f
        assert not cert.zeta_lipschitz_ok
        assert not cert.curve_condition_ok
        assert cert.two_sided_ok is None  # not applicable without the strong condition
        assert cert.weak_bound_ok  # the one-sided bound still holds for the value function

    def test_constant_data_zero_lipschitz(self):
        p = interval_problem(zeta={"v0": 0.4, "v200": 0.4})
        vf = solve_dirichlet(p)
        cert = check_boundary_consistency(p, vf)
        assert cert.lipschitz_L == 0.0
        assert cert.zeta_lipschitz_ok and cert.weak_bound_ok and cert.two_sided_ok


class TestProblemValidation:
    def test_empty_boundary_rejected(self):
        g = fixture("circle", n=12).graph  # metric-only fixture: no boundary
        f = constant_field(g, 1.0, "rhs_f")
        z = field_on(g, {}, "boundary_zeta")
        with pytest.raises(ProblemError):
            DirichletProblem(g, f, z)

    def test_positivity_failure_rejected(self):
        g = fixture("interval", n=10).graph
        f = constant_field(g, 0.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        with pytest.raises(FieldError):
            DirichletProblem(g, f, z)

    def test_overflowing_cost_raises_problem_error(self):
        # 0.5 * (1e308 + 1e308) is inf: every interior label overflows
        g = fixture("grid", n=3).graph
        f = constant_field(g, 1e308, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        with pytest.raises(ProblemError, match="vertex 'v1_1' overflows binary64"):
            solve_dirichlet(DirichletProblem(g, f, z))

    def test_value_function_rejects_an_overflowing_run(self):
        # any settle run, such as Picard's last sweep, not only solve_dirichlet's
        g = fixture("grid", n=3).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        run = settle(g, boundary_seeds(g, z), [1e308] * len(g.vertices))
        with pytest.raises(ProblemError, match="vertex 'v1_1' overflows binary64"):
            value_function(g, z, run)

    def test_threshold_zero_allows_zero_rhs(self):
        g = fixture("interval", n=10).graph
        f = constant_field(g, 0.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z, threshold=0.0))
        assert all(vf.u[v] == 0.0 for v in g.vertices)

    def test_zero_cost_edge_with_adversarial_ids_resolves_exits(self):
        # "m" ties with "z" across a zero-cost edge but sorts before it;
        # exits follow settle order, so "m" still finds one
        from eikograph import build_graph

        g = build_graph({
            "vertices": ["a", "m", "z"],
            "edges": [
                {"a": "a", "b": "z", "length": 1.0},
                {"a": "z", "b": "m", "length": 1.0},
            ],
            "boundary": ["a"],
        })
        f = field_on(g, {"a": 1.0, "z": 0.0, "m": 0.0}, "rhs_f")
        z = field_on(g, {"a": 0.0}, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z, threshold=0.0))
        assert vf.u["m"] == vf.u["z"] == 0.5
        assert vf.exit_vertex["m"] == "a"
