"""Fixtures, comparison harness, and the equivalence suite."""

from __future__ import annotations

import math

import pytest

from eikograph import (
    ComparisonInstance,
    DirichletProblem,
    ValidationError,
    compare,
    constant_field,
    edge_costs,
    equivalence_suite,
    field_on,
    fixture,
    random_comparison_instance,
    random_metric_graph,
    solve_dirichlet,
)
from eikograph.graph import close

from oracles import reference_fixture, reference_gasket, value_iteration


class TestFixtures:
    def test_interval_counts_and_boundary(self):
        fix = fixture("interval", n=200)
        g = fix.graph
        assert len(g.vertices) == 201
        assert len(g.edges) == 200
        assert g.boundary == frozenset({"v0", "v200"})
        assert close(g.h_max, 0.01)

    def test_gasket_counts(self):
        for level in range(5):
            g = fixture("gasket", level=level).graph
            assert len(g.edges) == 3 ** (level + 1)
            assert len(g.vertices) == (3 ** (level + 1) + 3) // 2
            assert len(g.boundary) == 3

    @pytest.mark.parametrize("level", range(8))
    def test_gasket_closed_form_equals_subdivision(self, level):
        g, ref = fixture("gasket", level=level).graph, reference_gasket(level)
        assert g == ref
        assert list(g.edges.items()) == list(ref.edges.items())
        assert list(g.coords.items()) == list(ref.coords.items())
        assert g.index == ref.index and g.nbrs == ref.nbrs and g.lens == ref.lens

    @pytest.mark.parametrize("name,params", [
        ("grid", {"n": 2}), ("binary_tree", {"depth": 1}), ("interval", {"n": 1}), ("circle", {"n": 3}),
        ("gasket", {"level": 0}),
        ("grid", {"n": 150}), ("grid", {"n": 60, "connectivity": 8}), ("binary_tree", {"depth": 13}),
        ("gasket", {"level": 7}),  # the smallest of each kind, then the sweep benchmark's graphs
    ], ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v.values())))
    def test_fixture_equals_the_edge_dict_construction(self, name, params):
        fix, ref = fixture(name, **params), reference_fixture(name, **params)
        g, h = fix.graph, ref.graph
        assert g.vertices == h.vertices and sorted(g.boundary) == sorted(h.boundary)
        assert list(g.coords.items()) == list(h.coords.items())
        assert list(g.index.items()) == list(h.index.items())
        assert g.nbrs == h.nbrs and g.lens == h.lens
        assert list(g.edges.items()) == list(h.edges.items())
        assert fix.params == ref.params
        assert (fix.reference is None) == (ref.reference is None)
        assert list((fix.reference or {}).items()) == list((ref.reference or {}).items())

    def test_gasket_zero_is_triangle(self):
        g = fixture("gasket", level=0).graph
        assert len(g.vertices) == 3 and len(g.edges) == 3
        assert all(length == 1.0 for length in g.edges.values())

    def test_gasket_one_counts(self):
        g = fixture("gasket", level=1).graph
        assert len(g.vertices) == 6 and len(g.edges) == 9

    def test_gasket_corners_are_unit_triangle(self):
        g = fixture("gasket", level=2).graph
        corners = sorted(g.boundary)
        pts = [g.coords[c] for c in corners]
        for i in range(3):
            for j in range(i + 1, 3):
                d = math.dist(pts[i], pts[j])
                assert close(d, 1.0)

    def test_circle_counts(self):
        g = fixture("circle", n=100).graph
        assert len(g.vertices) == 100 and len(g.edges) == 100
        assert g.boundary == frozenset()

    def test_grid_counts(self):
        g = fixture("grid", n=8).graph
        assert len(g.vertices) == 64
        assert len(g.edges) == 2 * 8 * 7
        assert len(g.boundary) == 28

    def test_grid_eight_connected(self):
        g = fixture("grid", n=4, connectivity=8).graph
        assert len(g.edges) == 2 * 4 * 3 + 2 * 9
        assert g.edge_length("v0_0", "v1_1") == math.sqrt(2.0)

    @pytest.mark.parametrize("name,params", [
        ("interval", {"n": 10**6}),  # 10**6 + 1 vertices
        ("circle", {"n": 10**6 + 1}),
        ("grid", {"n": 1001}),  # 1001**2 > 10**6 >= 1000**2
        ("binary_tree", {"depth": 19}),  # 2**20 - 1 vertices; depth 18 has 2**19 - 1
        ("gasket", {"level": 13}),  # 2,391,486 vertices; level 12 has 797,163
        ("binary_tree", {"depth": 10**9}),
    ])
    def test_oversized_fixture_rejected_before_building(self, name, params):
        with pytest.raises(ValidationError, match=f"{name} fixture would have more than 1000000 vertices"):
            fixture(name, **params)

    def test_binary_tree_counts(self):
        fix = fixture("binary_tree", depth=3)
        g = fix.graph
        assert len(g.vertices) == 2**4 - 1
        assert len(g.boundary) == 8  # the leaves
        assert fix.reference["t"] == 3.0

    def test_deterministic_regeneration(self):
        a = fixture("gasket", level=3).graph
        b = fixture("gasket", level=3).graph
        assert a == b

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValidationError):
            fixture("interval", n=0)
        with pytest.raises(ValidationError):
            fixture("nonagon", n=9)
        with pytest.raises(ValidationError):
            fixture("interval", sides=3)

    def test_gasket_solver_matches_oracle(self):
        g = fixture("gasket", level=3).graph
        f = constant_field(g, 1.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        oracle = value_iteration(g, edge_costs(g, f), {b: 0.0 for b in g.boundary})
        assert all(vf.u[v] == oracle[v] for v in g.vertices)


class TestEquivalenceSuite:
    def test_interval_constant_f_all_levels_zero(self):
        report = equivalence_suite(fixture("interval", n=200), "const:1", "const:0", levels=3)
        assert report.passed
        assert all(r <= 1e-12 for r in report.monge_residuals)
        assert all(row[5] == "pass" for row in report.rows)

    def test_grid_lipschitz_f_residual_halves(self):
        report = equivalence_suite(fixture("grid", n=16), "linear:1,0.5", "const:0", levels=3)
        assert report.passed
        r = report.monge_residuals
        assert r[0] > 1e-3  # genuinely nonzero at the coarse level
        assert close(r[1] / r[0], 0.5, abs_tol=1e-6)
        assert close(r[2] / r[1], 0.5, abs_tol=1e-6)

    def test_gasket_constant_f_exact(self):
        report = equivalence_suite(fixture("gasket", level=3), "const:1", "const:0", levels=2)
        assert report.passed
        assert all(r == 0.0 for r in report.monge_residuals)  # dyadic: exact

    def test_rows_cover_all_checks(self):
        report = equivalence_suite(fixture("interval", n=32), levels=2)
        names = {row[2] for row in report.rows}
        assert names == {"monge", "csub", "csuper", "regularity", "monge-residual-monotone"}

    def test_bad_levels_rejected(self):
        with pytest.raises(ValidationError):
            equivalence_suite(fixture("interval", n=8), levels=0)


class TestCompare:
    def setup_interval(self):
        g = fixture("interval", n=200).graph
        f = constant_field(g, 1.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        return g, f, vf

    def test_scaled_subsolution_below_solution(self):
        g, f, vf = self.setup_interval()
        u = field_on(g, {v: 0.5 * vf.u[v] for v in g.vertices}, "solution_u")
        report = compare(ComparisonInstance(graph=g, f=f, u_sub=u, v_super=vf.u))
        assert report.hypothesis_failed is None
        assert report.passed

    def test_identity_instance_passes_with_equality(self):
        g, f, vf = self.setup_interval()
        report = compare(ComparisonInstance(graph=g, f=f, u_sub=vf.u, v_super=vf.u))
        assert report.passed
        assert report.max_excess == 0.0

    def test_swapped_instance_reports_hypothesis_not_verdict(self):
        g, f, vf = self.setup_interval()
        half = field_on(g, {v: 0.5 * vf.u[v] for v in g.vertices}, "solution_u")
        report = compare(ComparisonInstance(graph=g, f=f, u_sub=vf.u, v_super=half))
        assert report.hypothesis_failed == "monge-super"
        assert report.comparison_passed is None
        assert close(report.super_report.max_residual, 0.5)

    def test_band_violation_detected(self):
        g, f, vf = self.setup_interval()
        lifted = field_on(g, {v: vf.u[v] + 0.1 for v in g.vertices}, "solution_u")
        report = compare(ComparisonInstance(graph=g, f=f, u_sub=lifted, v_super=vf.u))
        assert report.hypothesis_failed == "boundary-band"

    def test_nonpositive_f_blocks_comparison(self):
        g, _, vf = self.setup_interval()
        f0 = constant_field(g, 0.0, "rhs_f")
        report = compare(ComparisonInstance(graph=g, f=f0, u_sub=vf.u, v_super=vf.u))
        assert report.hypothesis_failed == "positivity"

    def test_true_violation_reports_vertex(self):
        # both fields pass their one-sided checks but the band hypothesis is
        # met only marginally; forcing compare_tol tiny flags the excess
        g, f, vf = self.setup_interval()
        u = field_on(g, {v: 0.5 * vf.u[v] for v in g.vertices}, "solution_u")
        report = compare(
            ComparisonInstance(graph=g, f=f, u_sub=u, v_super=vf.u, compare_tol=-1.0)
        )
        assert report.comparison_passed is False
        assert report.violating_vertex is not None

    @pytest.mark.parametrize("delta", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_band_delta_rejected(self, delta):
        # -1 and nan used to leave the band empty, and max() raised ValueError
        g, f, vf = self.setup_interval()
        with pytest.raises(ValidationError, match="band_delta must be >= 0"):
            compare(ComparisonInstance(graph=g, f=f, u_sub=vf.u, v_super=vf.u, band_delta=delta))

    def test_zero_band_delta_is_the_boundary(self):
        g, f, vf = self.setup_interval()
        report = compare(ComparisonInstance(graph=g, f=f, u_sub=vf.u, v_super=vf.u, band_delta=0.0))
        assert report.passed and report.band_size == len(g.boundary)

    def test_randomized_scaled_instances(self):
        for seed in range(25):
            report = compare(random_comparison_instance(seed))
            assert report.hypothesis_failed is None
            assert report.passed


class TestRandomGraph:
    def test_deterministic(self):
        assert random_metric_graph(42) == random_metric_graph(42)

    def test_size_bounds_and_boundary(self):
        for seed in range(10):
            g = random_metric_graph(seed)
            assert 8 <= len(g.vertices) <= 50
            assert g.boundary
            assert all(length > 0 for length in g.edges.values())
