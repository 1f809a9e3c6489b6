"""Scalar fields, trapezoid edge costs, and field validation."""

from __future__ import annotations

import math

import pytest

from eikograph import (
    FieldError,
    ValidationError,
    build_graph,
    check_c_subsolution,
    check_c_supersolution,
    constant_field,
    edge_costs,
    field_from_expression,
    field_on,
    fixture,
    lipschitz_constant,
    read_field_csv,
    refine,
    validate_field,
    write_field_csv,
)
from eikograph.graph import close

from oracles import trapezoid_path_cost


def two_vertex_graph(length=1.0):
    return build_graph({
        "vertices": ["a", "b"],
        "edges": [{"a": "a", "b": "b", "length": length}],
        "boundary": ["a"],
    })


def ab_cost(g, f):
    """The a-b edge cost of ``edge_costs``."""
    return edge_costs(g, f)[("a", "b")]


class TestEdgeCost:
    def test_constant_integrand(self):
        g = two_vertex_graph(length=0.7)
        f = constant_field(g, 1.0, "rhs_f")
        assert ab_cost(g, f) == 0.7

    def test_trapezoid_midpoint(self):
        g = two_vertex_graph(length=1.0)
        f = field_on(g, {"a": 0.0, "b": 2.0}, "rhs_f")
        assert ab_cost(g, f) == 1.0

    def test_quadratic_integral_via_fine_mesh(self):
        # f(x) = x^2 on [0, 1] at h = 1e-3: integral of the interpolant vs 1/3
        n = 1000
        ids = [f"x{k}" for k in range(n + 1)]
        g = build_graph({
            "vertices": [{"id": ids[k], "coords": [k / n]} for k in range(n + 1)],
            "edges": [{"a": ids[k], "b": ids[k + 1], "length": 1.0 / n} for k in range(n)],
            "boundary": [ids[0], ids[n]],
        })
        f = field_on(g, {ids[k]: (k / n) ** 2 for k in range(n + 1)}, "rhs_f")
        total = trapezoid_path_cost(g, f.values, ids)
        assert abs(total - 1.0 / 3.0) < 1e-6
        # the edge costs sum to the same integral
        assert close(sum(edge_costs(g, f).values()), total)

    def test_orientation_symmetric(self):
        g = two_vertex_graph()
        f = field_on(g, {"a": 0.3, "b": 1.9}, "rhs_f")
        reverse = field_on(g, {"a": 1.9, "b": 0.3}, "rhs_f")
        assert ab_cost(g, f) == ab_cost(g, reverse)

    def test_bounds_between_min_and_max(self):
        g = two_vertex_graph(length=0.31)
        f = field_on(g, {"a": 0.4, "b": 1.7}, "rhs_f")
        c = ab_cost(g, f)
        assert 0.31 * 0.4 <= c <= 0.31 * 1.7

    def test_additive_under_refinement(self):
        g = two_vertex_graph(length=0.9)
        f = field_on(g, {"a": 0.5, "b": 2.5}, "rhs_f")
        base = ab_cost(g, f)
        r = refine(g, 0.3)
        # interpolate f linearly onto the refined chain, then sum sub-costs
        values = {}
        for v in r.vertices:
            if v in ("a", "b"):
                values[v] = f[v]
            else:
                i = int(v.rsplit("~", 1)[1])
                t = i / 3
                values[v] = f["a"] + t * (f["b"] - f["a"])
        rf = field_on(r, values, "rhs_f")
        total = sum(c for c in edge_costs(r, rf).values())
        assert close(total, base)

    def test_scaling_linear_in_f(self):
        g = two_vertex_graph(length=0.9)
        f = field_on(g, {"a": 0.5, "b": 2.5}, "rhs_f")
        f2 = field_on(g, {"a": 1.0, "b": 5.0}, "rhs_f")
        assert ab_cost(g, f2) == 2.0 * ab_cost(g, f)

    def test_wrong_role_rejected(self):
        g = two_vertex_graph()
        u = field_on(g, {"a": 0.0, "b": 1.0}, "solution_u")
        with pytest.raises(FieldError):
            edge_costs(g, u)
        with pytest.raises(FieldError):
            check_c_subsolution(g, u, u)
        with pytest.raises(FieldError):
            check_c_supersolution(g, u, u)


class TestFieldConstruction:
    def test_missing_vertex_rejected(self):
        g = two_vertex_graph()
        with pytest.raises(FieldError):
            field_on(g, {"a": 1.0}, "rhs_f")

    def test_unknown_vertex_rejected(self):
        g = two_vertex_graph()
        with pytest.raises(FieldError):
            field_on(g, {"a": 1.0, "b": 1.0, "zz": 1.0}, "rhs_f")

    def test_negative_rhs_rejected(self):
        g = two_vertex_graph()
        with pytest.raises(FieldError):
            field_on(g, {"a": -0.1, "b": 1.0}, "rhs_f")

    def test_zeta_only_on_boundary(self):
        g = two_vertex_graph()
        z = field_on(g, {"a": 0.5}, "boundary_zeta")
        assert z["a"] == 0.5
        with pytest.raises(FieldError):
            field_on(g, {"a": 0.5, "b": 0.1}, "boundary_zeta")
        with pytest.raises(FieldError):
            field_on(g, {}, "boundary_zeta")

    def test_unknown_role_rejected(self):
        g = two_vertex_graph()
        with pytest.raises(FieldError):
            field_on(g, {"a": 1.0, "b": 1.0}, "speed")

    @pytest.mark.parametrize("role", ["rhs_f", "solution_u", "boundary_zeta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, role, bad):
        g = two_vertex_graph()
        values = {"a": 1.0, "b": bad} if role != "boundary_zeta" else {"a": bad}
        vertex = "'b'" if role != "boundary_zeta" else "'a'"
        with pytest.raises(FieldError, match=f"non-finite value .* at vertex {vertex}"):
            field_on(g, values, role)

    def test_finite_values_whose_sum_overflows_accepted(self):
        g = two_vertex_graph()
        f = field_on(g, {"a": 1e308, "b": 1e308}, "rhs_f")
        assert f["a"] == f["b"] == 1e308


class TestValidateField:
    def test_constant_one_passes(self):
        g = two_vertex_graph()
        f = constant_field(g, 1.0, "rhs_f")
        assert validate_field(f, 1e-6) == ()

    def test_interior_zero_listed(self):
        g = fixture("interval", n=4).graph
        values = {v: 1.0 for v in g.vertices}
        values["v2"] = 0.0
        f = field_on(g, values, "rhs_f")
        offenders = validate_field(f, 1e-6)
        assert offenders
        assert offenders == (("v2", 0.0),)

    def test_zero_field_passes_at_threshold_zero(self):
        g = two_vertex_graph()
        f = constant_field(g, 0.0, "rhs_f")
        assert validate_field(f, 0.0) == ()


class TestExpressions:
    def test_const(self):
        g = two_vertex_graph()
        f = field_from_expression(g, "const:2.5", "rhs_f")
        assert f["a"] == 2.5 and f["b"] == 2.5

    def test_linear_needs_coords(self):
        g = two_vertex_graph()
        with pytest.raises(FieldError):
            field_from_expression(g, "linear:1,0.5", "rhs_f")

    def test_linear_on_grid(self):
        g = fixture("grid", n=3).graph
        f = field_from_expression(g, "linear:1,0.5", "rhs_f")
        assert f["v2_0"] == 2.0
        f_y = field_from_expression(g, "linear:0,1,1", "rhs_f")
        assert f_y["v0_2"] == 2.0

    def test_bad_expressions_rejected(self):
        g = two_vertex_graph()
        for expr in ("const:", "linear:1", "poly:1,2", "linear:a,b"):
            with pytest.raises(ValidationError):
                field_from_expression(g, expr, "rhs_f")


class TestLipschitz:
    def test_constant_is_zero(self):
        g = fixture("interval", n=10).graph
        assert lipschitz_constant(g, constant_field(g, 3.0, "rhs_f")) == 0.0

    def test_linear_on_grid(self):
        g = fixture("grid", n=4).graph
        f = field_from_expression(g, "linear:1,0.5", "rhs_f")
        assert close(lipschitz_constant(g, f), 0.5)


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        g = fixture("interval", n=8).graph
        f = field_on(g, {v: 0.1 + 0.37 * i for i, v in enumerate(g.vertices)}, "rhs_f")
        path = tmp_path / "f.csv"
        write_field_csv(f, str(path))
        back = read_field_csv(g, str(path), "rhs_f")
        assert back.values == f.values

    def test_bad_header_rejected(self, tmp_path):
        g = two_vertex_graph()
        path = tmp_path / "bad.csv"
        path.write_text("id,val\na,1\n")
        with pytest.raises(ValidationError):
            read_field_csv(g, str(path), "rhs_f")

    def test_solver_output_header_only_for_solution_u(self, tmp_path):
        g = two_vertex_graph()
        path = tmp_path / "u.csv"
        path.write_text("vertex_id,u,exit_vertex,attained\na,0.0,a,true\n\nb,1.0,a,\n")
        assert read_field_csv(g, str(path), "solution_u").values == {"a": 0.0, "b": 1.0}
        with pytest.raises(ValidationError, match="expected header 'vertex_id,value'"):
            read_field_csv(g, str(path), "rhs_f")

    def test_bad_value_reports_line(self, tmp_path):
        g = two_vertex_graph()
        path = tmp_path / "bad.csv"
        path.write_text("vertex_id,value\na,1.0\nb,oops\n")
        with pytest.raises(ValidationError, match=":3:"):
            read_field_csv(g, str(path), "rhs_f")
