"""Scalar fields, trapezoid edge costs, and field validation."""

from __future__ import annotations

import math

import pytest

from eikograph import (
    DirichletProblem,
    FieldError,
    ValidationError,
    build_graph,
    builtin_hamiltonian,
    check_boundary_consistency,
    check_c_subsolution,
    check_c_supersolution,
    check_hamiltonian_monge,
    check_monge,
    check_regularity,
    constant_field,
    edge_costs,
    field_from_expression,
    field_from_function,
    field_on,
    fixture,
    lipschitz_constant,
    read_field_csv,
    reduce_field,
    refine,
    solve_dirichlet,
    solve_general,
    validate_field,
    write_field_csv,
)
from eikograph.fields import ScalarField, field_list
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


class Id(str):
    """A str subclass: field_on stores its plain str."""


class Ratio(float):
    """A float subclass: field_on stores its plain float."""


def converted(values):
    """The converting build that field_on skips for exact str keys and float values."""
    return dict(zip(map(str, values.keys()), map(float, values.values())))


def outcome(call):
    """("ok", result) or (exception type, message): what a call returns or raises."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


class TestFieldOnInputs:
    """field_on copies exact str/float input as it is and converts every
    other input: either way the same dict, order and errors."""

    @staticmethod
    def cases(g):
        vs = list(reversed(g.vertices))  # an order other than id order
        floats = {v: 0.25 * k for k, v in enumerate(vs)}
        return {
            "exact": floats,
            "exact, negative": {**floats, vs[1]: -0.5},
            "exact, missing": dict(list(floats.items())[1:]),
            "exact, unknown": {**floats, "nowhere": 1.0},
            "exact, an id swapped for an unknown one": {**dict(list(floats.items())[1:]), "nowhere": 1.0},
            "int": {v: k for k, v in enumerate(vs)},
            "bool": {v: k % 2 == 0 for k, v in enumerate(vs)},
            "numeric str": {v: f"{0.5 * k}" for k, v in enumerate(vs)},
            "str keys subclass": {Id(v): x for v, x in floats.items()},
            "float subclass": {v: Ratio(x) for v, x in floats.items()},
            "mixed": {**floats, vs[0]: 3},
            **{f"non-finite {bad!r}": {**floats, vs[2]: bad, vs[4]: bad}
               for bad in (math.nan, math.inf, -math.inf, "nan", "-inf")},
        }

    @pytest.mark.parametrize("role", ["rhs_f", "solution_u"])
    def test_same_dict_order_and_errors_as_the_converting_build(self, role):
        g = fixture("grid", n=4).graph
        for name, values in self.cases(g).items():
            want = converted(values)
            got = outcome(lambda: field_on(g, values, role))
            assert got[0] is outcome(lambda: field_on(g, want, role))[0], name
            if got[0] == "ok":
                field = got[1]
                assert list(field.values.items()) == list(want.items()), name
                assert set(map(type, field.values)) == {str}
                assert set(map(type, field.values.values())) == {float}
                assert field.values is not values  # a copy: the caller's dict stays the caller's
            else:
                assert got == outcome(lambda: field_on(g, want, role)), name

    def test_boundary_data_inputs(self):
        g = fixture("grid", n=4).graph
        boundary = sorted(g.boundary, reverse=True)
        for values in ({y: 0.5 for y in boundary}, {y: 1 for y in boundary}, {Id(y): "2" for y in boundary},
                       {**{y: 0.5 for y in boundary}, "v1_1": 0.5}, {y: 0.5 for y in boundary[1:]},
                       {**{y: 0.5 for y in boundary}, boundary[3]: math.inf}):
            want = converted(values)
            got = outcome(lambda: field_on(g, values, "boundary_zeta"))
            assert got[0] is outcome(lambda: field_on(g, want, "boundary_zeta"))[0]
            if got[0] == "ok":
                assert list(got[1].values.items()) == list(want.items())
            else:
                assert got == outcome(lambda: field_on(g, want, "boundary_zeta"))


class TestValidateField:
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0, 1.5, math.inf, math.nan])
    def test_offenders_are_the_sorted_values_below_the_threshold(self, threshold):
        g = fixture("interval", n=6).graph
        vs = list(reversed(g.vertices))
        cases = [
            {v: 1.0 for v in vs},  # at, below or above the threshold
            {v: 0.25 * k for k, v in enumerate(vs)},
            {**{v: 1.0 for v in vs}, vs[2]: 0.5, vs[4]: -0.0},
            {**{v: 2.0 for v in vs}, vs[0]: math.nan},  # a NaN first: min() returns it
            {**{v: 2.0 for v in vs}, vs[3]: math.nan, vs[5]: 0.0},  # a NaN later: min() skips it
            {},
        ]
        for values in cases:
            f = ScalarField(g, values, "rhs_f")  # unvalidated, so NaN and gaps reach validate_field
            want = tuple(sorted((v, x) for v, x in values.items() if x < threshold))
            assert validate_field(f, threshold) == want


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

    @pytest.mark.parametrize("expr", ["linear:1,2,-1", "linear:1,2,-3", "linear:1,2,0,1"])
    def test_negative_axis_or_extra_part_rejected(self, expr):
        # -1 used to read the last coordinate, -3 to raise IndexError on 2-D coords
        g = fixture("grid", n=4).graph
        with pytest.raises(ValidationError, match=f"bad linear field expression '{expr}'"):
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


def hexes(values):
    return [x.hex() for x in values]


class TestOneListPerField:
    """Every field keeps its values as one list by vertex index of its own
    graph, which field_list hands out there and no reader in the package
    writes; any other graph gets the lookup, with the same values or error."""

    @staticmethod
    def fields(g, tmp_path):
        """(name, field) for every constructor of a field with values at every vertex."""
        vs = list(reversed(g.vertices))  # an order other than id order
        f = field_on(g, {v: 0.5 + 0.125 * k for k, v in enumerate(vs)}, "rhs_f")
        zeta = field_from_function(g, lambda y: 0.25 * g.coords[y][0], "boundary_zeta")
        u = solve_dirichlet(DirichletProblem(g, f, zeta)).u
        write_field_csv(u, tmp_path / "u.csv")
        H = builtin_hamiltonian("affine-rho")
        _, general, _ = solve_general(g, H, zeta)
        return [
            ("field_on", f),
            ("constant_field", constant_field(g, 0.75, "solution_u")),
            ("field_from_function", field_from_function(g, lambda v: g.coords[v][1] - 0.5, "solution_u")),
            ("read_field_csv", read_field_csv(g, tmp_path / "u.csv", "solution_u")),
            ("value_function", u),
            ("solve_general h", general.h),
            ("reduce_field", reduce_field(H, g, u.values).h),
        ]

    def test_own_graph_list_is_the_id_order_lookup(self, tmp_path):
        g = fixture("grid", n=5).graph
        for name, field in self.fields(g, tmp_path):
            fl = field_list(g, field)
            assert hexes(fl) == hexes(field.values[v] for v in g.vertices), name
            assert field_list(g, field) is fl, name  # kept, not rebuilt

    def test_foreign_graph_gets_the_lookup(self, tmp_path):
        g, same, larger = (fixture("grid", n=n).graph for n in (5, 5, 6))
        assert same == g and same is not g
        for name, field in self.fields(g, tmp_path):
            assert hexes(field_list(same, field)) == hexes(field_list(g, field)), name
            assert field_list(same, field) is not field_list(g, field), name
            missing = next(v for v in larger.vertices if v not in g.index)
            want = f"^field \\({field.role}\\) has no value at vertex '{missing}'$"
            with pytest.raises(FieldError, match=want):
                field_list(larger, field)

    def test_no_reader_writes_a_kept_list(self):
        g = fixture("grid", n=6, connectivity=8).graph
        H = builtin_hamiltonian("affine-rho")
        f = field_from_expression(g, "linear:1,0.5", "rhs_f")
        zeta = field_from_expression(g, "linear:0,0.7", "boundary_zeta")
        p = DirichletProblem(g, f, zeta)
        vf = solve_dirichlet(p)
        h = solve_general(g, H, zeta)[1].h
        fields = (f, vf.u, h)
        kept = [field_list(g, x) for x in fields]
        before = [hexes(fl) for fl in kept] + [hexes(zeta.values.values())]
        check_boundary_consistency(p, vf)
        for u, rhs in ((vf.u, f), (h, h)):  # h as u and as f: every check reads both fields' lists
            check_monge(g, u, rhs), check_c_subsolution(g, u, rhs), check_c_supersolution(g, u, rhs)
            check_regularity(g, u), check_hamiltonian_monge(g, u, H)
        solve_dirichlet(DirichletProblem(g, h, zeta, threshold=0.0))
        solve_general(g, H, zeta)
        assert all(field_list(g, x) is fl for x, fl in zip(fields, kept))
        assert [hexes(fl) for fl in kept] + [hexes(zeta.values.values())] == before
