"""Slopes and the four solution-notion checks."""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc

import pytest

import eikograph.fields as fields_module
from eikograph import (
    DirichletProblem,
    FieldError,
    GraphError,
    ValidationError,
    build_graph,
    check_c_subsolution,
    check_c_supersolution,
    check_monge,
    check_regularity,
    constant_field,
    edge_costs,
    equivalence_suite,
    field_from_expression,
    field_on,
    fixture,
    lipschitz_constant,
    random_metric_graph,
    slopes,
    solve_dirichlet,
)
from eikograph.graph import close
from oracles import COLLIDE, COLLIDE_U, arc_keys_from_lists, reference_check_c_subsolution, views_from_lists
from test_graph import VIEW_GRAPHS


def interval_field(fn, n=256):
    """Field from a function of the x coordinate on a dyadic interval.

    n = 256 keeps all coordinates, values and edge lengths dyadic, so the
    stated exact-zero residuals are exact in binary64 too.
    """
    g = fixture("interval", n=n).graph
    u = field_on(g, {v: fn(g.coords[v][0]) for v in g.vertices}, "solution_u")
    return g, u


def center_vertex(g):
    return min(g.vertices, key=lambda v: (abs(g.coords[v][0]), v))


class TestSlopes:
    def test_distance_cone_at_kink(self):
        g, u = interval_field(lambda x: 1.0 - abs(x))
        t = slopes(g, u, center_vertex(g))
        assert t.sub_slope == 1.0
        assert t.super_slope == 0.0
        assert t.slope == 1.0

    def test_absolute_value_has_zero_sub_slope_at_kink(self):
        g, u = interval_field(abs)
        t = slopes(g, u, center_vertex(g))
        assert t.sub_slope == 0.0
        assert t.super_slope == 1.0

    def test_steep_cone_sub_slope_three(self):
        g, u = interval_field(lambda x: -3.0 * abs(x))
        t = slopes(g, u, center_vertex(g))
        assert t.sub_slope == 3.0

    def test_slope_is_max_of_half_slopes(self):
        g = random_metric_graph(31, n_max=25)
        rng = random.Random(31)
        u = field_on(g, {v: rng.uniform(-2.0, 2.0) for v in g.vertices}, "solution_u")
        for v in g.vertices:
            t = slopes(g, u, v)
            assert t.slope == max(t.super_slope, t.sub_slope)
            assert t.slope >= 0.0

    def test_negation_duality(self):
        g = random_metric_graph(32, n_max=25)
        rng = random.Random(32)
        u = field_on(g, {v: rng.uniform(-2.0, 2.0) for v in g.vertices}, "solution_u")
        neg = field_on(g, {v: -u[v] for v in g.vertices}, "solution_u")
        for v in g.vertices:
            assert slopes(g, u, v).super_slope == slopes(g, neg, v).sub_slope

    def test_scale_equivariance(self):
        g = random_metric_graph(33, n_max=25)
        rng = random.Random(33)
        u = field_on(g, {v: rng.uniform(-2.0, 2.0) for v in g.vertices}, "solution_u")
        doubled = field_on(g, {v: 2.0 * u[v] for v in g.vertices}, "solution_u")
        for v in g.vertices:
            assert slopes(g, doubled, v).slope == 2.0 * slopes(g, u, v).slope

    def test_isolated_vertex_raises(self):
        g = build_graph({"vertices": ["only"], "edges": [], "boundary": []})
        u = field_on(g, {"only": 0.0}, "solution_u")
        with pytest.raises(GraphError):
            slopes(g, u, "only")


class TestCheckMonge:
    def test_distance_cone_passes_tight(self):
        g, u = interval_field(lambda x: 1.0 - abs(x))
        f = constant_field(g, 1.0, "rhs_f")
        report = check_monge(g, u, f, tol=1e-12)
        assert report.passed
        assert report.max_residual == 0.0

    def test_inverted_cone_fails_exactly_at_kink(self):
        g, u = interval_field(lambda x: abs(x) - 1.0, n=200)
        f = constant_field(g, 1.0, "rhs_f")
        report = check_monge(g, u, f)
        center = center_vertex(g)
        assert not report.passed
        assert report.failures() == [center]
        assert abs(report.residuals[center] - 1.0) <= 1e-12

    def test_sub_and_super_modes_are_one_sided(self):
        g, u = interval_field(lambda x: 0.5 * (1.0 - abs(x)))
        f = constant_field(g, 1.0, "rhs_f")
        sub = check_monge(g, u, f, mode="sub")
        sup = check_monge(g, u, f, mode="super")
        assert sub.passed  # sub-slope 0.5 <= 1
        assert not sup.passed  # deficit 0.5 at every interior vertex
        assert close(sup.max_residual, 0.5)

    def test_gasket_solver_output_passes(self):
        g = fixture("gasket", level=3).graph
        f = constant_field(g, 1.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        report = check_monge(g, vf.u, f, tol=1e-9)
        assert report.passed
        assert report.max_residual == 0.0  # dyadic lengths: exact

    def test_unknown_mode_rejected(self):
        g, u = interval_field(abs, n=4)
        f = constant_field(g, 1.0, "rhs_f")
        with pytest.raises(ValidationError, match=r"^unknown monge mode 'both'$"):
            check_monge(g, u, f, mode="both")


class TestCheckCSubsolution:
    def test_distance_cone_residuals_zero(self):
        g, u = interval_field(lambda x: 1.0 - abs(x))
        f = constant_field(g, 1.0, "rhs_f")
        report = check_c_subsolution(g, u, f, tol=0.0)
        assert report.passed
        assert report.max_residual == 0.0

    def test_steep_linear_fails_on_every_downhill_edge(self):
        n = 256
        g, u = interval_field(lambda x: 2.0 * x, n=n)
        f = constant_field(g, 1.0, "rhs_f")
        report = check_c_subsolution(g, u, f, tol=0.0)
        assert not report.passed
        failures = report.failures()
        assert len(failures) == n  # one orientation of every edge
        h = g.h_max
        assert all(close(report.residuals[e], h) for e in failures)

    def test_residuals_cover_each_oriented_edge_once(self):
        # residuals read from the cost adjacency equal, bit for bit, the
        # residuals of both orientations of every canonical edge_costs entry
        g = random_metric_graph(33, n_max=40)
        rng = random.Random(33)
        u = field_on(g, {v: rng.uniform(-2.0, 2.0) for v in g.vertices}, "solution_u")
        f = field_on(g, {v: rng.uniform(0.0, 1.5) for v in g.vertices}, "rhs_f")
        expected = {}
        for (a, b), c in edge_costs(g, f).items():
            expected[f"{a}->{b}"] = max(u[a] - (u[b] + c), 0.0)
            expected[f"{b}->{a}"] = max(u[b] - (u[a] + c), 0.0)
        report = check_c_subsolution(g, u, f)
        assert report.residuals == expected
        assert len(expected) == 2 * len(g.edges) and not report.passed

    def test_arcs_that_print_alike_are_all_judged(self):
        # a -> "b->c" and "a->b" -> c share the key "a->b->c"; only the first fails
        g = build_graph(COLLIDE)
        u = field_on(g, COLLIDE_U, "solution_u")
        report = check_c_subsolution(g, u, constant_field(g, 1.0, "rhs_f"))
        assert len(report.residuals) == 8 and not report.passed
        assert report.worst_item == "a->b->c" and report.max_residual == 4.0
        assert report.residuals["a->b->c"] == 0.0  # the last arc in list order, as dict(items()) keeps
        assert report.failures() == ["a->b->c"]
        assert [row for row in report.rows() if row[0] == "a->b->c"] == [
            ("a->b->c", 0.0, "pass"), ("a->b->c", 4.0, "fail")]
        assert list(report.residuals).count("a->b->c") == 2

    def test_arcs_that_print_alike_make_no_faithful_dict(self):
        # a lookup and == against a dict both read dict(items()), which keeps the last
        # of the two arcs, 0.0; len still counts 8 arcs over 7 keys; the verdicts judge both
        g = build_graph(COLLIDE)
        u = field_on(g, COLLIDE_U, "solution_u")
        report = check_c_subsolution(g, u, constant_field(g, 1.0, "rhs_f"))
        view = report.residuals
        items = dict(view.items())
        assert items["a->b->c"] == 0.0 and view["a->b->c"] == 0.0
        assert all(view[k] == r for k, r in items.items())
        assert view == items and view == dict(view)  # dict(view) reads each key's lookup
        assert len(items) == 7 and len(view) == 8
        assert not report.passed and report.max_residual == 4.0

    def test_solver_output_passes_at_zero(self):
        for seed in (5, 6):
            g = random_metric_graph(seed)
            rng = random.Random(seed)
            f = field_on(g, {v: rng.uniform(0.5, 2.0) for v in g.vertices}, "rhs_f")
            z = field_on(g, {v: 0.0 for v in g.boundary}, "boundary_zeta")
            vf = solve_dirichlet(DirichletProblem(g, f, z))
            assert check_c_subsolution(g, vf.u, f, tol=0.0).passed


class TestCheckCSupersolution:
    def test_distance_cone_passes_with_eps_zero(self):
        g, u = interval_field(lambda x: 1.0 - abs(x))
        f = constant_field(g, 1.0, "rhs_f")
        report = check_c_supersolution(g, u, f, eps=0.0)
        assert report.passed
        witness = report.details["witness"]
        assert witness.vertices[0] == center_vertex(g)
        assert witness.vertices[-1] in g.boundary

    def test_flat_field_fails_everywhere(self):
        g, u = interval_field(lambda x: 0.0, n=16)
        f = constant_field(g, 1.0, "rhs_f")
        report = check_c_supersolution(g, u, f, eps=0.0)
        assert not report.passed
        assert set(report.failures()) == set(g.interior)

    def test_solver_output_on_grid(self):
        g = fixture("grid", n=64).graph
        f = constant_field(g, 1.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        report = check_c_supersolution(g, vf.u, f, eps=1e-12)
        assert report.passed

    def test_descent_curve_descends(self):
        g = fixture("grid", n=8).graph
        f = constant_field(g, 1.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        curve = check_c_supersolution(g, vf.u, f).details["witness"]
        assert curve.vertices[0] == "v4_4"
        values = [vf.u[v] for v in curve.vertices]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert curve.vertices[-1] in g.boundary


class TestCheckRegularity:
    def test_solver_output_interval(self):
        g = fixture("interval", n=200).graph
        f = constant_field(g, 1.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        report = check_regularity(g, vf.u, tol=1e-12)
        assert report.passed
        # boundary-adjacent vertices are excluded but reported
        assert set(report.excluded) == {"v1", "v199"}

    def test_absolute_value_flagged_at_kink(self):
        g, u = interval_field(abs)
        report = check_regularity(g, u)
        center = center_vertex(g)
        assert not report.passed
        assert report.residuals[center] == 1.0

    def test_plateau_solution_flagged_at_kink(self):
        g, u = interval_field(lambda x: x if x <= 0.0 else 2.0 * x)
        report = check_regularity(g, u)
        center = center_vertex(g)
        assert report.residuals[center] == 1.0
        others = {v: r for v, r in report.residuals.items() if v != center}
        assert all(r <= 1e-12 for r in others.values())


class TestSolverSlopeIdentities:
    def test_constant_f_sub_slope_equals_f(self):
        g = fixture("gasket", level=3).graph
        f = constant_field(g, 1.0, "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        for x in g.interior:
            assert slopes(g, vf.u, x).sub_slope == 1.0  # dyadic: exact

    def test_lipschitz_f_interpolation_bound(self):
        g = fixture("grid", n=12).graph
        f = field_from_expression(g, "linear:1,0.5", "rhs_f")
        z = constant_field(g, 0.0, "boundary_zeta")
        vf = solve_dirichlet(DirichletProblem(g, f, z))
        bound = lipschitz_constant(g, f) * g.h_max
        for x in g.interior:
            assert abs(slopes(g, vf.u, x).sub_slope - f[x]) <= bound + 1e-12


FOUR_CHECKS = (
    lambda g, u, f: check_monge(g, u, f),
    lambda g, u, f: check_c_subsolution(g, u, f),
    lambda g, u, f: check_c_supersolution(g, u, f),
    lambda g, u, f: check_regularity(g, u),
)


def solved_grid(n=10):
    g = fixture("grid", n=n).graph
    f = field_from_expression(g, "linear:1,0.5", "rhs_f")
    vf = solve_dirichlet(DirichletProblem(g, f, constant_field(g, 0.0, "boundary_zeta")))
    return g, vf.u, f


class TestComputedOnce:
    """Lip(f), u's one-hop slopes and the mesh are computed once per field or
    graph, and read only for checks on the field's own graph."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"lipschitz": 0, "one_hop": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(fields_module, "_lipschitz_pass", counting("lipschitz", fields_module._lipschitz_pass))
        monkeypatch.setattr(fields_module, "_one_hop", counting("one_hop", fields_module._one_hop))
        return calls

    def test_four_checks_on_one_pair(self, counts):
        g, u, f = solved_grid()
        for _ in range(2):
            for check in FOUR_CHECKS:
                check(g, u, f)
        assert counts == {"lipschitz": 1, "one_hop": 1}

    def test_equivalence_suite(self, counts):
        # one graph, rhs field and solution per level
        assert equivalence_suite(fixture("grid", n=6), levels=3).passed
        assert counts == {"lipschitz": 3, "one_hop": 3}

    def test_values_cached_on_one_graph_are_not_read_for_another(self):
        g, u, f = solved_grid()
        stretched = dataclasses.replace(g, lens=tuple([2.0 * x for x in ln] for ln in g.lens))
        on_stretched = [check(stretched, *(field_on(stretched, x.values, x.role) for x in (u, f)))
                        for check in FOUR_CHECKS]
        on_g = [check(g, u, f) for check in FOUR_CHECKS]  # u and f now hold values computed on g
        assert [check(stretched, u, f) for check in FOUR_CHECKS] == on_stretched
        assert on_stretched[0] != on_g[0] and on_stretched[2] != on_g[2]

    def test_cached_values_leave_equality_alone(self):
        g, u, f = solved_grid()
        assert g.h_max == 1.0 and "edges" not in vars(g)
        for check in FOUR_CHECKS:
            check(g, u, f)
        assert "h_max" in vars(g) and "edges" not in vars(g)
        assert "_lipschitz" in vars(f) and "_interior_slopes" in vars(u)
        fresh_g, fresh_u, fresh_f = solved_grid()
        assert "h_max" not in vars(fresh_g)
        assert (g, u, f) == (fresh_g, fresh_u, fresh_f)


def largest(report):
    """(max_residual, worst_item) by definition: the largest residual, a NaN
    counting as larger than any number, and the smallest key holding it."""
    rs = report.residuals
    nans = sorted(k for k, r in rs.items() if math.isnan(r))
    if nans:
        return math.nan, nans[0]
    top = max(rs.values(), default=0.0)
    return top, min((k for k, r in rs.items() if r == top), default=None)


class TestWorstItem:
    """worst_item and max_residual match their definition, and the failure
    count without the sort and failures() match the failure rule, for ties,
    signed zeros and NaN residuals, on csub's view and on a vertex-keyed dict."""

    DRAWS = (0.0, -0.0, 0.5, 2.0, 2.0, math.nan)

    def test_matches_the_sorted_walk(self):
        g = fixture("grid", n=4).graph
        u = field_on(g, {v: 0.0 for v in g.vertices}, "solution_u")
        csub = check_c_subsolution(g, u, constant_field(g, 1.0, "rhs_f"))
        monge = check_monge(g, u, constant_field(g, 1.0, "rhs_f"))
        arcs, ids = len(csub.residuals), list(reversed(monge.residuals))  # not in key order
        rng = random.Random(4)
        fixed = [[math.nan] * arcs, [2.0] * arcs, [math.nan] + [1.0] * (arcs - 1),
                 [1.0] * (arcs - 1) + [math.nan], [0.0, -0.0] * (arcs // 2)]
        for rs in fixed + [[rng.choice(self.DRAWS) for _ in range(arcs)] for _ in range(200)]:
            for report in (dataclasses.replace(csub, residuals=type(csub.residuals)(g, rs)),
                           dataclasses.replace(monge, residuals=dict(zip(ids, rs)))):
                top, worst = largest(report)
                assert report.worst_item == worst
                assert report.max_residual == top or math.isnan(report.max_residual) and math.isnan(top)
                failing = [k for k, r in sorted(report.residuals.items()) if not r <= report.tol]
                assert report.failures() == failing and report.failing == len(failing)
                assert report.passed == (not failing)
                if failing:
                    assert report.worst_item in failing
        assert dataclasses.replace(monge, residuals={}).worst_item is None

    def test_ties_take_the_smallest_key_and_a_nan_is_the_worst(self):
        g = fixture("interval", n=4).graph
        u = field_on(g, {v: 0.0 for v in g.vertices}, "solution_u")
        report = check_monge(g, u, constant_field(g, 1.0, "rhs_f"))
        for residuals, worst in [({"v3": 2.0, "v1": 2.0, "v2": 1.0}, "v1"),
                                 ({"v3": 2.0, "v2": math.nan, "v1": 1.0}, "v2"),
                                 ({"v3": 2.0, "v1": math.nan, "v2": 1.0}, "v1"),
                                 ({"a": 1.0, "b": math.nan}, "b"),
                                 ({"b": math.nan, "a": 1.0}, "b"),
                                 ({"v2": 0.0, "v1": -0.0}, "v1")]:
            tied = dataclasses.replace(report, residuals=residuals)
            assert tied.worst_item == largest(tied)[1] == worst
            assert math.isnan(tied.max_residual) == any(map(math.isnan, residuals.values()))


class TestArcView:
    """csub's residuals are a read-only view of the graph and one residual per
    arc that behaves as the dict of ``oracles.arc_keys_from_lists`` and the
    residuals, and keeps no key."""

    @pytest.mark.parametrize("make", VIEW_GRAPHS.values(), ids=VIEW_GRAPHS.keys())
    def test_residuals_behave_as_the_dict_of_the_keys(self, make):
        g = make()
        stored = set(vars(g))
        rng = random.Random(len(g.vertices))
        u = field_on(g, {v: rng.uniform(-2.0, 2.0) for v in g.vertices}, "solution_u")
        f = field_on(g, {v: rng.uniform(0.0, 1.5) for v in g.vertices}, "rhs_f")
        report = check_c_subsolution(g, u, f)
        view, keys = report.residuals, arc_keys_from_lists(g)
        reference = reference_check_c_subsolution(g, u, f).residuals
        want = dict(zip(keys, map(reference.__getitem__, keys)))
        edges, _ = views_from_lists(g)
        assert list(view.items()) == list(want.items())
        assert list(view) == list(view.keys()) == keys and list(view.values()) == list(want.values())
        assert len(view) == len(want) == 2 * len(edges)
        assert view == want and want == view and not view != want
        assert view != {**want, keys[0]: -1.0} and view != dict(list(want.items())[1:])
        assert repr(view) == repr(want) and repr(report) == repr(dataclasses.replace(report, residuals=want))
        assert all(k in view and view[k] == r and view.get(k) == r for k, r in want.items())
        assert all(view[f"{b}->{a}"] == want[f"{b}->{a}"] for a, b in edges)  # reversed arcs
        vs = g.vertices
        non_arcs = [f"{a}->{b}" for a in vs for b in vs if f"{a}->{b}" not in want][:50]
        for key in non_arcs + [f"nowhere->{vs[0]}", f"{vs[0]}->nowhere", f"{vs[0]}->", vs[0], "->", "",
                               (vs[0], vs[1]), None]:
            assert key not in view and view.get(key) is None and view.get(key, 7) == 7
            with pytest.raises(KeyError):
                view[key]
        with pytest.raises(TypeError):
            view[[vs[0], vs[1]]]  # unhashable, as for a dict
        with pytest.raises(TypeError):
            view[keys[0]] = 1.0  # read-only
        for check in FOUR_CHECKS:
            check(g, u, f)
        assert set(vars(g)) == stored | {"h_max"}

    def test_report_keeps_one_residual_per_arc(self):
        g = fixture("grid", n=60, connectivity=8).graph
        f = field_from_expression(g, "linear:1,0.5", "rhs_f")
        u = solve_dirichlet(DirichletProblem(g, f, constant_field(g, 0.0, "boundary_zeta"))).u
        arcs = sum(map(len, g.nbrs))
        warm = check_c_subsolution(g, u, f)  # fill the free lists and u's and f's caches first
        assert warm.passed and warm.max_residual == 0.0 and len(warm.residuals) == arcs
        tracemalloc.start()
        try:
            report = check_c_subsolution(g, u, f)
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.clear_traces()  # from here, count only what reading the verdict keeps
            assert report.passed and report.max_residual == 0.0 and len(report.residuals) == arcs
            assert report.worst_item == min(report.residuals)  # every residual is 0.0
            read = tracemalloc.get_traced_memory()[0]
            key = next(iter(report.residuals))
            assert report.residuals[key] == 0.0
            built = tracemalloc.get_traced_memory()[0]
            tracemalloc.clear_traces()  # from here, count only what a second lookup keeps
            assert report.residuals[key] == 0.0
            again = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 16 * arcs  # a dict keyed by "x->y" strings keeps 37 bytes an arc, its keys 70 more
        assert read == 0
        assert built > 0 and again == 0  # the first lookup builds the dict, a second keeps nothing


def test_check_monge_refuses_an_f_that_is_no_rhs_field():
    # csub and csuper refuse it too: all three read f as an edge-cost integrand
    g = fixture("grid", n=3).graph
    vf = solve_dirichlet(DirichletProblem(g, constant_field(g, 1.0, "rhs_f"), constant_field(g, 0.0, "boundary_zeta")))
    for check in (check_monge, check_c_subsolution, check_c_supersolution):
        with pytest.raises(FieldError, match=r"^edge costs need a rhs_f field, got role 'solution_u'$"):
            check(g, vf.u, vf.u)
