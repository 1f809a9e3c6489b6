"""``errors._number``, the one reader of the numbers public names take, and
its rule at each door: the least value a door accepts passes, and the next
value out is refused, so flipping any of the doors' comparisons (``>`` to
``>=`` and back) fails a test here."""

from __future__ import annotations

import math
import re

import pytest

from eikograph import (
    ComparisonInstance,
    DirichletProblem,
    HamiltonianError,
    HamiltonianSpec,
    MetricError,
    ProblemError,
    ValidationError,
    ball,
    boundary_band,
    builtin_hamiltonian,
    check_c_supersolution,
    chord_from_coords,
    compare,
    constant_field,
    equivalence_suite,
    fixture,
    random_metric_graph,
    reduce_h,
    refine,
    solve_dirichlet,
    solve_general,
    validate_field,
)
from eikograph.errors import _number
from eikograph.graph import MAX_REFINE_VERTICES

TINY = 5e-324  # the least positive binary64


def grid4():
    g = fixture("grid", n=4).graph
    return g, constant_field(g, 1.0, "rhs_f"), constant_field(g, 0.0, "boundary_zeta")


def refused(error, message):
    return pytest.raises(error, match="^" + re.escape(message) + "$")


class TestReader:
    def test_a_real_read_is_the_nearest_float(self):
        assert _number(3, "x", "a number", lambda x: True) == 3.0
        assert type(_number(3, "x", "a number", lambda x: True)) is float
        assert _number(10**400, "x", "a number", lambda x: True) == math.inf
        assert _number(-(10**400), "x", "a number", lambda x: True) == -math.inf

    def test_an_integer_read_keeps_the_int(self):
        assert _number(10**400, "k", "an int", lambda k: True, integer=True) == 10**400
        with refused(ValidationError, "k must be an int, got 2.0"):
            _number(2.0, "k", "an int", lambda k: True, integer=True)

    @pytest.mark.parametrize("value", [True, False, "1", None, [1.0], {}, 1j])
    def test_what_is_no_number_is_refused_in_the_doors_class(self, value):
        with refused(ProblemError, f"x must be a number, got {value!r}"):
            _number(value, "x", "a number", lambda x: True, ProblemError)

    def test_the_rule_is_judged_on_the_number_read(self):
        with refused(ValidationError, "r must be finite, got " + repr(10**400)):
            _number(10**400, "r", "finite", math.isfinite)


class TestLeastAcceptedAndNextOut:
    def test_ball_radius(self):
        g, _, _ = grid4()
        assert ball(g, "v1_1", TINY) == {"v1_1": 0.0}
        with refused(ValidationError, "ball radius must be positive, got 0.0"):
            ball(g, "v1_1", 0.0)

    def test_refine(self):
        g, _, _ = grid4()
        assert refine(g, math.inf) is g
        assert refine(g, 1.0) is g
        with refused(ValidationError, "h_max must be positive, got 0.0"):
            refine(g, 0.0)

    def test_positivity_threshold(self):
        g, f, z = grid4()
        zero = constant_field(g, 0.0, "rhs_f")
        assert solve_dirichlet(DirichletProblem(g, zero, z, threshold=0.0)).u["v1_1"] == 0.0
        with refused(ProblemError, "positivity threshold must be nonnegative, got -5e-324"):
            DirichletProblem(g, f, z, threshold=-TINY)
        assert validate_field(zero, -math.inf) == ()

    def test_band_delta(self):
        g, f, z = grid4()
        assert set(boundary_band(g, 0.0)) == g.boundary
        u = solve_dirichlet(DirichletProblem(g, f, z)).u
        report = compare(ComparisonInstance(graph=g, f=f, u_sub=u, v_super=u, band_delta=0.0))
        assert report.band_size == len(g.boundary)
        with refused(ValidationError, "band_delta must be >= 0, got -5e-324"):
            boundary_band(g, -TINY)

    def test_picard_tol_and_max_iter(self):
        g, _, z = grid4()
        H = builtin_hamiltonian("affine-rho")
        _, _, solves = solve_general(g, H, z, tol=0.0)
        assert solves >= 2
        _, _, solves = solve_general(g, H, z, max_iter=1)
        assert solves == 2  # the causal pass answers after the one solve
        with refused(ValidationError, "Picard tol must be >= 0, got -5e-324"):
            solve_general(g, H, z, tol=-TINY)
        with refused(ValidationError, "Picard max_iter must be an int >= 1, got 0"):
            solve_general(g, H, z, max_iter=0)

    def test_bisection_tol(self):
        H = builtin_hamiltonian("linear")
        assert reduce_h(H, "v1_1", 0.0, tol=TINY) == 1.0
        with refused(HamiltonianError, "bisection tol must be positive, got 0.0"):
            reduce_h(H, "v1_1", 0.0, tol=0.0)
        g, _, z = grid4()
        with refused(HamiltonianError, "bisection tol must be positive, got 0.0"):
            solve_general(g, H, z, bisect_tol=0.0)

    @pytest.mark.parametrize("key", ["lambda0", "p_max"])
    def test_lambda0_and_p_max(self, key):
        def spec(x):
            return HamiltonianSpec("h", lambda x, rho, p: p - 1.0, **{"lambda0": 1.0, "p_max": 8.0, key: x})

        assert getattr(spec(TINY), key) == TINY
        assert getattr(spec(1.7976931348623157e308), key) == 1.7976931348623157e308
        for bad in (0.0, math.inf):
            with refused(HamiltonianError, f"{key} must be positive and finite, got {bad!r}"):
                spec(bad)

    @pytest.mark.parametrize("name,key,least,size", [
        ("interval", "n", 1, 2), ("circle", "n", 3, 3), ("grid", "n", 2, 4), ("binary_tree", "depth", 1, 3),
        ("gasket", "level", 0, 3),
    ])
    def test_the_smallest_fixtures(self, name, key, least, size):
        assert len(fixture(name, **{key: least}).graph.vertices) == size
        with refused(ValidationError, f"{name} fixture {key} must be an int >= {least}, got {least - 1}"):
            fixture(name, **{key: least - 1})

    def test_grid_connectivity(self):
        assert fixture("grid", n=2, connectivity=8).params["connectivity"] == 8
        with refused(ValidationError, "grid connectivity must be 4 or 8, got 4.0"):
            fixture("grid", n=2, connectivity=4.0)

    def test_suite_levels(self):
        assert equivalence_suite(fixture("interval", n=2), levels=1).levels == 1
        with refused(ValidationError, "equivalence_suite levels must be an int >= 1, got 0"):
            equivalence_suite(fixture("interval", n=2), levels=0)

    def test_random_graph_bounds(self):
        assert len(random_metric_graph(3, n_min=1, n_max=1).vertices) == 1
        assert len(random_metric_graph(3, n_min=7, n_max=7).vertices) == 7
        # seed 30818 draws 5 from [1, 10**6]: the widest range builds a small graph
        assert len(random_metric_graph(30818, n_min=1, n_max=MAX_REFINE_VERTICES).vertices) == 5
        with refused(ValidationError, "random_metric_graph n_min must be an int >= 1, got 0"):
            random_metric_graph(3, n_min=0, n_max=5)
        with refused(ValidationError, "random_metric_graph n_max must be an int from n_min = 7 to 1000000, got 6"):
            random_metric_graph(3, n_min=7, n_max=6)
        with refused(ValidationError, "random_metric_graph n_max must be an int from n_min = 7 to 1000000, "
                                      "got 1000001"):
            random_metric_graph(3, n_min=7, n_max=MAX_REFINE_VERTICES + 1)

    @pytest.mark.parametrize("what", ["eps", "band_tol", "compare_tol"])
    def test_a_tolerance_takes_any_number_but_nan(self, what):
        g, f, z = grid4()
        u = solve_dirichlet(DirichletProblem(g, f, z)).u

        def call(x):
            if what == "eps":
                return check_c_supersolution(g, u, f, eps=x)
            return compare(ComparisonInstance(graph=g, f=f, u_sub=u, v_super=u, **{what: x}))

        assert not call(-math.inf).passed and call(math.inf).passed
        with refused(ValidationError, f"{'csuper eps' if what == 'eps' else what} must be a number, got nan"):
            call(math.nan)


def test_points_of_different_dimensions_have_no_chord():
    dist = chord_from_coords({"a": (1.0,), "b": (0.0, 1.0), "c": (4.0,)})
    assert dist("a", "c") == 3.0
    with refused(MetricError, "points 'a' and 'b' have different dimensions, 1 and 2"):
        dist("a", "b")
