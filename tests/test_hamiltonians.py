"""Hamiltonian validation, implicit reduction, and the general solver."""

from __future__ import annotations

import math

import pytest

from eikograph import (
    CoercivityError,
    ConvergenceError,
    DirichletProblem,
    HamiltonianError,
    HamiltonianSpec,
    ValidationError,
    builtin_hamiltonian,
    check_hamiltonian_monge,
    check_monge,
    check_c_subsolution,
    check_regularity,
    constant_field,
    counterexample_suite,
    expression_hamiltonian,
    fixture,
    reduce_field,
    reduce_h,
    solve_dirichlet,
    solve_general,
    validate_hamiltonian,
)
from eikograph import hamiltonians as hamiltonians_module
from eikograph.graph import close
from eikograph.hamiltonians import BUILTIN_NAMES, VALIDATION_SAMPLES, _p_grid


@pytest.fixture(scope="module")
def small_graph():
    return fixture("interval", n=16).graph


class TestValidation:
    def test_linear_passes(self, small_graph):
        report = validate_hamiltonian(builtin_hamiltonian("linear"), small_graph)
        assert report.passed

    def test_quadratic_passes(self, small_graph):
        assert validate_hamiltonian(builtin_hamiltonian("quadratic"), small_graph).passed

    def test_affine_rho_passes(self, small_graph):
        assert validate_hamiltonian(builtin_hamiltonian("affine-rho"), small_graph).passed

    def test_ex1_rejected_in_decreasing_region(self, small_graph):
        report = validate_hamiltonian(builtin_hamiltonian("ex1"), small_graph)
        assert not report.passed and not report.monotonicity_ok and report.coercivity_ok
        kind, _x, _rho, p1, p2, h1, h2 = report.counterexample
        assert kind == "monotonicity"
        assert 2.0 <= p1 < p2 <= 3.5  # H = 1 - |p-2| + max(p-3,0)^2 decreases here
        assert h2 < h1

    def test_ex2_rejected_near_zero(self, small_graph):
        report = validate_hamiltonian(builtin_hamiltonian("ex2"), small_graph)
        assert not report.passed
        _kind, _x, _rho, p1, p2, _h1, _h2 = report.counterexample
        assert p1 < 1.0  # 1 - |p| decreases from p = 0

    def test_plateau_rejected_on_plateau(self, small_graph):
        report = validate_hamiltonian(builtin_hamiltonian("plateau"), small_graph)
        assert not report.passed
        _kind, _x, _rho, p1, p2, h1, h2 = report.counterexample
        assert 1.0 <= p1 < p2 <= 2.0
        assert h1 == h2 == 1.0  # exactly flat: strict monotonicity fails

    def test_non_coercive_rejected(self, small_graph):
        H = HamiltonianSpec("sink", lambda x, rho, p: -1.0 + 1e-9 * p, lambda0=1e-12)
        report = validate_hamiltonian(H, small_graph)
        assert not report.passed and not report.coercivity_ok and report.monotonicity_ok
        assert report.counterexample[0] == "coercivity"
        assert "not coercive" in report.describe()

    def test_evaluator_exception_wrapped(self, small_graph):
        def broken(x, rho, p):
            raise RuntimeError("boom")

        H = HamiltonianSpec("broken", broken, lambda0=1.0)
        with pytest.raises(HamiltonianError):
            validate_hamiltonian(H, small_graph)

    def test_describe_mentions_counterexample(self, small_graph):
        report = validate_hamiltonian(builtin_hamiltonian("ex1"), small_graph)
        assert "decreases" in report.describe()

    def test_describe_a_pass(self, small_graph):
        report = validate_hamiltonian(builtin_hamiltonian("affine-rho"), small_graph)
        assert report.counterexample is None
        assert report.describe() == "hamiltonian 'affine-rho': monotonicity in p and rho and coercivity OK"

    @pytest.mark.parametrize("evaluate,mode,ok", [
        pytest.param(lambda x, rho, p: p + rho - 1.0, "independent", False, id="rising-independent"),
        pytest.param(lambda x, rho, p: p + 1e-13 * rho - 1.0, "independent", False, id="any-change-independent"),
        pytest.param(lambda x, rho, p: p - 1.0, "nondecreasing", True, id="constant-nondecreasing"),
        pytest.param(lambda x, rho, p: p - 1e-13 * rho - 1.0, "nondecreasing", True, id="drop-within-1e-12"),
        pytest.param(lambda x, rho, p: p - rho - 1.0, "nondecreasing", False, id="falling-nondecreasing"),
        pytest.param(lambda x, rho, p: p - rho - 1.0, "strictly-increasing", False, id="falling-strictly"),
        pytest.param(lambda x, rho, p: p + rho * rho - 1.0, "nondecreasing", False, id="falls-on-[-1,0]"),
        pytest.param(lambda x, rho, p: p + rho - 1.0, "strictly-increasing", True, id="rising-strictly"),
    ])
    def test_declared_rho_monotonicity_is_checked(self, small_graph, evaluate, mode, ok):
        H = HamiltonianSpec("mine", evaluate, 1.0, mode)
        report = validate_hamiltonian(H, small_graph)
        assert report.passed == ok and report.monotonicity_ok and report.coercivity_ok
        if not ok:
            kind, got_mode, x, p, rho1, rho2, h1, h2 = report.counterexample
            assert (kind, got_mode, x, p) == ("rho", mode, small_graph.vertices[0], 0.0)
            assert rho2 - rho1 == 0.5 and (h1, h2) == (evaluate(x, rho1, p), evaluate(x, rho2, p))
            assert report.describe().startswith(f"hamiltonian 'mine': declared {mode} in rho, but at")

    def test_undeclared_rho_dependence_raises_before_solving(self, monkeypatch):
        # declared "independent" by default, this H took the single-solve path:
        # u(v20) = 1.0 where affine-rho gives 0.632, with residual 1.7e-14
        g = fixture("interval", n=40).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        H = HamiltonianSpec("mine", lambda x, rho, p: p + rho - 1.0, 1.0)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(hamiltonians_module, "solve_dirichlet", no_solve)
        with pytest.raises(HamiltonianError, match="'mine': declared independent in rho"):
            solve_general(g, H, z)

    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("p + rho - 1", "p * p + rho - 1", "linear:-inf"))
    def test_builtins_and_hjb_expressions_keep_their_verdicts(self, small_graph, name):
        # linear:-inf is +inf at every point; it passed while NaN steps (inf - inf) did
        H = builtin_hamiltonian(name) if name.partition(":")[0] in BUILTIN_NAMES else expression_hamiltonian(name)
        report = validate_hamiltonian(H, small_graph)
        want = dict.fromkeys(("ex1", "ex2", "plateau"), "monotonicity") | {"linear:-inf": "non-finite"}
        assert (report.counterexample or (None,))[0] == want.get(name)

    @pytest.mark.parametrize("name,value", [("linear:-inf", math.inf), ("linear:inf", -math.inf),
                                            ("quadratic:nan", math.nan)])
    def test_non_finite_value_is_a_counterexample(self, small_graph, name, value):
        # every sampled value is infinite or NaN: the first one is named
        report = validate_hamiltonian(builtin_hamiltonian(name), small_graph)
        assert not report.passed and report.monotonicity_ok and report.coercivity_ok
        kind, x, rho, p, got = report.counterexample
        assert (kind, x, rho, p) == ("non-finite", small_graph.vertices[0], -1.0, 0.0)
        assert got.hex() == value.hex() if value == value else got != got
        base = name.partition(":")[0]
        assert report.describe() == (
            f"hamiltonian {base!r}: H(x={x!r}, rho=-1.0, p=0.0) = {value} is not finite"
        )

    def test_non_finite_value_past_the_root_is_a_counterexample(self, small_graph):
        # finite up to p = 4, then +inf: the first infinite grid point is named
        H = HamiltonianSpec("cliff", lambda x, rho, p: p - 1.0 if p < 4.0 else math.inf, lambda0=1.0)
        report = validate_hamiltonian(H, small_graph)
        assert report.counterexample == ("non-finite", small_graph.vertices[0], -1.0, 4.0, math.inf)
        with pytest.raises(HamiltonianError, match=r"H\(x='v0', rho=-1.0, p=4.0\) = inf is not finite"):
            solve_general(small_graph, H, constant_field(small_graph, 0.0, "boundary_zeta"))

    @pytest.mark.parametrize("p_max", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_p_max_rejected(self, p_max):
        # -1 and nan used to leave validate_hamiltonian an empty p grid: IndexError
        with pytest.raises(HamiltonianError, match="p_max must be positive and finite"):
            HamiltonianSpec("linear", lambda x, rho, p: p - 1.0, lambda0=1.0, p_max=p_max)

    @pytest.mark.parametrize("p_max", [0.5, 3.0, 1000.0])
    def test_coercivity_reads_the_grid_at_p_max(self, small_graph, p_max):
        # each sampled (x, rho) evaluates H once per grid point, the last at p_max
        calls = []
        H = HamiltonianSpec("sink", lambda x, rho, p: calls.append(p) or p - 2.0, lambda0=1.0, p_max=p_max)
        report = validate_hamiltonian(H, small_graph)
        assert report.coercivity_ok == (p_max > 2.0) and report.monotonicity_ok
        if p_max <= 2.0:
            assert report.counterexample == ("coercivity", small_graph.vertices[0], -1.0, p_max, p_max - 2.0)
        grid = _p_grid(p_max)
        samples = VALIDATION_SAMPLES ** 2 if p_max > 2.0 else 1  # the first counterexample ends the scan
        assert grid[-1] == p_max and calls == grid * samples


class TestReduceH:
    def test_linear_root(self):
        assert reduce_h(builtin_hamiltonian("linear"), "x", 0.0) == 1.0

    def test_quadratic_root(self):
        h = reduce_h(builtin_hamiltonian("quadratic:2"), "x", 0.0, tol=1e-9)
        assert abs(h - 2.0) <= 1e-9

    def test_affine_rho_roots(self):
        H = builtin_hamiltonian("affine-rho")
        assert abs(reduce_h(H, "x", 0.0) - 1.0) <= 1e-9
        assert reduce_h(H, "x", 1.0) == 0.0
        assert reduce_h(H, "x", 2.0) == 0.0  # H(0) = 1 >= 0: infimum attained at 0

    def test_nonincreasing_in_rho(self):
        H = builtin_hamiltonian("affine-rho")
        values = [reduce_h(H, "x", rho) for rho in [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_bracket_cap_raises(self):
        H = HamiltonianSpec("never", lambda x, rho, p: -1.0, lambda0=1e-12)
        with pytest.raises(CoercivityError):
            reduce_h(H, "x", 0.0)

    def test_reduce_field_residuals_and_flags(self):
        g = fixture("interval", n=8).graph
        H = builtin_hamiltonian("affine-rho")
        red = reduce_field(H, g, {v: 0.5 for v in g.vertices}, tol=1e-9)
        assert all(close(red.h[v], 0.5) for v in g.vertices)
        assert max(red.residuals.values()) <= 1e-9
        assert red.flagged == ()
        # rho = 2 forces h = 0 with residual H(0) = 1 > tol: flagged
        red2 = reduce_field(H, g, {v: 2.0 for v in g.vertices}, tol=1e-9)
        assert all(red2.h[v] == 0.0 for v in g.vertices)
        assert set(red2.flagged) == set(g.vertices)


class TestSolveGeneral:
    def test_linear_equals_eikonal(self):
        g = fixture("interval", n=200).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        vf, red, iters = solve_general(g, builtin_hamiltonian("linear"), z)
        assert iters == 1
        f1 = constant_field(g, 1.0, "rhs_f")
        ref = solve_dirichlet(DirichletProblem(g, f1, z))
        assert all(vf.u[v] == ref.u[v] for v in g.vertices)  # h == 1 exactly

    def test_quadratic_equals_eikonal_within_bisect_tol(self):
        g = fixture("interval", n=200).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        vf, red, _ = solve_general(g, builtin_hamiltonian("quadratic"), z, bisect_tol=1e-9)
        f1 = constant_field(g, 1.0, "rhs_f")
        ref = solve_dirichlet(DirichletProblem(g, f1, z))
        assert max(abs(vf.u[v] - ref.u[v]) for v in g.vertices) <= 1e-9
        assert max(red.residuals.values()) <= 1e-9

    def test_rho_dependent_closed_form(self):
        g = fixture("interval", n=2000).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        vf, red, iters = solve_general(g, builtin_hamiltonian("affine-rho"), z)
        assert iters <= 100
        err = max(
            abs(vf.u[v] - (1.0 - math.exp(-(1.0 - abs(g.coords[v][0])))))
            for v in g.vertices
        )
        assert err <= 1e-5
        assert max(red.residuals.values()) <= 1e-9
        # converged pair is a Monge solution of the reduced eikonal equation
        assert check_monge(g, vf.u, red.h).passed

    def test_rejected_hamiltonian_raises(self):
        g = fixture("interval", n=8).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        with pytest.raises(HamiltonianError):
            solve_general(g, builtin_hamiltonian("ex1"), z)

    def test_picard_alternates_around_fixpoint(self):
        # solve o reduce is antitone, so iterates bracket the limit:
        # odd iterates nonincreasing, even iterates nondecreasing
        g = fixture("interval", n=200).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        H = builtin_hamiltonian("affine-rho")
        star, _, _ = solve_general(g, H, z, tol=1e-12)
        iterates = []
        rho = {v: 0.0 for v in g.vertices}
        for _ in range(6):
            red = reduce_field(H, g, rho)
            vf = solve_dirichlet(DirichletProblem(g, red.h, z, threshold=0.0))
            iterates.append(vf.u)
            rho = vf.u.values
        u1, u2, u3, u4 = iterates[0], iterates[1], iterates[2], iterates[3]
        eps = 1e-12
        for v in g.vertices:
            assert u2[v] <= u1[v] + eps and u4[v] <= u3[v] + eps
            assert u2[v] <= u4[v] + eps and u3[v] <= u1[v] + eps
            assert u2[v] - eps <= star.u[v] <= u3[v] + eps

    def test_converges_on_wide_domain(self):
        # regression: a coarse inner root solve quantizes h and the Picard
        # iteration limit-cycles near 1e-7 on domains wider than one unit
        g = fixture("grid", n=12).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        vf, red, iters = solve_general(g, builtin_hamiltonian("affine-rho"), z)
        assert iters <= 100
        assert max(red.residuals.values()) <= 1e-9

    def test_nonconvergence_reports_history(self):
        g = fixture("interval", n=50).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        with pytest.raises(ConvergenceError) as exc:
            solve_general(g, builtin_hamiltonian("affine-rho"), z, tol=1e-16, max_iter=3)
        assert len(exc.value.history) == 2

    @pytest.mark.parametrize("name", ["affine-rho", "linear"])
    @pytest.mark.parametrize("key,value,bound", [
        ("max_iter", 0, ">= 1"), ("max_iter", -3, ">= 1"), ("tol", -1.0, ">= 0"), ("tol", math.nan, ">= 0"),
    ])
    def test_unusable_picard_settings_rejected(self, name, key, value, bound):
        # max_iter 0 used to fail with "last change nan", and tol nan to run
        # every sweep; both are rejected before any work, rho-independent H too
        g = fixture("interval", n=4).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        with pytest.raises(ValidationError, match=f"Picard {key} must be {bound}, got {value!r}"):
            solve_general(g, builtin_hamiltonian(name), z, **{key: value})

    def test_zero_tol_stops_at_bitwise_fixpoint(self):
        g = fixture("interval", n=4).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        H = builtin_hamiltonian("affine-rho")
        vf, _, iters = solve_general(g, H, z, tol=0.0)
        assert iters == 27
        again, _, _ = solve_general(g, H, z, tol=0.0, max_iter=iters)
        assert again.u.values == vf.u.values


class TestExpressions:
    def test_simple_expression(self):
        H = expression_hamiltonian("p - 2")
        assert H("x", 0.0, 2.0) == 0.0
        assert H.rho_monotonicity == "independent"

    def test_rho_detection(self):
        H = expression_hamiltonian("p + rho - 1")
        assert H.rho_monotonicity == "nondecreasing"

    def test_decreasing_in_rho_rejected(self, small_graph):
        H = expression_hamiltonian("p - rho - 1")
        assert validate_hamiltonian(H, small_graph).counterexample[0] == "rho"
        z = constant_field(small_graph, 0.0, "boundary_zeta")
        with pytest.raises(HamiltonianError, match="declared nondecreasing in rho"):
            solve_general(small_graph, H, z)

    def test_unknown_names_rejected(self):
        with pytest.raises(HamiltonianError):
            expression_hamiltonian("p + q")

    @pytest.mark.parametrize("expr", [
        "p.__class__ and p - 1",
        "[c.__class__.__mro__[1].__subclasses__ for c in (p,)][0] and p - 1",
        "(lambda: p.__class__)() and p - 1",
        "(lambda: [q.__class__ for q in (p,)])() and p - 1",
        "{k: k.__class__ for k in (p,)} and p - 1",
    ])
    def test_names_in_nested_code_rejected(self, expr):
        with pytest.raises(HamiltonianError, match="unknown names"):
            expression_hamiltonian(expr)

    @pytest.mark.parametrize("expr,uses_rho", [
        ("p + rho - 1", True),
        ("p * p + rho - 1", True),
        ("max(abs(p), sqrt(p * p)) - exp(0) + pi - pi", False),
        ("min([rho for _ in (1,)]) + p - 1", True),
    ])
    def test_allowed_names_accepted(self, expr, uses_rho):
        H = expression_hamiltonian(expr)
        assert H.rho_monotonicity == ("nondecreasing" if uses_rho else "independent")

    def test_syntax_error_rejected(self):
        with pytest.raises(HamiltonianError):
            expression_hamiltonian("p +* 2")

    def test_solves_like_builtin(self):
        g = fixture("interval", n=100).graph
        z = constant_field(g, 0.0, "boundary_zeta")
        vf1, _, _ = solve_general(g, expression_hamiltonian("p - 1", lambda0=1.0), z)
        vf2, _, _ = solve_general(g, builtin_hamiltonian("linear"), z)
        assert all(vf1.u[v] == vf2.u[v] for v in g.vertices)

    def test_unknown_builtin_rejected(self):
        with pytest.raises(HamiltonianError):
            builtin_hamiltonian("cubic")


def _plateau(c, rho, p):
    if p < 1.0:
        return p
    if p < 2.0:
        return 1.0
    return p - 1.0


# each builtin written out here: H(c, rho, p) with level c, lambda0, rho_monotonicity
BUILTIN_FORMULAS = {
    "linear": (lambda c, rho, p: p - c, 1.0, "independent"),
    "quadratic": (lambda c, rho, p: p * p - c * c, 1e-6, "independent"),
    "affine-rho": (lambda c, rho, p: p + rho - c, 1.0, "strictly-increasing"),
    "ex1": (lambda c, rho, p: 1.0 - abs(p - 2.0) + max(p - 3.0, 0.0) ** 2, 1.0, "independent"),
    "ex2": (lambda c, rho, p: 1.0 - abs(p) + max(p - 3.0, 0.0) ** 2, 1.0, "independent"),
    "plateau": (_plateau, 1e-6, "independent"),
}
LEVELS = ("", ":2.5", ":-0.0", ":1e-310", ":inf", ":nan")
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0**-1022, 1e300, -1e300,
               math.inf, -math.inf, math.nan, -1.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)


def _hex_or_error(fn, *args):
    """The value as float.hex (NaN-aware: every NaN reads 'nan'), or the exception type."""
    try:
        return float(fn(*args)).hex()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc)


class TestBuiltinRows:
    def test_names(self):
        assert BUILTIN_NAMES == tuple(sorted(BUILTIN_FORMULAS))

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", sorted(BUILTIN_FORMULAS))
    def test_bit_identical_to_the_formula(self, name, level):
        formula, lambda0, mode = BUILTIN_FORMULAS[name]
        c = float(level[1:]) if level else 1.0
        H = builtin_hamiltonian(name + level)
        assert (H.name, H.lambda0, H.rho_monotonicity, H.p_max) == (name, lambda0, mode, 2.0**20)
        for rho in EDGE_VALUES:
            for p in EDGE_VALUES:
                want = _hex_or_error(formula, c, rho, p)
                assert _hex_or_error(H.evaluate, "v", rho, p) == want, (rho, p)

    def test_bad_level_rejected(self):
        with pytest.raises(HamiltonianError, match="bad parameter in hamiltonian name 'linear:abc'"):
            builtin_hamiltonian("linear:abc")


class TestSpec:
    @pytest.mark.parametrize("lambda0", [0.0, -1.0, math.nan])
    def test_nonpositive_lambda0_rejected(self, lambda0):
        with pytest.raises(HamiltonianError, match="lambda0 must be positive"):
            HamiltonianSpec("linear", lambda x, rho, p: p - 1.0, lambda0)

    def test_unknown_rho_monotonicity_rejected(self):
        with pytest.raises(HamiltonianError, match="rho_monotonicity 'increasing' not in"):
            HamiltonianSpec("linear", lambda x, rho, p: p - 1.0, 1.0, "increasing")


@pytest.fixture(scope="module")
def suite():
    return counterexample_suite()


class TestCounterexampleSuite:
    def test_all_hamiltonians_rejected(self, suite):
        for fx in suite:
            assert not validate_hamiltonian(fx.hamiltonian, fx.graph).passed
            assert fx.expected["validation_passes"] is False

    def test_steep_cone_is_monge_but_not_edge_lipschitz(self, suite):
        fx = suite[0]
        report = check_hamiltonian_monge(fx.graph, fx.u, fx.hamiltonian, tol=1e-9)
        assert report.passed
        assert report.residuals[fx.center] == 0.0  # H(3) = 0 exactly
        f1 = constant_field(fx.graph, 1.0, "rhs_f")
        assert not check_c_subsolution(fx.graph, fx.u, f1).passed

    def test_viscosity_solution_fails_monge_at_kink(self, suite):
        fx = suite[1]
        report = check_hamiltonian_monge(fx.graph, fx.u, fx.hamiltonian, tol=1e-9)
        assert not report.passed
        assert abs(report.residuals[fx.center] - 1.0) <= 1e-12  # |H(0)| = 1
        others = [r for v, r in report.residuals.items() if v != fx.center]
        assert max(others) <= 1e-9

    def test_plateau_solution_fails_regularity_at_kink(self, suite):
        fx = suite[2]
        report = check_regularity(fx.graph, fx.u)
        assert abs(report.residuals[fx.center] - 1.0) <= 1e-12
