"""One rule per quantity, whichever public name reads it: the band width in
``boundary_band``, rho in ``fields._finite``, a check's tolerance in
``CheckReport``."""

from __future__ import annotations

import math
import re

import pytest

from eikograph import (
    CheckReport,
    ComparisonInstance,
    DirichletProblem,
    FieldError,
    ValidationError,
    boundary_band,
    builtin_hamiltonian,
    check_c_subsolution,
    check_hamiltonian_monge,
    check_monge,
    check_regularity,
    compare,
    constant_field,
    fixture,
    reduce_field,
    reduce_h,
    solve_dirichlet,
)


def _solved():
    g = fixture("grid", n=4).graph
    f = constant_field(g, 1.0, "rhs_f")
    return g, f, solve_dirichlet(DirichletProblem(g, f, constant_field(g, 0.0, "boundary_zeta"))).u


@pytest.mark.parametrize("delta", [math.nan, -1.0, -1e-300])
def test_boundary_band_refuses_a_nan_or_negative_width(delta):
    # both used to return (), while compare refused the same width
    g = fixture("grid", n=4).graph
    with pytest.raises(ValidationError, match="^" + re.escape(f"band_delta must be >= 0, got {delta!r}") + "$"):
        boundary_band(g, delta)


def test_boundary_band_at_zero_is_the_boundary():
    g = fixture("grid", n=4).graph
    assert set(boundary_band(g, 0.0)) == g.boundary


@pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan])
def test_reduce_h_refuses_a_non_finite_rho_as_reduce_field_does(rho):
    # inf used to reduce to 0.0, and nan to report a stalled bisection
    g = fixture("grid", n=4).graph
    H = builtin_hamiltonian("affine-rho")
    message = "^" + re.escape(f"rho has non-finite value {rho!r} at vertex 'v1_1'") + "$"
    with pytest.raises(FieldError, match=message):
        reduce_h(H, "v1_1", rho)
    with pytest.raises(FieldError, match=message):
        reduce_field(H, g, {v: rho if v == "v1_1" else 0.0 for v in g.vertices})


# check -> a call with the given tol, and the name its report and message carry
CHECKS = {
    "monge": lambda g, f, u, tol: check_monge(g, u, f, tol=tol),
    "monge-sub": lambda g, f, u, tol: check_monge(g, u, f, tol=tol, mode="sub"),
    "csub": lambda g, f, u, tol: check_c_subsolution(g, u, f, tol=tol),
    "regularity": lambda g, f, u, tol: check_regularity(g, u, tol=tol),
    "hamiltonian-monge": lambda g, f, u, tol: check_hamiltonian_monge(g, u, builtin_hamiltonian("linear"), tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, "x", None, True, [1e-9]])
@pytest.mark.parametrize("check", ["csub", "hamiltonian-monge"])
def test_a_check_refuses_a_tol_it_cannot_compare(check, tol):
    # a str tol used to return a report whose .passed raised TypeError
    g, f, u = _solved()
    with pytest.raises(ValidationError, match="^" + re.escape(f"check {check!r} tol must be a number, got {tol!r}") + "$"):
        CHECKS[check](g, f, u, tol)


@pytest.mark.parametrize("check", CHECKS)
def test_every_check_refuses_a_nan_tol(check):
    g, f, u = _solved()
    with pytest.raises(ValidationError, match="^" + re.escape(f"check {check!r} tol must be a number, got nan") + "$"):
        CHECKS[check](g, f, u, math.nan)


@pytest.mark.parametrize("tol", [0, 0.0, 1e-9, math.inf, -1.0, 10**400])
def test_a_check_takes_any_number_as_tol(tol):
    report = CheckReport(name="monge", tol=tol, residuals={"a": 0.0})
    assert report.passed is (tol >= 0)


@pytest.mark.parametrize("which", ["sub_tol", "super_tol"])
def test_compare_refuses_a_nan_tol_as_it_refuses_a_nan_band(which):
    # sub_tol=nan used to report the "monge-sub" hypothesis as failed
    g, f, u = _solved()
    check = "monge-sub" if which == "sub_tol" else "monge-super"
    with pytest.raises(ValidationError, match="^" + re.escape(f"check {check!r} tol must be a number, got nan") + "$"):
        compare(ComparisonInstance(graph=g, f=f, u_sub=u, v_super=u, **{which: math.nan}))
