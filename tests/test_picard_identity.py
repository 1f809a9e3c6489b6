"""The general-Hamiltonian fast path against the plain references.

``reduce_h`` calls the evaluator directly and reaches the bisection's last
cell by a search; ``solve_general`` sweeps on lists by vertex index, reusing
each root whose rho did not change bitwise, takes the residuals once, at
the returned iterate, and builds fields once for the result.  Each must reproduce the
plain bisection and Picard loop in ``tests/oracles.py`` bit for bit: floats,
signs of zero, sweep counts, error types and messages.  Only where H raises
at points the search does not take can ``reduce_h`` return a root where the
bisection raised (``MISSED_FAULT``).  Where the reference loop raises
ConvergenceError, ``solve_general`` returns the causal pass's labels, which
must be ``reference_general_fixpoint``'s, unless the mesh condition refuses
the pass; then it raises the same error with the history bit for bit.
"""

from __future__ import annotations

import math
import random

import pytest

from eikograph import (
    ConvergenceError,
    HamiltonianSpec,
    builtin_hamiltonian,
    expression_hamiltonian,
    field_on,
    fixture,
    reduce_field,
    reduce_h,
    solve_general,
    validate_hamiltonian,
)
from eikograph.hamiltonians import _EXPR_NAMES, BUILTIN_NAMES, _reduction_field, _rereduce
from oracles import reference_general_fixpoint, reference_reduce_field, reference_reduce_h, reference_solve_general

EXPRESSIONS = ("p + rho - 1", "p * p + sin(rho) - 0.5", "max(p - 2, 0) + exp(rho) - 1.5")


def bits(values):
    """Items with each float as its hex string: equal iff bit-identical."""
    return [(k, v.hex()) for k, v in values.items()]


def shifted(H, c):
    """H - c, so the root moves off the bracket endpoints into bisection."""
    return HamiltonianSpec(f"{H.name}-{c}", lambda x, rho, p: H.evaluate(x, rho, p) - c, H.lambda0)


def hamiltonians():
    hs = []
    for name in BUILTIN_NAMES:
        H = builtin_hamiltonian(name)
        hs += [H, shifted(H, 0.3), shifted(H, 1.7), shifted(H, 6.5)]
    hs += [builtin_hamiltonian("quadratic:2.5"), builtin_hamiltonian("affine-rho:3")]
    # exactly 0 at a doubled bracket endpoint: that endpoint is the root
    hs.append(HamiltonianSpec("flat", lambda x, rho, p: 0.0 if p >= 4.0 else -1.0, 1e-12))
    hs += [expression_hamiltonian(e) for e in EXPRESSIONS]
    return hs


def rho_samples():
    rng = random.Random(20201)
    return [0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, 0.5 - 2.0**-40] + [
        rng.uniform(-3.0, 3.0) for _ in range(25)
    ]


def outcome(fn, *args):
    """(float(value) hex, None) or (None, (exception type, message))."""
    try:
        return float(fn(*args)).hex(), None
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("H", hamiltonians(), ids=lambda H: H.name)
def test_reduce_h_bit_identical(H):
    for rho in rho_samples():
        for tol in (1e-9, 1e-12, 1e-5):
            got = outcome(reduce_h, H, "v3", rho, tol)
            assert got == outcome(reference_reduce_h, H, "v3", rho, tol), (rho, tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-300])
@pytest.mark.parametrize("root", [3.0 + 2.0**-20, 40.0 - 1e-7, 2.0**20 + 0.3])
def test_reduce_h_doubled_bracket_bit_identical(root, tol):
    # the bracket doubles to 4, 64 and 2**21 before the search; at tol 1e-300
    # the bisection runs past float resolution into the stalled-bracket error
    calls = []
    Hs = (HamiltonianSpec("lin", lambda x, rho, p: calls.append(p) or p - root - 1e-3 * rho, 1.0),
          HamiltonianSpec("sq", lambda x, rho, p: calls.append(p) or p * p - root * root + rho, 1e-6))
    for H in Hs:
        for rho in rho_samples():
            calls.clear()
            got = outcome(reduce_h, H, "v1", rho, tol)
            seen = calls[:]
            calls.clear()
            assert got == outcome(reference_reduce_h, H, "v1", rho, tol), (H.name, rho)
            # the search takes other points, all within the doubled bracket
            assert all(0.0 <= p <= max(calls) for p in seen) and len(seen) <= 2 * len(calls)
            if tol == 1e-300 and got[0] is None:
                assert got[1][1].startswith(f"bisection for {H.name!r} stalled")


def raising(bad_p, result, root=0.7):
    def evaluate(x, rho, p):
        if bad_p(p):
            if isinstance(result, Exception):
                raise result
            return result
        return p - root

    return HamiltonianSpec("faulty", evaluate, lambda0=1.0)


# H raises only on (0.6, 0.65): bisection's midpoints enter that window on
# the way to the root 0.7, and the search, interpolating straight to the
# root's cell, never does
MISSED_FAULT = raising(lambda p: 0.6 < p < 0.65, ValueError("inside the bracket"))


@pytest.mark.parametrize("H", [
    raising(lambda p: p == 0.0, RuntimeError("boom")),
    raising(lambda p: p == 1.0, ZeroDivisionError("division by zero")),
    MISSED_FAULT,
    raising(lambda p: p == 4.0, KeyError("while doubling"), root=5.3),
    raising(lambda p: p == 1.0, "not a number"),
    raising(lambda p: 0.5 < p < 0.8, None),
    raising(lambda p: p > 0.0, 1j),
    raising(lambda p: p > 0.0, math.nan),  # the bisection stalls
    HamiltonianSpec("sink", lambda x, rho, p: -1.0, lambda0=1e-12),  # bracket cap
    expression_hamiltonian("log(p - 0.5)"),
], ids=lambda H: H.name)
def test_reduce_h_errors_identical(H):
    got = outcome(reduce_h, H, "v0", 0.25)
    if H is MISSED_FAULT:
        assert got == outcome(reference_reduce_h, raising(lambda p: False, None), "v0", 0.25)
        assert got[0] is not None
    else:
        assert got[1] is not None
        assert got == outcome(reference_reduce_h, H, "v0", 0.25)
    assert outcome(reduce_h, H, "v0", 0.25, 0.0) == outcome(reference_reduce_h, H, "v0", 0.25, 0.0)


def assert_same_solution(got, want):
    (vf, red, sweeps), (vf_ref, red_ref, sweeps_ref) = got, want
    assert sweeps == sweeps_ref
    assert bits(vf.u.values) == bits(vf_ref.u.values)
    assert vf.exit_vertex == vf_ref.exit_vertex
    assert list(vf.attained.items()) == list(vf_ref.attained.items())
    assert bits(red.h.values) == bits(red_ref.h.values)
    assert bits(red.residuals) == bits(red_ref.residuals)
    assert red.flagged == red_ref.flagged and red.tol == red_ref.tol


def seeded_zeta(g, seed):
    rng = random.Random(seed)
    return field_on(g, {y: rng.uniform(0.0, 0.2) for y in sorted(g.boundary)}, "boundary_zeta")


@pytest.mark.parametrize("h_name,fix,params", [
    ("affine-rho", "interval", {"n": 60}),
    ("affine-rho", "grid", {"n": 5}),
    ("affine-rho:2", "grid", {"n": 4, "connectivity": 8}),
    ("p + rho - 1", "interval", {"n": 40}),
    ("p * p + rho - 1", "grid", {"n": 4}),
    ("quadratic", "grid", {"n": 6}),
    ("linear", "interval", {"n": 20}),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_solve_general_matches_reference_loop(h_name, fix, params, seed):
    g = fixture(fix, **params).graph
    base = h_name.partition(":")[0]
    H = builtin_hamiltonian(h_name) if base in BUILTIN_NAMES else expression_hamiltonian(h_name)
    zeta = seeded_zeta(g, seed)
    assert_same_solution(solve_general(g, H, zeta), reference_solve_general(g, H, zeta))


# p - exp(-4 rho): its sampled mesh bound B (about 94) refuses the causal pass
# on every grid, so Picard's ConvergenceError stands
REFUSED = expression_hamiltonian("p - exp(-4*rho)")


def refusal(g, H):
    """The clause solve_general adds to Picard's message where the mesh
    condition refuses the causal pass (the grids' edges all have l = 1)."""
    return (", and the causal pass needs 1 - (l/2) * B >= 0: the longest edge ('v0_0', 'v0_1') "
            f"has l = 1.0, the sampled B = {validate_hamiltonian(H, g).mesh_bound}")


def assert_causal_fixpoint(got, g, H, zeta, max_iter):
    vf, red, solves = got
    u, h, exits = reference_general_fixpoint(g, H, zeta.values)
    assert solves == max_iter + 1
    assert sorted(bits(vf.u.values)) == sorted(bits(u))
    assert sorted(bits(red.h.values)) == sorted(bits(h))
    assert dict(vf.exit_vertex) == exits


@pytest.mark.parametrize("max_iter", [1, 2, 7])
def test_convergence_error_history_matches(max_iter):
    g = fixture("grid", n=5).graph
    zeta = seeded_zeta(g, 3)
    with pytest.raises(ConvergenceError) as got:
        solve_general(g, REFUSED, zeta, tol=1e-16, max_iter=max_iter)
    with pytest.raises(ConvergenceError) as want:
        reference_solve_general(g, REFUSED, zeta, tol=1e-16, max_iter=max_iter)
    assert [c.hex() for c in got.value.history] == [c.hex() for c in want.value.history]
    assert len(got.value.history) == max_iter - 1
    assert str(got.value) == str(want.value) + refusal(g, REFUSED)


@pytest.mark.parametrize("max_iter", [1, 2, 7])
def test_stopped_picard_returns_the_causal_fixpoint(max_iter):
    # the inputs that raised ConvergenceError before the causal pass answered
    g = fixture("grid", n=5).graph
    H = builtin_hamiltonian("affine-rho")
    zeta = seeded_zeta(g, 3)
    assert_causal_fixpoint(solve_general(g, H, zeta, tol=1e-16, max_iter=max_iter), g, H, zeta, max_iter)


@pytest.mark.parametrize("seed", [0, 4])
def test_many_sweeps_match_reference_loop(seed):
    # affine-rho on grid n=12 takes dozens of sweeps, most vertices changing
    # on each, so roots are reused and retaken sweep after sweep
    g = fixture("grid", n=12).graph
    H = builtin_hamiltonian("affine-rho")
    zeta = seeded_zeta(g, seed)
    got = solve_general(g, H, zeta)
    assert got[2] > 24
    assert_same_solution(got, reference_solve_general(g, H, zeta))


def test_convergence_error_after_many_sweeps_matches():
    # at tol 1e-16 Picard ends in changes near 1e-13 and never stops
    g = fixture("grid", n=10).graph
    zeta = seeded_zeta(g, 2)
    with pytest.raises(ConvergenceError) as got:
        solve_general(g, REFUSED, zeta, tol=1e-16, max_iter=30)
    with pytest.raises(ConvergenceError) as want:
        reference_solve_general(g, REFUSED, zeta, tol=1e-16, max_iter=30)
    assert [c.hex() for c in got.value.history] == [c.hex() for c in want.value.history]
    assert len(got.value.history) == 29 and str(got.value) == str(want.value) + refusal(g, REFUSED)


def test_stopped_after_many_sweeps_returns_the_causal_fixpoint():
    # the input that raised ConvergenceError after 30 solves
    g = fixture("grid", n=10).graph
    H = builtin_hamiltonian("affine-rho")
    zeta = seeded_zeta(g, 2)
    assert_causal_fixpoint(solve_general(g, H, zeta, max_iter=30), g, H, zeta, 30)


def test_reused_root_keeps_sign_of_zero():
    # H tells rho = -0.0 from 0.0, so a root taken at one must not be reused
    # at the other; a repeat of the same signed zero reuses every root
    calls = []
    H = HamiltonianSpec("signed", lambda x, rho, p: calls.append(p) or p - math.copysign(1.5, rho), 1.0)
    g = fixture("interval", n=4).graph
    n = len(g.vertices)
    taken, roots, residuals = [math.nan] * n, [0.0] * n, [0.0] * n
    for sign, reused in ((1.0, False), (-1.0, False), (-1.0, True), (1.0, False)):
        rho = {v: math.copysign(0.0, sign) for v in g.vertices}
        calls.clear()
        _rereduce(H, g.vertices, list(rho.values()), taken, roots, residuals, 1e-9)
        assert (calls == []) == reused
        got = _reduction_field(g, roots, residuals, 1e-9)
        calls.clear()
        want = reference_reduce_field(H, g, rho)
        assert bits(got.h.values) == bits(want.h.values)
        assert bits(got.residuals) == bits(want.residuals) and got.flagged == want.flagged


def test_reduce_field_matches_reference():
    g = fixture("grid", n=4).graph
    rng = random.Random(7)
    rho = {v: rng.uniform(-1.0, 2.0) for v in g.vertices}
    for H in (builtin_hamiltonian("affine-rho"), expression_hamiltonian("p * p + rho - 1")):
        got, want = reduce_field(H, g, rho), reference_reduce_field(H, g, rho)
        assert bits(got.h.values) == bits(want.h.values)
        assert bits(got.residuals) == bits(want.residuals) and got.flagged == want.flagged


@pytest.mark.parametrize("expr", EXPRESSIONS + ("log(p - 0.5) * rho", "p # trailing comment"))
def test_compiled_expression_equals_eval(expr):
    H = expression_hamiltonian(expr)
    code = compile(expr, "<hamiltonian>", "eval")

    def per_call(x, rho, p):
        return eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, "p": p, "rho": rho})

    for rho in rho_samples()[:12]:
        for p in (0.0, 0.25, 0.5, 1.0, 3.75, 1e6):
            assert outcome(H.evaluate, "v", rho, p) == outcome(per_call, "v", rho, p)
