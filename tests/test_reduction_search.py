"""The reduction kernel's search for the bisection's last cell.

``reduce_h`` brackets the root as the plain loop in ``tests/oracles.py``
does, then probes, on the grid of the bisection's midpoints, the secant
index and that node's neighbour on the side its sign gives.  Where the two
leave one cell, it bisects on from that cell; else it runs the plain loop
from the bracket, as it does when a probe meets a zero, a NaN, an infinite
value or an exception.  For an H that is finite and nondecreasing in p the
root, the error type and its message are those of the plain loop bit for
bit, from both kernels: the one with the expression inlined and the generic
one.  On any H tested here, however adversarial, the kernel takes at most
two evaluations more than the plain loop (``assert_as_reference``).
"""

from __future__ import annotations

import random
import statistics

import pytest

from eikograph import CoercivityError, HamiltonianSpec, builtin_hamiltonian, expression_hamiltonian, reduce_h
from eikograph.hamiltonians import _GENERIC, BRACKET_CAP, BRACKET_GRIDS, _kernel_of
from oracles import reference_reduce_h

FAMILIES = (
    "p + rho - 1",
    "3 * p + rho - 2.5",
    "p * p + rho - 1",
    "exp(p) + rho - 3",
    "log(1 + p) + rho - 1",
    "sqrt(p) + rho - 1",
    "p ** 3 + rho - 2",
    "p ** 7 + rho - 0.5",
    "p + 0.3 * sin(p) + rho - 1",  # slope at least 0.7
    "2 * p + sin(p) + rho - 1",  # slope at least 1
)


def counted(H):
    """H behind a closure that records every (p, value) (the generic kernel), and the list."""
    seen = []
    evaluate = H.evaluate

    def f(x, rho, p):
        value = evaluate(x, rho, p)
        seen.append((p, value))
        return value

    return HamiltonianSpec(H.name, f, H.lambda0, H.rho_monotonicity, H.p_max), seen


def outcome(fn, *args):
    """float.hex of the value, or (exception type, message)."""
    try:
        return fn(*args).hex()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def assert_as_reference(H, rho, tol=1e-9):
    """reduce_h of H and of H behind a closure give the reference's outcome,
    the closure with at most two evaluations more, the two probes; returns
    (evaluations, the reference's evaluations)."""
    want = outcome(reference_reduce_h, H, "v", rho, tol)
    assert outcome(reduce_h, H, "v", rho, tol) == want, (H.name, rho, tol)
    plain, seen = counted(H)
    assert outcome(reduce_h, plain, "v", rho, tol) == want, (H.name, rho, tol)
    got = len(seen)
    seen.clear()
    outcome(reference_reduce_h, plain, "v", rho, tol)
    assert got <= len(seen) + 2, (H.name, rho, got, len(seen))
    return got, len(seen)


@pytest.mark.parametrize("expr", FAMILIES)
def test_monotone_families_over_random_rho(expr):
    H = expression_hamiltonian(expr)
    assert _kernel_of(H.evaluate) is not _GENERIC
    rng = random.Random(expr)
    for rho in [0.0, -0.0, 0.5, -1.0] + [rng.uniform(-3.0, 0.99) for _ in range(60)]:
        for tol in (1e-9, 1e-12):
            assert_as_reference(H, rho, tol)


@pytest.mark.parametrize("k", range(0, 21, 2))
def test_doubled_brackets_up_to_2_to_the_20(k):
    rng = random.Random(k)
    for scale in (2.0**k, 2.0**k * 1.5, 2.0**k + 2.0**-30):
        for expr in (f"p - {scale!r} + rho", f"p * p - {scale * scale!r} + rho"):
            H = expression_hamiltonian(expr)
            for rho in [0.0, 1e-3] + [rng.uniform(-1e-6, 1e-6) for _ in range(6)]:
                assert_as_reference(H, rho)


def test_the_grid_table_has_every_bracket_up_to_the_cap():
    assert list(BRACKET_GRIDS) == [2.0**m for m in range(41)] and max(BRACKET_GRIDS) == BRACKET_CAP


@pytest.mark.parametrize("hi", list(BRACKET_GRIDS))
def test_every_bracket_grid(hi):
    # the grid splits the bracket into 2**n cells, n the fewest halvings
    # that bring its width within the stop bound; roots in the bracket
    # give the reference's outcome through it
    lo = 0.5 * hi if hi > 1.0 else 0.0
    n, step, cells = BRACKET_GRIDS[hi]
    assert cells == 2**n and step * cells == hi - lo and step <= 1e-13 * max(1.0, hi) < 2.0 * step
    rng = random.Random(hi)
    for root in (lo + 0.3 * (hi - lo), lo + 0.625 * (hi - lo), hi):
        for expr in (f"p - {root!r} + rho", f"1e-12 * (p * p - {root * root!r}) + rho"):
            H = expression_hamiltonian(expr)
            for rho in [0.0] + [rng.uniform(-1e-9, 1e-9) for _ in range(2)]:
                assert_as_reference(H, rho)


def test_a_doubling_past_the_cap():
    for expr in (f"p - {1.5 * BRACKET_CAP!r} + rho", "1e-20 * p + rho - 1"):
        H = expression_hamiltonian(expr)
        for rho in (0.0, 1e-6):
            got = outcome(reduce_h, H, "v", rho)
            assert got[0] is CoercivityError and f"up to p = {BRACKET_CAP}" in got[1]
            assert_as_reference(H, rho)


@pytest.mark.parametrize("root", [2.0**-44, 3 * 2.0**-45, 1e-13, 1e-300, 5e-324, 2.0**-20, 1e-9])
def test_roots_near_zero(root):
    for expr in (f"p - {root!r} + rho", f"p * 1e6 - {root * 1e6!r} + rho"):
        H = expression_hamiltonian(expr)
        for rho in (0.0, -1e-300, 1e-300, -(2.0**-60)):
            assert_as_reference(H, rho)


def test_a_probe_on_an_exact_zero_falls_back_to_the_bisection():
    # H is 0 on [0.25, 0.3]: the search's first probe, near 0.263, reads 0,
    # while the bisection reaches 0.25 through 0.5; the kernel gives 0.25
    H = expression_hamiltonian("max(p - 0.3, 0) + min(p - 0.25, 0) + 0 * rho")
    plain, seen = counted(H)
    assert reduce_h(plain, "v", 0.0) == 0.25 == reference_reduce_h(H, "v", 0.0)
    assert 0.25 < seen[2][0] < 0.3 and seen[2][1] == 0.0 and [p for p, _ in seen[3:]] == [0.5, 0.25]
    # p - r with r on the search's grid: the first probe lands on the root
    r = 3 * 2.0**-44
    H = expression_hamiltonian(f"p - {r!r} + rho")
    plain, seen = counted(H)
    assert reduce_h(plain, "v", 0.0) == r and (r, 0.0) in seen
    for rho in (0.0, 2.0**-46, -(2.0**-46)):
        assert_as_reference(H, rho)


@pytest.mark.parametrize("where", ["p == 0", "p == 1", "p == 4"])
def test_a_nan_at_a_bracket_end(where):
    # 1e400 * 0 is NaN; at p = 0 the bracket's low end reads NaN, at p = 1
    # or 4 its high end does, and the kernel bisects without searching
    for root in (0.3, 2.7):
        H = expression_hamiltonian(f"p - {root} + rho + (1e400 * 0 if {where} else 0)")
        for rho in (0.0, 0.1, -0.2):
            assert_as_reference(H, rho)


@pytest.mark.parametrize("expr", [
    "p - 0.7 + rho + 0 / (p <= 0.3 or p >= 0.9)",  # raises on (0.3, 0.9), around the root
    "p - 0.7 + rho + 0 / (p < 0.69 or p > 0.71)",
    "p - 2.7 + rho + 0 / (p < 2.5 or p > 2.8)",
    "log(p - 0.5) + rho",  # raises below 0.5, where both take the first midpoint
])
def test_an_exception_both_paths_hit(expr):
    H = expression_hamiltonian(expr)
    for rho in (0.0, 0.01, -0.01):
        want = outcome(reference_reduce_h, H, "v", rho)
        assert isinstance(want, tuple)
        assert_as_reference(H, rho)


ADVERSARIAL = (
    "exp(50 * p) + rho - 3",
    "(1 if p > 0.3 else -1) + 0 * rho",  # a step: the bisection stalls
    "(1 if p > 0.3 else -1e-300) + 0 * rho",
    "min(p - 0.3, 0.2) + 5 * max(p - 0.9, 0) + rho - 0.1",  # a plateau above 0
    "max(min(p - 0.1, 0), -0.01) + max(p - 0.99, 0) + rho",  # a plateau below 0
    "max(p - 0.3, 0) + min(p - 0.25, 0) + rho",  # a plateau at 0
    "min(p, 0.5) + 1e-12 * p + rho - 0.5",  # a plateau a hair above the root
    "p ** 50 + rho - 1",
    "p ** 50 + rho - 2",
    "max(p - 100, 0) * 1e9 + 1e-9 * p + rho - 1e-7",
)


@pytest.mark.parametrize("expr", ADVERSARIAL)
def test_adversarial_hamiltonians_take_at_most_two_evaluations_more(expr):
    H = expression_hamiltonian(expr)
    rng = random.Random(expr)
    for rho in [0.0, -0.05, 0.05] + [rng.uniform(-2.0, 0.9) for _ in range(20)]:
        assert_as_reference(H, rho)


def test_hjb_hamiltonians_average_at_most_8_evaluations_per_bisected_root():
    # quadratic's root, 1, is the bracket's end, so it never bisects
    plain, seen = counted(builtin_hamiltonian("quadratic"))
    assert reduce_h(plain, "v", 0.3) == 1.0 and len(seen) == 2
    rng = random.Random(8)
    for H in (builtin_hamiltonian("affine-rho"), expression_hamiltonian("p + rho - 1")):
        counts = [assert_as_reference(H, rng.uniform(-1.0, 0.99))[0] for _ in range(400)]
        assert statistics.mean(counts) <= 8.0, (H.name, statistics.mean(counts))


# On the bracket [0, 1] the bisection's stop bound is 1e-13, reached after
# n = 44 halvings: the search's grid has step 2**-44 and 2**44 cells.
STEP, CELLS = 2.0**-44, 2**44


def search_probes(expr, rho=0.0):
    """The grid indices of the evaluations after the bracket [0, 1]."""
    plain, seen = counted(expression_hamiltonian(expr))
    reduce_h(plain, "v", rho)
    assert [p for p, _ in seen[:2]] == [0.0, 1.0]
    return [p / STEP for p, _ in seen[2:]]


@pytest.mark.parametrize("expr,probes", [
    (f"p - {0.5 * STEP!r} + rho", [1]),  # the secant index 0 is kept at 1, whose H > 0 ends the search
    (f"p - {1.5 * STEP!r} + rho", [1, 2]),
    (f"p - {1 - 0.5 * STEP!r} + rho", [CELLS - 1]),  # H < 0 at 2**44 - 1 leaves the last cell
    ("p - 1 + 2.0**-60 + rho", [CELLS - 1]),  # the secant ratio rounds to 1: index 2**44 is kept at 2**44 - 1
])
def test_the_secant_index_at_either_end_of_the_grid(expr, probes):
    assert search_probes(expr) == probes
    H = expression_hamiltonian(expr)
    for rho in (0.0, -0.0, 2.0**-50, -(2.0**-50)):
        assert_as_reference(H, rho)


def test_a_root_on_a_grid_node():
    # the secant probe lands on the root 80 * 2**-44 and reads an exact zero;
    # the bisection from the bracket then reaches it through 64 and 96
    r = 80 * STEP
    probes = search_probes(f"p - {r!r} + rho")
    assert probes[0] == 80 and probes[1:4] == [CELLS / 2, CELLS / 4, CELLS / 8] and probes[-3:] == [64, 96, 80]
    assert reduce_h(expression_hamiltonian(f"p - {r!r} + rho"), "v", 0.0) == r
    # a kink past 0.5 moves the secant index to 999, so the neighbour probe
    # lands on the root 1000 * 2**-44
    kinked = f"p - {1000 * STEP!r} + max(p - 0.5, 0) * 0.001 + rho"
    assert search_probes(kinked)[:3] == [999, 1000, CELLS / 2]
    assert reduce_h(expression_hamiltonian(kinked), "v", 0.0) == 1000 * STEP
    for expr in (f"p - {r!r} + rho", kinked):
        for rho in (0.0, -0.0, STEP, -STEP):
            assert_as_reference(expression_hamiltonian(expr), rho)


# p - 0.3 leaves its cell with the probe pair: the secant index, H < 0, then
# its right neighbour, H > 0
PAIR = [5277655813324, 5277655813325]
FAULTS = {
    "zero": "(p - 0.3 + rho) * (p != {q!r})",
    "nan": "p - 0.3 + rho + (1e400 * 0 if p == {q!r} else 0)",
    "inf": "p - 0.3 + rho + (1e400 if p == {q!r} else 0)",
    "-inf": "p - 0.3 + rho - (1e400 if p == {q!r} else 0)",
    "exception": "p - 0.3 + rho + 0 / (p != {q!r})",
}


def test_the_probe_pair_of_p_minus_0_3():
    assert search_probes("p - 0.3 + rho") == PAIR


@pytest.mark.parametrize("which", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_at_a_probe_falls_back_to_the_bisection(fault, which):
    # the search stops at the faulty probe and the plain bisection runs from
    # the bracket: after the probes read, the evaluation points are the
    # reference's own; both probes are bisection midpoints, so an exception
    # is raised where the reference raises it
    H = expression_hamiltonian(FAULTS[fault].format(q=PAIR[which] * STEP))
    plain, seen = counted(H)
    got = outcome(reduce_h, plain, "v", 0.0)
    kernel_points = [p for p, _ in seen]
    seen.clear()
    assert got == outcome(reference_reduce_h, plain, "v", 0.0)
    reference_points = [p for p, _ in seen]
    read = [q * STEP for q in PAIR[:which + (fault != "exception")]]  # a raising call records nothing
    assert kernel_points == reference_points[:2] + read + reference_points[2:]
    assert isinstance(got, tuple) == (fault == "exception")
    assert_as_reference(H, 0.0)


@pytest.mark.parametrize("expr,rho,probes,steps", [
    ("(1 if p > 0.3 else -1) + 0 * rho", 0.0, [2**43, 2**43 - 1], 500),  # a step: from the bracket
    # steep, |H| above tol down to float resolution: from the cell, after its 44 steps
    ("1e8 * (p - 0.3) + rho", 0.5, [5277655725363, 5277655725364], 500 - 44),
])
def test_the_bisection_stalls_at_its_500th_step(expr, rho, probes, steps):
    plain, seen = counted(expression_hamiltonian(expr))
    _, message = outcome(reduce_h, plain, "v", rho)
    assert [p / STEP for p, _ in seen[2:4]] == probes and len(seen) == 4 + steps
    assert message.startswith("bisection for 'expr(") and f"stalled at (x='v', rho={rho})" in message
    assert_as_reference(expression_hamiltonian(expr), rho)


@pytest.mark.parametrize("expr", [
    "p * p + rho - 0.5",  # convex: the secant lands left of the root
    "exp(p) + rho - 2",
    "sqrt(p) + rho - 0.5",  # concave: the secant lands right of the root
    "log(1 + p) + rho - 0.5",
])
def test_a_curved_h_whose_secant_misses_the_cell(expr):
    first, second, *rest = search_probes(expr)
    assert abs(second - first) == 1 and rest  # the pair left more than one cell
    H = expression_hamiltonian(expr)
    rng = random.Random(expr)
    for rho in [0.0, -0.0, 0.2, -0.2] + [rng.uniform(-0.4, 0.4) for _ in range(12)]:
        assert_as_reference(H, rho)


def test_a_steep_h_bisects_past_the_cell():
    # slope 1e8: |H| at the cell's ends is far above tol, so the bisection
    # goes on inside the cell the pair left
    expr = "1e8 * (p - 0.3) + rho"
    first, second, *rest = search_probes(expr)
    assert [first, second] == PAIR and rest and all(PAIR[0] < q < PAIR[1] for q in rest)
    H = expression_hamiltonian(expr)
    for rho in (0.0, -0.0, 1e-6, -1e-6, 0.5, -0.5):
        for tol in (1e-9, 1e-12):
            assert_as_reference(H, rho, tol)
