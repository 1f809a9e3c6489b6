"""The reduction kernels' evaluation points, pinned by digest.

The tests that compare the kernel with ``tests/oracles.py`` pin its roots,
residuals and errors; these also pin every point it evaluates H at, in
order.  Over a seeded corpus of evaluators (linear, curved, steep, a
plateau, a NaN band, a stall, ``p - exp(-4*rho)`` and raising ones) and rho
in [-3, 3] plus +-0.0 and +-1e6, each case records the root or the error,
the residual and the full (rho, p) sequence, through all four kernels: the
generic and the inlined one, each plain and causal.  The inlined kernels
see the points through ``record``, a name bound to the expression that
returns H unchanged.  A restructured kernel that keeps its points, roots
and bits keeps the digest.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from eikograph import HamiltonianSpec
from eikograph.hamiltonians import _GENERIC, _GENERIC_CAUSAL, _evaluator, _kernel_of

CORPUS = (
    "p + rho - 1",  # linear
    "p * p + sin(rho) - 0.5",  # curved
    "1e3 * (p - 37.5) + rho",  # steep, its bracket doubled to 2**6
    "1e8 * (p - 0.3) + rho",  # steeper: stalls at float resolution
    "1e-12 * p + rho - 1",  # brackets up to BRACKET_CAP's, and past it
    "1e-20 * p + rho - 1",  # no sign change below BRACKET_CAP
    "min(p - 0.3, 0.2) + 5 * max(p - 0.9, 0) + rho - 0.1",  # a plateau above 0
    "max(p - 0.3, 0) + min(p - 0.25, 0) + rho",  # a plateau at 0
    "p - 0.7 + rho + (1e400 * 0 if 0.6 < p < 0.8 else 0)",  # a NaN band
    "(1 if p > 0.3 else -1) + 0 * rho",  # a step: the bisection stalls
    "p - exp(-4 * rho)",  # overflows at rho = -1e6
    "p - 0.7 + rho + 0 / (p < 0.5 or p > 0.9)",  # raises around the root
    "log(p - 0.5) + rho",  # raises below 0.5
)
HALF_L = 0.375  # the causal kernels' half edge length


def rhos():
    rng = random.Random(39)
    return [0.0, -0.0, 1e6, -1e6] + [rng.uniform(-3.0, 3.0) for _ in range(24)]


def traced(expr):
    """The inlined H for ``expr`` and the generic one behind a closure, and
    the (rho, p) lists each appends to."""
    inlined_seen, generic_seen = [], []

    def record(rho, p, value):
        inlined_seen.append((rho.hex(), p.hex()))
        return value

    inlined = _evaluator("traced", f"record(rho, p, ({expr}))", 1.0, record=record)
    plain = _evaluator("plain", expr, 1.0).evaluate

    def generic(x, rho, p):
        value = plain(x, rho, p)
        generic_seen.append((rho.hex(), p.hex()))
        return value

    return inlined, HamiltonianSpec("traced", generic, 1.0, "nondecreasing"), inlined_seen, generic_seen


def run(kernel, H, rho, seen, causal):
    """The root or the error, the residual and the points of one kernel call."""
    roots, residuals = [math.nan], [math.nan]
    extra = (rho, HALF_L) if causal else ()
    try:
        kernel(H.evaluate, H.name, ("v",), [rho], [math.nan], roots, residuals, 1e-9, *extra)
        got = (roots[0].hex(), residuals[0].hex())
    except Exception as exc:  # noqa: BLE001 - recorded, not handled
        got = (type(exc).__name__, str(exc))
    points = tuple(seen)
    seen.clear()
    return got, points


def corpus_records(causal):
    records = []
    for expr in CORPUS:
        inlined, generic, inlined_seen, generic_seen = traced(expr)
        kernels = (getattr(inlined.evaluate, "_causal"), _GENERIC_CAUSAL) if causal else (
            _kernel_of(inlined.evaluate), _GENERIC)
        assert kernels[0] is not kernels[1]
        for rho in rhos():
            want = run(kernels[1], generic, rho, generic_seen, causal)
            assert run(kernels[0], inlined, rho, inlined_seen, causal) == want, (expr, rho)
            records.append((expr, rho.hex(), want))
    return records


DIGESTS = {
    False: "712ab99538581c21a4c8723e0f77889d9880383fd88af9e63c46ca8fd03d45a2",
    True: "338cdd61b3c884f9a27880e1e2ab5857d7f525ca20fa5cf6d6e2195be5a416fc",
}


@pytest.mark.parametrize("causal", [False, True], ids=["plain", "causal"])
def test_evaluation_points_digest(causal):
    records = corpus_records(causal)
    assert sum(len(points) for _, _, (_, points) in records) > 5000
    assert hashlib.sha256(repr(records).encode()).hexdigest() == DIGESTS[causal]
