"""The discrete comparison principle for a general H, in exact arithmetic.

For H = p + rho - c the causal update S of ``solve_general``'s discrete
system is exact in rationals (``oracles.exact_affine_update``), and so is
its fixpoint u* (``oracles.exact_affine_fixpoint``).  Where S is monotone,
as it is for every edge length l <= 2, a subsolution u <= S(u) lies below
u* and a supersolution v >= S(v) above it.  Seeded climbs move u up and v
down by random steps, keeping only the steps after which u <= S(u) (or
v >= S(v)) still holds, and must never cross u*.  The binary64 labels of
the causal pass lie within a stated rounding bound of u*.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import pytest

from eikograph import builtin_hamiltonian, expression_hamiltonian, field_on, random_metric_graph, solve_general
from oracles import adjacency, exact_affine_fixpoint, exact_affine_update

SEEDS = range(200)
STEPS = 12  # climb steps per graph and direction
RATES = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(1), Fraction(3, 2))  # > 1 overshoots S


@functools.lru_cache(maxsize=None)
def instance(seed):
    """A graph of 4 to 8 vertices (lengths in [0.2, 2], so S is monotone),
    zeta uniform on [0, 0.2], the exact adjacency and data, and u* at c = 1."""
    g = random_metric_graph(seed, n_min=4, n_max=8)
    rng = random.Random(seed)
    zeta = {y: rng.uniform(0.0, 0.2) for y in sorted(g.boundary)}
    adj = {x: [(y, Fraction(length)) for y, length in pairs] for x, pairs in adjacency(g).items()}
    exact_zeta = {y: Fraction(z) for y, z in zeta.items()}
    return g, zeta, adj, exact_zeta, exact_affine_fixpoint(adj, Fraction(1), exact_zeta)


def climb(rng, adj, zeta, u, sign):
    """Move u toward S(u) (up for sign 1, down for -1) by a random rate of
    the gap at a random set of vertices, or by a small dyadic step where
    there is no gap; keep a step only if sign * (S(u) - u) >= 0 still holds
    everywhere.  Yields u after every step, and counts the steps kept."""
    c, kept = Fraction(1), 0
    s = exact_affine_update(adj, c, zeta, u)
    assert all(sign * (s[x] - u[x]) >= 0 for x in adj)  # the start is a sub- (super-) solution
    for _ in range(STEPS):
        moved = dict(u)
        for x in rng.sample(sorted(adj), rng.randint(1, len(adj))):
            gap = s[x] - u[x]
            moved[x] += rng.choice(RATES) * gap if gap else sign * Fraction(1, 2 ** rng.randint(4, 30))
        s_moved = exact_affine_update(adj, c, zeta, moved)
        if all(sign * (s_moved[x] - moved[x]) >= 0 for x in adj):
            u, s, kept = moved, s_moved, kept + 1
        yield u, kept


def test_subsolutions_stay_below_and_supersolutions_above_the_fixpoint():
    kept = touched = 0
    for seed in SEEDS:
        g, _, adj, zeta, star = instance(seed)
        rng = random.Random(seed)
        top = max(Fraction(1), *zeta.values())  # h = 0 above c = 1: S(top) = min(zeta, top)
        for sign, start in ((1, min(zeta.values())), (-1, top)):
            for u, steps in climb(rng, adj, zeta, dict.fromkeys(adj, start), sign):
                assert all(sign * (star[x] - u[x]) >= 0 for x in adj), (seed, sign)
            kept += steps
            touched += sum(u[x] == star[x] for x in adj)
    # the climbs move (1,077 of 4,800 steps kept) and end on u* at 593
    # vertices of 2,406: the order they keep is tight, not vacuous
    assert kept > len(SEEDS) * STEPS // 4 and touched > len(SEEDS)


@pytest.mark.parametrize("name", ["affine-rho", "p + rho - 1"])
def test_labels_lie_within_rounding_of_the_exact_fixpoint(name):
    """Each root the pass takes (h, and p at a candidate) is at most 1 here
    and within half the bisection's stop width 1e-13 of the exact one, so an
    edge of length l <= 2 adds at most 1e-13 plus a few ulps of rounding to
    its candidate, and the update is 1-Lipschitz in u(y): along a settle
    path of at most |V| - 1 edges each label lies within
    (|V| - 1) * (1e-13 + 4 ulp(max u*)) of u*."""
    H = builtin_hamiltonian(name) if name == "affine-rho" else expression_hamiltonian(name)
    worst = 0.0
    for seed in SEEDS:
        g, zeta, _, _, star = instance(seed)
        u = solve_general(g, H, field_on(g, zeta, "boundary_zeta"), max_iter=1)[0].u.values
        bound = (len(g.vertices) - 1) * (1e-13 + 4.0 * math.ulp(float(max(star.values()))))
        for x in g.vertices:
            error = abs(Fraction(u[x]) - star[x])
            assert error <= bound, (seed, x, float(error), bound)
            worst = max(worst, float(error))
    assert worst > 0.0  # the labels are not exact: the bound is what is tested
