"""Dirichlet solver for |grad u| = f on metric graphs.

The solution is the optimal-control value: u(x) minimizes accumulated edge
cost plus the boundary payoff at the exit vertex.  On a finite graph this is
one multi-source label-setting pass with boundary data as source potentials.
Its labels are the exact binary64 Bellman fixpoint, so discrete
sub/supersolution checks hold with zero tolerance; one walk over its settle
order then gives every vertex an optimal exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FieldError, ProblemError
from .fields import (
    DEFAULT_POSITIVITY_THRESHOLD,
    ScalarField,
    field_list,
    validate_field,
)
from .graph import (
    ABS_TOL,
    REL_TOL,
    MetricGraph,
    distances_from,
    settle,
)


@dataclass(frozen=True)
class DirichletProblem:
    """Graph, nonnegative rhs field f, boundary data zeta, nonnegative positivity threshold."""

    graph: MetricGraph
    f: ScalarField
    zeta: ScalarField
    threshold: float = DEFAULT_POSITIVITY_THRESHOLD

    def __post_init__(self):
        if not self.graph.boundary:
            raise ProblemError("Dirichlet problem needs a nonempty boundary")
        if self.f.role != "rhs_f":
            raise FieldError(f"f must have role rhs_f, got {self.f.role!r}")
        if self.zeta.role != "boundary_zeta":
            raise FieldError(f"zeta must have role boundary_zeta, got {self.zeta.role!r}")
        if not (self.threshold >= 0.0):  # NaN too: every x < NaN is false
            raise ProblemError(f"positivity threshold must be nonnegative, got {self.threshold!r}")
        offenders = validate_field(self.f, self.threshold)
        if offenders:
            worst = offenders[0]
            raise FieldError(
                f"rhs field fails positivity threshold {self.threshold}: "
                f"{len(offenders)} vertices, e.g. {worst[0]!r} = {worst[1]}"
            )


@dataclass(frozen=True)
class ValueFunction:
    """Solver output: u plus per-vertex optimal exit data.

    ``exit_vertex[x]`` is the boundary vertex where the optimal route from x
    leaves the domain; ``attained[y]`` records, per boundary vertex, whether
    u(y) equals the prescribed boundary value (false when an interior route
    undercuts incompatible data).
    """

    u: ScalarField
    exit_vertex: dict[str, str]
    attained: dict[str, bool]

    def __getitem__(self, v: str) -> float:
        return self.u[v]


@dataclass(frozen=True)
class BoundaryCertificate:
    """Boundary-consistency verdicts for a solved problem.

    ``zeta_lipschitz_ok`` is the strong compatibility condition (boundary data
    Lipschitz with constant at most inf f); ``curve_condition_ok`` is the
    weaker along-curves condition (boundary increments bounded by path cost).
    The one-sided value bound holds unconditionally for the value function;
    the two-sided bound is checked only when the strong condition holds.
    """

    lipschitz_L: float
    inf_f: float
    sup_f: float
    zeta_lipschitz_ok: bool
    curve_condition_ok: bool
    weak_bound_ok: bool
    weak_bound: float
    two_sided_ok: bool | None


def solve_dirichlet(p: DirichletProblem) -> ValueFunction:
    """Solve the Dirichlet problem by multi-source label setting.

    u(x) = min over boundary y of (cost distance from x to y + zeta(y)),
    realized in one pass with zeta as initial labels.  The returned labels
    satisfy the discrete Bellman equation exactly in floating point, hence
    also the per-edge Lipschitz bound |u(x) - u(y)| <= cost(x, y).

    Exits follow the :func:`settle` parents: a boundary vertex whose label
    equals its datum exits at itself; any other x takes the exit of the
    first neighbor y in id order settled before x with u(x) == fl(u(y) +
    cost(x, y)), which always exists.
    """
    g = p.graph
    return value_function(g, p.zeta, settle(g, boundary_seeds(g, p.zeta), field_list(g, p.f)))


def boundary_seeds(g: MetricGraph, data) -> list[tuple[int, float]]:
    """:func:`settle` seeds: data[y] at each boundary vertex y."""
    return [(g.index[y], data[y]) for y in g.boundary]


def value_function(g: MetricGraph, zeta: ScalarField, run) -> ValueFunction:
    """A :func:`settle` run seeded with zeta on the boundary as u, each
    vertex's exit (see :func:`solve_dirichlet`) and each datum's attainment;
    ProblemError names the first vertex whose label overflowed to inf."""
    dist, order, parent = run
    # the graph is connected and the data finite, so an inf label is an overflow
    if math.inf in dist:
        v = g.vertices[dist.index(math.inf)]
        raise ProblemError(f"the cost of reaching vertex {v!r} overflows binary64")
    names, exits = g.vertices, parent[:]  # the parents, turned into exits in settle order
    u = ScalarField(g, {names[x]: dist[x] for x in order}, "solution_u")
    for x in order:
        exits[x] = exits[exits[x]]  # a parent's entry is already its exit: every vertex is reached
    exit_vertex = {names[x]: names[exits[x]] for x in order}
    attained = {y: u[y] == zeta[y] for y in sorted(g.boundary)}
    return ValueFunction(u=u, exit_vertex=exit_vertex, attained=attained)


def _undercuts(
    g: MetricGraph, seeds: dict[str, float], fl=None, scale: float = 1.0
) -> tuple[list[float], list[tuple[float, float]]]:
    """One multi-source solve, plus (zeta(y) - zeta(source), path length)
    for every seed y whose label another seed undercuts.

    The source and the path come from the :func:`settle` parents.  Each
    rise / length is the increment ratio of a realized boundary pair over a
    path no shorter than their distance, so it is at most the boundary
    Lipschitz constant L.

    The solve stops at the largest datum: a seed's label is at most its
    datum, and its parents are settled before it, so the prefix holds every
    seed's label and path.  Only the labels at the seeds are final.
    """
    labels, order, parent = settle(g, boundary_seeds(g, seeds), fl, scale, max(seeds.values()))
    index = g.index
    if all(labels[index[y]] == zy for y, zy in seeds.items()):
        return labels, []
    names = g.vertices
    source, length = list(range(len(names))), [0.0] * len(names)
    for x in order:
        y = parent[x]
        if 0 <= y != x:  # -1: unreached
            source[x], length[x] = source[y], length[y] + g.lens[x][g.nbrs[x].index(y)]
    rises = [(zy - seeds[names[source[i]]], length[i])
             for y, zy in seeds.items() if source[i := index[y]] != i]
    return labels, rises


def _steepest(rises: list[tuple[float, float]], floor: float) -> tuple[float, tuple[float, float] | None]:
    """Largest rise / length above floor, with the pair that attains it."""
    best, witness = floor, None
    for rise, length in rises:
        if rise / length > best:
            best, witness = rise / length, (rise, length)
    return best, witness


def _lipschitz_on_boundary(
    g: MetricGraph, seeds: dict[str, float], rises: list[tuple[float, float]]
) -> tuple[float, tuple[float, float] | None]:
    """Exact max over boundary pairs of (zeta(y) - zeta(y')) / d(y, y').

    Dinkelbach's ratio iteration, started from the largest ratio in
    ``rises`` (realized pairs, so K starts at most L): solve with weights
    K * length and seeds zeta, and raise K to the largest ratio of the
    undercut seeds.  While K < L the pair attaining L is undercut with a
    ratio above K, so the iteration stops exactly when K is the maximal
    ratio.  Returns K and the (rise, length) pair that attains it, None
    for K = 0.
    """
    k, witness = _steepest(rises, 0.0)
    if k == 0.0 and min(seeds.values()) == max(seeds.values()):
        return 0.0, None  # constant data has no increment
    while True:
        _labels, rises = _undercuts(g, seeds, scale=k)
        best, steeper = _steepest(rises, k)
        if steeper is None:
            return k, witness
        k, witness = best, steeper


def _labels_reach(
    g: MetricGraph, a: list[float], seeds: dict[str, float], fl=None, scale: float = 1.0
) -> bool:
    """Whether one pass over the edges proves every :func:`settle` label from
    ``seeds`` (weights as settle takes them) at or above ``a``, a list by
    vertex index, without solving.

    The pass asks a <= datum at every seed and a(x) <= fl(a(y) + cost(x, y))
    on every arc, the cost computed as settle computes it.  Then induction
    over the settle order puts each label at or above a: a seed at its datum
    is, and any other label is fl(label(y) + cost(x, y)) for a y settled
    before it, which is at least fl(a(y) + cost(x, y)) since fl(. + cost) is
    nondecreasing.  False proves nothing; NaN fails the pass.
    """
    index = g.index
    if not all(a[index[y]] <= zy for y, zy in seeds.items()):
        return False
    if fl is None:
        fl = [1.0] * len(a)
    for ax, fx, nbrs, lens in zip(a, fl, g.nbrs, g.lens):
        for y, length in zip(nbrs, lens):
            if not ax <= a[y] + 0.5 * (fx + fl[y]) * length * scale:  # settle's cost rule
                return False
    return True


def check_boundary_consistency(p: DirichletProblem, vf: ValueFunction) -> BoundaryCertificate:
    """Certify the boundary-consistency bounds for a solved problem.

    Every verdict has the form A(x) - B(y) <= K * d(x, y) * (1 + REL_TOL) +
    ABS_TOL over pairs of vertices.  Over the reals that is one min-plus
    statement, A(x) <= min_y (B(y) + K * (1 + REL_TOL) * d(x, y)) +
    ABS_TOL: the labels of a multi-source label-setting solve with weights
    K * (1 + REL_TOL) * length and seeds B on the boundary must reach A.
    Where A is given at every vertex, one pass over the edges
    (:func:`_labels_reach`) first tries to prove that every label reaches
    A: A at most B on the boundary, and along every edge the along-curves
    subsolution inequality, which the solver's u meets edge by edge.  Only
    when the pass fails does the verdict take its solve.

    - ``curve_condition_ok``: boundary increments are bounded by the cheapest
      connecting path cost (A = B = zeta, the cost adjacency scaled by
      1 + REL_TOL in place of K * length, judged on the boundary).  When
      zeta is constant, or u == zeta on the boundary and the pass proves
      the labels reach u, the labels equal zeta there (a label is never
      below the least datum, and no seed's is above its own): the
      condition holds and no seed is undercut, so the solve is skipped.
    - ``zeta_lipschitz_ok``: zeta is (inf f)-Lipschitz on the boundary
      (A = B = zeta, K = inf f, judged on the boundary).  It holds when
      L <= inf f and fails when the pair attaining L violates it; only in
      between does it take a solve.
    - ``weak_bound_ok``: the one-sided bound u(x) - zeta(y) <= d(x, y) * K
      with K = max(L, sup f) at interior x (A = u, B = zeta).  A solver
      output meets it by construction (u(x) <= zeta(y) + path cost <=
      zeta(y) + sup f * d), so it is a regression guard.
    - ``two_sided_ok``: only when the strong condition holds, the one-sided
      bound with K = sup f (the weak verdict when L <= sup f) plus the
      reverse bound zeta(y) - u(x) <= d(x, y) * sup f (A = -u, B = -zeta);
      None otherwise.

    ``lipschitz_L``, the boundary Lipschitz constant of zeta, comes from
    Dinkelbach's ratio iteration with weights K * length, started from the
    pairs the curve solve links: no solve for constant zeta, usually one or
    two otherwise.  So a solver output takes no solve for constant zeta,
    and only Dinkelbach's and, when some route undercuts a datum, the
    curve solve otherwise.
    """
    g = p.graph
    zeta = {y: p.zeta[y] for y in sorted(g.boundary)}
    u = field_list(g, vf.u)
    fl = field_list(g, p.f)
    inf_f = min(p.f.values.values())
    sup_f = max(p.f.values.values())
    slack = 1.0 + REL_TOL

    def holds(scale: float, seeds, judged) -> bool:
        # a label is final up to the limit, and past it above every judged value
        judged = list(judged)
        limit = max((ax for _, ax in judged), default=-math.inf)
        labels = settle(g, boundary_seeds(g, seeds), scale=scale, limit=limit)[0]
        return all(ax <= labels[x] + ABS_TOL for x, ax in judged)

    def value_bound(k: float, seeds, a) -> bool:
        scale = k * slack
        return _labels_reach(g, a, seeds, scale=scale) or holds(
            scale, seeds, ((x, a[x]) for x in map(g.index.__getitem__, g.interior)))

    if min(zeta.values()) == max(zeta.values()) or (
        all(u[g.index[y]] == zy for y, zy in zeta.items()) and _labels_reach(g, u, zeta, fl, slack)
    ):  # a constant datum is the least label; else the labels reach u == zeta
        curve_ok, rises = True, []
    else:
        curve_labels, rises = _undercuts(g, zeta, fl, slack)
        curve_ok = all(zy <= curve_labels[g.index[y]] + ABS_TOL for y, zy in zeta.items())

    lipschitz_L, witness = _lipschitz_on_boundary(g, zeta, rises)
    if lipschitz_L <= inf_f:
        zeta_ok = True  # every increment is at most L * d <= inf f * d
    elif witness[0] > witness[1] * inf_f * slack + ABS_TOL:
        zeta_ok = False  # the pair that attains L violates the condition
    else:
        zeta_ok = holds(inf_f * slack, zeta, boundary_seeds(g, zeta))

    weak_constant = max(lipschitz_L, sup_f)
    weak_ok = value_bound(weak_constant, zeta, u)
    two_sided_ok: bool | None = None
    if zeta_ok:
        upper_ok = weak_ok if weak_constant == sup_f else value_bound(sup_f, zeta, u)
        neg_zeta = {y: -zy for y, zy in zeta.items()}
        two_sided_ok = upper_ok and value_bound(sup_f, neg_zeta, [-ux for ux in u])

    return BoundaryCertificate(
        lipschitz_L=lipschitz_L,
        inf_f=inf_f,
        sup_f=sup_f,
        zeta_lipschitz_ok=zeta_ok,
        curve_condition_ok=curve_ok,
        weak_bound_ok=weak_ok,
        weak_bound=weak_constant,
        two_sided_ok=two_sided_ok,
    )


def distance_to_boundary(g: MetricGraph) -> dict[str, float]:
    """Intrinsic distance to the boundary set (edge lengths as weights)."""
    if not g.boundary:
        raise ProblemError("graph has no boundary vertices")
    return distances_from(g, g.boundary)


def boundary_band(g: MetricGraph, delta: float) -> tuple[str, ...]:
    """Vertices within intrinsic distance delta of the boundary."""
    dist = distance_to_boundary(g)
    cut = delta + ABS_TOL + REL_TOL * abs(delta)
    return tuple(v for v in g.vertices if dist[v] <= cut)
