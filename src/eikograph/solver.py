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

from .errors import ConnectivityError, FieldError, ProblemError
from .fields import (
    DEFAULT_POSITIVITY_THRESHOLD,
    ScalarField,
    cost_adjacency,
    field_on,
    validate_field,
)
from .graph import ABS_TOL, REL_TOL, MetricGraph, distances_from, fixpoint_labels


@dataclass(frozen=True)
class DirichletProblem:
    """Graph, nonnegative rhs field f, boundary data zeta, positivity threshold."""

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
        report = validate_field(self.f, self.threshold)
        if not report.passed:
            worst = report.offenders[0]
            raise FieldError(
                f"rhs field fails positivity threshold {self.threshold}: "
                f"{len(report.offenders)} vertices, e.g. {worst[0]!r} = {worst[1]}"
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
    realized_weak_constant: float
    weak_bound: float
    tight_pair: tuple[str, str] | None
    two_sided_ok: bool | None
    worst_pairs: dict[str, tuple[str, str]]


@dataclass(frozen=True)
class QuasiconvexityEstimate:
    """Empirical convexity modulus of a region: in-region path length needed
    to join points at a given ambient distance.  Heuristic estimate only."""

    subset: tuple[str, ...]
    steps: tuple[tuple[float, float], ...]  # (ambient distance, modulus value)
    max_ratio: float
    worst_pair: tuple[str, str] | None
    note: str = "heuristic step-modulus fit from vertex pairs"

    def __call__(self, t: float) -> float:
        value = 0.0
        for d, s in self.steps:
            if d <= t:
                value = s
            else:
                break
        return max(value, 0.0)


def solve_dirichlet(p: DirichletProblem) -> ValueFunction:
    """Solve the Dirichlet problem by multi-source label setting.

    u(x) = min over boundary y of (cost distance from x to y + zeta(y)),
    realized in one pass with zeta as initial labels.  The returned labels
    satisfy the discrete Bellman equation exactly in floating point, hence
    also the per-edge Lipschitz bound |u(x) - u(y)| <= cost(x, y).

    Exits follow the settle order of that pass: a boundary vertex whose
    label equals its datum exits at itself; any other x takes the exit of
    the first neighbor y in id order that was settled before x and satisfies
    u(x) == fl(u(y) + cost(x, y)).  Such a neighbor always exists, since the
    vertex that set x's label was settled before x.
    """
    g = p.graph
    adjacency = cost_adjacency(g, p.f)
    seeds = {y: p.zeta[y] for y in g.boundary}
    u = fixpoint_labels(adjacency, seeds)
    if any(math.isinf(val) for val in u.values()):
        raise ConnectivityError("some vertices are unreachable from the boundary")

    exit_vertex: dict[str, str] = {}
    for x, ux in u.items():
        if x in seeds and ux == seeds[x]:
            exit_vertex[x] = x
            continue
        for y, c in adjacency[x]:
            if y in exit_vertex and ux == u[y] + c:
                exit_vertex[x] = exit_vertex[y]
                break

    attained = {y: u[y] == p.zeta[y] for y in sorted(g.boundary)}
    u_field = field_on(g, u, "solution_u")
    return ValueFunction(u=u_field, exit_vertex=exit_vertex, attained=attained)


def check_boundary_consistency(p: DirichletProblem, vf: ValueFunction) -> BoundaryCertificate:
    """Certify the boundary-consistency bounds for a solved problem.

    Checks, over all (interior, boundary) pairs, the one-sided bound
    u(x) - zeta(y) <= d(x, y) * max{L, sup f} with L the boundary Lipschitz
    constant of zeta, and, when zeta is (inf f)-Lipschitz on the boundary,
    the two-sided bound |u(x) - zeta(y)| <= d(x, y) * sup f.
    """
    g = p.graph
    zeta = p.zeta
    u = vf.u
    inf_f = min(p.f.values.values())
    sup_f = max(p.f.values.values())

    b_list = sorted(g.boundary)
    dist_from: dict[str, dict[str, float]] = {y: distances_from(g, [y]) for y in b_list}

    lipschitz_L = 0.0
    zeta_ok = True
    for i, y1 in enumerate(b_list):
        for y2 in b_list[i + 1 :]:
            d = dist_from[y1][y2]
            if d <= 0.0:
                continue
            ratio = abs(zeta[y1] - zeta[y2]) / d
            lipschitz_L = max(lipschitz_L, ratio)
            if abs(zeta[y1] - zeta[y2]) > d * inf_f + ABS_TOL + REL_TOL * d * inf_f:
                zeta_ok = False

    # weaker along-curves condition: boundary increments bounded by the best
    # connecting path cost inside the closed domain
    cost_adj = cost_adjacency(g, p.f)
    curve_ok = True
    worst_pairs: dict[str, tuple[str, str]] = {}
    for y1 in b_list:
        costs = fixpoint_labels(cost_adj, {y1: 0.0})
        for y2 in b_list:
            if y2 == y1:
                continue
            if zeta[y2] - zeta[y1] > costs[y2] + ABS_TOL + REL_TOL * abs(costs[y2]):
                curve_ok = False
                worst_pairs.setdefault("curve_condition", (y2, y1))

    weak_constant = max(lipschitz_L, sup_f)
    weak_ok = True
    realized = -math.inf
    tight_pair: tuple[str, str] | None = None
    two_sided_ok: bool | None = True if zeta_ok else None
    for y in b_list:
        dy = dist_from[y]
        for x in g.interior:
            d = dy[x]
            if d <= 0.0:
                continue
            ratio = (u[x] - zeta[y]) / d
            if tight_pair is None or ratio > realized:
                realized = ratio
                tight_pair = (x, y)
            if u[x] - zeta[y] > d * weak_constant + ABS_TOL + REL_TOL * d * weak_constant:
                weak_ok = False
                worst_pairs.setdefault("weak_bound", (x, y))
            if zeta_ok and abs(u[x] - zeta[y]) > d * sup_f + ABS_TOL + REL_TOL * d * sup_f:
                two_sided_ok = False
                worst_pairs.setdefault("two_sided", (x, y))

    return BoundaryCertificate(
        lipschitz_L=lipschitz_L,
        inf_f=inf_f,
        sup_f=sup_f,
        zeta_lipschitz_ok=zeta_ok,
        curve_condition_ok=curve_ok,
        weak_bound_ok=weak_ok,
        realized_weak_constant=realized,
        weak_bound=weak_constant,
        tight_pair=tight_pair,
        two_sided_ok=two_sided_ok,
        worst_pairs=worst_pairs,
    )


def quasiconvexity_probe(g: MetricGraph, subset) -> QuasiconvexityEstimate:
    """Fit a nondecreasing step modulus bounding in-subset path lengths.

    For vertex pairs in the subset, compares the ambient intrinsic distance
    with the shortest connecting path that stays inside the subset, and fits
    the running-max step function of the latter against the former.
    """
    members = sorted(set(subset))
    unknown = [v for v in members if not g.has_vertex(v)]
    if unknown:
        raise ConnectivityError(f"subset references unknown vertices {unknown[:5]}")
    mset = set(members)
    sub_adj = {
        v: tuple((w, c) for w, c in g.adjacency[v] if w in mset) for v in members
    }

    pairs: list[tuple[float, float, str, str]] = []
    for x in members:
        inside = fixpoint_labels(sub_adj, {x: 0.0})
        unreachable = [v for v in members if math.isinf(inside[v])]
        if unreachable:
            raise ConnectivityError(
                f"subset is disconnected: {unreachable[0]!r} unreachable from {x!r}"
            )
        ambient = distances_from(g, [x])
        for y in members:
            if y <= x:
                continue
            pairs.append((ambient[y], inside[y], x, y))

    pairs.sort()
    steps: list[tuple[float, float]] = []
    running = 0.0
    max_ratio = 0.0
    worst_pair: tuple[str, str] | None = None
    for d_amb, d_in, x, y in pairs:
        running = max(running, d_in)
        if not steps or steps[-1][0] != d_amb:
            steps.append((d_amb, running))
        else:
            steps[-1] = (d_amb, running)
        if d_amb > 0.0 and d_in / d_amb > max_ratio:
            max_ratio = d_in / d_amb
            worst_pair = (x, y)
    return QuasiconvexityEstimate(
        subset=tuple(members), steps=tuple(steps), max_ratio=max_ratio, worst_pair=worst_pair
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
