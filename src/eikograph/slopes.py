"""Discrete slopes and verification of the solution notions.

The slope, super-slope and sub-slope at a vertex are one-hop difference
quotients over incident edges (the mesh parameter realizes the limit; refine
the graph to tighten them).  The checks below certify, per vertex or per
oriented edge, the Monge property (sub-slope equals the right-hand side), the
along-curves subsolution inequality, the epsilon-optimal-curve supersolution
inequality, and the regularity property (slope equals sub-slope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import GraphError
from .fields import ScalarField, cost_adjacency, edge_costs, lipschitz_constant
from .graph import Curve, MetricGraph, ball, curve_along, distances_from

# Base additive tolerance; interpolation error of a Lipschitz rhs adds
# Lip(f) * h_max on top of it (see default_check_tol).
BASE_TOL = 1e-9


@dataclass(frozen=True)
class SlopeTriple:
    """Slope, super-slope and sub-slope of a field at one vertex."""

    vertex: str
    slope: float
    super_slope: float
    sub_slope: float


@dataclass(frozen=True)
class CheckReport:
    """Per-item residuals of one check, with verdict at a fixed tolerance.

    ``passed`` holds iff every judged residual is <= tol.  ``excluded`` items
    are reported but not judged (e.g. boundary-adjacent vertices in the
    regularity check).  ``details`` carries check-specific extras such as
    witness curves or Lipschitz certificates.
    """

    name: str
    tol: float
    residuals: dict[str, float]
    excluded: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    @property
    def worst_item(self) -> str | None:
        if not self.residuals:
            return None
        return max(sorted(self.residuals), key=lambda k: self.residuals[k])

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def rows(self) -> list[tuple[str, float, str]]:
        out = []
        for item in sorted(self.residuals):
            r = self.residuals[item]
            out.append((item, r, "pass" if r <= self.tol else "fail"))
        return out

    def failures(self) -> list[str]:
        return [item for item, r in sorted(self.residuals.items()) if r > self.tol]


def default_check_tol(g: MetricGraph, f: ScalarField | None) -> float:
    """1e-9 plus the interpolation slack Lip(f) * h_max of the rhs field."""
    if f is None:
        return BASE_TOL
    return BASE_TOL + lipschitz_constant(g, f) * g.h_max


def slopes(g: MetricGraph, u: ScalarField, x: str) -> SlopeTriple:
    """One-hop slope triple of u at x; raises at isolated vertices."""
    nbrs = g.neighbors(x)
    if not nbrs:
        raise GraphError(f"vertex {x!r} is isolated; slopes are undefined")
    ux = u[x]
    sub = 0.0
    sup = 0.0
    for y, length in nbrs:
        d = ux - u[y]
        if d > 0.0:
            sub = max(sub, d / length)
        elif d < 0.0:
            sup = max(sup, -d / length)
    return SlopeTriple(vertex=x, slope=max(sub, sup), super_slope=sup, sub_slope=sub)


def slope_field(g: MetricGraph, u: ScalarField) -> dict[str, SlopeTriple]:
    return {x: slopes(g, u, x) for x in g.vertices}


def check_monge(
    g: MetricGraph,
    u: ScalarField,
    f: ScalarField,
    tol: float | None = None,
    mode: str = "solution",
) -> CheckReport:
    """Monge residuals at interior vertices: sub-slope against f.

    mode "solution" judges |sub_slope - f|; "sub" judges only the excess
    [sub_slope - f]+ (Monge subsolution), "super" only the deficit
    [f - sub_slope]+ (Monge supersolution).
    """
    if mode not in ("solution", "sub", "super"):
        raise ValueError(f"unknown monge mode {mode!r}")
    if tol is None:
        tol = default_check_tol(g, f)
    residuals: dict[str, float] = {}
    for x in g.interior:
        s = slopes(g, u, x).sub_slope
        if mode == "solution":
            r = abs(s - f[x])
        elif mode == "sub":
            r = max(s - f[x], 0.0)
        else:
            r = max(f[x] - s, 0.0)
        residuals[x] = r
    name = {"solution": "monge", "sub": "monge-sub", "super": "monge-super"}[mode]
    return CheckReport(name=name, tol=tol, residuals=residuals)


def check_c_subsolution(
    g: MetricGraph,
    u: ScalarField,
    f: ScalarField,
    tol: float = 0.0,
    certificate_centers: int = 6,
) -> CheckReport:
    """Along-curves subsolution check, reduced to every oriented edge.

    Residual on edge (x, y) is the excess of u(x) - u(y) over the edge cost;
    on a graph every admissible curve is a concatenation of edges, so the
    integral inequality holds iff it holds edgewise in both orientations.
    Bellman fixpoints satisfy this with residual exactly zero, hence the
    default tolerance 0.  A local Lipschitz certificate over sampled metric
    balls (|u(x) - u(y)| <= d(x, y) * sup of f on the doubled ball) is
    attached to the report details.
    """
    costs = edge_costs(g, f)
    residuals: dict[str, float] = {}
    for (a, b), c in costs.items():
        # same operation order as the solver: compare u[x] with fl(u[y] + c)
        residuals[f"{a}->{b}"] = max(u[a] - (u[b] + c), 0.0)
        residuals[f"{b}->{a}"] = max(u[b] - (u[a] + c), 0.0)

    cert_rows: list[tuple[str, float, int, float]] = []
    n = len(g.vertices)
    stride = max(1, n // max(1, certificate_centers))
    radius = 2.0 * g.h_max
    for x0 in g.vertices[::stride][:certificate_centers]:
        inner = ball(g, x0, radius)
        supf = max(f[v] for v in ball(g, x0, 2.0 * radius).members)
        members = sorted(inner.members)
        worst = 0.0
        pairs = 0
        for i, x in enumerate(members):
            dist = distances_from(g, [x])
            for y in members[i + 1 :]:
                viol = abs(u[x] - u[y]) - dist[y] * supf
                worst = max(worst, viol)
                pairs += 1
        cert_rows.append((x0, radius, pairs, worst))
    return CheckReport(
        name="csub",
        tol=tol,
        residuals=residuals,
        details={"lipschitz_certificate": cert_rows},
    )


def descent_curve(
    g: MetricGraph,
    u: ScalarField,
    f: ScalarField,
    start: str,
    max_steps: int | None = None,
) -> Curve:
    """Greedy concatenation of argmin neighbors: the discrete optimal curve.

    From each vertex, steps to the neighbor minimizing edge cost plus value
    (ties to the smallest id); stops at a boundary vertex, at a vertex that
    beats all its neighbors, or after max_steps edges.
    """
    if not g.has_vertex(start):
        raise GraphError(f"unknown vertex {start!r}")
    costs = cost_adjacency(g, f)
    limit = max_steps if max_steps is not None else len(g.vertices)
    path = [start]
    x = start
    for _ in range(limit):
        if x in g.boundary:
            break
        best_y = None
        best_val = math.inf
        for y, c in costs[x]:
            cand = c + u[y]
            if best_y is None or cand < best_val:
                best_y = y
                best_val = cand
        # stop rather than cycle if the greedy step would not descend
        if best_y is None or u[best_y] >= u[x]:
            break
        path.append(best_y)
        x = best_y
    return curve_along(g, path)


def check_c_supersolution(
    g: MetricGraph,
    u: ScalarField,
    f: ScalarField,
    eps: float | None = None,
    witness_start: str | None = None,
) -> CheckReport:
    """Epsilon-optimal-curve supersolution check at interior vertices.

    At each interior x some neighbor y must satisfy
    u(x) >= edge_cost(x, y) + u(y) - eps; the per-vertex margin
    u(x) - min_y (cost + u(y)) + eps must be nonnegative.  The report stores
    the violation [-margin]+ as the residual (tol 0), keeping the pass rule
    "all residuals <= tol"; raw margins live in details.  A greedy descent
    curve from the deepest vertex (or from witness_start) is attached as the
    epsilon-optimal curve witness.
    """
    if eps is None:
        eps = default_check_tol(g, f)
    costs = cost_adjacency(g, f)
    residuals: dict[str, float] = {}
    margins: dict[str, float] = {}
    for x in g.interior:
        best = None
        for y, c in costs[x]:
            cand = c + u[y]
            if best is None or cand < best:
                best = cand
        if best is None:
            raise GraphError(f"vertex {x!r} is isolated")
        margin = u[x] - best + eps
        margins[x] = margin
        residuals[x] = max(-margin, 0.0)

    details: dict = {"eps": eps, "margins": margins}
    start = witness_start
    if start is None:
        failures = [x for x, r in sorted(residuals.items()) if r > 0.0]
        if failures:
            start = failures[0]
        elif g.interior:
            start = max(g.interior, key=lambda v: (u[v], v))
    if start is not None:
        details["witness"] = descent_curve(g, u, f, start)
    return CheckReport(name="csuper", tol=0.0, residuals=residuals, details=details)


def check_regularity(g: MetricGraph, u: ScalarField, tol: float | None = None) -> CheckReport:
    """Regularity check: slope minus sub-slope at interior vertices.

    Vertices adjacent to the boundary are excluded from the verdict and
    reported separately; their one-sided stencils inflate the super-slope.
    """
    if tol is None:
        tol = BASE_TOL
    residuals: dict[str, float] = {}
    excluded: dict[str, float] = {}
    for x in g.interior:
        t = slopes(g, u, x)
        r = t.slope - t.sub_slope
        if any(y in g.boundary for y, _ in g.neighbors(x)):
            excluded[x] = r
        else:
            residuals[x] = r
    return CheckReport(name="regularity", tol=tol, residuals=residuals, excluded=excluded)
