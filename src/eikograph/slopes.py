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
from .fields import ScalarField, cost_adjacency, lipschitz_constant
from .graph import Curve, MetricGraph, curve_along

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
    witness curves.
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
) -> CheckReport:
    """Along-curves subsolution check, reduced to every oriented edge.

    Residual on edge (x, y) is the excess of u(x) - u(y) over the edge cost;
    on a graph every admissible curve is a concatenation of edges, so the
    integral inequality holds iff it holds edgewise in both orientations.
    Bellman fixpoints satisfy this with residual exactly zero, hence the
    default tolerance 0.

    Summed along a shortest path, the edge residuals also bound the local
    Lipschitz excess: u(x) - u(y) <= d(x, y) * sup f + k * tol over the k
    edges of the path, up to rounding, with sup f taken over the path's
    vertices.
    """
    uv = u.values
    residuals: dict[str, float] = {}
    for x, nbrs in cost_adjacency(g, f).items():
        ux = uv[x]
        for y, c in nbrs:
            # same operation order as the solver: compare u[x] with fl(u[y] + c)
            residuals[f"{x}->{y}"] = max(ux - (uv[y] + c), 0.0)
    return CheckReport(name="csub", tol=tol, residuals=residuals)


def _argmin_step(u: ScalarField, nbrs: tuple[tuple[str, float], ...]) -> tuple[str | None, float]:
    """Neighbor minimizing cost + u (the first in id order on ties) and that
    minimum; (None, inf) for no neighbors."""
    best_y = None
    best = math.inf
    for y, c in nbrs:
        cand = c + u[y]
        if best_y is None or cand < best:
            best_y = y
            best = cand
    return best_y, best


def _descent(g: MetricGraph, u: ScalarField, costs: dict, start: str) -> Curve:
    path = [start]
    x = start
    for _ in range(len(g.vertices)):
        if x in g.boundary:
            break
        best_y, _ = _argmin_step(u, costs[x])
        # stop rather than cycle if the greedy step would not descend
        if best_y is None or u[best_y] >= u[x]:
            break
        path.append(best_y)
        x = best_y
    return curve_along(g, path)


def descent_curve(g: MetricGraph, u: ScalarField, f: ScalarField, start: str) -> Curve:
    """Greedy concatenation of argmin neighbors: the discrete optimal curve.

    From each vertex, steps to the neighbor minimizing edge cost plus value
    (ties to the smallest id); stops at a boundary vertex, at a vertex that
    beats all its neighbors, or after |V| edges.
    """
    if not g.has_vertex(start):
        raise GraphError(f"unknown vertex {start!r}")
    return _descent(g, u, cost_adjacency(g, f), start)


def check_c_supersolution(
    g: MetricGraph, u: ScalarField, f: ScalarField, eps: float | None = None
) -> CheckReport:
    """Epsilon-optimal-curve supersolution check at interior vertices.

    At each interior x some neighbor y must satisfy
    u(x) >= cost(x, y) + u(y) - eps; the per-vertex margin
    u(x) - min_y (cost + u(y)) + eps must be nonnegative.  The report stores
    the violation [-margin]+ as the residual (tol 0), keeping the pass rule
    "all residuals <= tol".  A greedy descent curve from the first failing
    vertex, else from the deepest one, is attached as the epsilon-optimal
    curve witness.
    """
    if eps is None:
        eps = default_check_tol(g, f)
    costs = cost_adjacency(g, f)
    residuals: dict[str, float] = {}
    for x in g.interior:
        best_y, best = _argmin_step(u, costs[x])
        if best_y is None:
            raise GraphError(f"vertex {x!r} is isolated")
        residuals[x] = max(-(u[x] - best + eps), 0.0)

    details: dict = {"eps": eps}
    start = next((x for x, r in sorted(residuals.items()) if r > 0.0), None)
    if start is None:
        start = max(g.interior, key=lambda v: (u[v], v), default=None)
    if start is not None:
        details["witness"] = _descent(g, u, costs, start)
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
