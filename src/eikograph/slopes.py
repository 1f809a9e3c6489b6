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

from .errors import FieldError, GraphError
from .fields import ScalarField, _interior, _one_hop, field_list, interior_slopes, lipschitz_constant
from .graph import MetricGraph, _vertex_index, curve_along

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
    i = _vertex_index(g, x)
    nb = g.nbrs[i]
    ul = {j: u[g.vertices[j]] for j in (i, *nb)} if nb else {}  # isolated: raise before reading u
    _, sub, sup = next(_one_hop(g, ul, (i,)))
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
    fl, names = field_list(g, f), g.vertices
    residuals: dict[str, float] = {}
    for i, s, _ in interior_slopes(g, u):
        if mode == "solution":
            r = abs(s - fl[i])
        else:
            r = s - fl[i] if mode == "sub" else fl[i] - s
            r = 0.0 if 0.0 > r else r  # max(r, 0.0), -0.0 included
        residuals[names[i]] = r
    name = {"solution": "monge", "sub": "monge-sub", "super": "monge-super"}[mode]
    return CheckReport(name=name, tol=tol, residuals=residuals)


def _rhs_list(g: MetricGraph, f: ScalarField) -> list[float]:
    """f's values by vertex index, for f an edge-cost integrand."""
    if f.role != "rhs_f":
        raise FieldError(f"edge costs need a rhs_f field, got role {f.role!r}")
    return field_list(g, f)


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
    fl, ul = _rhs_list(g, f), field_list(g, u)
    rs: list[float] = []
    for ux, fx, nbrs, lens in zip(ul, fl, g.nbrs, g.lens):
        for y, length in zip(nbrs, lens):
            # the cost rule of graph.settle; compare u[x] with fl(u[y] + c) as it does
            r = ux - (ul[y] + 0.5 * (fx + fl[y]) * length)
            rs.append(0.0 if 0.0 > r else r)  # max(r, 0.0), -0.0 included
    return CheckReport(name="csub", tol=tol, residuals=dict(zip(g.arc_keys, rs)))


def check_c_supersolution(
    g: MetricGraph, u: ScalarField, f: ScalarField, eps: float | None = None
) -> CheckReport:
    """Epsilon-optimal-curve supersolution check at interior vertices.

    At each interior x some neighbor y must satisfy
    u(x) >= cost(x, y) + u(y) - eps; the per-vertex margin
    u(x) - min_y (cost + u(y)) + eps must be nonnegative.  The report stores
    the violation [-margin]+ as the residual (tol 0), keeping the pass rule
    "all residuals <= tol".  The epsilon-optimal curve witness is the greedy
    descent from the first failing vertex, else from the deepest one (largest
    u, then largest id): it steps to the argmin neighbour (ties to the
    smallest id) and stops at a boundary vertex or where that neighbour does
    not lie strictly lower.
    """
    if eps is None:
        eps = default_check_tol(g, f)
    fl, ul, names = _rhs_list(g, f), field_list(g, u), g.vertices
    residuals: dict[str, float] = {}
    step = [-1] * len(names)  # argmin neighbour of each interior vertex
    start = deepest = -1
    for i in _interior(g):
        best_j, best, fx = -1, math.inf, fl[i]
        for j, length in zip(g.nbrs[i], g.lens[i]):
            cand = 0.5 * (fx + fl[j]) * length + ul[j]  # the cost rule of graph.settle
            if cand < best or best_j < 0:
                best_j, best = j, cand
        if best_j < 0:
            raise GraphError(f"vertex {names[i]!r} is isolated")
        step[i] = best_j
        r = -(ul[i] - best + eps)
        r = residuals[names[i]] = 0.0 if 0.0 > r else r
        if r > 0.0 and start < 0:
            start = i
        if deepest < 0 or ul[i] >= ul[deepest]:
            deepest = i

    details: dict = {"eps": eps}
    x = start if start >= 0 else deepest
    if x >= 0:
        path = [x]
        # u falls strictly along the path, so it never revisits a vertex
        while step[x] >= 0 and ul[step[x]] < ul[x]:
            x = step[x]
            path.append(x)
        details["witness"] = curve_along(g, [names[k] for k in path])
    return CheckReport(name="csuper", tol=0.0, residuals=residuals, details=details)


def check_regularity(g: MetricGraph, u: ScalarField, tol: float | None = None) -> CheckReport:
    """Regularity check: slope minus sub-slope at interior vertices.

    Vertices adjacent to the boundary are excluded from the verdict and
    reported separately; their one-sided stencils inflate the super-slope.
    """
    if tol is None:
        tol = BASE_TOL
    names, nbrs = g.vertices, g.nbrs
    near = [x in g.boundary for x in names]  # by index: is a boundary vertex
    residuals: dict[str, float] = {}
    excluded: dict[str, float] = {}
    for i, sub, sup in interior_slopes(g, u):
        r = (sup if sup > sub else sub) - sub  # slope minus sub-slope
        if any(map(near.__getitem__, nbrs[i])):
            excluded[names[i]] = r
        else:
            residuals[names[i]] = r
    return CheckReport(name="regularity", tol=tol, residuals=residuals, excluded=excluded)
