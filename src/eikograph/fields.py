"""Scalar fields on metric graphs and edge cost integrals.

Fields live at vertices and are piecewise linear in arc length along edges,
which makes the trapezoid edge integral exact and refinement cost-preserving.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import FieldError, ValidationError
from .graph import MetricGraph, edge_key

ROLES = ("rhs_f", "solution_u", "boundary_zeta")

# The strict positivity required of the right-hand side has no canonical
# finite surrogate; this default threshold is configurable everywhere.
DEFAULT_POSITIVITY_THRESHOLD = 1e-9


@dataclass(frozen=True)
class ScalarField:
    """Real values at vertices with a role tag (rhs_f, solution_u, boundary_zeta)."""

    graph: MetricGraph
    values: dict[str, float]
    role: str

    def __getitem__(self, v: str) -> float:
        try:
            return self.values[v]
        except KeyError:
            raise FieldError(f"field ({self.role}) has no value at vertex {v!r}")

    def __contains__(self, v: str) -> bool:
        return v in self.values


@dataclass(frozen=True)
class EdgeCost:
    """Arc integral of a rhs field over one edge (trapezoid, exact here)."""

    edge: tuple[str, str]
    cost: float


@dataclass(frozen=True)
class FieldReport:
    """Positivity validation outcome: offending vertices below the threshold."""

    threshold: float
    offenders: tuple[tuple[str, float], ...]

    @property
    def passed(self) -> bool:
        return not self.offenders


def field_on(g: MetricGraph, values: Mapping[str, float], role: str) -> ScalarField:
    """Validate and wrap vertex values as a field with the given role."""
    if role not in ROLES:
        raise FieldError(f"unknown field role {role!r}; expected one of {ROLES}")
    vals = {str(v): float(x) for v, x in values.items()}
    unknown = set(vals) - set(g.vertices)
    if unknown:
        raise FieldError(f"field values at unknown vertices {sorted(unknown)[:5]}")
    if role == "boundary_zeta":
        missing = g.boundary - set(vals)
        if missing:
            raise FieldError(f"boundary data missing at {sorted(missing)[:5]}")
        extra = set(vals) - g.boundary
        if extra:
            raise FieldError(f"boundary data given at non-boundary vertices {sorted(extra)[:5]}")
    else:
        missing = set(g.vertices) - set(vals)
        if missing:
            raise FieldError(f"field ({role}) missing values at {sorted(missing)[:5]}")
    if role == "rhs_f":
        neg = [(v, x) for v, x in vals.items() if x < 0.0]
        if neg:
            raise FieldError(f"rhs field has negative values, e.g. {sorted(neg)[:3]}")
    return ScalarField(graph=g, values=vals, role=role)


def constant_field(g: MetricGraph, value: float, role: str) -> ScalarField:
    domain = g.boundary if role == "boundary_zeta" else g.vertices
    return field_on(g, {v: value for v in domain}, role)


def field_from_function(g: MetricGraph, fn: Callable[[str], float], role: str) -> ScalarField:
    domain = g.boundary if role == "boundary_zeta" else g.vertices
    return field_on(g, {v: fn(v) for v in domain}, role)


def parse_field_expression(expr: str) -> Callable[[MetricGraph, str], float]:
    """Inline field expressions: ``const:c`` and ``linear:a,b[,axis]``.

    ``linear:a,b,axis`` evaluates a + b * coords[axis] (axis defaults to 0).
    """
    kind, _, rest = expr.partition(":")
    if kind == "const":
        try:
            c = float(rest)
        except ValueError:
            raise ValidationError(f"bad constant field expression {expr!r}")
        return lambda g, v: c
    if kind == "linear":
        parts = rest.split(",")
        if len(parts) not in (2, 3):
            raise ValidationError(f"bad linear field expression {expr!r}")
        try:
            a, b = float(parts[0]), float(parts[1])
            axis = int(parts[2]) if len(parts) == 3 else 0
        except ValueError:
            raise ValidationError(f"bad linear field expression {expr!r}")

        def linear(g: MetricGraph, v: str) -> float:
            if v not in g.coords or axis >= len(g.coords[v]):
                raise FieldError(f"linear field needs coords[{axis}] at vertex {v!r}")
            return a + b * g.coords[v][axis]

        return linear
    raise ValidationError(f"unknown field expression {expr!r} (expected const: or linear:)")


def is_field_expression(text: str) -> bool:
    return text.startswith(("const:", "linear:"))


def field_from_expression(g: MetricGraph, expr: str, role: str) -> ScalarField:
    fn = parse_field_expression(expr)
    return field_from_function(g, lambda v: fn(g, v), role)


def edge_cost(g: MetricGraph, f: ScalarField, e: tuple[str, str]) -> EdgeCost:
    """Trapezoid integral of f over edge e: length * (f(a) + f(b)) / 2."""
    if f.role != "rhs_f":
        raise FieldError(f"edge_cost needs a rhs_f field, got role {f.role!r}")
    a, b = edge_key(*e)
    length = g.edge_length(a, b)
    return EdgeCost(edge=(a, b), cost=0.5 * (f[a] + f[b]) * length)


def edge_costs(g: MetricGraph, f: ScalarField) -> dict[tuple[str, str], float]:
    """All edge costs at once, keyed by canonical edge pair."""
    if f.role != "rhs_f":
        raise FieldError(f"edge costs need a rhs_f field, got role {f.role!r}")
    return {e: 0.5 * (f[e[0]] + f[e[1]]) * length for e, length in g.edges.items()}


def cost_adjacency(g: MetricGraph, f: ScalarField) -> dict[str, tuple[tuple[str, float], ...]]:
    """Edge costs laid out like ``g.adjacency``: (neighbor, cost) pairs in id order.

    Each cost is bit-identical to the :func:`edge_costs` entry of its edge.
    """
    if f.role != "rhs_f":
        raise FieldError(f"edge costs need a rhs_f field, got role {f.role!r}")
    fv = f.values
    adj: dict[str, tuple[tuple[str, float], ...]] = {}
    try:
        for x, nbrs in g.adjacency.items():
            fx = fv[x]
            adj[x] = tuple([(y, 0.5 * (fx + fv[y]) * length) for y, length in nbrs])
    except KeyError as exc:
        raise FieldError(f"field ({f.role}) has no value at vertex {exc.args[0]!r}")
    return adj


def path_cost(g: MetricGraph, f: ScalarField, vertices: list[str] | tuple[str, ...]) -> float:
    """Accumulated trapezoid cost along a vertex path (left-to-right fl sums)."""
    total = 0.0
    for a, b in zip(vertices, vertices[1:]):
        total = total + edge_cost(g, f, (a, b)).cost
    return total


def validate_field(f: ScalarField, positivity_threshold: float = DEFAULT_POSITIVITY_THRESHOLD) -> FieldReport:
    """List vertices where f falls below the threshold; pass iff none.

    Threshold 0 accepts any nonnegative field (subsolution-only checks).
    """
    offenders = tuple(
        (v, x) for v, x in sorted(f.values.items()) if x < positivity_threshold
    )
    return FieldReport(threshold=positivity_threshold, offenders=offenders)


def lipschitz_constant(g: MetricGraph, f: ScalarField) -> float:
    """Lipschitz constant of the piecewise-linear interpolant: max |df|/length."""
    lip = 0.0
    for (a, b), length in g.edges.items():
        lip = max(lip, abs(f[a] - f[b]) / length)
    return lip


def read_field_csv(g: MetricGraph, path: str, role: str) -> ScalarField:
    """Read a ``vertex_id,value`` CSV into a field with the given role."""
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["vertex_id", "value"]:
            raise ValidationError(f"{path}: expected header 'vertex_id,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValidationError(f"{path}:{lineno}: expected 'vertex_id,value'")
            try:
                values[row[0]] = float(row[1])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: bad value field {row[1]!r}")
    return field_on(g, values, role)


def write_field_csv(f: ScalarField, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex_id", "value"])
        for v in sorted(f.values):
            writer.writerow([v, repr(f.values[v])])
