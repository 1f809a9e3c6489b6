"""Scalar fields on metric graphs and edge cost integrals.

Fields live at vertices and are piecewise linear in arc length along edges,
which makes the trapezoid edge integral exact and refinement cost-preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import FieldError, ValidationError
from .graph import MetricGraph, read_csv, write_csv

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


def field_on(g: MetricGraph, values: Mapping[str, float], role: str) -> ScalarField:
    """Validate and wrap vertex values as a field with the given role."""
    if role not in ROLES:
        raise FieldError(f"unknown field role {role!r}; expected one of {ROLES}")
    vals = dict(zip(map(str, values.keys()), map(float, values.values())))
    if not math.isfinite(sum(vals.values())):  # one C-level pass; finite values may still overflow the sum
        bad = sorted(v for v, x in vals.items() if not math.isfinite(x))
        if bad:
            raise FieldError(f"field ({role}) has non-finite value {vals[bad[0]]!r} at vertex {bad[0]!r}")
    index = g.index
    if not vals.keys() <= index.keys():
        raise FieldError(f"field values at unknown vertices {sorted(vals.keys() - index.keys())[:5]}")
    if role == "boundary_zeta":
        missing = g.boundary.difference(vals)
        if missing:
            raise FieldError(f"boundary data missing at {sorted(missing)[:5]}")
        extra = vals.keys() - g.boundary
        if extra:
            raise FieldError(f"boundary data given at non-boundary vertices {sorted(extra)[:5]}")
    elif len(vals) < len(index):  # every id is known, so some are missing
        raise FieldError(f"field ({role}) missing values at {sorted(index.keys() - vals.keys())[:5]}")
    if role == "rhs_f" and min(vals.values()) < 0.0:
        neg = [(v, x) for v, x in vals.items() if x < 0.0]
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


def edge_costs(g: MetricGraph, f: ScalarField) -> dict[tuple[str, str], float]:
    """All edge costs at once, keyed by canonical edge pair."""
    if f.role != "rhs_f":
        raise FieldError(f"edge costs need a rhs_f field, got role {f.role!r}")
    return {e: 0.5 * (f[e[0]] + f[e[1]]) * length for e, length in g.edges.items()}


def field_list(g: MetricGraph, f: ScalarField) -> list[float]:
    """f's values by vertex index, as :func:`settle` takes them."""
    try:
        return list(map(f.values.__getitem__, g.vertices))
    except KeyError as exc:
        raise FieldError(f"field ({f.role}) has no value at vertex {exc.args[0]!r}")


def validate_field(f: ScalarField, positivity_threshold: float = DEFAULT_POSITIVITY_THRESHOLD) -> tuple:
    """The sorted (vertex, value) pairs where f falls below the threshold; f
    passes iff there are none.

    Threshold 0 accepts any nonnegative field (subsolution-only checks).
    """
    return tuple(sorted((v, x) for v, x in f.values.items() if x < positivity_threshold))


def lipschitz_constant(g: MetricGraph, f: ScalarField) -> float:
    """Lipschitz constant of the piecewise-linear interpolant: max |df|/length."""
    fl = field_list(g, f)
    lip = 0.0
    for i, (fi, nbrs, lens) in enumerate(zip(fl, g.nbrs, g.lens)):
        for j, length in zip(nbrs, lens):
            if j > i and (slope := abs(fi - fl[j]) / length) > lip:  # each edge once
                lip = slope
    return lip


def read_field_csv(g: MetricGraph, path: str, role: str) -> ScalarField:
    """Read a ``vertex_id,value`` CSV into a field with the given role; a
    solution_u field may also come from a solver output ``vertex_id,u,...``."""
    headers = [("vertex_id", "value")]
    if role == "solution_u":
        headers.insert(0, ("vertex_id", "u"))
    values: dict[str, float] = {}
    for lineno, row in read_csv(path, headers, 2):
        if row[0] in values:
            raise ValidationError(f"{path}:{lineno}: duplicate vertex id {row[0]!r}")
        try:
            values[row[0]] = float(row[1])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: bad value field {row[1]!r}")
    return field_on(g, values, role)


def write_field_csv(f: ScalarField, path: str) -> None:
    write_csv(path, ["vertex_id", "value"], ([v, repr(f.values[v])] for v in sorted(f.values)))
