"""Scalar fields on metric graphs and edge cost integrals.

Fields live at vertices and are piecewise linear in arc length along edges,
which makes the trapezoid edge integral exact and refinement cost-preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

from .errors import FieldError, GraphError, ValidationError
from .graph import MetricGraph, _edge_items, read_csv, write_csv

ROLES = ("rhs_f", "solution_u", "boundary_zeta")

# The strict positivity required of the right-hand side has no canonical
# finite surrogate; this default threshold is configurable everywhere.
DEFAULT_POSITIVITY_THRESHOLD = 1e-9


@dataclass(frozen=True)
class ScalarField:
    """Real values at vertices with a role tag (rhs_f, solution_u, boundary_zeta).

    Immutable after construction, like its graph; mutating ``values`` in place
    is unsupported.  Two values derived from it are computed on first use and
    kept, and are read only for checks run on ``graph`` itself:

    - the Lipschitz constant, read through :func:`lipschitz_constant` by
      ``default_check_tol`` (so by ``check_monge`` and
      ``check_c_supersolution`` of an rhs field);
    - the one-hop (sub, super) slopes at the interior vertices, read through
      :func:`interior_slopes` by ``check_monge``, ``check_regularity`` and
      ``check_hamiltonian_monge`` of a solution field.

    Neither takes part in equality.
    """

    graph: MetricGraph
    values: dict[str, float]
    role: str

    @cached_property
    def _lipschitz(self) -> float:
        return _lipschitz_pass(self.graph, field_list(self.graph, self))

    @cached_property
    def _interior_slopes(self) -> tuple[tuple[int, float, float], ...]:
        g = self.graph
        return tuple(_one_hop(g, field_list(g, self), _interior(g)))

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
    if set(map(type, values.keys())) == {str} and set(map(type, values.values())) == {float}:
        vals = dict(values)  # str() and float() would return each key and value unchanged
    else:
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
    return {e: 0.5 * (f[e[0]] + f[e[1]]) * length for e, length in _edge_items(g)}


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
    if min(f.values.values(), default=math.inf) >= positivity_threshold:
        return ()  # false for a NaN minimum or threshold, which the pass below judges
    return tuple(sorted((v, x) for v, x in f.values.items() if x < positivity_threshold))


def lipschitz_constant(g: MetricGraph, f: ScalarField) -> float:
    """Lipschitz constant of the piecewise-linear interpolant: max |df|/length.

    Computed once per field when g is f's own graph."""
    return f._lipschitz if g is f.graph else _lipschitz_pass(g, field_list(g, f))


def _lipschitz_pass(g: MetricGraph, fl: list[float]) -> float:
    """The largest |fl[i] - fl[j]| / length over g's edges, fl by index."""
    lip = 0.0
    for i, (fi, nbrs, lens) in enumerate(zip(fl, g.nbrs, g.lens)):
        for j, length in zip(nbrs, lens):
            if j > i and (slope := abs(fi - fl[j]) / length) > lip:  # each edge once
                lip = slope
    return lip


def _one_hop(g: MetricGraph, ul, at: Iterable[int]) -> Iterator[tuple[int, float, float]]:
    """(index, sub-slope, super-slope) at each vertex index in ``at``: the
    largest drop and rise per unit length of ul (values by index) to a
    neighbour.  Raises at isolated vertices."""
    nbrs, lens = g.nbrs, g.lens
    for i in at:
        if not nbrs[i]:
            raise GraphError(f"vertex {g.vertices[i]!r} is isolated; slopes are undefined")
        ux = ul[i]
        sub = sup = 0.0
        for j, length in zip(nbrs[i], lens[i]):
            if (d := ux - ul[j]) > 0.0:
                if (q := d / length) > sub:
                    sub = q
            elif d < 0.0 and (q := -d / length) > sup:
                sup = q
        yield i, sub, sup


def _interior(g: MetricGraph) -> list[int]:
    """Indices of the interior vertices, in id order."""
    return [i for i, x in enumerate(g.vertices) if x not in g.boundary]


def interior_slopes(g: MetricGraph, u: ScalarField) -> Iterable[tuple[int, float, float]]:
    """:func:`_one_hop` of u at the interior vertices of g, in id order;
    computed once per field when g is u's own graph."""
    return u._interior_slopes if g is u.graph else _one_hop(g, field_list(g, u), _interior(g))


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
