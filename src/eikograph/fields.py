"""Scalar fields on metric graphs and edge cost integrals.

Fields live at vertices and are piecewise linear in arc length along edges,
which makes the trapezoid edge integral exact and refinement cost-preserving.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import FieldError, GraphError, ValidationError
from .graph import MetricGraph, _edge_items, _ListView, read_csv, write_csv

ROLES = ("rhs_f", "solution_u", "boundary_zeta")

# The strict positivity required of the right-hand side has no canonical
# finite surrogate; this default threshold is configurable everywhere.
DEFAULT_POSITIVITY_THRESHOLD = 1e-9


@dataclass(frozen=True)
class ScalarField:
    """Real values at vertices with a role tag (rhs_f, solution_u, boundary_zeta).

    Immutable after construction, like its graph; mutating ``values`` in place
    is unsupported.  The values by vertex index of ``graph`` are kept as one
    list for :func:`field_list`: passed in as ``by_index`` by every
    constructor but a boundary field's, else built on first use.  The
    Lipschitz constant and the interior one-hop (sub, super) slopes derived
    from it are computed on first use.  None of the three takes part in
    equality.
    """

    graph: MetricGraph
    values: Mapping[str, float]
    role: str
    by_index: InitVar[list[float] | None] = None

    def __post_init__(self, by_index: list[float] | None) -> None:
        if by_index is not None:
            self.__dict__["_list"] = by_index  # what the cached property below would build

    @cached_property
    def _list(self) -> list[float]:
        return _lookup(self.graph, self.values, f"field ({self.role})")

    @cached_property
    def _lipschitz(self) -> float:
        return _lipschitz_pass(self.graph, self._list)

    @cached_property
    def _interior_slopes(self) -> tuple[tuple[int, float, float], ...]:
        return tuple(_one_hop(self.graph, self._list, _interior(self.graph)))

    def __getitem__(self, v: str) -> float:
        try:
            return self.values[v]
        except KeyError:
            raise FieldError(f"field ({self.role}) has no value at vertex {v!r}")

    def __contains__(self, v: str) -> bool:
        return v in self.values


class _VertexView(_ListView):
    """A field's values, or with ``ids`` a solve's exits as vertex indices
    read and written as ids: vertex id -> its entry in a list by vertex
    index, walked in ``order``.  A lookup costs an ``index`` lookup and one
    list read (two with ``ids``).  Writing a known id changes the list in
    place, as the dict this replaces allowed; an unknown id (or exit)
    raises KeyError and changes nothing."""

    __slots__ = ("_order", "_list", "_ids")

    def __init__(self, g: MetricGraph, order: Sequence[int], entries: list, ids: bool = False):
        super().__init__(g)
        self._order, self._list, self._ids = order, entries, ids

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[str]:
        return map(self._g.vertices.__getitem__, self._order)

    def __getitem__(self, v: str):
        x = self._list[self._g.index[v]]  # index raises as a dict lookup does
        return self._g.vertices[x] if self._ids else x

    def __setitem__(self, v: str, y) -> None:
        i = self._g.index[v]
        self._list[i] = self._g.index[y] if self._ids else y

    def _items(self) -> Iterator[tuple]:
        return zip(self, self._values())

    def _values(self) -> Iterator:
        entries = map(self._list.__getitem__, self._order)
        return map(self._g.vertices.__getitem__, entries) if self._ids else entries


def field_on(g: MetricGraph, values: Mapping[str, float], role: str) -> ScalarField:
    """Validate and wrap vertex values as a field with the given role."""
    if role not in ROLES:
        raise FieldError(f"unknown field role {role!r}; expected one of {ROLES}")
    fl = None if role == "boundary_zeta" else list(map(values.get, g.vertices))
    whole = fl is not None and len(fl) == len(values)  # if fl holds only floats: every id and no other key
    if set(map(type, values.keys())) == {str} and set(map(type, fl if whole else values.values())) == {float}:
        vals = dict(values)  # str() and float() would return each key and value unchanged
    else:
        vals = dict(zip(map(str, values.keys()), map(float, values.values())))
        whole, fl = False, fl and list(map(vals.get, g.vertices))
    if not math.isfinite(sum(vals.values())):  # one C-level pass; finite values may still overflow the sum
        bad = sorted(v for v, x in vals.items() if not math.isfinite(x))
        if bad:
            raise FieldError(f"field ({role}) has non-finite value {vals[bad[0]]!r} at vertex {bad[0]!r}")
    if not whole and (fl is None or None in fl or len(vals) > len(fl)):  # boundary data, or a bad id
        if unknown := vals.keys() - g.index.keys():
            raise FieldError(f"field values at unknown vertices {sorted(unknown)[:5]}")
        if fl is not None:
            raise FieldError(f"field ({role}) missing values at {sorted(g.index.keys() - vals.keys())[:5]}")
        _on_boundary(g, vals)
    if role == "rhs_f" and min(vals.values()) < 0.0:
        neg = [(v, x) for v, x in vals.items() if x < 0.0]
        raise FieldError(f"rhs field has negative values, e.g. {sorted(neg)[:3]}")
    return ScalarField(g, vals, role, fl)


def constant_field(g: MetricGraph, value: float, role: str) -> ScalarField:
    return field_from_function(g, lambda v: value, role)


def field_from_function(g: MetricGraph, fn: Callable[[str], float], role: str) -> ScalarField:
    domain = g.boundary if role == "boundary_zeta" else g.vertices
    return field_on(g, {v: fn(v) for v in domain}, role)


def is_field_expression(text: str) -> bool:
    return text.startswith(("const:", "linear:"))


def field_from_expression(g: MetricGraph, expr: str, role: str) -> ScalarField:
    """The field of an inline expression: ``const:c`` or ``linear:a,b[,axis]``.

    ``linear:a,b,axis`` evaluates a + b * coords[axis], axis >= 0 (default 0).
    """
    kind, _, rest = expr.partition(":")
    if kind == "const":
        try:
            c = float(rest)
        except ValueError:
            raise ValidationError(f"bad constant field expression {expr!r}")
        return constant_field(g, c, role)
    if kind != "linear":
        raise ValidationError(f"unknown field expression {expr!r} (expected const: or linear:)")
    parts = rest.split(",")
    try:
        a, b = float(parts[0]), float(parts[1])
        axis = int(parts[2]) if len(parts) == 3 else 0
    except (IndexError, ValueError):
        axis = -1  # refused below
    if len(parts) > 3 or axis < 0:
        raise ValidationError(f"bad linear field expression {expr!r}")

    def linear(v: str) -> float:
        if v not in g.coords or axis >= len(g.coords[v]):
            raise FieldError(f"linear field needs coords[{axis}] at vertex {v!r}")
        return a + b * g.coords[v][axis]

    return field_from_function(g, linear, role)


def _rhs_list(g: MetricGraph, f: ScalarField) -> list[float]:
    """f's values by vertex index, for f an edge-cost integrand."""
    if f.role != "rhs_f":
        raise FieldError(f"edge costs need a rhs_f field, got role {f.role!r}")
    return field_list(g, f)


def edge_costs(g: MetricGraph, f: ScalarField) -> dict[tuple[str, str], float]:
    """All edge costs at once, keyed by canonical edge pair."""
    fl, at = _rhs_list(g, f), g.index
    return {e: 0.5 * (fl[at[e[0]]] + fl[at[e[1]]]) * length for e, length in _edge_items(g)}


def _on_boundary(g: MetricGraph, values: Mapping[str, float]) -> None:
    """Raise FieldError unless ``values`` is keyed on exactly g's boundary."""
    if missing := g.boundary.difference(values):
        raise FieldError(f"boundary data missing at {sorted(missing)[:5]}")
    if extra := values.keys() - g.boundary:
        raise FieldError(f"boundary data given at non-boundary vertices {sorted(extra)[:5]}")


def field_list(g: MetricGraph, f: ScalarField) -> list[float]:
    """f's values by vertex index, as :func:`settle` takes them: on f's own
    graph the list f keeps, which no caller may change; else looked up."""
    return f._list if g is f.graph else _lookup(g, f.values, f"field ({f.role})")


def _lookup(g: MetricGraph, values: Mapping[str, float], what: str) -> list[float]:
    """``values`` by vertex index; FieldError names a vertex it misses."""
    try:
        return list(map(values.__getitem__, g.vertices))
    except KeyError as exc:
        raise FieldError(f"{what} has no value at vertex {exc.args[0]!r}")


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
