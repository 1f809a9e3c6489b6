"""Finite metric graphs: construction, intrinsic (shortest-path) metric, curves,
balls, refinement, and the metric induced from a chord distance.

A graph models a compact length space: vertices joined by positive-length
edges, distances given by minimal total edge length over connecting paths.
All graphs are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import gc
import heapq
import json
import math
from bisect import bisect_right
from collections.abc import ItemsView, Mapping, ValuesView
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import eq, itemgetter, lt
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import ConnectivityError, GraphError, MetricError, ValidationError

# Default equality policy for binary64 comparisons; checks that expose their
# own tolerance override this.
ABS_TOL = 1e-12
REL_TOL = 1e-9

GRAPH_FORMAT_VERSION = 2  # what write_graph writes; build_graph also reads version 1
COLUMNS = ("ids", "dim", "coords", "a", "b", "length", "boundary")  # the keys of version 2
# refine() and the fixtures refuse more vertices than this: loading a graph file peaks
# at about 0.8 kB a vertex (read_graph of grid n=100, 10**4 vertices, peaks at 8.1 MB
# under tracemalloc and keeps 5.0 MB; its version 1 file peaks at 18.2 MB), so ~1 GB.
MAX_REFINE_VERTICES = 10**6


def close(a: float, b: float, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> bool:
    """Default scalar equality: abs tol 1e-12 plus rel tol 1e-9."""
    return abs(a - b) <= abs_tol + rel_tol * max(abs(a), abs(b))


def edge_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered edge key (lexicographically sorted endpoint pair)."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class MetricGraph:
    """Finite weighted graph with a distinguished boundary vertex set.

    Vertex i is ``vertices[i]`` (sorted ids) and ``index`` maps id -> i; the
    edges are stored once, as ``nbrs[i]`` and ``lens[i]``: neighbour indices
    and positive lengths in id order.  ``coords`` is optional per vertex and
    only feeds embedding-derived metrics and plot output.  Built by :func:`_finalize`.

    Immutable after construction: mutating its lists in place is unsupported.
    One value is built from the lists on first read and kept, and takes no
    part in equality: ``h_max``, the mesh, read by ``default_check_tol``,
    ``compare`` and ``equivalence_suite``.

    ``edges`` and ``adjacency`` are read-only views of the lists that store
    nothing; the package reads the lists instead.
    """

    vertices: tuple[str, ...]
    boundary: frozenset[str]
    coords: dict[str, tuple[float, ...]]
    index: dict[str, int] = field(compare=False, repr=False)
    nbrs: tuple[list[int], ...] = field(repr=False)
    lens: tuple[list[float], ...] = field(repr=False)

    @property
    def edges(self) -> Mapping[tuple[str, str], float]:
        """Canonical sorted id pairs -> lengths in id order: ``len`` is O(V), a lookup O(degree)."""
        return _EdgeView(self)

    @property
    def adjacency(self) -> Mapping[str, tuple[tuple[str, float], ...]]:
        """Vertex id -> its (neighbour id, length) pairs, both in id order; a lookup is O(degree)."""
        return _AdjacencyView(self)

    @property
    def interior(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v not in self.boundary)

    @cached_property
    def h_max(self) -> float:
        return max(chain.from_iterable(self.lens), default=0.0)  # an edgeless graph has mesh 0

    def edge_length(self, a: str, b: str) -> float:
        i, j = self.index.get(a), self.index.get(b)
        try:
            return self.lens[i][self.nbrs[i].index(j)]
        except (TypeError, ValueError):  # an unknown id, or no such neighbour
            raise GraphError(f"no edge between {a!r} and {b!r}")


def _edge_items(g: MetricGraph) -> Iterator[tuple[tuple[str, str], float]]:
    """((a, b), length) for every edge, a < b, in id order: one walk of the lists."""
    vs = g.vertices
    for i, (a, nb, ln) in enumerate(zip(vs, g.nbrs, g.lens)):
        for j, length in zip(nb, ln):
            if i < j:
                yield (a, vs[j]), length


class _ListView(Mapping):
    """A mapping over a graph's lists, and any the subclass adds, read-only
    unless the subclass adds a write: ``items()``, ``values()`` and the
    dict-like ``repr`` walk the lists once, through the subclass's
    ``_items`` and ``_values``, instead of looking up each key."""

    __slots__ = ("_g",)

    def __init__(self, g: MetricGraph):
        self._g = g

    def __repr__(self) -> str:
        return "{" + ", ".join([f"{k!r}: {v!r}" for k, v in self._items()]) + "}"

    def items(self) -> ItemsView:
        return _WalkedItems(self)

    def values(self) -> ValuesView:
        return _WalkedValues(self)

    def _values(self) -> Iterator:
        return map(itemgetter(1), self._items())


class _WalkedItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._items()


class _WalkedValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._values()


class _EdgeView(_ListView):
    """The ``edges`` view: (a, b) -> length for every edge, a < b, in id order."""

    __slots__ = ()

    def __len__(self) -> int:
        return sum(map(len, self._g.nbrs)) // 2

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return map(itemgetter(0), self._items())

    def __getitem__(self, key: tuple[str, str]) -> float:
        g = self._g
        if isinstance(key, tuple) and len(key) == 2:
            i, j = map(g.index.get, key)
            if i is not None and j is not None and i < j:  # a reversed pair is no key
                try:
                    return g.lens[i][g.nbrs[i].index(j)]
                except ValueError:  # not adjacent
                    pass
        hash(key)  # an unhashable key raises TypeError, as a dict lookup does
        raise KeyError(key)

    def _items(self) -> Iterator[tuple[tuple[str, str], float]]:
        return _edge_items(self._g)


class _AdjacencyView(_ListView):
    """The ``adjacency`` view: vertex id -> its (neighbour id, length) pairs, in id order."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._g.vertices)

    def __iter__(self) -> Iterator[str]:
        return iter(self._g.vertices)

    def __getitem__(self, v: str) -> tuple[tuple[str, float], ...]:
        g = self._g
        i = g.index[v]
        return tuple(zip(map(g.vertices.__getitem__, g.nbrs[i]), g.lens[i]))

    def _items(self) -> Iterator[tuple[str, tuple[tuple[str, float], ...]]]:
        vs = self._g.vertices
        return zip(vs, (tuple(zip(map(vs.__getitem__, nb), ln)) for nb, ln in zip(self._g.nbrs, self._g.lens)))


@dataclass(frozen=True)
class Curve:
    """Vertex path with arc-length parametrization (unit speed).

    ``cumlen[i]`` is the accumulated length from the first vertex; increments
    equal the traversed edge lengths.
    """

    vertices: tuple[str, ...]
    cumlen: tuple[float, ...]

    @property
    def length(self) -> float:
        return self.cumlen[-1]

    def __len__(self) -> int:
        return len(self.vertices)


def _finalize(
    vertices: Iterable[str],
    ends: Sequence[tuple[str, str]],
    lengths: Sequence[float],
    boundary: Iterable[str],
    coords: Mapping[str, Sequence[float]] | None = None,
) -> MetricGraph:
    """Validate parts and lay out an immutable MetricGraph.

    ``ends`` holds (a, b) pairs and ``lengths`` their lengths, such as the
    fixtures' two plain lists or a dict's keys and values.  C-level passes
    validate every entry; only when one fails does a walk name the first bad
    one.  Parallel entries collapse to the shortest length, whatever their
    order.  ``coords`` whose values are all tuples of floats are kept as they
    are; others are converted.  One sort of the (i, j) pairs, i < j, fills each
    vertex's lists: smaller neighbours, then larger.
    """
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise ValidationError("graph has no vertices")
    index = dict(zip(vs, range(len(vs))))

    ii = list(map(index.get, map(itemgetter(0), ends)))
    jj = list(map(index.get, map(itemgetter(1), ends)))
    if (None in ii or None in jj or any(map(eq, ii, jj)) or not all(map(lt, repeat(0.0), lengths))
            or not all(map(lt, lengths, repeat(math.inf)))):
        for (a, b), length in zip(ends, lengths):  # some entry is bad: name the first
            if a == b:
                raise ValidationError(f"self-loop at vertex {a!r}")
            if a not in index or b not in index:
                raise ValidationError(f"edge ({a!r}, {b!r}) references unknown vertex")
            if not (0.0 < length < math.inf):
                raise ValidationError(f"edge ({a!r}, {b!r}) has length {length!r}; "
                                      "a length must be a positive finite number")
    keys = [(i, j) if i < j else (j, i) for i, j in zip(ii, jj)]
    shortest = dict(zip(keys, map(float, lengths)))
    if len(shortest) < len(keys):  # parallel entries: sorted down, each key's shortest comes last
        shortest = dict(sorted(zip(keys, map(float, lengths)), reverse=True))

    bset = _known_boundary(boundary, index)

    cmap: dict[str, tuple[float, ...]] = {}
    if coords:
        if not coords.keys() <= index.keys():
            v = next(v for v in coords if v not in index)
            raise ValidationError(f"coords reference unknown vertex {v!r}")
        xys = coords.values()
        as_is = set(map(type, xys)) <= {tuple} and set(map(type, chain.from_iterable(xys))) <= {float}
        cmap = dict(coords) if as_is else {v: tuple(map(float, xy)) for v, xy in coords.items()}
        _require_coords(cmap)

    ordered = sorted(shortest)  # sorting the items instead would hold E (key, length) tuples at once
    return _layout(vs, index, ordered, map(shortest.__getitem__, ordered), bset, cmap)


def _known_boundary(boundary: Iterable[str], index: Mapping[str, int]) -> frozenset[str]:
    """The boundary as a frozenset; raises ValidationError naming ids not in ``index``."""
    bset = frozenset(boundary)
    unknown = bset - index.keys()
    if unknown:
        raise ValidationError(f"boundary references unknown vertices {sorted(unknown)}")
    return bset


def _layout(vs: tuple[str, ...], index: dict[str, int], pairs: Iterable[tuple[int, int]],
            lengths: Iterable[float], boundary: frozenset[str], coords: dict) -> MetricGraph:
    """Lay out the graph from strictly increasing index pairs (i, j), i < j, and
    their lengths: each vertex's lists get its smaller neighbours, then its
    larger ones, so both are in id order.  Raises ConnectivityError when some
    vertex cannot be reached from vertex 0."""
    nbrs, lens = tuple([] for _ in vs), tuple([] for _ in vs)
    for (i, j), length in zip(pairs, lengths):
        nbrs[i].append(j)
        lens[i].append(length)
        nbrs[j].append(i)
        lens[j].append(length)

    seen, stack = [True] + [False] * (len(vs) - 1), [0]
    while stack:
        for j in nbrs[stack.pop()]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    if not all(seen):
        missing = [v for v, s in zip(vs, seen) if not s][:5]
        raise ConnectivityError(f"graph is disconnected; unreachable vertices include {missing}")
    return MetricGraph(vertices=vs, boundary=boundary, coords=coords, index=index, nbrs=nbrs, lens=lens)


def _require_coords(coords: Mapping[str, Sequence[float]]) -> None:
    """Coords must be finite and share one dimension."""
    if not all(map(math.isfinite, chain.from_iterable(coords.values()))):
        v, xy = next((v, xy) for v, xy in coords.items() if not all(map(math.isfinite, xy)))
        raise ValidationError(f"vertex {v!r}: coords must be finite, got {xy!r}")
    if len(set(map(len, coords.values()))) > 1:
        first = next(iter(coords))
        other = next(v for v, xy in coords.items() if len(xy) != len(coords[first]))
        raise ValidationError(f"coords mix dimensions: {first!r} has {len(coords[first])}, "
                              f"{other!r} has {len(coords[other])}")


def _is_json_number(value) -> bool:
    """An int or a float: JSON's numbers, not the booleans and strings that
    float() also takes."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def build_graph(spec: Mapping) -> MetricGraph:
    """Build and validate a graph from a structured description.

    ``version`` 2 is the columns that :func:`graph_to_dict` writes, read by
    :func:`_build_columns`.  Version 1, the default: ``vertices`` (list of
    {id, coords?}), ``edges`` (list of {a, b, length}), ``boundary`` (list of
    ids, optional), read one entry at a time: the first bad one raises.
    """
    if not isinstance(spec, Mapping):
        raise ValidationError("graph description must be a mapping")
    version = spec.get("version", 1)
    if type(version) is not int or version not in (1, GRAPH_FORMAT_VERSION):
        raise ValidationError(f"unsupported graph version {version!r}; expected 1 or {GRAPH_FORMAT_VERSION}")
    if version == GRAPH_FORMAT_VERSION:
        return _build_columns(spec)
    try:
        raw_vertices = spec["vertices"]
        raw_edges = spec["edges"]
    except KeyError as exc:
        raise ValidationError(f"graph description missing key {exc.args[0]!r}")
    boundary = spec.get("boundary", [])
    for key, value, what in (("vertices", raw_vertices, "vertex entries"),
                             ("edges", raw_edges, "edge entries"), ("boundary", boundary, "vertex ids")):
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"graph {key} must be a list of {what}, got {type(value).__name__}")

    vertices: set[str] = set()
    coords: dict[str, tuple[float, ...]] = {}
    for item in raw_vertices:
        if isinstance(item, str):
            vid = item
        else:
            try:
                vid = str(item["id"])
            except (TypeError, KeyError):
                raise ValidationError(f"vertex entry {item!r} has no id")
            raw = item.get("coords")
            if raw is not None:
                if not isinstance(raw, (list, tuple)):
                    raise ValidationError(f"vertex {vid!r}: coords must be a list of numbers, got {raw!r}")
                bad = [c for c in raw if not _is_json_number(c)]
                if bad:
                    raise ValidationError(f"vertex {vid!r}: coords must be a list of numbers, got {raw!r} "
                                          f"(coords must be numbers, not {type(bad[0]).__name__})")
                try:
                    coords[vid] = tuple(map(float, raw))
                except OverflowError:
                    raise ValidationError(f"vertex {vid!r}: coords must be numbers, got {raw!r}")
        if vid in vertices:
            raise ValidationError(f"duplicate vertex id {vid!r}")
        vertices.add(vid)

    ends: list[tuple[str, str]] = []
    lengths: list[float] = []
    for item in raw_edges:
        try:
            a, b, length = str(item["a"]), str(item["b"]), item["length"]
            lengths.append(float(length))
        except (TypeError, KeyError, ValueError, OverflowError):
            raise ValidationError(f"edge entry {item!r} must have a, b, length")
        if not _is_json_number(length):
            raise ValidationError(f"edge ({a!r}, {b!r}) has non-numeric length {length!r}")
        ends.append((a, b))
    return _finalize(vertices, ends, lengths, [str(b) for b in boundary], coords)


def _build_columns(spec: Mapping) -> MetricGraph:
    """Lay out a version 2 description, trusting none of it.

    ``ids`` are strictly increasing strings.  ``a``, ``b`` and ``length`` are
    columns of one length: index pairs 0 <= a < b < len(ids), strictly
    increasing, and positive finite lengths.  ``coords`` holds ``dim`` finite
    numbers for each vertex listed in ``coords_at`` (strictly increasing
    indices; every vertex when the key is absent), in that order.  Each check
    is one C-level pass; only a failed one walks the entries to name the
    first bad one.
    """
    try:
        ids, dim, coords, a, b, length, boundary = map(spec.__getitem__, COLUMNS)
    except KeyError as exc:
        raise ValidationError(f"graph description missing key {exc.args[0]!r}")
    at = spec.get("coords_at")
    for key in COLUMNS:
        if key != "dim" and type(spec[key]) is not list:  # dim is checked with the coords
            raise ValidationError(f"graph {key} must be a list, got {type(spec[key]).__name__}")
    n = len(ids)
    if not n:
        raise ValidationError("graph has no vertices")
    _require_increasing("ids", ids, lambda v: type(v) is str, set(map(type, ids)) <= {str},
                        "ids must be strictly increasing strings")
    if not len(a) == len(b) == len(length):
        raise ValidationError(f"graph columns a, b and length must be equally long, "
                              f"got {len(a)}, {len(b)} and {len(length)}")
    fit = (set(map(type, a)) | set(map(type, b)) <= {int} and all(map(lt, a, b))
           and min(a, default=0) >= 0 and max(b, default=0) < n)
    canon = list(range(n))  # the lists hold one int object per index, as _finalize's do
    pairs = list(zip(map(canon.__getitem__, a), map(canon.__getitem__, b)) if fit else zip(a, b))
    _require_increasing("(a, b)", pairs, lambda p: type(p[0]) is type(p[1]) is int and 0 <= p[0] < p[1] < n,
                        fit, f"pairs must be strictly increasing, with integer ends 0 <= a < b < {n}")
    lens = _floats(length)
    if lens is None or not (all(map(lt, repeat(0.0), lens)) and all(map(lt, lens, repeat(math.inf)))):
        k = next(k for k, x in enumerate(length) if not (f := _floats([x])) or not 0.0 < f[0] < math.inf)
        raise ValidationError(f"edge ({ids[a[k]]!r}, {ids[b[k]]!r}) has length {length[k]!r}; "
                              "a length must be a positive finite number")
    index = dict(zip(ids, canon))
    if not set(map(type, boundary)) <= {str}:
        v = next(v for v in boundary if type(v) is not str)
        raise ValidationError(f"graph boundary must list vertex ids, got {v!r}")
    bset = _known_boundary(boundary, index)

    if at is None:  # every vertex carries coords
        owners, count = ids, n
    elif type(at) is not list:
        raise ValidationError(f"graph coords_at must be a list, got {type(at).__name__}")
    else:
        _require_increasing("coords_at", at, lambda i: type(i) is int and 0 <= i < n,
                            set(map(type, at)) <= {int} and (not at or 0 <= at[0] and at[-1] < n),
                            f"vertex indices must be strictly increasing integers 0 <= i < {n}")
        owners, count = list(map(ids.__getitem__, at)), len(at)
    if not (type(dim) is int and dim >= 0 and len(coords) == count * dim):
        raise ValidationError(f"graph coords must hold dim = {dim!r} numbers for each of {count} vertices, "
                              f"got {len(coords)}")
    xs = _floats(coords)
    if xs is None:
        k = next(k for k, x in enumerate(coords) if not _floats([x]))
        raise ValidationError(f"vertex {owners[k // dim]!r}: coords must be numbers, got {coords[k]!r}")
    # count * dim entries, so with count > 0 the zip's dim iterators are bounded by the file
    cmap = dict(zip(owners, zip(*[iter(xs)] * dim) if count and dim else repeat((), count)))
    if not all(map(math.isfinite, xs)):
        _require_coords(cmap)  # names the vertex
    return _layout(tuple(ids), index, pairs, lens, bset, cmap)


def _require_increasing(key: str, values: list, fits: Callable, fit: bool, rule: str) -> None:
    """Raise ValidationError stating ``rule`` and naming the first entry of
    ``values`` that fails ``fits`` or does not exceed the entry before it.
    ``fit``, computed by C-level passes, says whether every entry fits."""
    if not (fit and all(map(lt, values, islice(values, 1, None)))):
        k = next(k for k, x in enumerate(values) if not fits(x) or k and not values[k - 1] < x)
        raise ValidationError(f"graph {key} entry {k} is {values[k]!r}; {rule}")


def _floats(values: list) -> list[float] | None:
    """``values`` as floats, if each is an int or a float (not a bool) within binary64, else None."""
    types = set(map(type, values))
    if not types <= {int, float}:
        return None
    try:
        return values if types <= {float} else list(map(float, values))
    except OverflowError:
        return None


def graph_to_dict(g: MetricGraph) -> dict:
    """Serialize to the version 2 columns (deterministic ordering): ids, the
    pairs i < j in the order of the lists, and coords in id order, with
    ``coords_at`` listing the vertices that carry them when not all do."""
    vs, a, b, length = g.vertices, [], [], []
    for i, (nb, ln) in enumerate(zip(g.nbrs, g.lens)):
        k = bisect_right(nb, i)  # the lists are in id order: the larger neighbours come last
        a += repeat(i, len(nb) - k)
        b += nb[k:]
        length += ln[k:]
    at = list(compress(range(len(vs)), map(g.coords.__contains__, vs)))
    xys = list(map(g.coords.__getitem__, map(vs.__getitem__, at)))
    spec = {"version": GRAPH_FORMAT_VERSION, "ids": list(vs), "dim": len(xys[0]) if xys else 0,
            "coords": list(chain.from_iterable(xys)), "a": a, "b": b, "length": length,
            "boundary": sorted(g.boundary)}
    if len(at) < len(vs):
        spec["coords_at"] = at
    return spec


def write_graph(g: MetricGraph, path: str) -> None:
    """One line of compact JSON: json.dumps runs the C encoder, json.dump does not."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(graph_to_dict(g), separators=(",", ":")) + "\n")


@contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text (newlines untranslated, as the csv
    module wants); a byte sequence that is not UTF-8 raises ValidationError
    naming the path."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})")


def read_json(path: str):
    """Parse a JSON input file; malformed JSON raises ValidationError with
    the line and column."""
    with open_input(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}")
    except (ValueError, RecursionError) as exc:  # an integer too long to convert, nesting too deep
        raise ValidationError(f"{path}: unreadable JSON ({exc})")


def read_csv(path: str, headers: Sequence[Sequence[str]], width: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, row) pairs of a CSV input file after its header.

    The header's leading cells, stripped, must equal one of ``headers``.
    Blank rows are skipped; a row with fewer than ``width`` cells raises
    ValidationError at ``path:lineno``.
    """
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader, [])]
            if not any(header[:len(h)] == list(h) for h in headers):
                wanted = " or ".join(repr(",".join(h)) for h in headers)
                raise ValidationError(f"{path}: expected header {wanted}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) < width:
                    raise ValidationError(f"{path}:{lineno}: expected {width} columns, got {row!r}")
                yield lineno, row
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ValidationError(f"{path}:{reader.line_num}: {exc}")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV in the csv module's default dialect."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic collector for a graph build and restore its state: a
    build keeps what it makes and makes no cycles, so a pass would free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_graph(path: str) -> MetricGraph:
    """Parse and build a graph file, with the cyclic collector paused."""
    with collector_paused():
        return build_graph(read_json(path))


_ONES: list[float] = []  # the weights of every field-less settle: shared, grown on demand


def settle(
    g: MetricGraph,
    seeds: Iterable[tuple[int, float]],
    fl: Sequence[float] | None = None,
    scale: float = 1.0,
    limit: float = math.inf,
) -> tuple[list[float], list[int], list[int]]:
    """Exact binary64 fixpoint of the Bellman labeling operator on ``g``.

    ``seeds`` are (vertex index, datum) pairs at distinct vertices.  Edge
    (x, y) costs 0.5 * (fl[x] + fl[y]) * length * scale, computed as it is
    relaxed (with no ``fl``, exactly length * scale).  One multi-source
    Dijkstra pass gives the unique u with u(x) = min(datum(x), min over
    neighbours y of fl(u(y) + cost)).  fl(d + c) is nondecreasing in d and
    >= d for c >= 0, so labels pop in nondecreasing order, ties by index (id
    order), and a popped label is final: bit-identical to value iteration.

    Returns lists by index: labels; the settle order, then the unreached
    vertices (label inf) in id order; and parents.  The parent rule: a seed
    at its own datum is its own parent; any other vertex takes the first
    neighbour in id order settled before it whose label plus cost equals its
    label; unreached vertices have -1.  Each such neighbour offered that
    label when it settled (fl(a + b) commutes), so the rule is kept while
    relaxing: ``via[y]`` is the least index that offered y its current
    label, set by a strict improvement and replaced by an equal offer from a
    smaller index.  At a pop it is unset only for a seed still at its datum,
    and the pop takes ``via[x]``, or x itself when it is unset.  A pop
    costs one list read per arc to a settled neighbour, and per other arc
    one cost, one or two comparisons and at most one push.  A finite
    ``limit`` stops before the first pop above it, leaving a prefix of the
    unbounded order with the same labels and parents.  A call allocates
    three lists of length V: labels, parents and ``via`` (a field-less call
    reads a shared list of ones).
    """
    nbrs, lens = g.nbrs, g.lens
    n = len(nbrs)
    if fl is None:
        if len(_ONES) < n:
            _ONES.extend([1.0] * (n - len(_ONES)))
        fl = _ONES
    datum = dict(seeds)
    if not datum:
        raise ValidationError("label setting needs at least one seed")
    dist = [math.inf] * n
    parent = [-1] * n  # >= 0 exactly for the settled vertices
    via = [-1] * n
    heap = sorted((d0, x) for x, d0 in datum.items() if d0 < math.inf)  # sorted: a heap
    for d0, x in heap:
        dist[x] = d0
    pop, push = heapq.heappop, heapq.heappush
    order: list[int] = []
    while heap:
        d, x = pop(heap)
        if parent[x] >= 0:
            continue
        if d > limit:
            return dist, order, parent
        order.append(x)
        parent[x] = x if (p := via[x]) < 0 else p
        fx = fl[x]
        for y, length in zip(nbrs[x], lens[x]):
            if parent[y] < 0:  # the cost is the rule of fields.edge_costs
                if (t := d + 0.5 * (fx + fl[y]) * length * scale) < dist[y]:
                    dist[y] = t
                    via[y] = x
                    push(heap, (t, y))
                elif t == dist[y] and x < via[y]:
                    via[y] = x
    if len(order) < n and limit == math.inf:
        order += [x for x in range(n) if parent[x] < 0]
    return dist, order, parent


def _vertex_index(g: MetricGraph, v: str) -> int:
    try:
        return g.index[v]
    except KeyError:
        raise GraphError(f"unknown vertex {v!r}")


def curve_along(g: MetricGraph, vertices: Sequence[str]) -> Curve:
    """Arc-length parametrized curve through consecutive graph neighbors."""
    if not vertices:
        raise ValidationError("curve needs at least one vertex")
    cum = [0.0]
    for a, b in zip(vertices, vertices[1:]):
        cum.append(cum[-1] + g.edge_length(a, b))
    return Curve(vertices=tuple(vertices), cumlen=tuple(cum))


def intrinsic_distance(g: MetricGraph, x: str, y: str) -> tuple[float, Curve]:
    """Intrinsic distance between two vertices and a witness shortest path.

    On a finite graph the infimum of curve lengths is attained by a vertex
    path; the witness walks the :func:`settle` parents from y back to x, so
    its total length equals the reported distance.
    """
    i, j = _vertex_index(g, x), _vertex_index(g, y)
    dist, _, parent = settle(g, [(i, 0.0)])
    if dist[j] == math.inf:
        raise MetricError(f"the distance from {x!r} to {y!r} overflows binary64")
    path = [j]
    while path[-1] != i:
        path.append(parent[path[-1]])
    return dist[j], curve_along(g, [g.vertices[k] for k in reversed(path)])


def distances_from(g: MetricGraph, sources: Iterable[str]) -> dict[str, float]:
    """Intrinsic distances from a vertex set (edge lengths as weights), in
    settle order."""
    dist, order, _ = settle(g, [(_vertex_index(g, s), 0.0) for s in sources])
    return {g.vertices[i]: dist[i] for i in order}


def ball(g: MetricGraph, x: str, r: float) -> dict[str, float]:
    """Open ball in the intrinsic metric: {vertex: distance} for the vertices
    at distance < r from x, in id order."""
    if not (r > 0.0):
        raise ValidationError(f"ball radius must be positive, got {r!r}")
    dist, order, _ = settle(g, [(_vertex_index(g, x), 0.0)], limit=r)
    return {g.vertices[i]: dist[i] for i in sorted(order) if dist[i] < r}


def refine(g: MetricGraph, h_max: float) -> MetricGraph:
    """Subdivide every edge into equal parts of length <= h_max.

    Original vertex ids, boundary, and intrinsic distances between original
    vertices are preserved; new vertices interpolate coords linearly when both
    endpoints carry them.  Returns the same graph when no edge needs splitting,
    h_max = inf included.  Raises ValidationError, before building anything,
    when h_max would add more than MAX_REFINE_VERTICES vertices.
    """
    if not (h_max > 0.0):
        raise ValidationError(f"h_max must be positive, got {h_max!r}")

    parts: list[tuple[tuple[str, str], float, int]] = []  # (edge, length, pieces) in id order
    for key, length in _edge_items(g):
        q = length / h_max
        if not math.isfinite(q):
            raise ValidationError(f"h_max {h_max!r} is too small for edge length {length!r}")
        k = max(1, math.ceil(q))
        # guard against float roundup when length is an exact multiple of h_max
        if k > 1 and (k - 1) >= q * (1.0 - 1e-12):
            k -= 1
        parts.append((key, length, k))
    added = sum(map(itemgetter(2), parts)) - len(parts)
    if added > MAX_REFINE_VERTICES:
        raise ValidationError(f"h_max {h_max!r} would add more than {MAX_REFINE_VERTICES} vertices")
    if added == 0:
        return g

    vertices = list(g.vertices)
    coords = dict(g.coords)
    edges: dict[tuple[str, str], float] = {}
    existing = set(g.vertices)
    for (a, b), length, k in parts:
        if k == 1:
            edges[a, b] = length
            continue
        sub = length / k
        chain = [a]
        for i in range(1, k):
            vid = f"{a}~{b}~{i}"
            if vid in existing:
                raise ValidationError(f"refinement id collision at {vid!r}")
            existing.add(vid)
            vertices.append(vid)
            chain.append(vid)
            if a in coords and b in coords:
                t = i / k
                coords[vid] = tuple(
                    ca + t * (cb - ca) for ca, cb in zip(coords[a], coords[b])
                )
        chain.append(b)
        for u, v in zip(chain, chain[1:]):
            edges[u, v] = sub
    return _finalize(vertices, edges, edges.values(), g.boundary, coords)


def chord_from_coords(coords: Mapping[str, Sequence[float]]) -> Callable[[str, str], float]:
    """Euclidean chord distance computed from point coordinates."""

    def dist(a: str, b: str) -> float:
        pa, pb = coords[a], coords[b]
        try:
            return math.sqrt(math.fsum((ca - cb) ** 2 for ca, cb in zip(pa, pb)))
        except OverflowError:
            raise MetricError(f"distance between {a!r} and {b!r} overflows")

    return dist


def induce_intrinsic(
    ids: Sequence[str],
    dist: Callable[[str, str], float],
    adjacency: Sequence[tuple[str, str]],
    boundary: Iterable[str] = (),
    coords: Mapping[str, tuple[float, ...]] | None = None,
) -> MetricGraph:
    """Induce the intrinsic metric graph of the points ``ids`` from a chord
    metric and the (a, b) pairs of ``adjacency``.

    ``dist`` is a symmetric callback d(x, y), such as :func:`chord_from_coords`
    builds from point coordinates.  Each declared edge (x, y) gets length
    d(x, y), which must be positive and finite, and equal d(y, x) within the
    default tolerances; shortest paths on the result realize the discrete
    intrinsic metric d~.  Each edge must itself be a shortest path,
    d(x, y) <= d~(x, y) within the same tolerances: one search from each
    edge's smaller end, bounded by the longest such edge, checks every edge
    exactly.  Pairs that are not edges are not checked, as they do not enter
    the graph.
    """
    known = set(ids)
    for a, b in adjacency:
        if a not in known or b not in known:
            raise ValidationError(f"edge ({a!r}, {b!r}) references unknown vertex")
    _require_coords(coords or {})
    lengths = []
    for a, b in adjacency:
        dab, dba = dist(a, b), dist(b, a)
        if a != b and not (0.0 < dab < math.inf):  # also false for NaN
            raise MetricError(f"d({a!r}, {b!r}) = {dab} is not a positive finite length")
        if not close(dab, dba):
            raise MetricError(f"distance not symmetric at ({a!r}, {b!r}): {dab} vs {dba}")
        lengths.append(dab)
    try:
        g = _finalize(ids, adjacency, lengths, boundary, coords)
    except ConnectivityError:
        raise ConnectivityError("chord adjacency is disconnected")

    vs = g.vertices
    for i, (nb, ln) in enumerate(zip(g.nbrs, g.lens)):
        k = bisect_right(nb, i)  # the lists are in id order: the larger neighbours come last
        if k < len(nb):
            labels = settle(g, [(i, 0.0)], limit=max(ln[k:]))[0]  # every neighbour's label is final
            for j, length in zip(nb[k:], ln[k:]):
                if length > labels[j] + ABS_TOL + REL_TOL * labels[j]:
                    raise MetricError(f"chord distance exceeds intrinsic distance at ({vs[i]!r}, {vs[j]!r}): "
                                      f"{length} > {labels[j]}")
    return g
