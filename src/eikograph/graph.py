"""Finite metric graphs: construction, intrinsic (shortest-path) metric, curves,
balls, refinement, and the metric induced from a chord distance.

A graph models a compact length space: vertices joined by positive-length
edges, distances given by minimal total edge length over connecting paths.
All graphs are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConnectivityError, GraphError, MetricError, ValidationError

# Default equality policy for binary64 comparisons; checks that expose their
# own tolerance override this.
ABS_TOL = 1e-12
REL_TOL = 1e-9

GRAPH_FORMAT_VERSION = 1


def close(a: float, b: float, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> bool:
    """Default scalar equality: abs tol 1e-12 plus rel tol 1e-9."""
    return abs(a - b) <= abs_tol + rel_tol * max(abs(a), abs(b))


def edge_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered edge key (lexicographically sorted endpoint pair)."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class MetricGraph:
    """Finite weighted graph with a distinguished boundary vertex set.

    ``edges`` maps canonical sorted pairs to positive lengths.  ``coords`` is
    optional per vertex and only feeds embedding-derived metrics and plot
    output.  ``adjacency`` is derived and excluded from equality.
    """

    vertices: tuple[str, ...]
    edges: dict[tuple[str, str], float]
    boundary: frozenset[str]
    coords: dict[str, tuple[float, ...]]
    adjacency: dict[str, tuple[tuple[str, float], ...]] = field(compare=False, repr=False)

    @property
    def interior(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v not in self.boundary)

    @property
    def h_max(self) -> float:
        return max(self.edges.values())

    def has_vertex(self, v: str) -> bool:
        return v in self.adjacency

    def neighbors(self, v: str) -> tuple[tuple[str, float], ...]:
        try:
            return self.adjacency[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}")

    def edge_length(self, a: str, b: str) -> float:
        try:
            return self.edges[edge_key(a, b)]
        except KeyError:
            raise GraphError(f"no edge between {a!r} and {b!r}")


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


@dataclass(frozen=True)
class BallSet:
    """Open intrinsic-metric ball: member vertices with distance < radius."""

    center: str
    radius: float
    members: dict[str, float]

    def __contains__(self, v: str) -> bool:
        return v in self.members


@dataclass(frozen=True)
class ChordInput:
    """Point set with a chord metric and an adjacency declaring edges.

    ``dist`` is a symmetric callback d(x, y); use :func:`chord_from_table` or
    :func:`chord_from_coords` to build one from data.
    """

    ids: tuple[str, ...]
    dist: Callable[[str, str], float]
    adjacency: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ConsistencyProbe:
    """Heuristic statistics for the small-scale agreement of d and the induced
    intrinsic metric (ratio d-tilde / d over sampled pairs, bucketed by d).

    This probes, never certifies, the hypothesis that the intrinsic metric
    vanishes with the chord metric; it is not decidable from finite data.
    """

    buckets: tuple[tuple[float, float, float, int], ...]  # (d_max, ratio_max, ratio_mean, count)
    pairs_sampled: int
    max_ratio: float
    note: str = "heuristic probe only; small-d consistency is not certified"


@dataclass(frozen=True)
class InducedMetric:
    """Result of :func:`induce_intrinsic`: the graph plus the probe report."""

    graph: MetricGraph
    probe: ConsistencyProbe


def _finalize(
    vertices: Iterable[str],
    edges: Mapping[tuple[str, str], float],
    boundary: Iterable[str],
    coords: Mapping[str, tuple[float, ...]] | None = None,
) -> MetricGraph:
    """Validate parts and assemble an immutable MetricGraph."""
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise ValidationError("graph has no vertices")
    vset = set(vs)

    clean: dict[tuple[str, str], float] = {}
    for (a, b), length in edges.items():
        if a == b:
            raise ValidationError(f"self-loop at vertex {a!r}")
        if a not in vset or b not in vset:
            raise ValidationError(f"edge ({a!r}, {b!r}) references unknown vertex")
        if not (length > 0.0) or not math.isfinite(length):
            raise ValidationError(f"edge ({a!r}, {b!r}) has nonpositive length {length!r}")
        k = edge_key(a, b)
        # parallel edges collapse to the shorter length
        if k not in clean or length < clean[k]:
            clean[k] = float(length)

    bset = frozenset(boundary)
    unknown = bset - vset
    if unknown:
        raise ValidationError(f"boundary references unknown vertices {sorted(unknown)}")

    adj: dict[str, list[tuple[str, float]]] = {v: [] for v in vs}
    for (a, b), length in clean.items():
        adj[a].append((b, length))
        adj[b].append((a, length))
    adjacency = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    cmap: dict[str, tuple[float, ...]] = {}
    if coords:
        for v, xy in coords.items():
            if v not in vset:
                raise ValidationError(f"coords reference unknown vertex {v!r}")
            cmap[v] = tuple(float(c) for c in xy)

    g = MetricGraph(vertices=vs, edges=clean, boundary=bset, coords=cmap, adjacency=adjacency)
    _require_connected(g)
    return g


def _require_connected(g: MetricGraph) -> None:
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for w, _ in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(g.vertices):
        missing = sorted(set(g.vertices) - seen)[:5]
        raise ConnectivityError(f"graph is disconnected; unreachable vertices include {missing}")


def build_graph(spec: Mapping) -> MetricGraph:
    """Build and validate a graph from a structured description.

    Expected keys: ``vertices`` (list of {id, coords?}), ``edges`` (list of
    {a, b, length}), ``boundary`` (list of ids), optional ``version``.
    """
    if not isinstance(spec, Mapping):
        raise ValidationError("graph description must be a mapping")
    try:
        raw_vertices = spec["vertices"]
        raw_edges = spec["edges"]
    except KeyError as exc:
        raise ValidationError(f"graph description missing key {exc.args[0]!r}")

    vertices: list[str] = []
    coords: dict[str, tuple[float, ...]] = {}
    for item in raw_vertices:
        if isinstance(item, str):
            vertices.append(item)
            continue
        try:
            vid = str(item["id"])
        except (TypeError, KeyError):
            raise ValidationError(f"vertex entry {item!r} has no id")
        vertices.append(vid)
        if item.get("coords") is not None:
            coords[vid] = tuple(float(c) for c in item["coords"])

    edges: dict[tuple[str, str], float] = {}
    for item in raw_edges:
        try:
            a, b, length = str(item["a"]), str(item["b"]), float(item["length"])
        except (TypeError, KeyError, ValueError):
            raise ValidationError(f"edge entry {item!r} must have a, b, length")
        k = edge_key(a, b)
        if k not in edges or length < edges[k]:
            edges[k] = length

    boundary = spec.get("boundary", [])
    if not isinstance(boundary, (list, tuple)):
        raise ValidationError(f"graph boundary must be a list of vertex ids, got {type(boundary).__name__}")
    return _finalize(vertices, edges, [str(b) for b in boundary], coords)


def graph_to_dict(g: MetricGraph) -> dict:
    """Serialize to the JSON-ready structured form (deterministic ordering)."""
    vertices = []
    for v in g.vertices:
        entry: dict = {"id": v}
        if v in g.coords:
            entry["coords"] = list(g.coords[v])
        vertices.append(entry)
    edges = [{"a": a, "b": b, "length": g.edges[(a, b)]} for a, b in sorted(g.edges)]
    return {
        "version": GRAPH_FORMAT_VERSION,
        "vertices": vertices,
        "edges": edges,
        "boundary": sorted(g.boundary),
    }


def write_graph(g: MetricGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=1)
        fh.write("\n")


def read_graph(path: str) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}")
    return build_graph(data)


def fixpoint_labels(
    adjacency: Mapping[str, Sequence[tuple[str, float]]],
    seeds: Mapping[str, float],
) -> dict[str, float]:
    """Exact binary64 fixpoint of the Bellman labeling operator.

    Returns the unique labels with u(x) = min(seed(x), min over neighbors y of
    fl(u(y) + w(x, y))), computed by one multi-source Dijkstra pass.  Under
    round-to-nearest, fl(d + w) is nondecreasing in d and >= d for w >= 0, so
    labels pop in nondecreasing order and a popped label is final: no later
    pop can lower it.  The labels therefore satisfy the fixpoint equations
    exactly in floating point and are bit-identical to exhaustive value
    iteration from the same seeds.

    The returned dict lists vertices in settle (pop) order, then the
    vertices no seed reaches, at inf, in ``adjacency`` order.  Every settled
    vertex other than a seed at its own datum has a neighbor settled before
    it whose label plus edge weight equals its label exactly.
    """
    if not seeds:
        raise ValidationError("fixpoint_labels needs at least one seeded vertex")
    dist: dict[str, float] = {v: math.inf for v in adjacency}
    heap: list[tuple[float, str]] = []
    for v, d0 in seeds.items():
        if v not in dist:
            raise GraphError(f"seed at unknown vertex {v!r}")
        if d0 < dist[v]:
            dist[v] = d0
            heapq.heappush(heap, (d0, v))
    settled: dict[str, float] = {}
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        settled[v] = d
        for w, c in adjacency[v]:
            cand = d + c
            if cand < dist[w]:
                dist[w] = cand
                heapq.heappush(heap, (cand, w))
    settled.update(dist)
    return settled


def _backtrack_path(
    adjacency: Mapping[str, Sequence[tuple[str, float]]],
    dist: Mapping[str, float],
    source: str,
    target: str,
) -> list[str]:
    """Parent chain target -> source along exact label equalities.

    At the fixpoint every non-source vertex has a neighbor y with
    dist[v] == fl(dist[y] + w); ties break to the smallest vertex id, giving a
    deterministic lexicographic witness along the path.
    """
    path = [target]
    v = target
    steps = 0
    while v != source:
        parent = None
        for y, c in adjacency[v]:
            if dist[v] == dist[y] + c:
                parent = y
                break  # adjacency is sorted by id: first hit is smallest
        if parent is None:
            raise GraphError(f"no shortest-path predecessor at {v!r} (degenerate weights)")
        path.append(parent)
        v = parent
        steps += 1
        if steps > len(adjacency):
            raise GraphError("shortest-path backtrack did not terminate")
    path.reverse()
    return path


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
    path; the witness curve's total length equals the reported distance.
    """
    if not g.has_vertex(x):
        raise GraphError(f"unknown vertex {x!r}")
    if not g.has_vertex(y):
        raise GraphError(f"unknown vertex {y!r}")
    dist = fixpoint_labels(g.adjacency, {x: 0.0})
    path = _backtrack_path(g.adjacency, dist, x, y)
    return dist[y], curve_along(g, path)


def distances_from(g: MetricGraph, sources: Iterable[str]) -> dict[str, float]:
    """Intrinsic distances from a vertex set (edge lengths as weights)."""
    return fixpoint_labels(g.adjacency, {s: 0.0 for s in sources})


def ball(g: MetricGraph, x: str, r: float) -> BallSet:
    """Open ball in the intrinsic metric: vertices at distance < r from x."""
    if not (r > 0.0):
        raise ValidationError(f"ball radius must be positive, got {r!r}")
    if not g.has_vertex(x):
        raise GraphError(f"unknown vertex {x!r}")
    dist = fixpoint_labels(g.adjacency, {x: 0.0})
    members = {v: d for v, d in sorted(dist.items()) if d < r}
    return BallSet(center=x, radius=r, members=members)


def refine(g: MetricGraph, h_max: float) -> MetricGraph:
    """Subdivide every edge into equal parts of length <= h_max.

    Original vertex ids, boundary, and intrinsic distances between original
    vertices are preserved; new vertices interpolate coords linearly when both
    endpoints carry them.  Returns the same graph when no edge needs splitting.
    """
    if not (h_max > 0.0):
        raise ValidationError(f"h_max must be positive, got {h_max!r}")

    parts: dict[tuple[str, str], int] = {}
    for key, length in g.edges.items():
        q = length / h_max
        k = math.ceil(q)
        # guard against float roundup when length is an exact multiple of h_max
        if k > 1 and (k - 1) >= q * (1.0 - 1e-12):
            k -= 1
        parts[key] = k
    if all(k == 1 for k in parts.values()):
        return g

    vertices = list(g.vertices)
    coords = dict(g.coords)
    edges: dict[tuple[str, str], float] = {}
    existing = set(g.vertices)
    for (a, b) in sorted(g.edges):
        length = g.edges[(a, b)]
        k = parts[(a, b)]
        if k == 1:
            edges[(a, b)] = length
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
            if a in coords and b in coords and len(coords[a]) == len(coords[b]):
                t = i / k
                coords[vid] = tuple(
                    ca + t * (cb - ca) for ca, cb in zip(coords[a], coords[b])
                )
        chain.append(b)
        for u, v in zip(chain, chain[1:]):
            edges[edge_key(u, v)] = sub
    return _finalize(vertices, edges, g.boundary, coords)


def chord_from_table(table: Mapping[tuple[str, str], float]) -> Callable[[str, str], float]:
    """Distance callback backed by a pair table (either key order accepted)."""

    def dist(a: str, b: str) -> float:
        if a == b:
            return 0.0
        if (a, b) in table:
            return float(table[(a, b)])
        if (b, a) in table:
            return float(table[(b, a)])
        raise MetricError(f"distance table has no entry for pair ({a!r}, {b!r})")

    return dist


def chord_from_coords(coords: Mapping[str, Sequence[float]]) -> Callable[[str, str], float]:
    """Euclidean chord distance computed from point coordinates."""

    def dist(a: str, b: str) -> float:
        pa, pb = coords[a], coords[b]
        return math.sqrt(math.fsum((ca - cb) ** 2 for ca, cb in zip(pa, pb)))

    return dist


def _validate_chord(chord: ChordInput, rng: random.Random, samples: int) -> None:
    ids = chord.ids
    d = chord.dist
    pairs = [(a, b) for a, b in chord.adjacency]
    # spot-check symmetry and definiteness on declared edges plus random pairs
    for _ in range(min(samples, 4 * len(ids))):
        a, b = rng.choice(ids), rng.choice(ids)
        pairs.append((a, b))
    for a, b in pairs:
        dab, dba = d(a, b), d(b, a)
        if not close(dab, dba):
            raise MetricError(f"distance not symmetric at ({a!r}, {b!r}): {dab} vs {dba}")
        if a == b and dab != 0.0:
            raise MetricError(f"d({a!r}, {a!r}) = {dab} != 0")
        if a != b and not (dab > 0.0):
            raise MetricError(f"d({a!r}, {b!r}) = {dab} is not positive")
    if len(ids) >= 3:
        for _ in range(samples):
            a, b, c = (rng.choice(ids) for _ in range(3))
            if len({a, b, c}) < 3:
                continue
            if d(a, c) > d(a, b) + d(b, c) + ABS_TOL + REL_TOL * d(a, c):
                raise MetricError(
                    f"triangle inequality fails on sample ({a!r}, {b!r}, {c!r})"
                )


def induce_intrinsic(
    chord: ChordInput,
    boundary: Iterable[str] = (),
    coords: Mapping[str, tuple[float, ...]] | None = None,
    sample_pairs: int = 256,
    seed: int = 0,
) -> InducedMetric:
    """Induce the intrinsic metric graph from a chord metric and adjacency.

    Each declared edge (x, y) gets length d(x, y); shortest paths on the result
    realize the discrete intrinsic metric.  Postconditions checked here: the
    chord metric never exceeds the intrinsic one on sampled pairs, and a
    heuristic probe reports how the ratio behaves as d shrinks.
    """
    rng = random.Random(seed)
    _validate_chord(chord, rng, samples=max(32, sample_pairs // 2))

    edges = {edge_key(a, b): chord.dist(a, b) for a, b in chord.adjacency}
    try:
        g = _finalize(chord.ids, edges, boundary, coords)
    except ConnectivityError:
        raise ConnectivityError("chord adjacency is disconnected")

    # sample every edge (capped) plus long-range random pairs
    ids = g.vertices
    pairs: set[tuple[str, str]] = set(sorted(g.edges)[: 4 * sample_pairs])
    target = min(len(pairs) + sample_pairs, len(ids) * (len(ids) - 1) // 2)
    attempts = 0
    while len(pairs) < target and attempts < 64 * sample_pairs:
        a, b = rng.choice(ids), rng.choice(ids)
        attempts += 1
        if a != b:
            pairs.add(edge_key(a, b))

    samples: list[tuple[float, float]] = []
    by_source: dict[str, list[str]] = {}
    for a, b in pairs:
        by_source.setdefault(a, []).append(b)
    for a, targets in sorted(by_source.items()):
        dist = fixpoint_labels(g.adjacency, {a: 0.0})
        for b in sorted(targets):
            d_chord = chord.dist(a, b)
            d_int = dist[b]
            if d_chord > d_int + ABS_TOL + REL_TOL * d_int:
                raise MetricError(
                    f"chord distance exceeds intrinsic distance at ({a!r}, {b!r}): "
                    f"{d_chord} > {d_int}"
                )
            samples.append((d_chord, d_int))

    samples.sort()
    nb = min(8, len(samples))
    buckets = []
    max_ratio = 0.0
    for i in range(nb):
        lo = (i * len(samples)) // nb
        hi = ((i + 1) * len(samples)) // nb
        chunk = samples[lo:hi]
        if not chunk:
            continue
        ratios = [di / dc for dc, di in chunk if dc > 0.0]
        if not ratios:
            continue
        buckets.append((chunk[-1][0], max(ratios), sum(ratios) / len(ratios), len(ratios)))
        max_ratio = max(max_ratio, max(ratios))
    probe = ConsistencyProbe(buckets=tuple(buckets), pairs_sampled=len(samples), max_ratio=max_ratio)
    return InducedMetric(graph=g, probe=probe)
