"""Independent oracles the test suite checks the library against.

These deliberately avoid the library's solver path: values come from
exhaustive Jacobi value iteration (Bellman-Ford style full sweeps from the
seeds), distances from the same iteration with edge lengths as costs, and
path sums from direct summation.  The general-Hamiltonian references keep
the plain bisection and Picard loop the fast path must reproduce bit for bit,
and the string-keyed label setting, settle-parent walk and slope checks are
the reference the integer kernel and the CSR-list checks must reproduce bit
for bit.  Neighbours come from :func:`adjacency`, which reads only
``g.edges``.  That is a view built from the per-vertex lists under test, so
the oracles' independence rests on the layout tests
(``test_graph.TestOneLayout``): they tie every constructor's lists and view
to :func:`reference_layout` of the raw entries the constructor passed,
which is the rule those lists must follow.  :func:`reference_build_graph`
is the entry-by-entry load of version 1 graph descriptions whose graphs and
errors the bulk load must give; its graphs carry the oracle's own edge dict
in place of the view.  :func:`graph_to_dict_v1` is the version 1 writer that
version 2 replaced, kept as the source of version 1 inputs.
:func:`reference_gasket` builds the gasket fixture by triangle subdivision,
:func:`reference_fixture` the other fixtures through string-keyed edge dicts,
and :func:`reference_consistency_probe` is ``induce_intrinsic``'s probe with
no search cut short.  :func:`reference_boundary_consistency` is the boundary
certificate with one min-plus solve per verdict, whose every field the
certificate with its edge pass must reproduce bit for bit.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Iterable, Mapping, Sequence

from eikograph import (
    BoundaryCertificate,
    CheckReport,
    CoercivityError,
    ConnectivityError,
    ConvergenceError,
    Curve,
    DirichletProblem,
    FieldError,
    Fixture,
    GraphError,
    HamiltonianError,
    HamiltonianSpec,
    MetricError,
    MetricGraph,
    ReductionField,
    ScalarField,
    SlopeTriple,
    ValidationError,
    curve_along,
    default_check_tol,
    edge_key,
    field_on,
    solve_dirichlet,
    validate_hamiltonian,
)
from eikograph.fields import field_list
from eikograph.graph import ABS_TOL, DEFAULT_SEED, REL_TOL, _finalize, _validate_chord, settle
from eikograph.hamiltonians import BRACKET_CAP
from eikograph.slopes import BASE_TOL

_last_adjacency: list = [None, None]  # (graph, its adjacency): the oracles ask for one graph at a time


def adjacency(graph: MetricGraph) -> dict[str, list[tuple[str, float]]]:
    """(neighbor, length) pairs per vertex in id order, built from
    ``graph.edges`` alone; cached for the last graph asked about."""
    if _last_adjacency[0] is not graph:
        adj: dict[str, list[tuple[str, float]]] = {v: [] for v in graph.vertices}
        for (a, b), length in graph.edges.items():
            adj[a].append((b, length))
            adj[b].append((a, length))
        _last_adjacency[:] = [graph, {v: sorted(pairs) for v, pairs in adj.items()}]
    return _last_adjacency[1]


def reference_layout(vertices, entries):
    """The layout rule that ``_finalize`` must follow, as ``MetricGraph``
    once derived it: valid ((a, b), length) entries collapse on canonical
    string keys to the shortest length, and the sorted string-keyed items
    fill the per-vertex neighbor and length lists.  Returns (edges in key
    order, index, nbrs, lens)."""
    edges: dict[tuple[str, str], float] = {}
    for (a, b), length in entries:
        k = edge_key(a, b)
        if k not in edges or length < edges[k]:
            edges[k] = float(length)
    index = {v: i for i, v in enumerate(sorted(set(vertices)))}
    nbrs, lens = tuple([] for _ in index), tuple([] for _ in index)
    for (a, b), length in sorted(edges.items()):
        i, j = index[a], index[b]
        nbrs[i].append(j)
        lens[i].append(length)
        nbrs[j].append(i)
        lens[j].append(length)
    return dict(sorted(edges.items())), index, nbrs, lens


def _reference_finalize(
    vertices: Iterable[str],
    edges: Iterable[tuple[tuple[str, str], float]],
    boundary: Iterable[str],
    coords: Mapping[str, tuple[float, ...]] | None = None,
) -> MetricGraph:
    """Validate parts and lay out an immutable MetricGraph.

    ``edges`` holds ((a, b), length) entries, such as a dict's ``items()``.
    Every entry is validated; parallel entries collapse to the shortest
    length, whatever their order.  One sort of the (i, j) pairs, i < j, fills
    an edge dict, which the graph carries in place of its ``edges`` view, and
    each vertex's lists: smaller neighbours, then larger ones.
    """
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise ValidationError("graph has no vertices")
    index = {v: i for i, v in enumerate(vs)}

    shortest: dict[tuple[int, int], float] = {}
    for (a, b), length in edges:
        if a == b:
            raise ValidationError(f"self-loop at vertex {a!r}")
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            raise ValidationError(f"edge ({a!r}, {b!r}) references unknown vertex")
        if not (0.0 < length < math.inf):
            raise ValidationError(f"edge ({a!r}, {b!r}) has length {length!r}; "
                                  "a length must be a positive finite number")
        k = (i, j) if i < j else (j, i)
        if k not in shortest or length < shortest[k]:
            shortest[k] = float(length)

    bset = frozenset(boundary)
    unknown = bset - index.keys()
    if unknown:
        raise ValidationError(f"boundary references unknown vertices {sorted(unknown)}")

    cmap: dict[str, tuple[float, ...]] = {}
    if coords:
        for v, xy in coords.items():
            if v not in index:
                raise ValidationError(f"coords reference unknown vertex {v!r}")
            cmap[v] = tuple(float(c) for c in xy)
        _reference_require_coords(cmap)

    emap: dict[tuple[str, str], float] = {}
    nbrs, lens = tuple([] for _ in vs), tuple([] for _ in vs)
    for i, j in sorted(shortest):
        length = emap[vs[i], vs[j]] = shortest[i, j]
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
    g = MetricGraph(vertices=vs, boundary=bset, coords=cmap, index=index, nbrs=nbrs, lens=lens)
    vars(g)["edges"] = emap  # the oracle's own edge dict stands in for the view built from the lists
    return g


def _reference_require_coords(coords: Mapping[str, Sequence[float]]) -> None:
    """Coords must be finite and share one dimension."""
    for v, xy in coords.items():
        if not all(map(math.isfinite, xy)):
            raise ValidationError(f"vertex {v!r}: coords must be finite, got {xy!r}")
    if len({len(xy) for xy in coords.values()}) > 1:
        first = next(iter(coords))
        other = next(v for v, xy in coords.items() if len(xy) != len(coords[first]))
        raise ValidationError(f"coords mix dimensions: {first!r} has {len(coords[first])}, "
                              f"{other!r} has {len(coords[other])}")


def _reference_is_json_number(value) -> bool:
    """An int or a float: JSON's numbers, not the booleans and strings that
    float() also takes."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def graph_to_dict_v1(g: MetricGraph) -> dict:
    """Serialize to the JSON-ready structured form (deterministic ordering):
    the version 1 ``graph_to_dict`` as it was, with the version it wrote."""
    vertices = []
    for v in g.vertices:
        entry: dict = {"id": v}
        if v in g.coords:
            entry["coords"] = list(g.coords[v])
        vertices.append(entry)
    vs = g.vertices
    edges = [{"a": a, "b": vs[j], "length": length} for i, (a, nb, ln) in enumerate(zip(vs, g.nbrs, g.lens))
             for j, length in zip(nb, ln) if i < j]  # the order of the edges view, without building it
    return {
        "version": 1,
        "vertices": vertices,
        "edges": edges,
        "boundary": sorted(g.boundary),
    }


def reference_build_graph(spec: Mapping) -> MetricGraph:
    """The entry-by-entry graph load that ``build_graph`` must reproduce: the
    same ``MetricGraph`` (``index``, ``nbrs`` and ``lens`` included) for a
    valid description, and the same exception class and message, naming
    the same first bad entry, for a malformed one.

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
    boundary = spec.get("boundary", [])
    for key, value, what in (("vertices", raw_vertices, "vertex entries"),
                             ("edges", raw_edges, "edge entries"), ("boundary", boundary, "vertex ids")):
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"graph {key} must be a list of {what}, got {type(value).__name__}")

    version = spec.get("version", 1)
    if type(version) is not int or version != 1:
        raise ValidationError(f"unsupported graph version {version!r}; expected 1")

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
                bad = [c for c in raw if not _reference_is_json_number(c)]
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

    edges: list[tuple[tuple[str, str], float]] = []
    for item in raw_edges:
        try:
            a, b, length = str(item["a"]), str(item["b"]), item["length"]
            edges.append(((a, b), float(length)))
        except (TypeError, KeyError, ValueError, OverflowError):
            raise ValidationError(f"edge entry {item!r} must have a, b, length")
        if not _reference_is_json_number(length):
            raise ValidationError(f"edge ({a!r}, {b!r}) has non-numeric length {length!r}")
    return _reference_finalize(vertices, edges, [str(b) for b in boundary], coords)


def reference_gasket(level: int) -> MetricGraph:
    """The Sierpinski gasket graph by subdivision, the construction that the
    closed form of ``fixture("gasket")`` must reproduce: each level splits
    every triangle at its edge midpoints into three, listed in corner order."""
    triangles = [((0, 0), (1, 0), (0, 1))]
    for _ in range(level):
        nxt = []
        for a, b, c in triangles:
            a = (2 * a[0], 2 * a[1])
            b = (2 * b[0], 2 * b[1])
            c = (2 * c[0], 2 * c[1])
            mab = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
            mac = ((a[0] + c[0]) // 2, (a[1] + c[1]) // 2)
            mbc = ((b[0] + c[0]) // 2, (b[1] + c[1]) // 2)
            nxt.extend([(a, mab, mac), (mab, b, mbc), (mac, mbc, c)])
        triangles = nxt
    res = 2**level
    side = 2.0 ** (-level)

    def vid(p: tuple[int, int]) -> str:
        return f"g{p[0]}_{p[1]}"

    vertices: set[str] = set()
    coords: dict[str, tuple[float, float]] = {}
    edges: dict[tuple[str, str], float] = {}
    for tri in triangles:
        names = [vid(p) for p in tri]
        for p, name in zip(tri, names):
            vertices.add(name)
            coords[name] = ((p[0] + 0.5 * p[1]) / res, p[1] * (math.sqrt(3.0) / 2.0) / res)
        for u, v in ((0, 1), (0, 2), (1, 2)):
            edges[edge_key(names[u], names[v])] = side
    corners = {vid((0, 0)), vid((res, 0)), vid((0, res))}
    return _reference_finalize(vertices, edges.items(), corners, coords)


def reference_fixture(name: str, **params) -> Fixture:
    """The fixtures as string-keyed ``edge_key`` dicts fed to
    :func:`_reference_finalize`, one entry at a time, the construction whose
    every field, order included, ``fixture`` must reproduce; the gasket is
    :func:`reference_gasket`.  Valid parameters only."""
    if name == "gasket":
        return Fixture("gasket", dict(params), reference_gasket(params["level"]), None)
    edges: dict[tuple[str, str], float] = {}
    reference: dict[str, float] | None = None
    if name == "interval":
        n = params["n"]
        ids = [f"v{k}" for k in range(n + 1)]
        coords = {ids[k]: ((2 * k - n) / n,) for k in range(n + 1)}
        for k in range(n):
            edges[edge_key(ids[k], ids[k + 1])] = 2.0 / n
        boundary = {ids[0], ids[n]}
        reference = {v: 1.0 - abs(coords[v][0]) for v in ids}
    elif name == "circle":
        n = params["n"]
        ids = [f"c{k}" for k in range(n)]
        coords = {ids[k]: (math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n))
                  for k in range(n)}
        for k in range(n):
            edges[edge_key(ids[k], ids[(k + 1) % n])] = 2.0 * math.sin(math.pi / n)
        boundary = set()
    elif name == "grid":
        n, connectivity = params["n"], params.get("connectivity", 4)
        params = {"n": n, "connectivity": connectivity}
        names = {(i, j): f"v{i}_{j}" for i in range(n) for j in range(n)}
        ids = list(names.values())
        coords = {names[i, j]: (float(i), float(j)) for i, j in names}
        steps = [(1, 0, 1.0), (0, 1, 1.0)]
        if connectivity == 8:
            steps += [(1, 1, math.sqrt(2.0)), (1, -1, math.sqrt(2.0))]
        for i, j in names:
            for di, dj, length in steps:
                if (i + di, j + dj) in names:
                    edges[edge_key(names[i, j], names[i + di, j + dj])] = length
        boundary = {names[i, j] for i, j in names if i in (0, n - 1) or j in (0, n - 1)}
        if connectivity == 4:
            reference = {names[i, j]: float(min(i, j, n - 1 - i, n - 1 - j)) for i, j in names}
    elif name == "binary_tree":
        depth = params["depth"]
        ids, coords, level = ["t"], {"t": (0.5, 0.0)}, ["t"]
        for d in range(1, depth + 1):
            nxt = []
            for node in level:
                for bit in "01":
                    ids.append(node + bit)
                    nxt.append(node + bit)
                    edges[edge_key(node, node + bit)] = 1.0
            for k, child in enumerate(nxt):
                coords[child] = ((k + 0.5) / len(nxt), -float(d))
            level = nxt
        boundary = set(level)
        reference = {v: float(depth - (len(v) - 1)) for v in ids}
    else:
        raise ValueError(f"no reference for fixture {name!r}")
    return Fixture(name, params, _reference_finalize(ids, edges.items(), boundary, coords), reference)


def value_iteration(graph, costs, seeds):
    """Exhaustive Bellman-Ford value iteration to the float fixpoint.

    u0 = seeds (inf elsewhere); each synchronous sweep relaxes every vertex
    against all neighbors; stops when a full sweep changes nothing.
    """
    adj = adjacency(graph)
    u = {v: math.inf for v in graph.vertices}
    for v, s in seeds.items():
        u[v] = min(u[v], s)
    while True:
        new = {}
        for x in graph.vertices:
            best = seeds.get(x, math.inf)
            for y, _length in adj[x]:
                c = costs[(x, y) if x <= y else (y, x)]
                cand = u[y] + c
                if cand < best:
                    best = cand
            new[x] = best if best < u[x] else u[x]
        if new == u:
            return u
        u = new


def fixpoint_labels(
    adjacency: Mapping[str, Sequence[tuple[str, float]]],
    seeds: Mapping[str, float],
    limit: float = math.inf,
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

    A finite ``limit`` stops the pass once the next pop exceeds it and
    returns only the settled vertices: every vertex with label <= limit,
    each label bit-identical to the unbounded pass, since the pops are a
    prefix of its pop sequence.
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
        if d > limit:
            return settled
        settled[v] = d
        for w, c in adjacency[v]:
            cand = d + c
            if cand < dist[w]:
                dist[w] = cand
                heapq.heappush(heap, (cand, w))
    if limit == math.inf:
        settled.update(dist)
    return settled


def settle_parents(
    adjacency: Mapping[str, Sequence[tuple[str, float]]],
    seeds: Mapping[str, float],
    labels: Mapping[str, float],
) -> dict[str, str]:
    """Shortest-path forest of a :func:`fixpoint_labels` result.

    Walks ``labels`` in settle order once.  A seed whose label equals its
    datum is its own parent; any other settled x takes the first neighbor y
    in adjacency order that was settled before x and satisfies
    labels[x] == fl(labels[y] + w(x, y)).  Such a neighbor always exists, so
    every settled vertex gets a parent, listed after its parent.
    """
    parent: dict[str, str] = {}
    for x, ux in labels.items():
        if x in seeds and ux == seeds[x]:
            parent[x] = x
            continue
        for y, c in adjacency[x]:
            if y in parent and ux == labels[y] + c:
                parent[x] = y
                break
    return parent


# The string-keyed checks the CSR-list checks in eikograph.slopes replaced,
# kept verbatim as their bit-identity reference (tests/test_kernel_identity.py).


def cost_adjacency(g: MetricGraph, f: ScalarField) -> dict[str, tuple[tuple[str, float], ...]]:
    """Edge costs laid out like :func:`adjacency`: (neighbor, cost) pairs in id order.

    The rule of :func:`edge_costs` and of :func:`graph.settle`'s relaxation,
    bit for bit at either end of an edge: the sum f(x) + f(y) commutes.
    """
    if f.role != "rhs_f":
        raise FieldError(f"edge costs need a rhs_f field, got role {f.role!r}")
    return {x: tuple([(y, 0.5 * (f[x] + f[y]) * length) for y, length in nbrs])
            for x, nbrs in adjacency(g).items()}


def reference_slopes(g: MetricGraph, u: ScalarField, x: str) -> SlopeTriple:
    """One-hop slope triple of u at x; raises at isolated vertices."""
    nbrs = adjacency(g)[x]
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


def reference_check_monge(
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
        s = reference_slopes(g, u, x).sub_slope
        if mode == "solution":
            r = abs(s - f[x])
        elif mode == "sub":
            r = max(s - f[x], 0.0)
        else:
            r = max(f[x] - s, 0.0)
        residuals[x] = r
    name = {"solution": "monge", "sub": "monge-sub", "super": "monge-super"}[mode]
    return CheckReport(name=name, tol=tol, residuals=residuals)


def reference_check_c_subsolution(
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


def reference_check_c_supersolution(
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


def reference_check_regularity(g: MetricGraph, u: ScalarField, tol: float | None = None) -> CheckReport:
    """Regularity check: slope minus sub-slope at interior vertices.

    Vertices adjacent to the boundary are excluded from the verdict and
    reported separately; their one-sided stencils inflate the super-slope.
    """
    if tol is None:
        tol = BASE_TOL
    residuals: dict[str, float] = {}
    excluded: dict[str, float] = {}
    for x in g.interior:
        t = reference_slopes(g, u, x)
        r = t.slope - t.sub_slope
        if any(y in g.boundary for y, _ in adjacency(g)[x]):
            excluded[x] = r
        else:
            residuals[x] = r
    return CheckReport(name="regularity", tol=tol, residuals=residuals, excluded=excluded)


def reference_check_hamiltonian_monge(
    g: MetricGraph,
    u: ScalarField,
    H: HamiltonianSpec,
    tol: float = 1e-9,
) -> CheckReport:
    """Monge residuals for a general Hamiltonian: |H(x, u(x), sub_slope(x))|."""
    residuals = {
        x: abs(H(x, u[x], reference_slopes(g, u, x).sub_slope)) for x in g.interior
    }
    return CheckReport(name="hamiltonian-monge", tol=tol, residuals=residuals)


def reference_consistency_probe(ids, dist, edges, sample_pairs=256, seed=DEFAULT_SEED):
    """``induce_intrinsic``'s probe with every search unbounded: one full
    string-keyed label setting per sampled source.

    The seeded stream first runs the library's chord validation, as
    ``induce_intrinsic`` does, so the same pairs are drawn.  Returns
    (buckets, pairs_sampled, max_ratio), or raises the error the library
    raises; ``ids``, ``edges`` and ``sample_pairs`` must pass its input checks.
    """
    rng = random.Random(seed)
    _validate_chord(ids, dist, edges, rng, samples=max(32, sample_pairs // 2))
    g = _finalize(ids, edges, [dist(a, b) for a, b in edges], (), None)
    vs = g.vertices
    pairs = set(list(g.edges)[: 4 * sample_pairs])
    target = min(len(pairs) + sample_pairs, len(vs) * (len(vs) - 1) // 2)
    attempts = 0
    while len(pairs) < target and attempts < 64 * sample_pairs:
        a, b = rng.choice(vs), rng.choice(vs)
        attempts += 1
        if a != b:
            pairs.add(edge_key(a, b))
    samples = []
    source = None
    for a, b in sorted(pairs):
        if a != source:
            source, labels = a, fixpoint_labels(adjacency(g), {a: 0.0})
        d_chord, d_int = dist(a, b), labels[b]
        if d_chord > d_int + ABS_TOL + REL_TOL * d_int:
            raise MetricError(f"chord distance exceeds intrinsic distance at ({a!r}, {b!r}): {d_chord} > {d_int}")
        samples.append((d_chord, d_int))
    samples.sort()
    nb = min(8, len(samples))
    buckets = []
    for i in range(nb):
        chunk = samples[(i * len(samples)) // nb : ((i + 1) * len(samples)) // nb]
        ratios = [di / dc for dc, di in chunk if dc > 0.0]
        if ratios:
            buckets.append((chunk[-1][0], max(ratios), sum(ratios) / len(ratios), len(ratios)))
    return tuple(buckets), len(samples), max((b[1] for b in buckets), default=0.0)


def distance_oracle(graph, source):
    """Shortest-path distances from one vertex via value iteration."""
    return value_iteration(graph, dict(graph.edges), {source: 0.0})


def all_pairs_distance_oracle(graph):
    return {v: distance_oracle(graph, v) for v in graph.vertices}


def backtrack_witness(graph, source, target):
    """Witness path source -> target by walking back from target along exact
    label equalities, taking the first neighbor in id order each step.  Can
    cycle when an edge is absorbed in rounding (b and c each the other's
    parent); the walk is cut after |V| steps with an AssertionError."""
    dist = distance_oracle(graph, source)
    path = [target]
    while path[-1] != source:
        v = path[-1]
        path.append(next(y for y, c in adjacency(graph)[v] if dist[v] == dist[y] + c))
        if len(path) > len(graph.vertices):
            raise AssertionError("backtrack did not terminate")
    return path[::-1]


def path_length_sum(points):
    """Direct summation of consecutive Euclidean distances."""
    total = 0.0
    for p, q in zip(points, points[1:]):
        total += math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))
    return total


def trapezoid_path_cost(graph, f_values, path):
    """Direct trapezoid sum along a vertex path, independent of fields.edge_costs."""
    total = 0.0
    for a, b in zip(path, path[1:]):
        length = graph.edge_length(a, b)
        total += 0.5 * (f_values[a] + f_values[b]) * length
    return total


def retry_loop_exits(graph, costs, seeds, u):
    """Exit vertices by repeated passes over vertices sorted by (u, id).

    A seed whose label equals its datum exits at itself; any other x takes
    the exit of its first neighbor in id order that already has one and
    satisfies u(x) == fl(u(y) + c).  Vertices left without an exit are
    retried in the next pass until every vertex has one.
    """
    exit_vertex = {}
    pending = sorted(graph.vertices, key=lambda v: (u[v], v))
    while pending:
        remaining = []
        for x in pending:
            if x in seeds and u[x] == seeds[x]:
                exit_vertex[x] = x
                continue
            for y, _length in adjacency(graph)[x]:
                c = costs[(x, y) if x <= y else (y, x)]
                if u[x] == u[y] + c and y in exit_vertex:
                    exit_vertex[x] = exit_vertex[y]
                    break
            else:
                remaining.append(x)
        if len(remaining) == len(pending):
            raise AssertionError(f"no optimal exit route found at {remaining[0]!r}")
        pending = remaining
    return exit_vertex


def _trapezoid_costs(graph, f_values):
    return {
        (a, b): 0.5 * (f_values[a] + f_values[b]) * length
        for (a, b), length in graph.edges.items()
    }


def pairwise_boundary_certificate(problem, u):
    """Boundary-consistency verdicts by explicit pair loops.

    One distance search per boundary vertex (value iteration), then every
    boundary pair for the Lipschitz constant L, the strong condition and the
    curve condition, and every (interior, boundary) pair for the one-sided
    bound with constant max(L, sup f) and, when the strong condition holds,
    the two-sided bound with sup f.  Each inequality carries the tolerance
    ABS_TOL + REL_TOL * rhs.  Returns (L, zeta_ok, curve_ok, weak_ok,
    two_sided_ok) with two_sided_ok None when the strong condition fails.
    """
    abs_tol, rel_tol = 1e-12, 1e-9
    g = problem.graph
    zeta = problem.zeta
    f_values = problem.f.values
    inf_f = min(f_values.values())
    sup_f = max(f_values.values())

    b_list = sorted(g.boundary)
    dist_from = {y: distance_oracle(g, y) for y in b_list}

    lipschitz_L = 0.0
    zeta_ok = True
    for i, y1 in enumerate(b_list):
        for y2 in b_list[i + 1:]:
            d = dist_from[y1][y2]
            if d <= 0.0:
                continue
            lipschitz_L = max(lipschitz_L, abs(zeta[y1] - zeta[y2]) / d)
            if abs(zeta[y1] - zeta[y2]) > d * inf_f + abs_tol + rel_tol * d * inf_f:
                zeta_ok = False

    costs = _trapezoid_costs(g, f_values)
    curve_ok = True
    for y1 in b_list:
        cost_from = value_iteration(g, costs, {y1: 0.0})
        for y2 in b_list:
            if y2 != y1 and zeta[y2] - zeta[y1] > cost_from[y2] + abs_tol + rel_tol * abs(cost_from[y2]):
                curve_ok = False

    weak_constant = max(lipschitz_L, sup_f)
    weak_ok = True
    two_sided_ok = True if zeta_ok else None
    for y in b_list:
        for x in g.interior:
            d = dist_from[y][x]
            if d <= 0.0:
                continue
            if u[x] - zeta[y] > d * weak_constant + abs_tol + rel_tol * d * weak_constant:
                weak_ok = False
            if zeta_ok and abs(u[x] - zeta[y]) > d * sup_f + abs_tol + rel_tol * d * sup_f:
                two_sided_ok = False
    return lipschitz_L, zeta_ok, curve_ok, weak_ok, two_sided_ok


# The boundary certificate as it stood before its edge pass: one min-plus
# solve per verdict.  Copied verbatim, helpers included and renamed, as the
# bit-identity reference for every BoundaryCertificate field.


def _reference_boundary_seeds(g: MetricGraph, data) -> list[tuple[int, float]]:
    """:func:`settle` seeds: data[y] at each boundary vertex y."""
    return [(g.index[y], data[y]) for y in g.boundary]


def _reference_undercuts(
    g: MetricGraph, seeds: dict[str, float], fl=None, scale: float = 1.0
) -> tuple[list[float], list[tuple[float, float]]]:
    """One multi-source solve, plus (zeta(y) - zeta(source), path length)
    for every seed y whose label another seed undercuts.

    The source and the path come from the :func:`settle` parents.  Each
    rise / length is the increment ratio of a realized boundary pair over a
    path no shorter than their distance, so it is at most the boundary
    Lipschitz constant L.
    """
    labels, order, parent = settle(g, _reference_boundary_seeds(g, seeds), fl, scale)
    index = g.index
    if all(labels[index[y]] == zy for y, zy in seeds.items()):
        return labels, []
    names = g.vertices
    source, length = list(range(len(names))), [0.0] * len(names)
    for x in order:
        y = parent[x]
        if 0 <= y != x:  # -1: unreached
            source[x], length[x] = source[y], length[y] + g.lens[x][g.nbrs[x].index(y)]
    rises = [(zy - seeds[names[source[i]]], length[i])
             for y, zy in seeds.items() if source[i := index[y]] != i]
    return labels, rises


def _reference_steepest(rises: list[tuple[float, float]], floor: float) -> tuple[float, tuple[float, float] | None]:
    """Largest rise / length above floor, with the pair that attains it."""
    best, witness = floor, None
    for rise, length in rises:
        if rise / length > best:
            best, witness = rise / length, (rise, length)
    return best, witness


def _reference_lipschitz_on_boundary(
    g: MetricGraph, seeds: dict[str, float], rises: list[tuple[float, float]]
) -> tuple[float, tuple[float, float] | None]:
    """Exact max over boundary pairs of (zeta(y) - zeta(y')) / d(y, y').

    Dinkelbach's ratio iteration, started from the largest ratio in
    ``rises`` (realized pairs, so K starts at most L): solve with weights
    K * length and seeds zeta, and raise K to the largest ratio of the
    undercut seeds.  While K < L the pair attaining L is undercut with a
    ratio above K, so the iteration stops exactly when K is the maximal
    ratio.  Returns K and the (rise, length) pair that attains it, None
    for K = 0.
    """
    k, witness = _reference_steepest(rises, 0.0)
    if k == 0.0 and min(seeds.values()) == max(seeds.values()):
        return 0.0, None  # constant data has no increment
    while True:
        _labels, rises = _reference_undercuts(g, seeds, scale=k)
        best, steeper = _reference_steepest(rises, k)
        if steeper is None:
            return k, witness
        k, witness = best, steeper


def reference_boundary_consistency(p: DirichletProblem, vf: ValueFunction) -> BoundaryCertificate:
    """Certify the boundary-consistency bounds for a solved problem.

    Every verdict has the form A(x) - B(y) <= K * d(x, y) * (1 + REL_TOL) +
    ABS_TOL over pairs of vertices.  Over the reals that is one min-plus
    statement, A(x) <= min_y (B(y) + K * (1 + REL_TOL) * d(x, y)) +
    ABS_TOL, so each verdict costs one multi-source label-setting solve
    with weights K * (1 + REL_TOL) * length and seeds B on the boundary.

    - ``curve_condition_ok``: boundary increments are bounded by the cheapest
      connecting path cost (A = B = zeta, the cost adjacency scaled by
      1 + REL_TOL in place of K * length, judged on the boundary).
    - ``zeta_lipschitz_ok``: zeta is (inf f)-Lipschitz on the boundary
      (A = B = zeta, K = inf f, judged on the boundary).  It holds when
      L <= inf f and fails when the pair attaining L violates it; only in
      between does it take a solve.
    - ``weak_bound_ok``: the one-sided bound u(x) - zeta(y) <= d(x, y) * K
      with K = max(L, sup f) at interior x (A = u, B = zeta).  A solver
      output meets it by construction (u(x) <= zeta(y) + path cost <=
      zeta(y) + sup f * d), so it is a regression guard.
    - ``two_sided_ok``: only when the strong condition holds, the one-sided
      bound with K = sup f (the weak solve when L <= sup f) plus the reverse
      bound zeta(y) - u(x) <= d(x, y) * sup f (A = -u, B = -zeta); None
      otherwise.

    ``lipschitz_L``, the boundary Lipschitz constant of zeta, comes from
    Dinkelbach's ratio iteration with weights K * length, started from the
    pairs the curve solve links: no solve for constant zeta, usually one or
    two otherwise.
    """
    g = p.graph
    zeta = {y: p.zeta[y] for y in sorted(g.boundary)}
    u = vf.u.values
    inf_f = min(p.f.values.values())
    sup_f = max(p.f.values.values())
    slack = 1.0 + REL_TOL

    def holds(scale: float, seeds, a, judged) -> bool:
        labels = settle(g, _reference_boundary_seeds(g, seeds), scale=scale)[0]
        return all(a[x] <= labels[g.index[x]] + ABS_TOL for x in judged)

    def value_bound(k: float, seeds, a) -> bool:
        return holds(k * slack, seeds, a, g.interior)

    curve_labels, rises = _reference_undercuts(g, zeta, field_list(g, p.f), slack)
    curve_ok = all(zy <= curve_labels[g.index[y]] + ABS_TOL for y, zy in zeta.items())

    lipschitz_L, witness = _reference_lipschitz_on_boundary(g, zeta, rises)
    if lipschitz_L <= inf_f:
        zeta_ok = True  # every increment is at most L * d <= inf f * d
    elif witness[0] > witness[1] * inf_f * slack + ABS_TOL:
        zeta_ok = False  # the pair that attains L violates the condition
    else:
        zeta_ok = holds(inf_f * slack, zeta, zeta, zeta)

    weak_constant = max(lipschitz_L, sup_f)
    weak_ok = value_bound(weak_constant, zeta, u)
    two_sided_ok: bool | None = None
    if zeta_ok:
        upper_ok = weak_ok if weak_constant == sup_f else value_bound(sup_f, zeta, u)
        neg_zeta = {y: -zy for y, zy in zeta.items()}
        neg_u = {x: -ux for x, ux in u.items()}
        two_sided_ok = upper_ok and value_bound(sup_f, neg_zeta, neg_u)

    return BoundaryCertificate(
        lipschitz_L=lipschitz_L,
        inf_f=inf_f,
        sup_f=sup_f,
        zeta_lipschitz_ok=zeta_ok,
        curve_condition_ok=curve_ok,
        weak_bound_ok=weak_ok,
        weak_bound=weak_constant,
        two_sided_ok=two_sided_ok,
    )


def lipschitz_certificate_rows(graph, u, f, certificate_centers=6):
    """Rows (center, radius, pairs, worst) of a local Lipschitz certificate,
    from full distance searches.  A u that passes the along-curves
    subsolution check at tol 0 has worst 0 up to rounding.

    Centers are every (|V| // centers)-th vertex in id order; per center the
    members are the vertices at distance < r = 2 h_max, sup f is taken over
    distance < 2r, and worst is the largest |u(x) - u(y)| - d(x, y) * sup f
    over member pairs (0 when none is positive).
    """
    n = len(graph.vertices)
    stride = max(1, n // max(1, certificate_centers))
    radius = 2.0 * graph.h_max
    rows = []
    for x0 in graph.vertices[::stride][:certificate_centers]:
        d0 = distance_oracle(graph, x0)
        members = sorted(v for v in graph.vertices if d0[v] < radius)
        supf = max(f[v] for v in graph.vertices if d0[v] < 2.0 * radius)
        worst = 0.0
        pairs = 0
        for i, x in enumerate(members):
            dist = distance_oracle(graph, x)
            for y in members[i + 1:]:
                worst = max(worst, abs(u[x] - u[y]) - dist[y] * supf)
                pairs += 1
        rows.append((x0, radius, pairs, worst))
    return rows


def reference_reduce_h(H, x, rho, tol=1e-9):
    """The bisection reduction as the library computed it before its fast
    path: every evaluation through ``HamiltonianSpec.__call__``."""
    if not (tol > 0.0):
        raise HamiltonianError(f"bisection tol must be positive, got {tol!r}")
    h0 = H(x, rho, 0.0)
    if h0 >= 0.0:
        return 0.0
    lo = 0.0
    hi = 1.0
    val = H(x, rho, hi)
    while val <= 0.0:
        if val == 0.0:
            return hi  # bracket endpoint is the root
        lo = hi
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise CoercivityError(
                f"no sign change of {H.name!r} up to p = {BRACKET_CAP} at (x={x!r}, rho={rho})"
            )
        val = H(x, rho, hi)
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        val = H(x, rho, mid)
        if val == 0.0:
            return mid
        if val > 0.0:
            hi = mid
        else:
            lo = mid
        if abs(val) <= tol and hi - lo <= 1e-13 * max(1.0, hi):
            return 0.5 * (lo + hi)
    raise HamiltonianError(
        f"bisection for {H.name!r} stalled at (x={x!r}, rho={rho}); bracket [{lo}, {hi}]"
    )


def reference_reduce_field(H, g, rho, tol=1e-9):
    """Vertexwise :func:`reference_reduce_h` with residuals, no reuse."""
    values, residuals, flagged = {}, {}, []
    for x in g.vertices:
        hx = reference_reduce_h(H, x, rho[x], tol)
        values[x] = hx
        residuals[x] = abs(H(x, rho[x], hx))
        if residuals[x] > tol:
            flagged.append(x)
    return ReductionField(
        h=field_on(g, values, "rhs_f"), residuals=residuals, flagged=tuple(flagged), tol=tol
    )


def reference_solve_general(g, H, zeta, tol=1e-8, max_iter=100, bisect_tol=1e-9):
    """Picard iteration with a full reduction and a full Dirichlet solve
    on every sweep; returns (value function, final reduction, sweeps) or
    raises ConvergenceError with the change history."""
    validation = validate_hamiltonian(H, g)
    if not validation.passed:
        raise HamiltonianError(validation.describe())

    def sweep(rho):
        reduction = reference_reduce_field(H, g, rho, bisect_tol)
        return solve_dirichlet(DirichletProblem(g, reduction.h, zeta, threshold=0.0))

    vf = sweep({v: 0.0 for v in g.vertices})
    if H.rho_monotonicity == "independent":
        return vf, reference_reduce_field(H, g, vf.u.values, bisect_tol), 1
    history = []
    for iteration in range(2, max_iter + 1):
        vf_next = sweep(vf.u.values)
        change = max(abs(vf_next.u[v] - vf.u[v]) for v in g.vertices)
        history.append(change)
        vf = vf_next
        if change <= tol:
            return vf, reference_reduce_field(H, g, vf.u.values, bisect_tol), iteration
    raise ConvergenceError(
        f"Picard iteration did not reach tol {tol} in {max_iter} iterations "
        f"(last change {history[-1] if history else math.nan})",
        history,
    )
