"""Independent oracles the test suite checks the library against.

These deliberately avoid the library's solver path: values come from
exhaustive Jacobi value iteration (Bellman-Ford style full sweeps from the
seeds), distances from the same iteration with edge lengths as costs, and
path sums from direct summation.
"""

from __future__ import annotations

import math


def value_iteration(graph, costs, seeds):
    """Exhaustive Bellman-Ford value iteration to the float fixpoint.

    u0 = seeds (inf elsewhere); each synchronous sweep relaxes every vertex
    against all neighbors; stops when a full sweep changes nothing.
    """
    u = {v: math.inf for v in graph.vertices}
    for v, s in seeds.items():
        u[v] = min(u[v], s)
    while True:
        new = {}
        for x in graph.vertices:
            best = seeds.get(x, math.inf)
            for y, _length in graph.neighbors(x):
                c = costs[(x, y) if x <= y else (y, x)]
                cand = u[y] + c
                if cand < best:
                    best = cand
            new[x] = best if best < u[x] else u[x]
        if new == u:
            return u
        u = new


def distance_oracle(graph, source):
    """Shortest-path distances from one vertex via value iteration."""
    return value_iteration(graph, dict(graph.edges), {source: 0.0})


def all_pairs_distance_oracle(graph):
    return {v: distance_oracle(graph, v) for v in graph.vertices}


def restricted_distance_oracle(graph, subset, source):
    """Value iteration on the induced subgraph (paths stay inside subset)."""
    members = set(subset)
    u = {v: math.inf for v in members}
    u[source] = 0.0
    while True:
        changed = False
        for x in sorted(members):
            best = 0.0 if x == source else math.inf
            for y, length in graph.neighbors(x):
                if y in members:
                    cand = u[y] + length
                    if cand < best:
                        best = cand
            if best < u[x]:
                u[x] = best
                changed = True
        if not changed:
            return u


def path_length_sum(points):
    """Direct summation of consecutive Euclidean distances."""
    total = 0.0
    for p, q in zip(points, points[1:]):
        total += math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))
    return total


def trapezoid_path_cost(graph, f_values, path):
    """Direct trapezoid sum along a vertex path, independent of fields.edge_cost."""
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
            for y, _length in graph.neighbors(x):
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
