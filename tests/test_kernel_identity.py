"""The integer label-setting kernel and the checks against the string-keyed reference.

``oracles.fixpoint_labels`` and ``oracles.settle_parents`` are the heap loop
on vertex ids and the parent walk over its settle order that
``graph.settle`` replaced.  Labels and their dict order, exits and their
order, attainment, distances, balls and shortest-path witnesses must all
come out the same, every float bit for bit.  The ``oracles.reference_*``
checks are the string-keyed slope and cost loops that the checks on the
CSR lists replaced; every report must match them the same way.
"""

from __future__ import annotations

import math
import random
from functools import partial

import pytest

from eikograph import (
    DirichletProblem,
    ball,
    builtin_hamiltonian,
    check_c_subsolution,
    check_c_supersolution,
    check_hamiltonian_monge,
    check_monge,
    check_regularity,
    distances_from,
    field_on,
    fixture,
    intrinsic_distance,
    slopes,
    solve_dirichlet,
)
from eikograph.fields import field_list
from eikograph.graph import settle

from oracles import (
    cost_adjacency,
    fixpoint_labels,
    reference_check_c_subsolution,
    reference_check_c_supersolution,
    reference_check_hamiltonian_monge,
    reference_check_monge,
    reference_check_regularity,
    reference_slopes,
    settle_parents,
)

FIXTURES = {  # the circle has no boundary, so the solve cases use an 8-connected grid
    "binary_tree": ("binary_tree", {"depth": 6}),
    "circle": ("circle", {"n": 48}),
    "gasket": ("gasket", {"level": 4}),
    "grid": ("grid", {"n": 12}),
    "grid8": ("grid", {"n": 9, "connectivity": 8}),
    "interval": ("interval", {"n": 60}),
}


def graph(name):
    kind, params = FIXTURES[name]
    return fixture(kind, **params).graph


def bits(values):
    """Items with each float as its hex string: equal iff bit-identical, order included."""
    return [(k, v.hex()) for k, v in values.items()]


def reference_solve(p):
    """Labels, exits and attainment the way the string-keyed solver made them."""
    g = p.graph
    adjacency = cost_adjacency(g, p.f)
    seeds = {y: p.zeta[y] for y in g.boundary}
    u = fixpoint_labels(adjacency, seeds)
    exit_vertex = {}
    for x, y in settle_parents(adjacency, seeds, u).items():
        exit_vertex[x] = x if y == x else exit_vertex[y]
    attained = {y: u[y] == seeds[y] for y in sorted(g.boundary)}
    return u, exit_vertex, attained


def middle_band(g):
    """A sixth of the vertices, contiguous in the first coordinate."""
    order = sorted(g.vertices, key=lambda v: (g.coords[v][0], v))
    width = max(1, len(order) // 6)
    start = (len(order) - width) // 2
    return set(order[start : start + width])


def make_problem(g, data, seed):
    rng = random.Random(seed)
    f_vals = {v: rng.uniform(0.5, 2.0) for v in g.vertices}
    threshold = 1e-9
    if data == "zero_band":
        threshold = 0.0
        f_vals.update(dict.fromkeys(middle_band(g), 0.0))
    elif data == "constant":  # exact ties between equal-length routes
        f_vals = dict.fromkeys(g.vertices, 1.0)
    elif data == "ties":  # integer zeta; f = 1, f in {1, 2} or f = 0 at seeds 0, 1, 2
        threshold = 0.0
        f_vals = {v: (1.0, rng.choice((1.0, 2.0)), 0.0)[seed] for v in g.vertices}
    draw = (lambda: float(rng.randrange(4))) if data == "ties" else (lambda: rng.uniform(0.0, 1.0))
    zeta = {y: draw() for y in sorted(g.boundary)}
    return DirichletProblem(g, field_on(g, f_vals, "rhs_f"), field_on(g, zeta, "boundary_zeta"), threshold)


@pytest.mark.parametrize("data", ["random", "zero_band", "constant", "ties"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(set(FIXTURES) - {"circle"}))
def test_solve_matches_string_keyed_reference(name, seed, data):
    p = make_problem(graph(name), data, seed)
    vf = solve_dirichlet(p)
    u, exit_vertex, attained = reference_solve(p)
    assert bits(vf.u.values) == bits(u)
    assert list(vf.exit_vertex.items()) == list(exit_vertex.items())
    assert list(vf.attained.items()) == list(attained.items())


def tie_events(p):
    """The ties of the parent rule that p's reference run meets: "seed", a
    seed at its own datum that a neighbour settled before it offers exactly
    that datum, and "later", a vertex that a neighbour offers its label after
    a neighbour of larger index offered the same."""
    adjacency = cost_adjacency(p.graph, p.f)
    u, _, _ = reference_solve(p)
    rank = {v: i for i, v in enumerate(u)}
    events = set()
    for x, ux in u.items():
        offers = [y for _, y in sorted((rank[y], y) for y, c in adjacency[x]
                                       if rank[y] < rank[x] and u[y] + c == ux)]
        if offers and x in p.graph.boundary and ux == p.zeta[x]:
            events.add("seed")
        if offers != sorted(offers):
            events.add("later")
    return events


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["grid", "grid8"])
def test_ties_data_meets_both_ties(name, seed):
    """The "ties" data holds both ties that ``settle`` keeps its parents
    through on the unit grids, at f = 1, f in {1, 2} and f = 0; but at f = 1
    on the 4-grid every label is an integer, so all of a vertex's offers
    come from one label and arrive in id order."""
    want = {"seed"} if (name, seed) == ("grid", 0) else {"seed", "later"}
    assert tie_events(make_problem(graph(name), "ties", seed)) == want


@pytest.mark.parametrize("seed", range(2))  # seed 2 has f = 0: one label, and every vertex at it
@pytest.mark.parametrize("name", ["grid", "grid8"])
def test_bounded_run_stopping_on_a_tied_label(name, seed):
    """A limit equal to a label that several vertices share settles them
    all, with the reference's labels, order and parents; every vertex left
    unsettled, reached or not, has parent -1."""
    p = make_problem(graph(name), "ties", seed)
    g, vs = p.graph, p.graph.vertices
    adjacency = cost_adjacency(g, p.f)
    data = {y: p.zeta[y] for y in g.boundary}
    labels = sorted(fixpoint_labels(adjacency, data).values())
    limit = next(d for d in labels[len(labels) // 3:] if labels.count(d) > 1)
    want = fixpoint_labels(adjacency, data, limit=limit)
    seeds = [(g.index[y], d) for y, d in data.items()]
    dist, order, parent = settle(g, seeds, field_list(g, p.f), limit=limit)
    assert [(vs[x], dist[x].hex()) for x in order] == [(v, d.hex()) for v, d in want.items()]
    assert {vs[x]: vs[parent[x]] for x in order} == settle_parents(adjacency, data, want)
    assert sum(d == limit for d in want.values()) > 1 and len(order) < len(vs)
    assert [x for x in range(len(vs)) if parent[x] >= 0] == sorted(order)


def outcome(call):
    """("ok", result) or (exception type, args): what a call returns or raises."""
    try:
        return "ok", call()
    except (KeyError, TypeError) as exc:
        return type(exc), exc.args


@pytest.mark.parametrize("data", ["random", "zero_band", "constant", "ties"])
@pytest.mark.parametrize("name", sorted(set(FIXTURES) - {"circle"}))
def test_exit_vertex_behaves_as_the_reference_dict(name, data):
    """The solver's exit_vertex view answers every read as the reference's
    plain dict does: items, order, lookups, errors, len, repr and ==."""
    p = make_problem(graph(name), data, 0)
    view = solve_dirichlet(p).exit_vertex
    _, want, _ = reference_solve(p)
    assert list(dict(view).items()) == list(want.items())  # dict() reads keys() and each lookup
    assert list(view) == list(want) and list(view.values()) == list(want.values())
    assert len(view) == len(want) and repr(view) == repr(want)
    assert view == want and want == view and not view != want
    some = next(iter(want))
    assert view != {**want, some: "nowhere"} and view != dict(list(want.items())[1:])
    vs = p.graph.vertices
    for key in [*vs, "nowhere", "", vs[0] + " ", 0, None, (vs[0],), [vs[0]], {vs[0]: 1}]:
        for read in (lambda m: m[key], lambda m: m.get(key), lambda m: m.get(key, 7), lambda m: key in m):
            assert outcome(lambda: read(view)) == outcome(lambda: read(want)), key


@pytest.mark.parametrize("data", ["random", "zero_band", "constant", "ties"])
@pytest.mark.parametrize("name", sorted(set(FIXTURES) - {"circle"}))
def test_exit_vertex_takes_a_write_as_the_reference_dict(name, data):
    """A write to a known id reads back as it does from a dict, in place; an
    unknown id or exit raises KeyError and changes nothing."""
    p = make_problem(graph(name), data, 0)
    view = solve_dirichlet(p).exit_vertex
    _, want, _ = reference_solve(p)
    x, y = list(want)[len(want) // 2], p.graph.vertices[0]
    view[x] = want[x] = y
    assert view[x] == view.get(x) == y and list(view.items()) == list(want.items())
    for key, value in (("nowhere", y), (x, "nowhere"), (0, y)):
        with pytest.raises(KeyError):
            view[key] = value
    assert list(view.items()) == list(want.items())


@pytest.mark.parametrize("data", ["random", "zero_band", "constant", "ties"])
@pytest.mark.parametrize("name", sorted(set(FIXTURES) - {"circle"}))
def test_u_values_behaves_as_the_reference_dict(name, data):
    """The solver's u.values view answers every read as the reference's
    plain dict does: items, order, lookups, errors, len, repr and ==."""
    p = make_problem(graph(name), data, 0)
    view = solve_dirichlet(p).u.values
    want, _, _ = reference_solve(p)
    assert bits(dict(view)) == bits(want)  # dict() reads keys() and each lookup
    assert list(view) == list(want) and bits(view) == bits(want)
    assert len(view) == len(want) and repr(view) == repr(want)
    assert view == want and want == view and not view != want
    some = next(iter(want))
    assert view != {**want, some: want[some] + 1.0} and view != dict(list(want.items())[1:])
    vs = p.graph.vertices
    for key in [*vs, "nowhere", "", vs[0] + " ", 0, None, (vs[0],), [vs[0]], {vs[0]: 1}]:
        for read in (lambda m: m[key], lambda m: m.get(key), lambda m: m.get(key, 7), lambda m: key in m):
            assert outcome(lambda: read(view)) == outcome(lambda: read(want)), key


@pytest.mark.parametrize("data", ["random", "zero_band", "constant", "ties"])
@pytest.mark.parametrize("name", sorted(set(FIXTURES) - {"circle"}))
def test_u_values_takes_a_write_as_the_reference_dict(name, data):
    """A write to a known id reads back as it does from a dict, in place and
    in the field's list; an unknown id raises KeyError and changes nothing."""
    p = make_problem(graph(name), data, 0)
    u = solve_dirichlet(p).u
    want, _, _ = reference_solve(p)
    x = list(want)[len(want) // 2]
    u.values[x] = want[x] = math.nextafter(want[x], math.inf)
    assert u.values[x] == u.values.get(x) == u[x] == want[x] and bits(u.values) == bits(want)
    assert field_list(p.graph, u)[p.graph.index[x]] == want[x]
    for key in ("nowhere", 0):
        with pytest.raises(KeyError):
            u.values[key] = 1.0
    assert bits(u.values) == bits(want)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_distances_balls_and_witnesses_match_string_keyed_reference(name, seed):
    g = graph(name)
    rng = random.Random(seed)
    sources = rng.sample(g.vertices, 3)
    reference = fixpoint_labels(g.adjacency, dict.fromkeys(sources, 0.0))
    assert bits(distances_from(g, sources)) == bits(reference)

    x = sources[0]
    labels = fixpoint_labels(g.adjacency, {x: 0.0})
    parent = settle_parents(g.adjacency, {x: 0.0}, labels)
    for y in rng.sample(g.vertices, 5):
        d, curve = intrinsic_distance(g, x, y)
        path = [y]
        while path[-1] != x:
            path.append(parent[path[-1]])
        assert d.hex() == labels[y].hex()
        assert curve.vertices == tuple(reversed(path))

    median = sorted(labels.values())[len(labels) // 2]
    for r in (g.h_max, 2.5 * g.h_max, median):
        bounded = fixpoint_labels(g.adjacency, {x: 0.0}, limit=r)
        want = {v: dv for v, dv in sorted(bounded.items()) if dv < r}
        assert bits(ball(g, x, r)) == bits(want)


@pytest.mark.parametrize("scale", [1.0 + 1e-9, 0.3, 7.0])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_scaled_costs_match_string_keyed_reference(name, scale):
    """Costs computed while relaxing equal k * w over a precomputed adjacency,
    with and without a field: the weights the boundary certificate solves on."""
    g = graph(name)
    rng = random.Random(len(g.vertices))
    f = field_on(g, {v: rng.uniform(0.5, 2.0) for v in g.vertices}, "rhs_f")
    data = {v: rng.uniform(0.0, 1.0) for v in rng.sample(g.vertices, 4)}
    seeds = [(g.index[v], d) for v, d in data.items()]
    for fl, weights in ((None, g.adjacency), (field_list(g, f), cost_adjacency(g, f))):
        scaled = {x: tuple((y, scale * w) for y, w in nbrs) for x, nbrs in weights.items()}
        labels = fixpoint_labels(scaled, data)
        parents = settle_parents(scaled, data, labels)
        dist, order, parent = settle(g, seeds, fl, scale)
        assert [(g.vertices[x], dist[x].hex()) for x in order] == [(v, d.hex()) for v, d in labels.items()]
        assert {g.vertices[x]: g.vertices[parent[x]] for x in order} == parents


def report_bits(report):
    """Everything a check report carries, each float as its hex string."""
    out = [report.name, report.tol.hex(), bits(report.residuals), bits(report.excluded)]
    for key, value in report.details.items():
        if key == "witness":
            out.append((key, value.vertices, [c.hex() for c in value.cumlen]))
        else:
            out.append((key, value.hex()))
    return out


def check_inputs(g, seed, kind):
    """(u, f) for the checks: u is random, random on a coarse dyadic lattice
    (exact ties between neighbours), the solver's on random or constant
    data (exact ties between routes), or mostly signed zeros in u and f."""
    rng = random.Random(seed)
    if kind in ("solver", "solver_constant"):
        p = make_problem(g, "random" if kind == "solver" else "constant", seed)
        return solve_dirichlet(p).u, p.f
    if kind == "signed_zero":  # u(x) = -0.0 against u(y) + cost = 0.0 clamps r = -0.0
        f = field_on(g, {v: rng.choice((0.0, -0.0, 1.0)) for v in g.vertices}, "rhs_f")
        values = {v: rng.choice((0.0, -0.0, 0.25)) for v in g.vertices}
        values.update(dict.fromkeys(sorted(g.boundary)[:1], -0.0))
        return field_on(g, values, "solution_u"), f
    f = field_on(g, {v: rng.uniform(0.5, 2.0) for v in g.vertices}, "rhs_f")
    if kind == "random":
        values = {v: rng.uniform(0.0, 3.0) for v in g.vertices}
    else:
        values = {v: rng.randrange(16) * 0.125 for v in g.vertices}
    return field_on(g, values, "solution_u"), f


def check_calls():
    """(check, string-keyed reference) pairs, each called as (g, u, f)."""
    H = builtin_hamiltonian("affine-rho")
    return [
        *((partial(check_monge, mode=mode), partial(reference_check_monge, mode=mode))
          for mode in ("solution", "sub", "super")),
        (check_c_subsolution, reference_check_c_subsolution),
        (check_c_supersolution, reference_check_c_supersolution),
        (partial(check_c_supersolution, eps=-0.25), partial(reference_check_c_supersolution, eps=-0.25)),
        (lambda g, u, f: check_regularity(g, u), lambda g, u, f: reference_check_regularity(g, u)),
        (lambda g, u, f: check_hamiltonian_monge(g, u, H),
         lambda g, u, f: reference_check_hamiltonian_monge(g, u, H)),
    ]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name,kind", [
    (name, kind) for name in sorted(FIXTURES)
    for kind in ("random", "coarse", "solver", "solver_constant", "signed_zero")
    if name != "circle" or not kind.startswith("solver")  # the circle has no boundary to solve from
])
def test_checks_match_string_keyed_reference(name, kind, seed):
    """Every check, run cold, warm, in reverse order and on fields over an
    equal but distinct graph, matches the reference bit for bit."""
    g = graph(name)
    u, f = check_inputs(g, seed, kind)
    calls = check_calls()
    want = [report_bits(reference(g, u, f)) for _, reference in calls]
    g2 = graph(name)
    assert g2 == g and g2 is not g

    def on(graph_, field):
        return field_on(graph_, field.values, field.role)

    u2, f2 = on(g2, u), on(g2, f)
    runs = [  # (graph passed, u, f, order of the calls)
        (g, u, f, range(len(calls))),  # cold
        (g, u, f, range(len(calls))),  # warm
        (g, on(g, u), on(g, f), range(len(calls) - 1, -1, -1)),  # cold, in reverse order
        (g, u2, f2, range(len(calls))),  # fields over another graph: computed as without caches
        (g2, u2, f2, range(len(calls))),
        (g, u2, f2, range(len(calls))),  # the fields now hold values computed on g2
    ]
    for graph_, u_, f_, order in runs:
        got = {k: calls[k][0](graph_, u_, f_) for k in order}
        assert [report_bits(got[k]) for k in range(len(calls))] == want
        if kind == "signed_zero":  # u(x) = -0.0 against u(y) + cost = 0.0: csub clamped a -0.0
            assert "-0x0.0p+0" in (r.hex() for r in got[3].residuals.values())
    for x in g.vertices:
        t, want_t = slopes(g, u, x), reference_slopes(g, u, x)
        assert t.vertex == want_t.vertex
        assert [t.slope.hex(), t.super_slope.hex(), t.sub_slope.hex()] == \
            [want_t.slope.hex(), want_t.super_slope.hex(), want_t.sub_slope.hex()]
