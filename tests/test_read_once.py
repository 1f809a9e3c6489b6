"""Values read from the pass that computed them, and rules stated once.

- ``intrinsic_distance``'s witness takes its cumulative lengths from the
  labels along its parent path.  With no field a label is its parent's
  label plus the edge length, exactly, so they must equal
  ``curve_along``'s sums of the edge lengths bit for bit.
- ``settle`` and the causal pass take their seeds by one rule: a repeated
  index keeps its last datum, an infinite datum is not seeded, and an
  empty seed list is refused.
- A reduction's ``residuals`` is a view of the list the kernel wrote.  It
  must answer every read as the plain dict of
  ``oracles.reference_reduce_field`` does.
- ``solve_general`` tests the causal pass's mesh condition on ``g.h_max``,
  so a graph with no edge takes the pass, in the library and in the CLI.
- ``field_on`` refuses an id that is no vertex by one rule, for every role,
  and reads a mapping it refuses without adding a key to it.
"""

from __future__ import annotations

import collections
import json
import math
import random
import re

import pytest

from eikograph import (
    FieldError,
    ValidationError,
    build_graph,
    builtin_hamiltonian,
    curve_along,
    field_on,
    fixture,
    intrinsic_distance,
    random_metric_graph,
    reduce_field,
    solve_general,
)
from eikograph.cli import run
from eikograph.fields import ROLES
from eikograph.graph import settle
from eikograph.hamiltonians import _causal

from oracles import reference_reduce_field

FIXTURES = [("interval", {"n": 40}), ("circle", {"n": 30}), ("grid", {"n": 7}),
            ("grid", {"n": 6, "connectivity": 8}), ("binary_tree", {"depth": 5}), ("gasket", {"level": 3})]
ONE_VERTEX = {"version": 1, "vertices": [{"id": "a"}], "edges": [], "boundary": ["a"]}


def hexes(values):
    return [x.hex() for x in values]


def assert_witnesses_are_curve_along(g, rng, pairs):
    for x, y in [(g.vertices[0], g.vertices[0])] + [tuple(rng.sample(g.vertices, 2)) for _ in range(pairs)]:
        d, curve = intrinsic_distance(g, x, y)
        want = curve_along(g, curve.vertices)
        assert curve.vertices == want.vertices and curve.vertices[0] == x and curve.vertices[-1] == y
        assert hexes(curve.cumlen) == hexes(want.cumlen)
        assert curve.length.hex() == d.hex()


@pytest.mark.parametrize("kind,params", FIXTURES, ids=str)
def test_witness_lengths_are_curve_along_sums_on_fixtures(kind, params):
    assert_witnesses_are_curve_along(fixture(kind, **params).graph, random.Random(kind), 12)


@pytest.mark.parametrize("seed", range(50))
def test_witness_lengths_are_curve_along_sums_on_random_graphs(seed):
    assert_witnesses_are_curve_along(random_metric_graph(seed), random.Random(seed), 6)


def causal(g, seeds):
    n = len(g.vertices)
    return _causal(g, builtin_hamiltonian("affine-rho"), seeds, [0.0] * n, [0.0] * n, 1e-9)


PASSES = {"settle": settle, "causal": causal}


def outcome(run_):
    """Labels as hex, order and parents: equal iff the runs are bit-identical."""
    dist, order, parent = run_
    return hexes(dist), order, parent


@pytest.mark.parametrize("name", sorted(PASSES))
def test_a_repeated_index_keeps_its_last_datum(name):
    g, label = fixture("interval", n=10).graph, PASSES[name]
    i, j = 0, len(g.vertices) - 1
    for first, last in ((0.5, 0.25), (0.25, 0.5)):
        got = label(g, [(i, first), (j, 0.0), (i, last)])
        assert outcome(got) == outcome(label(g, [(j, 0.0), (i, last)]))
        assert got[0][i] == last and got[2][i] == i


@pytest.mark.parametrize("name", sorted(PASSES))
def test_an_infinite_datum_is_not_seeded(name):
    g, label = fixture("interval", n=10).graph, PASSES[name]
    i, j = 0, len(g.vertices) - 1
    got = label(g, [(i, math.inf), (j, 0.0)])
    assert outcome(got) == outcome(label(g, [(j, 0.0)]))
    assert got[0][i] < math.inf and got[2][i] != i
    dist, _, parent = label(g, [(i, math.inf)])
    assert dist == [math.inf] * len(g.vertices) and parent == [-1] * len(g.vertices)


@pytest.mark.parametrize("name", sorted(PASSES))
def test_an_empty_seed_list_is_refused(name):
    g = fixture("interval", n=10).graph
    for seeds in ([], iter(())):
        with pytest.raises(ValidationError, match="label setting needs at least one seed"):
            PASSES[name](g, seeds)


def reduction_cases():
    """(reduction, its reference) for reduce_field and every path of
    solve_general: rho-independent H, Picard within tol, the causal pass."""
    g = fixture("grid", n=6).graph
    rng = random.Random(6)
    rho = {v: rng.uniform(-0.5, 1.5) for v in g.vertices}
    zeta = field_on(g, {y: rng.uniform(0.0, 0.2) for y in sorted(g.boundary)}, "boundary_zeta")
    H = builtin_hamiltonian("affine-rho")
    yield reduce_field(H, g, rho), reference_reduce_field(H, g, rho)
    for name, max_iter in (("quadratic", 100), ("affine-rho", 100), ("affine-rho", 1)):
        H = builtin_hamiltonian(name)
        vf, red, _ = solve_general(g, H, zeta, max_iter=max_iter)
        yield red, reference_reduce_field(H, g, vf.u.values)


def read(call):
    """("ok", result) or (exception type, args): what a read returns or raises."""
    try:
        return "ok", call()
    except (KeyError, TypeError) as exc:
        return type(exc), exc.args


@pytest.mark.parametrize("case", range(4))
def test_residuals_behave_as_the_reference_dict(case):
    """A reduction's residuals view answers every read as the reference's
    plain dict does: items in id order, lookups, errors, len, repr and ==."""
    red, ref = list(reduction_cases())[case]
    view, want = red.residuals, ref.residuals
    assert list(view) == list(want) == list(red.h.graph.vertices)
    assert [(k, x.hex()) for k, x in dict(view).items()] == [(k, x.hex()) for k, x in want.items()]
    assert hexes(view.values()) == hexes(want.values()) and list(view.items()) == list(want.items())
    assert len(view) == len(want) and repr(view) == repr(want)
    assert view == want and want == view and not view != want and red.flagged == ref.flagged
    some = next(iter(want))
    assert view != {**want, some: want[some] + 1.0} and view != dict(list(want.items())[1:])
    vs = list(want)
    for key in [*vs, "nowhere", "", vs[0] + " ", 0, None, (vs[0],), [vs[0]], {vs[0]: 1}]:
        for get in (lambda m: m[key], lambda m: m.get(key), lambda m: m.get(key, 7), lambda m: key in m):
            assert read(lambda: get(view)) == read(lambda: get(want)), key


def test_one_vertex_graph_takes_the_causal_pass():
    """A graph with no edge has mesh 0: the pass answers, where the longest
    edge was once sought before the condition was tested."""
    g = build_graph(ONE_VERTEX)
    zeta = field_on(g, {"a": 0.25}, "boundary_zeta")
    vf, red, solves = solve_general(g, builtin_hamiltonian("affine-rho"), zeta, max_iter=1)
    assert solves == 2 and dict(vf.u.values) == {"a": 0.25} and dict(vf.exit_vertex) == {"a": "a"}
    assert dict(red.residuals) == {"a": 0.0} and dict(red.h.values) == {"a": 0.75} and red.flagged == ()


def test_cli_solve_h_takes_the_causal_pass_on_one_vertex(tmp_path, capsys):
    graph, out = tmp_path / "one.json", tmp_path / "u.csv"
    graph.write_text(json.dumps(ONE_VERTEX))
    code = run(["solve-h", "--graph", str(graph), "--hamiltonian", "affine-rho", "--zeta", "const:0",
                "--max-iter", "1", "--out", str(out)])
    assert code == 0 and "by the causal pass after 1 Picard iteration(s)" in capsys.readouterr().out
    assert out.read_text() == "vertex_id,u,exit_vertex,attained\na,0.0,a,true\n"


@pytest.mark.parametrize("role", ROLES)
def test_an_unknown_id_is_refused_by_one_rule_in_every_role(role):
    g = fixture("grid", n=4).graph
    domain = g.boundary if role == "boundary_zeta" else g.vertices
    message = ("boundary data given at non-boundary vertices ['ghost']" if role == "boundary_zeta"
               else f"field ({role}) has a value at vertex 'ghost', which the graph lacks")
    with pytest.raises(FieldError, match="^" + re.escape(message) + "$"):
        field_on(g, {**{v: 0.5 for v in domain}, "ghost": 0.5}, role)


@pytest.mark.parametrize("role", ROLES)
def test_a_defaultdict_missing_a_vertex_is_refused_and_gains_no_key(role):
    g = fixture("grid", n=4).graph
    domain = sorted(g.boundary) if role == "boundary_zeta" else list(g.vertices)
    values = collections.defaultdict(float, {v: 0.5 for v in domain[1:]})
    message = (f"boundary data missing at ['{domain[0]}']" if role == "boundary_zeta"
               else f"field ({role}) has no value at vertex '{domain[0]}'")
    with pytest.raises(FieldError, match="^" + re.escape(message) + "$"):
        field_on(g, values, role)
    assert domain[0] not in values and sorted(values) == sorted(domain[1:])
