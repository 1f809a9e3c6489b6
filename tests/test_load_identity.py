"""Graph loads against references.

Version 1: ``oracles.reference_build_graph`` is the load that ``build_graph``
and ``_finalize`` replaced: one loop over the vertex entries, one over the
edge entries, then one over the parsed edges.  For a valid description both
must give the same ``MetricGraph``, ``edges`` order, coords order and
``index``/``nbrs``/``lens`` included; for a malformed one, the same exception
class and message, so the same first bad entry is named.  The version 1
descriptions come from ``oracles.graph_to_dict_v1``.

Version 2: ``read_graph`` of the file ``write_graph`` wrote must give the
written graph back field for field, and version 1 files of the same graph,
compact and indented, must load to the same graph.

``refine``: the sha256 of the refined graph's vertices, lists, coords items
and boundary, recorded before refine stopped building a dict of its edges,
must not move.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from eikograph import build_graph, fixture, random_metric_graph, read_graph, write_graph
from eikograph import graph as graph_module

from oracles import graph_to_dict_v1, reference_build_graph
from test_input_fuzz import WRONG_VALUES

FIXTURES = [("interval", {"n": 7}), ("circle", {"n": 9}), ("grid", {"n": 6}),
            ("grid", {"n": 5, "connectivity": 8}), ("binary_tree", {"depth": 4}), ("gasket", {"level": 3})]

# ids out of order ("w10" sorts before "w2"), parallel edges shorter, longer
# and equal both ways round, and every entry form the format allows: a bare
# id, a dict without coords, numeric ids, int lengths and int coords
MIXED = {
    "version": 1,
    "vertices": ["w3", {"id": "w10", "coords": [0.5, 1]}, "w1", {"id": 20}, {"id": "w2", "coords": None}, "w4",
                 {"id": "w11", "coords": [2.0, -1.5]}],
    "edges": [{"a": a, "b": b, "length": length} for a, b, length in [
        ("w4", "w3", 1), ("w10", "w1", 0.5), ("w3", "w2", 0.8), ("w2", "w1", 1.5), ("w1", "w2", 0.75),
        (20, "w4", 1.25), ("w11", "w10", 0.6), ("w3", "w11", 0.9), ("w11", "w3", 1.9), ("w2", "20", 2),
        ("w4", "w11", 0.3), ("20", "w2", 2.0)]],
    "boundary": ["20", "w1"],
}


def outcome(build, spec):
    """Everything a load gives: the graph's parts in order, or the error."""
    try:
        g = build(spec)
    except Exception as exc:  # the class is part of what must match
        return type(exc).__name__, str(exc)
    return (g.vertices, list(g.edges.items()), sorted(g.boundary), list(g.coords.items()),
            list(g.index.items()), g.nbrs, g.lens)


def assert_same(spec):
    expected = outcome(reference_build_graph, spec)
    assert outcome(build_graph, spec) == expected
    return expected


def json_spec(g):
    return json.loads(json.dumps(graph_to_dict_v1(g)))


@pytest.mark.parametrize("name,params", FIXTURES, ids=lambda x: x if isinstance(x, str) else "")
def test_fixture_files_load_in_bulk(name, params):
    """A version 1 file of every fixture kind loads to the reference's graph."""
    assert_same(json_spec(fixture(name, **params).graph))


@pytest.mark.parametrize("seed", range(6))
def test_random_metric_graphs(seed):
    assert_same(json_spec(random_metric_graph(seed)))


def test_mixed_entry_forms_with_parallel_edges():
    result = assert_same(MIXED)
    assert result[0] == ("20", "w1", "w10", "w11", "w2", "w3", "w4")
    assert dict(result[1])[("w1", "w2")] == 0.75
    rng = random.Random(5)
    for _ in range(8):  # entry order never matters
        spec = dict(MIXED, vertices=rng.sample(MIXED["vertices"], 7), edges=rng.sample(MIXED["edges"], 12))
        assert outcome(build_graph, spec)[:3] == result[:3]
        assert_same(spec)


def slots(spec):
    """(container, key) of every vertex, edge and boundary slot in ``spec``."""
    for k, entry in enumerate(spec["vertices"]):
        yield spec["vertices"], k
        if isinstance(entry, dict):
            yield from ((entry, key) for key in ("id", "coords") if key in entry)
            if isinstance(entry.get("coords"), list) and entry["coords"]:
                yield entry["coords"], 0
    for k, entry in enumerate(spec["edges"]):
        yield spec["edges"], k
        if isinstance(entry, dict):
            yield from ((entry, key) for key in ("a", "b", "length") if key in entry)
    for k in range(len(spec["boundary"])):
        yield spec["boundary"], k


def small_spec():
    return json_spec(fixture("interval", n=2).graph)


@pytest.mark.parametrize("value", WRONG_VALUES, ids=[repr(v)[:12] for v in WRONG_VALUES])
def test_every_wrong_value_in_every_slot(value):
    for n in range(len(list(slots(small_spec())))):
        spec = small_spec()
        container, key = list(slots(spec))[n]
        container[key] = value
        assert_same(spec)


FAULTS = [*WRONG_VALUES, math.nan, math.inf, -math.inf, 0.0, "ghost", "DELETE", "DUPLICATE", "SELF"]


def mutate(spec, rng):
    """One to three faults at seeded slots: a wrong value, a deleted key, a
    repeated entry, a self-loop or an unknown id."""
    for _ in range(rng.randint(1, 3)):
        container, key = rng.choice(list(slots(spec)))
        fault = rng.choice(FAULTS)
        if fault == "DELETE":
            del container[key]
        elif fault == "DUPLICATE" and isinstance(container, list):
            container.append(container[key])
        elif fault == "SELF" and isinstance(container, dict) and key in ("a", "b"):
            container["a"] = container["b"]
        else:
            container[key] = fault


def test_seeded_malformed_specs():
    errors = 0
    for seed in range(300):
        rng = random.Random(seed)
        spec = json_spec(random_metric_graph(seed % 7, n_min=4, n_max=9))
        for entry in spec["vertices"]:  # coords on some vertices, so that some specs mix dimensions
            if rng.random() < 0.7:
                entry["coords"] = [rng.uniform(-1.0, 1.0) for _ in range(2)]
        rng.shuffle(spec["edges"])
        mutate(spec, rng)
        expected = outcome(reference_build_graph, spec)
        assert outcome(build_graph, spec) == expected, f"seed {seed}"
        errors += isinstance(expected[0], str)
    assert errors >= 200


# coords on some vertices only, as refine keeps them: "a~b~1" has none
PARTIAL = {"vertices": ["a", {"id": "b", "coords": [1.0]}, {"id": "c", "coords": [2.5]}],
           "edges": [{"a": "a", "b": "b", "length": 1.0}, {"a": "b", "b": "c", "length": 0.5}], "boundary": ["c"]}

WRITTEN = {
    **{f"{name}-{k}": (lambda name=name, params=params: fixture(name, **params).graph)
       for k, (name, params) in enumerate(FIXTURES)},
    **{f"random-{seed}": (lambda seed=seed: random_metric_graph(seed)) for seed in range(6)},
    "mixed": lambda: build_graph(MIXED),
    "partial-coords": lambda: graph_module.refine(build_graph(PARTIAL), 0.4),
    "no-coords": lambda: build_graph(dict(PARTIAL, vertices=["a", "b", "c"])),
}


def fields(g):
    """Every stored part of a graph, coords as (id, coords) items in order."""
    return g.vertices, sorted(g.boundary), list(g.coords.items()), list(g.index.items()), g.nbrs, g.lens


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_version_2_file_loads_the_written_graph(tmp_path, name):
    g = WRITTEN[name]()
    path = str(tmp_path / "g.json")
    write_graph(g, path)
    assert json.loads((tmp_path / "g.json").read_text(encoding="utf-8"))["version"] == 2
    h = read_graph(path)
    assert h == g
    # coords come back in id order, as a version 1 file gives them
    assert fields(h) == (g.vertices, sorted(g.boundary), sorted(g.coords.items()), list(g.index.items()),
                         g.nbrs, g.lens)
    spec = graph_to_dict_v1(g)
    for v1_name, text in (("compact.json", json.dumps(spec, separators=(",", ":"))),
                          ("indented.json", json.dumps(spec, indent=1))):
        (tmp_path / v1_name).write_text(text + "\n", encoding="utf-8")
        assert fields(read_graph(str(tmp_path / v1_name))) == fields(h), v1_name


def test_partial_coords_survive_the_round_trip(tmp_path):
    g = WRITTEN["partial-coords"]()
    assert 0 < len(g.coords) < len(g.vertices)
    write_graph(g, str(tmp_path / "g.json"))
    assert json.loads((tmp_path / "g.json").read_text())["coords_at"] == [g.index[v] for v in sorted(g.coords)]
    assert read_graph(str(tmp_path / "g.json")).coords == g.coords


# (fixture, params, h_max) -> sha256 of repr((vertices, nbrs, lens, coords items, sorted boundary)),
# coords items in id order
REFINED = {
    ("grid", (("n", 6),), 0.3): "d09d506592a1f16fdec5ec940635bf5c0994efe5dca480cef662975d0e1751aa",
    ("grid", (("n", 5), ("connectivity", 8)), 1.2): "bedb82f4383ea9051f39eb7420cac1da4e7f5961b6c65c3466b76fbafd146de7",
    ("gasket", (("level", 3),), 0.1): "d6da4f783a8006954528a3a3fe26749d67ef4c3abba83c8465949fbf4ae9d371",
    ("gasket", (("level", 3),), 0.04): "ca90e4ca1978691323a937a88e799fae8cb637c0edbcf207ae46342b24332cc7",
    ("binary_tree", (("depth", 4),), 0.5): "a0a01364417e1cff40b0977e17f6fce1cf3611137d154ee92750d0bddf87577b",
    ("binary_tree", (("depth", 4),), 0.3): "6026ba9b8ce1206c1f126f70e075e32d5f375cd7005104f3446ad1659cb3e997",
    ("mixed", (), 0.4): "9e0188fcf3f3d280d941bd902a84ece0189209ad200fb451886586092f1c38d7",
    ("partial", (), 0.4): "1603cee7f8d4223e195c7af2f3cbbfc11f829938d6379abe8de67292d6db9f06",
}


@pytest.mark.parametrize("name,params,h_max", REFINED, ids=[f"{n}-{h}" for n, _, h in REFINED])
def test_refine_gives_the_recorded_graph(name, params, h_max):
    """Refined fixtures, and the hand-written graphs with ids and coords out
    of id order or on some vertices only, keep the recorded digest."""
    spec = {"mixed": MIXED, "partial": PARTIAL}.get(name)
    g = graph_module.refine(build_graph(spec) if spec else fixture(name, **dict(params)).graph, h_max)
    parts = (g.vertices, g.nbrs, g.lens, list(g.coords.items()), sorted(g.boundary))
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == REFINED[name, params, h_max]
