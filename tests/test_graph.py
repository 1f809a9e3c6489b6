"""Metric core: construction, intrinsic distance, balls, refinement, chords."""

from __future__ import annotations

import dataclasses
import gc
import math
import random

import pytest

from eikograph import (
    ConnectivityError,
    GraphError,
    MetricError,
    MetricGraph,
    ValidationError,
    ball,
    build_graph,
    chord_from_coords,
    curve_along,
    fixture,
    induce_intrinsic,
    intrinsic_distance,
    random_metric_graph,
    read_graph,
    refine,
    write_graph,
)
from eikograph import graph as graph_module
from eikograph import verify as verify_module
from eikograph.graph import MAX_SAMPLE_PAIRS, close, edge_key, read_json

from oracles import (
    all_pairs_distance_oracle,
    backtrack_witness,
    distance_oracle,
    path_length_sum,
    reference_consistency_probe,
    reference_layout,
)


def interval_spec():
    # [-1, 1] as 4 edges of length 0.5
    return {
        "vertices": [{"id": f"p{k}", "coords": [-1.0 + 0.5 * k]} for k in range(5)],
        "edges": [{"a": f"p{k}", "b": f"p{k+1}", "length": 0.5} for k in range(4)],
        "boundary": ["p0", "p4"],
    }


class TestBuildGraph:
    def test_interval_construction(self):
        g = build_graph(interval_spec())
        assert len(g.vertices) == 5
        assert len(g.edges) == 4
        assert g.boundary == frozenset({"p0", "p4"})

    def test_triangle_symmetric_distances(self):
        spec = {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"a": "a", "b": "b", "length": 1.0},
                {"a": "b", "b": "c", "length": 1.0},
                {"a": "a", "b": "c", "length": 1.0},
            ],
            "boundary": [],
        }
        g = build_graph(spec)
        for x in "abc":
            for y in "abc":
                if x != y:
                    d, _ = intrinsic_distance(g, x, y)
                    assert d == 1.0

    def test_zero_length_edge_rejected(self):
        spec = interval_spec()
        spec["edges"][0]["length"] = 0.0
        with pytest.raises(ValidationError):
            build_graph(spec)

    def test_negative_length_rejected(self):
        spec = interval_spec()
        spec["edges"][2]["length"] = -0.5
        with pytest.raises(ValidationError):
            build_graph(spec)

    def test_disconnected_rejected(self):
        spec = interval_spec()
        spec["vertices"].append({"id": "island"})
        with pytest.raises(ConnectivityError):
            build_graph(spec)

    def test_self_loop_rejected(self):
        spec = interval_spec()
        spec["edges"].append({"a": "p1", "b": "p1", "length": 1.0})
        with pytest.raises(ValidationError):
            build_graph(spec)

    def test_no_vertices_rejected(self):
        with pytest.raises(ValidationError, match="graph has no vertices"):
            build_graph({"vertices": [], "edges": [], "boundary": []})

    def test_parallel_edges_keep_shorter(self):
        spec = interval_spec()
        spec["edges"].append({"a": "p0", "b": "p1", "length": 0.25})
        g = build_graph(spec)
        assert g.edge_length("p0", "p1") == 0.25

    @pytest.mark.parametrize("seed", range(8))
    def test_layout_matches_string_keyed_reference(self, seed):
        """Shuffled entries with parallel edges, both ways round and of random
        or equal lengths, lay out as the string-keyed rule does: edges in key
        order, and the same index and per-vertex lists."""
        rng = random.Random(seed)
        ids = rng.sample([f"v{k}" for k in range(200)], rng.randint(2, 40))  # "v10" sorts before "v9"
        entries = [((ids[i], ids[rng.randrange(i)]), rng.uniform(0.1, 3.0)) for i in range(1, len(ids))]
        entries += [(tuple(rng.sample(ids, 2)), rng.uniform(0.1, 3.0)) for _ in range(2 * len(ids))]
        entries += [((b, a), rng.choice([length, rng.uniform(0.1, 3.0)]))
                    for (a, b), length in rng.sample(entries, len(entries) // 2)]
        rng.shuffle(entries)
        g = build_graph({"vertices": rng.sample(ids, len(ids)), "boundary": [],
                         "edges": [{"a": a, "b": b, "length": length} for (a, b), length in entries]})
        edges, index, nbrs, lens = reference_layout(ids, entries)
        assert list(g.edges.items()) == list(edges.items())
        assert list(g.index.items()) == list(index.items())
        assert g.nbrs == nbrs and g.lens == lens

    @pytest.mark.parametrize("parallel", [
        # the bad entry was dropped when it came second and was not shorter
        [{"a": "p0", "b": "p1", "length": 1.0}, {"a": "p0", "b": "p1", "length": math.nan}],
        [{"a": "p0", "b": "p1", "length": math.inf}, {"a": "p1", "b": "p0", "length": 1.0}],
        [{"a": "p0", "b": "p1", "length": 1.0}, {"a": "p1", "b": "p0", "length": math.inf}],
    ])
    def test_every_parallel_edge_is_validated(self, parallel):
        spec = interval_spec()
        spec["edges"] += parallel
        with pytest.raises(ValidationError, match="a length must be a positive finite number"):
            build_graph(spec)

    @pytest.mark.parametrize("length", [0.0, -0.5, -math.inf])
    def test_nonpositive_length_rejected(self, length):
        spec = interval_spec()
        spec["edges"][1]["length"] = length
        with pytest.raises(ValidationError, match=f"has length {length!r}; a length must be a positive finite"):
            build_graph(spec)

    @pytest.mark.parametrize("version", [99, 0, True, 1.0, "1", None, [1]])
    def test_unsupported_version_rejected(self, version):
        spec = dict(interval_spec(), version=version)
        with pytest.raises(ValidationError, match="unsupported graph version"):
            build_graph(spec)

    @pytest.mark.parametrize("duplicate", ["p2", {"id": "p2"}, {"id": "p2", "coords": [-1.0]}])
    def test_duplicate_vertex_id_rejected(self, duplicate):
        spec = interval_spec()
        spec["vertices"].append(duplicate)
        with pytest.raises(ValidationError, match="duplicate vertex id 'p2'"):
            build_graph(spec)

    def test_boolean_length_rejected(self):
        spec = interval_spec()
        spec["edges"][1]["length"] = True
        with pytest.raises(ValidationError, match="edge \\('p1', 'p2'\\) has non-numeric length True"):
            build_graph(spec)

    @pytest.mark.parametrize("coord,message", [
        (True, "coords must be a list of numbers"),
        (False, "coords must be a list of numbers"),
        (math.inf, "coords must be finite"),
        (-math.inf, "coords must be finite"),
        (math.nan, "coords must be finite"),
    ])
    def test_boolean_or_non_finite_coord_rejected(self, coord, message):
        spec = interval_spec()
        spec["vertices"][3]["coords"] = [coord]
        with pytest.raises(ValidationError, match=f"vertex 'p3': {message}"):
            build_graph(spec)

    @pytest.mark.parametrize("where", ["length", "coord"])
    @pytest.mark.parametrize("value", ["1.5", "inf", "1"])
    def test_string_number_rejected(self, where, value):
        # float() takes these strings: "length": "1.5" used to solve as 1.5
        spec = interval_spec()
        if where == "length":
            spec["edges"][1]["length"] = value
            message = f"edge \\('p1', 'p2'\\) has non-numeric length '{value}'"
        else:
            spec["vertices"][3]["coords"] = [value]
            message = "vertex 'p3': coords must be a list of numbers, got .* \\(coords must be numbers, not str\\)"
        with pytest.raises(ValidationError, match=message):
            build_graph(spec)

    def test_unknown_boundary_rejected(self):
        spec = interval_spec()
        spec["boundary"] = ["p0", "ghost"]
        with pytest.raises(ValidationError):
            build_graph(spec)

    @pytest.mark.parametrize("key,value", [
        ("vertices", 5), ("vertices", "abc"), ("vertices", {"p0": 1}), ("edges", 7), ("edges", "p0p1"),
    ])
    def test_non_list_vertices_or_edges_rejected(self, key, value):
        spec = interval_spec()
        spec[key] = value
        with pytest.raises(ValidationError, match=f"graph {key} must be a list"):
            build_graph(spec)

    def test_integer_too_large_for_a_float_rejected(self):
        spec = interval_spec()
        spec["edges"][0]["length"] = 10**400
        with pytest.raises(ValidationError, match="must have a, b, length"):
            build_graph(spec)
        spec = interval_spec()
        spec["vertices"][0]["coords"] = [10**400]
        with pytest.raises(ValidationError, match="coords must be numbers"):
            build_graph(spec)

    @pytest.mark.parametrize("coords", [[0.0, 0.0], [], [1.0, 2.0, 3.0]])
    def test_mixed_coord_dimensions_rejected(self, coords):
        spec = interval_spec()
        spec["vertices"][2]["coords"] = coords
        with pytest.raises(ValidationError, match="coords mix dimensions: 'p0' has 1, 'p2' has"):
            build_graph(spec)

    @pytest.mark.parametrize("boundary", ["p0", {"p0": 1}, 3])
    def test_non_list_boundary_rejected(self, boundary):
        spec = interval_spec()
        spec["boundary"] = boundary
        with pytest.raises(ValidationError, match="list of vertex ids"):
            build_graph(spec)

    def test_json_round_trip(self, tmp_path):
        g = build_graph(interval_spec())
        path = tmp_path / "g.json"
        write_graph(g, str(path))
        g2 = read_graph(str(path))
        assert g2 == g


class TestIntrinsicDistance:
    def test_interval_end_to_end(self):
        g = build_graph(interval_spec())
        d, curve = intrinsic_distance(g, "p0", "p4")
        assert d == 2.0
        assert curve.vertices == ("p0", "p1", "p2", "p3", "p4")

    @pytest.mark.parametrize("edges, target", [
        ([("a", "b"), ("b", "c")], "c"),
        ([("a", "c"), ("c", "d"), ("b", "d")], "b"),  # a walk back through unreached vertices had no parent
    ])
    def test_overflowing_distance_raises_metric_error(self, edges, target):
        g = build_graph({"vertices": sorted({v for e in edges for v in e}),
                         "edges": [{"a": a, "b": b, "length": 1e308} for a, b in edges]})
        with pytest.raises(MetricError, match=f"the distance from 'a' to '{target}' overflows binary64"):
            intrinsic_distance(g, "a", target)

    def test_circle_antipodal_near_pi(self):
        g = fixture("circle", n=1000).graph
        d, _ = intrinsic_distance(g, "c0", "c500")
        assert abs(d - math.pi) < 1e-4

    def test_matches_all_pairs_oracle_exactly(self):
        g = random_metric_graph(17, n_max=50)
        oracle = all_pairs_distance_oracle(g)
        for x in g.vertices[::5]:
            for y in g.vertices[::7]:
                d, _ = intrinsic_distance(g, x, y)
                assert d == oracle[x][y]

    def test_witness_length_equals_distance(self):
        for seed in range(5):
            g = random_metric_graph(seed, n_max=30)
            rng = random.Random(seed)
            for _ in range(10):
                x, y = rng.choice(g.vertices), rng.choice(g.vertices)
                d, curve = intrinsic_distance(g, x, y)
                assert abs(curve.length - d) <= 1e-12 * max(1.0, d)
                assert curve.vertices[0] == x and curve.vertices[-1] == y

    def test_witness_deterministic(self):
        g = random_metric_graph(3)
        a, b = g.vertices[0], g.vertices[-1]
        c1 = intrinsic_distance(g, a, b)[1]
        c2 = intrinsic_distance(g, a, b)[1]
        assert c1.vertices == c2.vertices

    def test_symmetry_and_triangle_inequality(self):
        g = random_metric_graph(5, n_min=8, n_max=12)
        oracle = all_pairs_distance_oracle(g)
        vs = g.vertices
        for x in vs:
            for y in vs:
                assert close(oracle[x][y], oracle[y][x])
                for z in vs:
                    assert oracle[x][z] <= oracle[x][y] + oracle[y][z] + 1e-12

    def test_unknown_vertex(self):
        g = build_graph(interval_spec())
        with pytest.raises(GraphError):
            intrinsic_distance(g, "p0", "nope")

    def test_edge_absorbed_in_rounding(self):
        # fl(1e16 + 1.0) == 1e16: b and c are each an exact-equality
        # neighbor of the other, so an id-order backtrack from c cycles
        g = build_graph({
            "vertices": ["s", "b", "c"],
            "edges": [{"a": "s", "b": "b", "length": 1e16}, {"a": "s", "b": "c", "length": 1e16},
                      {"a": "b", "b": "c", "length": 1.0}],
            "boundary": ["s"],
        })
        with pytest.raises(AssertionError):
            backtrack_witness(g, "s", "c")
        for y in ("b", "c"):
            d, curve = intrinsic_distance(g, "s", y)
            assert d == 1e16
            assert curve.length == d
            assert curve.vertices[0] == "s" and curve.vertices[-1] == y

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_equals_id_order_backtrack(self, seed):
        # with no edge absorbed, every exact-equality neighbor settles
        # earlier, so the settle forest gives the id-order witness
        g = random_metric_graph(seed, n_max=40)
        rng = random.Random(seed)
        for _ in range(8):
            x, y = rng.choice(g.vertices), rng.choice(g.vertices)
            assert intrinsic_distance(g, x, y)[1].vertices == tuple(backtrack_witness(g, x, y))
        grid = fixture("grid", n=6, connectivity=8).graph
        assert intrinsic_distance(grid, "v0_0", "v5_3")[1].vertices == tuple(
            backtrack_witness(grid, "v0_0", "v5_3"))


class TestCurve:
    def test_cumulative_lengths(self):
        g = build_graph(interval_spec())
        c = curve_along(g, ["p0", "p1", "p2"])
        assert c.cumlen == (0.0, 0.5, 1.0)
        assert c.length == 1.0

    def test_non_adjacent_rejected(self):
        g = build_graph(interval_spec())
        with pytest.raises(GraphError):
            curve_along(g, ["p0", "p2"])

    @pytest.mark.parametrize("a,b", [("p0", "zz"), ("zz", "p0"), ("p1", "p1")])
    def test_unknown_or_repeated_vertex_rejected(self, a, b):
        # edge_length looks b up among a's neighbours
        with pytest.raises(GraphError, match=f"no edge between '{a}' and '{b}'"):
            build_graph(interval_spec()).edge_length(a, b)

    def test_single_vertex_curve(self):
        g = build_graph(interval_spec())
        c = curve_along(g, ["p1"])
        assert c.length == 0.0


class TestBall:
    def test_interval_ball(self):
        g = build_graph(interval_spec())
        b = ball(g, "p2", 0.6)
        assert set(b) == {"p1", "p2", "p3"}
        assert b["p2"] == 0.0
        assert b["p1"] == 0.5

    def test_small_radius_is_center_only(self):
        g = build_graph(interval_spec())
        assert set(ball(g, "p2", 0.4)) == {"p2"}

    def test_radius_beyond_diameter_covers_graph(self):
        g = random_metric_graph(11, n_max=25)
        x = g.vertices[0]
        oracle = distance_oracle(g, x)
        b = ball(g, x, 1e9)
        assert set(b) == set(g.vertices)
        for v, d in b.items():
            assert d == oracle[v]

    def test_membership_iff_distance_below_radius(self):
        g = random_metric_graph(23, n_max=20)
        rng = random.Random(23)
        x = rng.choice(g.vertices)
        r = rng.uniform(0.5, 3.0)
        b = ball(g, x, r)
        for v in g.vertices:
            d, _ = intrinsic_distance(g, x, v)
            assert (v in b) == (d < r)

    def test_nonpositive_radius_rejected(self):
        g = build_graph(interval_spec())
        with pytest.raises(ValidationError):
            ball(g, "p0", 0.0)


class TestRefine:
    def test_single_edge_split_in_four(self):
        g = build_graph({
            "vertices": ["a", "b"],
            "edges": [{"a": "a", "b": "b", "length": 1.0}],
            "boundary": ["a", "b"],
        })
        r = refine(g, 0.25)
        assert len(r.edges) == 4
        assert len(r.vertices) == 5
        assert all(close(length, 0.25) for length in r.edges.values())
        assert r.boundary == g.boundary

    def test_large_h_max_returns_same_graph(self):
        g = build_graph(interval_spec())
        assert refine(g, g.h_max) is g
        assert refine(g, 10.0) is g
        assert refine(g, math.inf) is g  # used to divide by zero parts

    @pytest.mark.parametrize("h_max", [1e-320, 1e-300])
    def test_h_max_too_small_rejected_before_splitting(self, h_max):
        # 1e-320 makes length / h_max inf; 1e-300 asks for ~1e299 vertices
        g = build_graph(interval_spec())
        with pytest.raises(ValidationError, match="h_max"):
            refine(g, h_max)

    def test_vertex_limit_is_inclusive(self, monkeypatch):
        import eikograph.graph as graph_module

        g = build_graph(interval_spec())  # h 0.25 adds one vertex per edge
        monkeypatch.setattr(graph_module, "MAX_REFINE_VERTICES", 4)
        assert len(refine(g, 0.25).vertices) == 9
        monkeypatch.setattr(graph_module, "MAX_REFINE_VERTICES", 3)
        with pytest.raises(ValidationError, match="more than 3 vertices"):
            refine(g, 0.25)

    def test_new_id_colliding_with_a_vertex_rejected(self):
        g = build_graph({
            "vertices": ["a", "b", "a~b~1"],
            "edges": [{"a": "a", "b": "b", "length": 1.0}, {"a": "a~b~1", "b": "b", "length": 1.0}],
            "boundary": ["a"],
        })
        with pytest.raises(ValidationError, match="refinement id collision at 'a~b~1'"):
            refine(g, 0.5)

    def test_exact_multiple_does_not_overshoot(self):
        g = build_graph({
            "vertices": ["a", "b"],
            "edges": [{"a": "a", "b": "b", "length": 0.3}],
            "boundary": ["a"],
        })
        r = refine(g, 0.1)  # 0.3 / 0.1 is not an exact float ratio
        assert len(r.edges) == 3

    def test_distances_between_original_vertices_preserved(self):
        g = random_metric_graph(7, n_max=15)
        r = refine(g, 0.3)
        for x in g.vertices[::3]:
            base = distance_oracle(g, x)
            fine = distance_oracle(r, x)
            for y in g.vertices:
                assert close(base[y], fine[y], abs_tol=1e-12)

    def test_coords_interpolated(self):
        g = build_graph({
            "vertices": [{"id": "a", "coords": [0.0, 0.0]}, {"id": "b", "coords": [1.0, 2.0]}],
            "edges": [{"a": "a", "b": "b", "length": 1.0}],
            "boundary": ["a"],
        })
        r = refine(g, 0.5)
        mid = next(v for v in r.vertices if v not in ("a", "b"))
        assert r.coords[mid] == (0.5, 1.0)


class TestInduceIntrinsic:
    def circle_chord(self, n=1000):
        g = fixture("circle", n=n).graph
        coords = {v: g.coords[v] for v in g.vertices}
        return (tuple(sorted(coords)), chord_from_coords(coords), tuple(sorted(g.edges))), coords

    def test_circle_antipodal_arc(self):
        chord, coords = self.circle_chord()
        g, _ = induce_intrinsic(*chord, coords=coords, seed=7)
        d, _ = intrinsic_distance(g, "c0", "c500")
        assert abs(d - math.pi) < 1e-4
        # chord of the semicircle is 2, the arc is pi
        assert chord[1]("c0", "c500") == pytest.approx(2.0, abs=1e-12)

    def test_chord_never_exceeds_intrinsic_on_samples(self):
        chord, _ = self.circle_chord(n=200)
        _, probe = induce_intrinsic(*chord, sample_pairs=300, seed=3)
        assert probe.pairs_sampled > 200
        assert probe.max_ratio >= 1.0 - 1e-12

    def test_collinear_dyadic_points_intrinsic_equals_chord(self):
        xs = [0.0, 0.25, 0.5, 1.0]
        ids = [f"q{k}" for k in range(4)]
        coords = {ids[k]: (xs[k],) for k in range(4)}
        g, _ = induce_intrinsic(ids, chord_from_coords(coords), [(ids[k], ids[k + 1]) for k in range(3)])
        d, _ = intrinsic_distance(g, "q0", "q3")
        assert d == 1.0  # dyadic lengths: exact

    def test_l_shaped_polyline_matches_direct_sum(self):
        pts = [(0.0, 0.0), (0.3, 0.0), (0.7, 0.0), (1.0, 0.0), (1.0, 0.4), (1.0, 1.1)]
        ids = [f"L{k}" for k in range(len(pts))]
        coords = dict(zip(ids, pts))
        g, _ = induce_intrinsic(ids, chord_from_coords(coords),
                                [(ids[k], ids[k + 1]) for k in range(len(pts) - 1)])
        d, curve = intrinsic_distance(g, "L0", f"L{len(pts)-1}")
        assert close(d, path_length_sum(pts))
        assert len(curve) == len(pts)

    def test_triangle_violation_rejected(self):
        table = {
            ("a", "b"): 1.0,
            ("b", "c"): 1.0,
            ("a", "c"): 5.0,  # violates a-b-c
        }
        with pytest.raises(MetricError):
            induce_intrinsic(("a", "b", "c"), lambda a, b: 0.0 if a == b else table.get((a, b), table.get((b, a))),
                             (("a", "b"), ("b", "c"), ("a", "c")), seed=1)

    def test_disconnected_adjacency_rejected(self):
        coords = {"a": (0.0,), "b": (1.0,), "c": (2.0,), "d": (3.0,)}
        with pytest.raises(ConnectivityError):
            induce_intrinsic(("a", "b", "c", "d"), chord_from_coords(coords), (("a", "b"), ("c", "d")))

    def test_mixed_coord_dimensions_rejected_before_chord_checks(self):
        # zip in chord_from_coords would truncate: d(b, c) would read 3.0
        coords = {"a": (0.0, 0.0), "b": (3.0, 4.0), "c": (6.0,)}
        with pytest.raises(ValidationError, match="coords mix dimensions"):
            induce_intrinsic(("a", "b", "c"), chord_from_coords(coords), (("a", "b"), ("b", "c")), coords=coords)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coord_rejected_before_chord_checks(self, bad):
        # a,0 / b,inf / c,2 used to read "distance not symmetric at ('a', 'b'): inf vs inf"
        coords = {"a": (0.0,), "b": (bad,), "c": (2.0,)}
        with pytest.raises(ValidationError, match="vertex 'b': coords must be finite"):
            induce_intrinsic(("a", "b", "c"), chord_from_coords(coords), (("a", "b"), ("b", "c")), coords=coords)

    def test_overflowing_chord_distance_rejected(self):
        coords = {"a": (0.0,), "b": (1e200,)}
        with pytest.raises(MetricError, match="overflows"):
            induce_intrinsic(("a", "b"), chord_from_coords(coords), (("a", "b"),), coords=coords)

    def test_edge_to_unknown_id_rejected(self):
        coords = {"a": (0.0,), "b": (1.0,)}
        with pytest.raises(ValidationError, match="'c'"):
            induce_intrinsic(("a", "b"), chord_from_coords(coords), (("a", "b"), ("a", "c")))

    def test_asymmetric_table_rejected(self):
        def lopsided(a, b):
            if a == b:
                return 0.0
            return 1.0 if a < b else 2.0

        with pytest.raises(MetricError):
            induce_intrinsic(("a", "b"), lopsided, (("a", "b"),))

    @staticmethod
    def probe_point_set(name):
        """(ids, chord, edges) of a small point set; "warped_pair" and
        "warped_edge" stretch one chord by half, which the probe may catch."""
        if name == "grid":
            ids = [f"g{i}_{j}" for i in range(9) for j in range(9)]
            coords = {v: (0.125 * int(v[1]), 0.125 * int(v[3])) for v in ids}
            edges = [(f"g{i}_{j}", f"g{i + di}_{j + dj}") for i in range(9) for j in range(9)
                     for di, dj in ((1, 0), (0, 1)) if i + di < 9 and j + dj < 9]
            return ids, chord_from_coords(coords), edges
        if name == "scattered":  # a path plus each point's 3 nearest: unequal lengths
            rng = random.Random(11)
            ids = [f"s{k:02d}" for k in range(60)]
            coords = {v: (rng.random(), rng.random()) for v in ids}
            d = chord_from_coords(coords)
            edges = {edge_key(a, b) for a, b in zip(ids, ids[1:])}
            edges |= {edge_key(a, b) for a in ids for b in sorted(ids, key=lambda b: d(a, b))[1:4]}
            return ids, d, sorted(edges)
        ids = [f"p{k:02d}" for k in range(20)]
        d = chord_from_coords({v: (float(k),) for k, v in enumerate(ids)})
        edges = list(zip(ids, ids[1:]))
        stretched = {"p00", "p19"} if name == "warped_pair" else {"p00", "p06"}
        if name == "warped_edge":
            edges.append(("p00", "p06"))
        return ids, (lambda a, b: 1.5 * d(a, b) if {a, b} == stretched else d(a, b)), edges

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sample_pairs", [4, 32, 256])
    @pytest.mark.parametrize("name", ["grid", "scattered", "warped_pair", "warped_edge"])
    def test_probe_matches_unbounded_reference(self, name, sample_pairs, seed):
        """Each search stops once its last target is settled; buckets, pairs
        sampled, max ratio and errors stay those of full searches."""
        ids, d, edges = self.probe_point_set(name)

        def outcome(run):
            try:
                buckets, pairs_sampled, max_ratio = run()
            except MetricError as exc:
                return str(exc)
            hexed = [[x.hex() if isinstance(x, float) else x for x in b] for b in buckets]
            return hexed, pairs_sampled, max_ratio.hex()

        def library():
            probe = induce_intrinsic(ids, d, edges, sample_pairs=sample_pairs, seed=seed)[1]
            return probe.buckets, probe.pairs_sampled, probe.max_ratio

        got = outcome(library)
        assert got == outcome(lambda: reference_consistency_probe(ids, d, edges, sample_pairs, seed))
        if name == "warped_edge" and seed > 0 and sample_pairs < 256:  # the probe catches it, not a triangle
            assert got == "chord distance exceeds intrinsic distance at ('p00', 'p06'): 9.0 > 6.0"

    def test_probe_searches_stop_at_their_last_target(self, monkeypatch):
        # on a 30 x 30 point grid the default 256 random pairs give over 200
        # sources that used to search all 900 points; each search now settles
        # its targets exactly and about half as many vertices in all
        n = 30
        ids = [f"g{i:02d}_{j:02d}" for i in range(n) for j in range(n)]
        d = chord_from_coords({v: (int(v[1:3]) / (n - 1), int(v[4:6]) / (n - 1)) for v in ids})
        edges = [(f"g{i:02d}_{j:02d}", f"g{i + di:02d}_{j + dj:02d}") for i in range(n) for j in range(n)
                 for di, dj in ((1, 0), (0, 1)) if i + di < n and j + dj < n]
        settled, searched = [0], [0]
        real = graph_module.settle

        def counted(g, seeds, *args, **kwargs):
            dist, order, parent = real(g, seeds, *args, **kwargs)
            full_dist, full_order, _ = real(g, seeds)
            assert order == full_order[:len(order)]
            assert all(dist[t].hex() == full_dist[t].hex() for t in kwargs.get("until", ()))
            settled[0] += len(order)
            searched[0] += len(full_order)
            return dist, order, parent

        monkeypatch.setattr(graph_module, "settle", counted)
        probe = induce_intrinsic(ids, d, edges)[1]
        monkeypatch.undo()
        want = reference_consistency_probe(ids, d, edges)
        assert (probe.buckets, probe.pairs_sampled, probe.max_ratio) == want
        assert settled[0] < 0.6 * searched[0]

    @pytest.mark.parametrize("pairs", [-1, MAX_SAMPLE_PAIRS + 1])
    def test_sample_pairs_out_of_range_rejected_before_sampling(self, pairs):
        def never(a, b):
            raise AssertionError("sampled")

        with pytest.raises(ValidationError, match=f"got {pairs}"):
            induce_intrinsic(("a", "b"), never, (("a", "b"),), sample_pairs=pairs)


def test_non_utf8_graph_file_rejected(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b'{"vertices": ["\xff"]}')
    with pytest.raises(ValidationError, match="not UTF-8"):
        read_graph(str(path))


def test_edge_key_is_sorted():
    assert edge_key("z", "a") == ("a", "z")
    assert edge_key("a", "z") == ("a", "z")


def _spy_on_finalize(monkeypatch) -> list:
    """Record, per call, the graph ``_finalize`` returns and the raw vertices
    and ((a, b), length) entries its caller passed."""
    calls = []
    real = graph_module._finalize

    def spy(vertices, ends, lengths, boundary, coords=None):
        vertices, ends, lengths = list(vertices), list(ends), list(lengths)
        g = real(vertices, ends, lengths, boundary, coords)
        calls.append((g, vertices, list(zip(ends, lengths))))
        return g

    monkeypatch.setattr(graph_module, "_finalize", spy)
    monkeypatch.setattr(verify_module, "_finalize", spy)
    return calls


def _point_grid(n):
    coords = {f"q{i}_{j}": (float(i), 0.5 * j) for i in range(n) for j in range(n)}
    adjacency = [(f"q{i}_{j}", f"q{i + di}_{j + dj}") for i in range(n) for j in range(n)
                 for di, dj in ((1, 0), (0, 1), (1, 1)) if i + di < n and j + dj < n]
    return induce_intrinsic(sorted(coords), chord_from_coords(coords), adjacency, coords=coords,
                            sample_pairs=16)[0]


def _shuffled_spec(seed):
    rng = random.Random(seed)
    ids = [f"w{k}" for k in range(12)]
    entries = [(ids[i], ids[rng.randrange(i)], rng.uniform(0.1, 3.0)) for i in range(1, len(ids))]
    entries += [(*rng.sample(ids, 2), rng.choice([0.5, rng.uniform(0.1, 3.0)])) for _ in range(20)]
    rng.shuffle(entries)
    return {"vertices": rng.sample(ids, len(ids)), "boundary": ids[:2],
            "edges": [{"a": a, "b": b, "length": length} for a, b, length in entries]}


class TestOneLayout:
    """The CSR lists are the one stored form of the edges; ``g.edges`` is a
    view built from them on first read.  Since ``oracles.adjacency`` reads
    that view, these tests tie every constructor's lists and view to
    ``oracles.reference_layout`` of the raw entries it passed."""

    @pytest.mark.parametrize("make", [
        lambda: fixture("interval", n=7).graph,
        lambda: fixture("circle", n=9).graph,
        lambda: fixture("grid", n=5, connectivity=8).graph,
        lambda: fixture("binary_tree", depth=4).graph,
        lambda: fixture("gasket", level=3).graph,
        lambda: random_metric_graph(5),
        lambda: refine(fixture("grid", n=3).graph, 0.3),
        lambda: _point_grid(5),
        lambda: build_graph(_shuffled_spec(3)),
    ], ids=["interval", "circle", "grid", "binary_tree", "gasket", "random_metric_graph", "refine",
            "induce_intrinsic", "build_graph"])
    def test_every_constructor_lays_out_the_reference(self, monkeypatch, make):
        calls = _spy_on_finalize(monkeypatch)
        g = make()
        built, vertices, entries = calls[-1]
        assert built is g
        edges, index, nbrs, lens = reference_layout(vertices, entries)
        assert list(g.edges.items()) == list(edges.items())
        assert list(g.index.items()) == list(index.items())
        assert g.nbrs == nbrs and g.lens == lens

    def test_edges_is_no_field(self):
        assert "edges" not in {f.name for f in dataclasses.fields(MetricGraph)}

    def test_read_graph_builds_the_view_on_first_read(self, tmp_path):
        path = str(tmp_path / "g.json")
        write_graph(fixture("grid", n=4).graph, path)
        g = read_graph(path)
        assert "edges" not in vars(g)
        assert g.h_max == 1.0 and g.edge_length("v0_0", "v0_1") == 1.0
        assert "edges" not in vars(g)  # h_max and edge_length read the lists
        assert len(g.edges) == 2 * 4 * 3 and vars(g)["edges"] is g.edges

    def test_write_graph_builds_no_view(self, tmp_path):
        g = fixture("grid", n=4, connectivity=8).graph
        write_graph(g, str(tmp_path / "g.json"))
        assert "edges" not in vars(g)
        spec = read_json(str(tmp_path / "g.json"))
        edges = list(zip(map(spec["ids"].__getitem__, spec["a"]), map(spec["ids"].__getitem__, spec["b"]),
                         spec["length"]))
        assert edges == [(a, b, length) for (a, b), length in g.edges.items()]  # the view's order

    def test_shuffled_entries_compare_equal(self):
        spec = _shuffled_spec(11)
        rng = random.Random(0)
        other = dict(spec, vertices=rng.sample(spec["vertices"], len(spec["vertices"])),
                     edges=[{"a": e["b"], "b": e["a"], "length": e["length"]}
                            for e in rng.sample(spec["edges"], len(spec["edges"]))])
        assert build_graph(spec) == build_graph(other)

    def test_one_ulp_compares_unequal(self):
        spec = _shuffled_spec(11)
        g = build_graph(spec)
        (a, b), length = next(iter(g.edges.items()))
        nudged = [e for e in spec["edges"] if edge_key(e["a"], e["b"]) != (a, b)]
        nudged.append({"a": a, "b": b, "length": math.nextafter(length, math.inf)})
        h = build_graph(dict(spec, edges=nudged))
        assert h.vertices == g.vertices and h.nbrs == g.nbrs and h != g


def _bad_graph_file(tmp_path) -> str:
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": ["a", "b"], "edges": [{"a": "a", "b": "c", "length": 1}]}')
    return str(path)


def _write(tmp_path, g) -> str:
    path = str(tmp_path / "g.json")
    write_graph(g, path)
    return path


class TestCollectorPaused:
    """``fixture`` and ``read_graph`` build with the cyclic collector off and
    leave it as they found it, on return and on raise."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("build", [
        lambda tmp_path: fixture("grid", n=3),
        lambda tmp_path: fixture("gasket", level=2),
        lambda tmp_path: read_graph(_write(tmp_path, fixture("circle", n=5).graph)),
    ], ids=["grid", "gasket", "read_graph"])
    def test_state_restored_on_return(self, collector, tmp_path, build):
        build(tmp_path)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("build", [
        lambda tmp_path: fixture("grid", n=1),
        lambda tmp_path: fixture("grid", n=1001),  # oversized
        lambda tmp_path: fixture("grid", m=3),  # TypeError, raised as ValidationError
        lambda tmp_path: read_graph(_bad_graph_file(tmp_path)),
    ], ids=["grid-n1", "oversized", "bad-parameters", "malformed-file"])
    def test_state_restored_on_raise(self, collector, tmp_path, build):
        with pytest.raises(ValidationError):
            build(tmp_path)
        assert gc.isenabled() is collector

    def test_builds_run_with_the_collector_off(self, collector, monkeypatch, tmp_path):
        seen = []
        real = graph_module._layout  # the tail of every build: _finalize's and the version 2 load's

        def spy(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(graph_module, "_layout", spy)
        path = _write(tmp_path, fixture("interval", n=3).graph)
        read_graph(path)
        assert seen == [False, False]
