"""Metric core: construction, intrinsic distance, balls, refinement, chords."""

from __future__ import annotations

import math
import random

import pytest

from eikograph import (
    ChordInput,
    ConnectivityError,
    GraphError,
    MetricError,
    ValidationError,
    ball,
    build_graph,
    chord_from_coords,
    chord_from_table,
    curve_along,
    fixture,
    induce_intrinsic,
    intrinsic_distance,
    random_metric_graph,
    read_graph,
    refine,
    write_graph,
)
from eikograph.graph import close, edge_key

from oracles import all_pairs_distance_oracle, distance_oracle, path_length_sum


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

    def test_parallel_edges_keep_shorter(self):
        spec = interval_spec()
        spec["edges"].append({"a": "p0", "b": "p1", "length": 0.25})
        g = build_graph(spec)
        assert g.edge_length("p0", "p1") == 0.25

    def test_unknown_boundary_rejected(self):
        spec = interval_spec()
        spec["boundary"] = ["p0", "ghost"]
        with pytest.raises(ValidationError):
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

    def test_single_vertex_curve(self):
        g = build_graph(interval_spec())
        c = curve_along(g, ["p1"])
        assert c.length == 0.0


class TestBall:
    def test_interval_ball(self):
        g = build_graph(interval_spec())
        b = ball(g, "p2", 0.6)
        assert set(b.members) == {"p1", "p2", "p3"}
        assert b.members["p2"] == 0.0
        assert b.members["p1"] == 0.5

    def test_small_radius_is_center_only(self):
        g = build_graph(interval_spec())
        assert set(ball(g, "p2", 0.4).members) == {"p2"}

    def test_radius_beyond_diameter_covers_graph(self):
        g = random_metric_graph(11, n_max=25)
        x = g.vertices[0]
        oracle = distance_oracle(g, x)
        b = ball(g, x, 1e9)
        assert set(b.members) == set(g.vertices)
        for v, d in b.members.items():
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
        return ChordInput(
            ids=tuple(sorted(coords)),
            dist=chord_from_coords(coords),
            adjacency=tuple(sorted(g.edges)),
        ), coords

    def test_circle_antipodal_arc(self):
        chord, coords = self.circle_chord()
        result = induce_intrinsic(chord, coords=coords, seed=7)
        d, _ = intrinsic_distance(result.graph, "c0", "c500")
        assert abs(d - math.pi) < 1e-4
        # chord of the semicircle is 2, the arc is pi
        assert chord.dist("c0", "c500") == pytest.approx(2.0, abs=1e-12)

    def test_chord_never_exceeds_intrinsic_on_samples(self):
        chord, _ = self.circle_chord(n=200)
        result = induce_intrinsic(chord, sample_pairs=300, seed=3)
        assert result.probe.pairs_sampled > 200
        assert result.probe.max_ratio >= 1.0 - 1e-12

    def test_collinear_dyadic_points_intrinsic_equals_chord(self):
        xs = [0.0, 0.25, 0.5, 1.0]
        ids = [f"q{k}" for k in range(4)]
        coords = {ids[k]: (xs[k],) for k in range(4)}
        chord = ChordInput(
            ids=tuple(ids),
            dist=chord_from_coords(coords),
            adjacency=tuple((ids[k], ids[k + 1]) for k in range(3)),
        )
        g = induce_intrinsic(chord).graph
        d, _ = intrinsic_distance(g, "q0", "q3")
        assert d == 1.0  # dyadic lengths: exact

    def test_l_shaped_polyline_matches_direct_sum(self):
        pts = [(0.0, 0.0), (0.3, 0.0), (0.7, 0.0), (1.0, 0.0), (1.0, 0.4), (1.0, 1.1)]
        ids = [f"L{k}" for k in range(len(pts))]
        coords = dict(zip(ids, pts))
        chord = ChordInput(
            ids=tuple(ids),
            dist=chord_from_coords(coords),
            adjacency=tuple((ids[k], ids[k + 1]) for k in range(len(pts) - 1)),
        )
        g = induce_intrinsic(chord).graph
        d, curve = intrinsic_distance(g, "L0", f"L{len(pts)-1}")
        assert close(d, path_length_sum(pts))
        assert len(curve) == len(pts)

    def test_triangle_violation_rejected(self):
        table = {
            ("a", "b"): 1.0,
            ("b", "c"): 1.0,
            ("a", "c"): 5.0,  # violates a-b-c
        }
        chord = ChordInput(
            ids=("a", "b", "c"),
            dist=chord_from_table(table),
            adjacency=(("a", "b"), ("b", "c"), ("a", "c")),
        )
        with pytest.raises(MetricError):
            induce_intrinsic(chord, seed=1)

    def test_disconnected_adjacency_rejected(self):
        coords = {"a": (0.0,), "b": (1.0,), "c": (2.0,), "d": (3.0,)}
        chord = ChordInput(
            ids=("a", "b", "c", "d"),
            dist=chord_from_coords(coords),
            adjacency=(("a", "b"), ("c", "d")),
        )
        with pytest.raises(ConnectivityError):
            induce_intrinsic(chord)

    def test_asymmetric_table_rejected(self):
        def lopsided(a, b):
            if a == b:
                return 0.0
            return 1.0 if a < b else 2.0

        chord = ChordInput(ids=("a", "b"), dist=lopsided, adjacency=(("a", "b"),))
        with pytest.raises(MetricError):
            induce_intrinsic(chord)


def test_edge_key_is_sorted():
    assert edge_key("z", "a") == ("a", "z")
    assert edge_key("a", "z") == ("a", "z")
