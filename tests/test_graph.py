"""Metric core: construction, intrinsic distance, balls, refinement, chords."""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import tracemalloc
from collections import deque

import pytest

from eikograph import (
    ConnectivityError,
    DirichletProblem,
    GraphError,
    MetricError,
    MetricGraph,
    ValidationError,
    ball,
    build_graph,
    chord_from_coords,
    constant_field,
    curve_along,
    fixture,
    induce_intrinsic,
    intrinsic_distance,
    random_metric_graph,
    read_graph,
    refine,
    solve_dirichlet,
    write_graph,
)
from eikograph import graph as graph_module
from eikograph import verify as verify_module
from eikograph.graph import close, edge_key, read_json

from oracles import (
    all_pairs_distance_oracle,
    backtrack_witness,
    distance_oracle,
    graph_to_dict_v1,
    path_length_sum,
    reference_edge_check,
    reference_layout,
    views_from_lists,
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
        g = induce_intrinsic(*chord, coords=coords)
        d, _ = intrinsic_distance(g, "c0", "c500")
        assert abs(d - math.pi) < 1e-4
        # chord of the semicircle is 2, the arc is pi
        assert chord[1]("c0", "c500") == pytest.approx(2.0, abs=1e-12)

    def test_chord_never_exceeds_intrinsic_on_samples(self):
        chord, _ = self.circle_chord(n=200)
        g = induce_intrinsic(*chord)
        for a in g.vertices[::10]:
            d_int = distance_oracle(g, a)
            assert all(chord[1](a, b) <= d_int[b] + 1e-12 for b in g.vertices)

    @pytest.mark.parametrize("n", [60, 600, 6000])
    def test_ring_labels_are_the_intrinsic_value_function(self, n):
        """N points on the unit circle joined in a ring, the boundary at c0,
        f = 1: the label k steps away is m * 2 sin(pi / N), m = min(k, N - k),
        up to the rounding of m additions; its ratio to the geodesic m * 2 pi / N
        is sin(pi / N) / (pi / N), which tends to 1, while the chord across the
        circle stays 2 against pi."""
        ids = [f"c{k:04d}" for k in range(n)]
        step = {v: k for k, v in enumerate(ids)}

        def chord(a, b):  # the Euclidean distance between points of the unit circle
            k = abs(step[a] - step[b])
            return 2.0 * math.sin(math.pi * min(k, n - k) / n)

        g = induce_intrinsic(ids, chord, [(ids[k], ids[(k + 1) % n]) for k in range(n)], boundary=[ids[0]])
        u = solve_dirichlet(DirichletProblem(g, constant_field(g, 1.0, "rhs_f"),
                                             constant_field(g, 0.0, "boundary_zeta"))).u
        s = 2.0 * math.sin(math.pi / n)
        x = math.pi / n
        for k, v in enumerate(ids):
            m = min(k, n - k)
            assert abs(u[v] - m * s) <= m * math.ulp(2.0 * m * s)  # one rounding per addition
            if m:
                ratio = u[v] / (m * 2.0 * math.pi / n)
                assert abs(ratio - math.sin(x) / x) <= 4 * m * 2.0 ** -52
                assert 0.0 < 1.0 - ratio <= x * x / 6.0 + 4 * m * 2.0 ** -52
        half = ids[n // 2]
        assert chord(ids[0], half) == 2.0
        assert abs(u[half] - math.pi) <= math.pi * x * x / 6.0 + n * math.ulp(4.0)

    def test_collinear_dyadic_points_intrinsic_equals_chord(self):
        xs = [0.0, 0.25, 0.5, 1.0]
        ids = [f"q{k}" for k in range(4)]
        coords = {ids[k]: (xs[k],) for k in range(4)}
        g = induce_intrinsic(ids, chord_from_coords(coords), [(ids[k], ids[k + 1]) for k in range(3)])
        d, _ = intrinsic_distance(g, "q0", "q3")
        assert d == 1.0  # dyadic lengths: exact

    def test_l_shaped_polyline_matches_direct_sum(self):
        pts = [(0.0, 0.0), (0.3, 0.0), (0.7, 0.0), (1.0, 0.0), (1.0, 0.4), (1.0, 1.1)]
        ids = [f"L{k}" for k in range(len(pts))]
        coords = dict(zip(ids, pts))
        g = induce_intrinsic(ids, chord_from_coords(coords),
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
        with pytest.raises(MetricError, match=r"at \('a', 'c'\): 5.0 > 2.0"):
            induce_intrinsic(("a", "b", "c"), lambda a, b: 0.0 if a == b else table.get((a, b), table.get((b, a))),
                             (("a", "b"), ("b", "c"), ("a", "c")))

    def test_disconnected_adjacency_rejected(self):
        coords = {"a": (0.0,), "b": (1.0,), "c": (2.0,), "d": (3.0,)}
        with pytest.raises(ConnectivityError, match="^chord adjacency is disconnected$"):
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
        with pytest.raises(MetricError, match="^distance between 'a' and 'b' overflows$"):
            induce_intrinsic(("a", "b"), chord_from_coords(coords), (("a", "b"),), coords=coords)

    def test_edge_to_unknown_id_rejected(self):
        coords = {"a": (0.0,), "b": (1.0,)}
        with pytest.raises(ValidationError, match=r"^edge \('a', 'c'\) references unknown vertex$"):
            induce_intrinsic(("a", "b"), chord_from_coords(coords), (("a", "b"), ("a", "c")))

    def test_asymmetric_table_rejected(self):
        def lopsided(a, b):
            if a == b:
                return 0.0
            return 1.0 if a < b else 2.0

        with pytest.raises(MetricError, match=r"^distance not symmetric at \('a', 'b'\): 1.0 vs 2.0$"):
            induce_intrinsic(("a", "b"), lopsided, (("a", "b"),))

    @pytest.mark.parametrize("ids,dist,message", [
        (("a", "b"), lambda a, b: 0.0 if a == b else -1.0, "d('a', 'b') = -1.0 is not a positive finite length"),
        (("a", "b", "c"), chord_from_coords({"a": (0.0, 0.0), "b": (0.0, 0.0), "c": (1.0, 0.0)}),
         "d('a', 'b') = 0.0 is not a positive finite length"),
        (("a", "b"), lambda a, b: 0.0 if a == b else math.inf, "d('a', 'b') = inf is not a positive finite length"),
        (("a", "b"), lambda a, b: 0.0 if a == b else math.nan, "d('a', 'b') = nan is not a positive finite length"),
    ], ids=["negative", "coincident", "infinite", "nan"])
    def test_edge_that_is_no_positive_finite_length_rejected(self, ids, dist, message):
        # one test, before symmetry, so that inf and NaN read as lengths too
        with pytest.raises(MetricError) as exc:
            induce_intrinsic(ids, dist, list(zip(ids, ids[1:])))
        assert str(exc.value) == message

    def test_self_loop_is_refused_as_one_whatever_d_a_a(self):
        for d_aa in (0.0, 5.0):
            with pytest.raises(ValidationError, match="^self-loop at vertex 'a'$"):
                induce_intrinsic(("a", "b"), lambda a, b: d_aa if a == b else 1.0, [("a", "a"), ("a", "b")])

    @staticmethod
    def point_set(name):
        """(ids, chord, edges) of a small point set; "warped_pair" stretches
        the chord of a pair that is no edge by half, "warped_edge" that of an
        edge p00-p06 beside the path p00, ..., p06 of length 6."""
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

    @pytest.mark.parametrize("name", ["grid", "scattered", "warped_pair", "warped_edge", "scattered_warped"])
    def test_edge_check_matches_value_iteration(self, name):
        if name == "scattered_warped":  # the longest edges of the scattered set, stretched by a tenth
            ids, d, edges = self.point_set("scattered")
            long = set(sorted(edges, key=lambda e: d(*e))[-5:])
            chord, d = d, lambda a, b: 1.1 * chord(a, b) if edge_key(a, b) in long else chord(a, b)
        else:
            ids, d, edges = self.point_set(name)
        want = reference_edge_check(ids, d, edges)
        try:
            g = induce_intrinsic(ids, d, edges)
        except MetricError as exc:
            assert str(exc) == want
        else:
            assert want is None
            assert list(g.edges.items()) == [((a, b), d(a, b)) for a, b in sorted(map(edge_key, *zip(*edges)))]
        assert (want is None) == (name in ("grid", "scattered", "warped_pair"))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sample_pairs", [4, 32, 256])
    @pytest.mark.parametrize("name", ["grid", "scattered", "warped_pair", "warped_edge"])
    def test_probe_matches_unbounded_reference(self, name, sample_pairs, seed):
        """Probing an induced graph at seeded random pairs: a search bounded at
        the pair's value-iteration distance settles exactly that label, and the
        chord stays within it except at the warped pair, which is no edge and
        so is not checked.  A refused set is refused as the edge check says."""
        ids, d, edges = self.point_set(name)
        want = reference_edge_check(ids, d, edges)
        try:
            g = induce_intrinsic(ids, d, edges)
        except MetricError as exc:
            assert str(exc) == want == "chord distance exceeds intrinsic distance at ('p00', 'p06'): 9.0 > 6.0"
            return
        assert want is None
        oracle = all_pairs_distance_oracle(g)
        rng = random.Random(seed)
        sampled, over = set(), set()
        for _ in range(sample_pairs):
            a, b = sorted(rng.sample(g.vertices, 2))
            d_int = oracle[a][b]
            labels, order, _ = graph_module.settle(g, [(g.index[a], 0.0)], limit=d_int)
            assert g.index[b] in order and labels[g.index[b]].hex() == d_int.hex()
            assert all(labels[i] <= d_int for i in order)
            sampled.add((a, b))
            if d(a, b) > d_int + graph_module.ABS_TOL + graph_module.REL_TOL * d_int:
                over.add((a, b))
        assert over == sampled & {("p00", "p19")}

    @pytest.mark.parametrize("seed", range(32))
    def test_random_stretched_edges_match_value_iteration(self, seed):
        """Up to four random edges of a random point set, each its points' path
        plus their 3 nearest, stretched by up to a half: refused exactly when
        value iteration finds a shorter path, naming the same first edge."""
        rng = random.Random(seed)
        ids = [f"r{k:02d}" for k in range(rng.randint(4, 40))]
        chord = chord_from_coords({v: (rng.random(), rng.random()) for v in ids})
        edges = {edge_key(a, b) for a, b in zip(ids, ids[1:])}
        edges |= {edge_key(a, b) for a in ids for b in sorted(ids, key=lambda b: chord(a, b))[1:4]}
        edges = sorted(edges)
        stretch = {e: rng.uniform(1.0, 1.5) for e in rng.sample(edges, rng.randint(0, 4))}

        def d(a, b):
            return stretch.get(edge_key(a, b), 1.0) * chord(a, b)

        want = reference_edge_check(ids, d, edges)
        try:
            induce_intrinsic(ids, d, edges)
        except MetricError as exc:
            assert str(exc) == want
        else:
            assert want is None

    def test_warped_edge_is_refused(self):
        with pytest.raises(MetricError) as exc:
            induce_intrinsic(*self.point_set("warped_edge"))
        assert str(exc.value) == "chord distance exceeds intrinsic distance at ('p00', 'p06'): 9.0 > 6.0"

    def test_warped_pair_is_accepted(self):
        # the stretched pair p00-p19 is no edge: the graph, the path of 19 unit edges, is the same
        ids, d, edges = self.point_set("warped_pair")
        assert induce_intrinsic(ids, d, edges) == induce_intrinsic(ids, chord_from_coords(
            {v: (float(k),) for k, v in enumerate(ids)}), edges)

    def test_one_warped_edge_in_a_40_by_40_grid_is_refused(self):
        # the sampled checks accepted this input: their 256 pairs checked only the first 1,024 edges
        n = 40
        coords = {f"g{i}_{j}": (float(i), float(j)) for i in range(n) for j in range(n)}
        chord = chord_from_coords(coords)
        edges = [(f"g{i}_{j}", f"g{i + di}_{j + dj}") for i in range(n) for j in range(n)
                 for di, dj in ((1, 0), (0, 1)) if i + di < n and j + dj < n] + [("g39_30", "g39_36")]

        def d(a, b):
            return 1.5 * chord(a, b) if {a, b} == {"g39_30", "g39_36"} else chord(a, b)

        with pytest.raises(MetricError) as exc:
            induce_intrinsic(list(coords), d, edges)
        assert str(exc.value) == "chord distance exceeds intrinsic distance at ('g39_30', 'g39_36'): 9.0 > 6.0"


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
    return induce_intrinsic(sorted(coords), chord_from_coords(coords), adjacency, coords=coords)


def _shuffled_spec(seed):
    rng = random.Random(seed)
    ids = [f"w{k}" for k in range(12)]
    entries = [(ids[i], ids[rng.randrange(i)], rng.uniform(0.1, 3.0)) for i in range(1, len(ids))]
    entries += [(*rng.sample(ids, 2), rng.choice([0.5, rng.uniform(0.1, 3.0)])) for _ in range(20)]
    rng.shuffle(entries)
    return {"vertices": rng.sample(ids, len(ids)), "boundary": ids[:2],
            "edges": [{"a": a, "b": b, "length": length} for a, b, length in entries]}


def _messy_spec():
    """Ids out of id order ("w10" sorts before "w2") and parallel edges of
    different lengths, both ways round."""
    return {"vertices": ["w3", "w10", "w1", "w20", "w2", "w4", "w11"],
            "edges": [{"a": a, "b": b, "length": length} for a, b, length in [
                ("w4", "w3", 1.0), ("w10", "w1", 0.5), ("w3", "w2", 0.8), ("w2", "w1", 1.5),
                ("w1", "w2", 0.75), ("w20", "w4", 1.25), ("w11", "w10", 0.6), ("w3", "w11", 0.9),
                ("w11", "w3", 1.9), ("w2", "w20", 2.0), ("w4", "w11", 0.3), ("w20", "w2", 2.0)]],
            "boundary": ["w20", "w1"]}


def _chain_spec(vertices, boundary=("a",)):
    """A version 1 path a - b - c ... through the sorted ids of ``vertices``."""
    ids = sorted(v if isinstance(v, str) else v["id"] for v in vertices)
    return {"vertices": vertices, "edges": [{"a": a, "b": b, "length": 1.0} for a, b in zip(ids, ids[1:])],
            "boundary": list(boundary)}


COORD_SPECS = {  # coords listed out of id order, as a version 1 file may list them
    # "a" and "d" carry none: the graph keeps coords_at
    "coords_at": _chain_spec(["a", {"id": "c", "coords": [2.5, 1.0]}, {"id": "b", "coords": [1.0, -2.0]}, "d"]),
    "dim0": _chain_spec([{"id": "b", "coords": []}, {"id": "a", "coords": []}, {"id": "c", "coords": []}, "d"]),
    "signed_zero": _chain_spec([{"id": "b", "coords": [-0.0, 1.0]}, {"id": "a", "coords": [0.5, -0.0]},
                                {"id": "c", "coords": [-0.0, -0.0]}]),
}
REPLACED = {"v3": (-0.0,), "v0": (2.0,), "v1": (0.5,)}  # dataclasses.replace(interval n=4, coords=REPLACED)

VIEW_GRAPHS = {
    "interval": lambda: fixture("interval", n=7).graph,
    "circle": lambda: fixture("circle", n=9).graph,
    "grid": lambda: fixture("grid", n=5).graph,
    "grid8": lambda: fixture("grid", n=5, connectivity=8).graph,
    "binary_tree": lambda: fixture("binary_tree", depth=4).graph,
    "gasket": lambda: fixture("gasket", level=3).graph,
    "messy": lambda: build_graph(_messy_spec()),
    "shuffled": lambda: build_graph(_shuffled_spec(5)),
    **{f"random_metric_graph{seed}": (lambda seed=seed: random_metric_graph(seed)) for seed in range(5)},
    **{name: (lambda spec=spec: build_graph(spec)) for name, spec in COORD_SPECS.items()},
    "refine_coords_at": lambda: refine(build_graph(COORD_SPECS["coords_at"]), 0.4),
    "induce_intrinsic": lambda: _point_grid(4),
    "replace": lambda: dataclasses.replace(fixture("interval", n=4).graph, coords=REPLACED),
}


def _read_views(g):
    """len of ``g.edges``, one items() pass over each view and one lookup in each."""
    key = next(iter(g.edges))
    deque(g.edges.items(), maxlen=0)
    deque(g.adjacency.items(), maxlen=0)
    return len(g.edges), g.edges[key], g.adjacency[key[0]]


class TestOneLayout:
    """The CSR lists are the one stored form of the edges; ``g.edges`` and
    ``g.adjacency`` are read-only views of them that store nothing.  Since
    ``oracles.adjacency`` reads ``g.edges``, these tests tie every
    constructor's lists and view to ``oracles.reference_layout`` of the raw
    entries it passed, and both views to ``oracles.views_from_lists``."""

    @pytest.mark.parametrize("make", [
        lambda: fixture("interval", n=7).graph,
        lambda: fixture("circle", n=9).graph,
        lambda: fixture("grid", n=5, connectivity=8).graph,
        lambda: fixture("grid", n=6).graph,
        lambda: fixture("binary_tree", depth=4).graph,
        lambda: fixture("gasket", level=3).graph,
        lambda: random_metric_graph(5),
        lambda: refine(fixture("grid", n=3).graph, 0.3),
        lambda: _point_grid(5),
        lambda: build_graph(_shuffled_spec(3)),
        lambda: build_graph(graph_to_dict_v1(fixture("grid", n=6, connectivity=8).graph)),
    ], ids=["interval", "circle", "grid", "grid4", "binary_tree", "gasket", "random_metric_graph", "refine",
            "induce_intrinsic", "build_graph", "version_1"])
    def test_every_constructor_lays_out_the_reference(self, monkeypatch, make):
        calls = _spy_on_finalize(monkeypatch)
        g = make()
        built, vertices, entries = calls[-1]
        assert built is g
        edges, index, nbrs, lens = reference_layout(vertices, entries)
        assert list(g.edges.items()) == list(edges.items())
        assert list(g.index.items()) == list(index.items())
        assert g.nbrs == nbrs and g.lens == lens
        assert len({id(ln) for ln in g.lens}) == len({tuple(ln) for ln in g.lens})  # one list each

    def test_a_version_2_load_keeps_one_list_per_distinct_length_list(self, tmp_path):
        g = fixture("gasket", level=3).graph
        h = read_graph(_write(tmp_path, g))
        assert h.lens == g.lens
        assert len({id(ln) for ln in h.lens}) == len({tuple(ln) for ln in h.lens}) == 2  # corners, the rest

    def test_the_constructor_lays_out_the_callers_lists(self):
        g = fixture("grid", n=4).graph
        lens = tuple(map(list, g.lens))  # equal lists, one object each
        h = MetricGraph(vertices=g.vertices, boundary=g.boundary, coords=g.coords, nbrs=g.nbrs, lens=lens)
        assert h == g and repr(h) == repr(g) and h.index == g.index and h.lens == lens
        assert not set(map(id, h.lens)) & set(map(id, lens))  # the layout's lists, not the caller's
        assert len(set(map(id, h.lens))) == len(set(map(tuple, h.lens))) == 3  # corners, sides, interior

    @pytest.mark.parametrize("make", VIEW_GRAPHS.values(), ids=VIEW_GRAPHS.keys())
    def test_a_graph_and_its_file_have_the_same_repr(self, make):
        """A graph stores nothing that its version 2 file drops: its coords
        iterate in id order, and the file's graph prints the same."""
        g = make()
        assert list(g.coords) == [v for v in g.vertices if v in g.coords]
        assert repr(build_graph(graph_module.graph_to_dict(g))) == repr(g)

    def test_edges_is_no_field(self):
        assert "edges" not in {f.name for f in dataclasses.fields(MetricGraph)}

    @pytest.mark.parametrize("make", VIEW_GRAPHS.values(), ids=VIEW_GRAPHS.keys())
    def test_views_behave_as_the_dicts_of_the_lists(self, make):
        g = make()
        edges, adj = views_from_lists(g)
        for view, want, other in ((g.edges, edges, -1.0), (g.adjacency, adj, ())):
            assert list(view.items()) == list(want.items()) and dict(view.items()) == want
            assert list(view) == list(view.keys()) == list(want)
            assert list(view.values()) == list(want.values())
            assert len(view) == len(want)
            assert view == want and want == view and not view != want
            assert all(k in view and view[k] == v and view.get(k) == v for k, v in want.items())
            first = next(iter(want))
            assert view != {**want, first: other}
            assert view != dict(list(want.items())[1:])
        vs = g.vertices
        non_edges = [(a, b) for a in vs for b in vs if a < b and (a, b) not in edges][:50]
        for key in [(b, a) for a, b in edges] + non_edges + [
                (vs[0], vs[0]), ("nowhere", vs[0]), (vs[0], "nowhere"), (vs[0],), vs[:3], vs[0], None]:
            assert key not in edges and key not in g.edges
            assert g.edges.get(key) is None and g.edges.get(key, 7) == 7
            with pytest.raises(KeyError):
                g.edges[key]
        for v in ("nowhere", (vs[0],), None, (vs[0], vs[1])):
            assert v not in adj and v not in g.adjacency and g.adjacency.get(v) is None
            with pytest.raises(KeyError):
                g.adjacency[v]
        for view in (g.edges, g.adjacency):
            with pytest.raises(TypeError):
                view[[vs[0], vs[1]]]  # unhashable, as for a dict
            with pytest.raises(TypeError):
                view[vs[0]] = 1.0  # read-only

    @pytest.mark.parametrize("make", VIEW_GRAPHS.values(), ids=VIEW_GRAPHS.keys())
    def test_coords_view_behaves_as_the_given_dict(self, make, monkeypatch):
        """``g.coords`` gives back, sign bits included, the coords its
        constructor was given, in id order, from the columns a version 2
        file holds."""
        given = [REPLACED]  # a replace builds past _finalize
        real = graph_module._finalize

        def spy(vertices, ends, lengths, boundary, coords=None):
            given.append(dict(coords or {}))
            return real(vertices, ends, lengths, boundary, coords)

        for module in (graph_module, verify_module):
            monkeypatch.setattr(module, "_finalize", spy)
        g = make()
        monkeypatch.undo()
        coords = given[0 if make is VIEW_GRAPHS["replace"] else -1]
        want = {v: tuple(map(float, coords[v])) for v in g.vertices if v in coords}  # id order
        view = g.coords
        assert list(view.items()) == list(want.items()) and repr(view) == repr(want)  # repr shows -0.0
        assert [tuple(map(float.hex, xy)) for xy in view.values()] == [tuple(map(float.hex, xy))
                                                                       for xy in want.values()]
        assert list(view) == list(view.keys()) == list(want) and len(view) == len(want)
        assert view == want and want == view and not view != want
        assert all(v in view and type(view[v]) is tuple and view[v] == xy and view.get(v) == xy
                   for v, xy in want.items())
        if want:
            assert view != {**want, next(iter(want)): (7.0,)} and view != dict(list(want.items())[1:])
        for v in [v for v in g.vertices if v not in want] + ["nowhere", None, (g.vertices[0],)]:
            assert v not in view and view.get(v) is None and view.get(v, 7) == 7
            with pytest.raises(KeyError):
                view[v]
        with pytest.raises(TypeError):
            view[[g.vertices[0]]]  # unhashable, as for a dict
        with pytest.raises(TypeError):
            view[g.vertices[0]] = (1.0,)  # read-only
        ids = sorted(want)  # the columns: id order, as graph_to_dict writes them
        assert g.dim == (len(want[ids[0]]) if want else 0)
        assert list(map(float.hex, g.xs)) == [x.hex() for v in ids for x in want[v]]
        assert g.coords_at == (None if len(want) == len(g.vertices) else [g.index[v] for v in ids])
        assert dataclasses.replace(g, coords=view) == g and dataclasses.replace(g, lens=g.lens) == g
        assert repr(dataclasses.replace(g, coords=view)) == repr(g)

    def test_coords_view_is_made_once_and_holds_no_graph(self):
        g = fixture("grid", n=3).graph
        assert g.coords is g.coords and "coords" in vars(g)
        assert not any(ref is g for ref in gc.get_referents(g.coords))  # no cycle through the kept view

    def test_read_graph_stores_no_view(self, tmp_path):
        path = str(tmp_path / "g.json")
        write_graph(fixture("grid", n=4).graph, path)
        g = read_graph(path)
        assert g.h_max == 1.0 and g.edge_length("v0_0", "v0_1") == 1.0
        stored = set(vars(g))
        assert not {"edges", "adjacency"} & stored
        assert _read_views(g) == (2 * 4 * 3, 1.0, (("v0_1", 1.0), ("v1_0", 1.0)))
        assert set(vars(g)) == stored

    def test_reading_the_views_keeps_nothing(self):
        g = fixture("grid", n=60, connectivity=8).graph
        stored = set(vars(g))
        # freed tuples wait on the interpreter's free lists, still traced: fill
        # those lists first, by reading the views of an equal graph
        _read_views(fixture("grid", n=60, connectivity=8).graph)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _read_views(g)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert set(vars(g)) == stored
        assert kept < 64 * 1024  # dicts of both views would hold about 3.3 MB

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


class TestMemory:
    """What a graph keeps, and what building one peaks at, under tracemalloc
    (deterministic on one Python build).  Each bound sits between the
    figures of one list object a vertex and of one per distinct length
    list, built with fewer temporaries."""

    @staticmethod
    def traced(build):
        """(what ``build()`` returns, bytes it keeps, bytes it peaks at)."""
        gc.collect()
        tracemalloc.start()
        try:
            made = build()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return made, kept, peak

    def test_read_graph_of_a_grid(self, tmp_path):
        path = str(tmp_path / "g.json")
        write_graph(fixture("grid", n=100).graph, path)
        g, kept, peak = self.traced(lambda: read_graph(path))
        assert len(g.vertices) == 10**4
        assert kept <= 2.6 * 2**20  # a list a vertex kept 3.69 MiB, shared lists 2.41 MiB
        assert peak <= 7.85 * 2**20  # 7.27 MiB, and 7.22 MiB: mostly the parsed JSON

    def test_fixture_keeps_under_290_bytes_a_vertex(self):
        g, kept, peak = self.traced(lambda: fixture("grid", n=150).graph)
        assert kept <= 290 * len(g.vertices)  # 361 bytes a vertex with a list each, 273 shared
        assert peak <= 19.5 * 2**20  # 21.18 MiB, and 17.76 MiB

    def test_refine_keeps_and_peaks(self):
        grid = fixture("grid", n=30).graph
        g, kept, peak = self.traced(lambda: refine(grid, 0.25))
        assert len(g.vertices) == 6120
        assert kept <= 330 * len(g.vertices)  # 387 bytes a vertex with an edge dict and a list each, 293
        assert peak <= 800 * len(g.vertices)  # 896 bytes a vertex, and 766


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
