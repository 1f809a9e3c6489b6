"""One way to make a MetricGraph: the constructor, and so ``dataclasses.replace``,
lays the caller's lists out as every builder does, or refuses them."""

from __future__ import annotations

import dataclasses
import math
import re

import pytest

from eikograph import MetricGraph, ValidationError, build_graph, fixture
from eikograph.graph import graph_to_dict

from test_graph import VIEW_GRAPHS

LAYOUT = "differs from the layout of its edges"


def _grid_lists():
    """grid n=3 and copies of its lists, one list object per vertex."""
    g = fixture("grid", n=3).graph
    return g, [list(nb) for nb in g.nbrs], [list(ln) for ln in g.lens]


def _build(g, nbrs, lens, vertices=None, boundary=None):
    """``dataclasses.replace`` of g: the constructor with g's other fields."""
    return dataclasses.replace(g, vertices=g.vertices if vertices is None else vertices,
                               boundary=g.boundary if boundary is None else boundary,
                               nbrs=tuple(nbrs), lens=tuple(lens))


def _refused_at(vertex, k):
    return pytest.raises(ValidationError, match="^" + re.escape(f"vertex {vertex!r} at index {k} {LAYOUT}"))


def _set_length(g, lens, a, b, length):
    """The length of edge (a, b) in both its ends' lists."""
    i, j = g.index[a], g.index[b]
    lens[i][g.nbrs[i].index(j)] = lens[j][g.nbrs[j].index(i)] = length


@pytest.mark.parametrize("length", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_a_length_that_is_no_positive_finite_number_is_refused_naming_the_edge(length):
    g, nbrs, lens = _grid_lists()
    _set_length(g, lens, "v1_1", "v1_2", length)
    with pytest.raises(ValidationError, match="^" + re.escape(
            f"edge ('v1_1', 'v1_2') has length {length!r}; a length must be a positive finite number") + "$"):
        _build(g, nbrs, lens)


def test_negated_lengths_are_refused_naming_the_first_edge():
    g = fixture("grid", n=3).graph
    with pytest.raises(ValidationError, match=r"^edge \('v0_0', 'v0_1'\) has length -1\.0; "):
        dataclasses.replace(g, lens=tuple([-x for x in ln] for ln in g.lens))


def test_reversed_lists_are_refused_naming_the_vertex():
    g, nbrs, lens = _grid_lists()
    i = g.index["v1_1"]
    nbrs[i].reverse()
    lens[i].reverse()  # the same edges and lengths, out of id order
    with _refused_at("v1_1", i):
        _build(g, nbrs, lens)
    with _refused_at("v1_1", i):
        dataclasses.replace(g, nbrs=tuple(nbrs))


def test_a_length_that_differs_between_the_two_ends_is_refused_at_the_larger_end():
    g, nbrs, lens = _grid_lists()
    i, j = g.index["v1_1"], g.index["v1_2"]
    lens[j][nbrs[j].index(i)] = 2.0  # the larger end's entry; the smaller end's is the edge's length
    with _refused_at("v1_2", j):
        _build(g, nbrs, lens)


@pytest.mark.parametrize("entry", ["self-loop", "out of range", "negative"])
def test_an_entry_that_is_no_edge_is_refused_naming_its_vertex(entry):
    g, nbrs, lens = _grid_lists()
    i = g.index["v1_1"]
    nbrs[i].append({"self-loop": i, "out of range": len(g.vertices), "negative": -1}[entry])
    lens[i].append(1.0)
    with _refused_at("v1_1", i):
        _build(g, nbrs, lens)


@pytest.mark.parametrize("kind", [float, str, bool])
@pytest.mark.parametrize("end", ["smaller", "larger"])
def test_a_neighbour_index_that_is_no_int_is_refused(kind, end):
    g, nbrs, lens = _grid_lists()
    a, b = ("v0_0", "v0_1") if kind is bool else ("v1_1", "v1_2")  # True is index 1, v0_1
    i, j = (g.index[a], g.index[b]) if end == "smaller" else (g.index[b], g.index[a])
    k = nbrs[i].index(j)
    nbrs[i][k] = kind(j)
    with _refused_at(g.vertices[i], i):
        _build(g, nbrs, lens)


def test_unsorted_vertices_are_refused():
    g, nbrs, lens = _grid_lists()
    with _refused_at("v2_2", 0):
        _build(g, nbrs, lens, vertices=g.vertices[::-1])


def test_a_repeated_vertex_is_refused():
    g, nbrs, lens = _grid_lists()
    with _refused_at("v2_2", len(g.vertices)):
        _build(g, nbrs + [[]], lens + [[]], vertices=g.vertices + ("v2_2",))


def test_an_unknown_boundary_id_is_refused():
    g, nbrs, lens = _grid_lists()
    with pytest.raises(ValidationError, match=r"^boundary references unknown vertices \['ghost'\]$"):
        _build(g, nbrs, lens, boundary=g.boundary | {"ghost"})


def test_index_is_derived_and_cannot_be_given():
    g = fixture("grid", n=3).graph
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(g, index=dict(g.index))
    with pytest.raises(TypeError):
        MetricGraph(vertices=g.vertices, boundary=g.boundary, coords=g.coords, index=g.index, nbrs=g.nbrs,
                    lens=g.lens)


def _doubled_file(g):
    """The graph of g's version 2 file with every length doubled, as ``build_graph`` lays it out."""
    spec = graph_to_dict(g)
    spec["length"] = [2.0 * x for x in spec["length"]]
    return build_graph(spec)


def _same_layout(h, want):
    assert h == want and repr(h) == repr(want)
    assert h.index == want.index and h.nbrs == want.nbrs and h.lens == want.lens
    assert (h.dim, h.xs, h.coords_at) == (want.dim, want.xs, want.coords_at)
    assert len(set(map(id, h.lens))) == len(set(map(tuple, h.lens)))  # one object per distinct length list


@pytest.mark.parametrize("make", VIEW_GRAPHS.values(), ids=VIEW_GRAPHS.keys())
def test_replace_lays_out_as_every_builder(make):
    g = make()
    _same_layout(dataclasses.replace(g), g)
    _same_layout(dataclasses.replace(g, coords=g.coords), g)
    doubled = tuple([2.0 * x for x in ln] for ln in g.lens)  # one list object per vertex
    h = dataclasses.replace(g, lens=doubled)
    _same_layout(h, _doubled_file(g))
    assert not set(map(id, h.lens)) & set(map(id, doubled))  # the layout's lists, not the caller's
