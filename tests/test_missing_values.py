"""Every reader of a field's values refuses a missing vertex, an id the graph
lacks and a non-finite value, and leaves the caller's mapping as it was: no
``__missing__`` runs, no key is added."""

from __future__ import annotations

import collections
import math
import re

import pytest

from eikograph import (
    DirichletProblem,
    FieldError,
    ScalarField,
    ValidationError,
    builtin_hamiltonian,
    constant_field,
    field_on,
    fixture,
    reduce_field,
)
from eikograph.cli import emit_plot_data
from eikograph.fields import field_list


def _missing(g, vertex):
    """A defaultdict of 1.0 at every vertex of g but ``vertex``, which it would read as 0.0."""
    return collections.defaultdict(float, {v: 1.0 for v in g.vertices if v != vertex})


def _refused(what, vertex):
    return pytest.raises(FieldError, match="^" + re.escape(f"{what} has no value at vertex {vertex!r}") + "$")


def test_a_directly_built_field_refuses_a_missing_vertex():
    g = fixture("grid", n=3).graph
    values = _missing(g, "v1_1")
    with _refused("field (rhs_f)", "v1_1"):
        DirichletProblem(g, ScalarField(g, values, "rhs_f"), constant_field(g, 0.0, "boundary_zeta"))
    assert "v1_1" not in values and len(values) == len(g.vertices) - 1


def test_a_field_read_on_another_graph_refuses_a_missing_vertex():
    g, other = fixture("grid", n=3).graph, fixture("grid", n=3).graph
    values = _missing(g, "v2_0")
    f = ScalarField(g, values, "rhs_f")
    with _refused("field (rhs_f)", "v2_0"):
        field_list(other, f)
    assert "v2_0" not in values and len(values) == len(g.vertices) - 1


def test_reduce_field_refuses_a_rho_missing_a_vertex():
    g = fixture("grid", n=3).graph
    rho = _missing(g, "v0_0")
    with _refused("rho", "v0_0"):
        reduce_field(builtin_hamiltonian("affine-rho"), g, rho)
    assert "v0_0" not in rho and len(rho) == len(g.vertices) - 1


def test_an_unknown_plot_layout_is_refused(tmp_path):
    g = fixture("grid", n=3).graph
    u = field_on(g, dict.fromkeys(g.vertices, 1.0), "solution_u")
    path = tmp_path / "plot.csv"
    with pytest.raises(ValidationError, match=r"^unknown plot layout 'cords'; expected 'auto' or 'coords'$"):
        emit_plot_data(u, g, str(path), layout="cords")
    assert not path.exists()


# reader -> (its domain on g, the vertex an input spoils, the call, what its messages call the values)
READERS = {
    "own graph": (lambda g: g.vertices, "v1_1", lambda g, vs: field_list(g, ScalarField(g, vs, "rhs_f")),
                  "field (rhs_f)"),
    "equal graph": (lambda g: g.vertices, "v1_1",
                    lambda g, vs: field_list(fixture("grid", n=3).graph, ScalarField(g, vs, "rhs_f")),
                    "field (rhs_f)"),
    "rho": (lambda g: g.vertices, "v1_1", lambda g, vs: reduce_field(builtin_hamiltonian("affine-rho"), g, vs),
            "rho"),
    "zeta": (lambda g: sorted(g.boundary), "v0_1",
             lambda g, vs: DirichletProblem(g, constant_field(g, 1.0, "rhs_f"), ScalarField(g, vs, "boundary_zeta")),
             "boundary data"),
}

# input -> (the mapping over a domain with vertex v spoiled, the message of a field reader, of the zeta reader)
INPUTS = {
    "missing id": (lambda dom, v: {x: 1.0 for x in dom if x != v},
                   "{what} has no value at vertex {v!r}", "boundary data missing at [{v!r}]"),
    "extra id": (lambda dom, v: {**dict.fromkeys(dom, 1.0), "v0_3": 1.0},
                 "{what} has a value at vertex 'v0_3', which the graph lacks",
                 "boundary data given at non-boundary vertices ['v0_3']"),
    "defaultdict": (lambda dom, v: collections.defaultdict(float, {x: 1.0 for x in dom if x != v}),
                    "{what} has no value at vertex {v!r}", "boundary data missing at [{v!r}]"),
    "nan": (lambda dom, v: {**dict.fromkeys(dom, 1.0), v: math.nan},
            "{what} has non-finite value nan at vertex {v!r}", None),
    "inf": (lambda dom, v: {**dict.fromkeys(dom, 1.0), v: math.inf},
            "{what} has non-finite value inf at vertex {v!r}", None),
}


@pytest.mark.parametrize("given", INPUTS)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_refuses_what_it_cannot_use(reader, given):
    g = fixture("grid", n=3).graph
    domain, v, read, what = READERS[reader]
    make, message, zeta_message = INPUTS[given]
    values = make(domain(g), v)
    before = dict(values)
    want = (zeta_message if reader == "zeta" and zeta_message else message).format(what=what, v=v)
    with pytest.raises(FieldError, match="^" + re.escape(want) + "$"):
        read(g, values)
    assert dict(values) == before


@pytest.mark.parametrize("given", ["missing id", "defaultdict"])
def test_a_field_lookup_by_id_refuses_a_missing_vertex(given):
    g = fixture("grid", n=3).graph
    values = INPUTS[given][0](g.vertices, "v1_1")
    with _refused("field (rhs_f)", "v1_1"):
        ScalarField(g, values, "rhs_f")["v1_1"]
    assert "v1_1" not in values and len(values) == len(g.vertices) - 1


def test_a_field_of_finite_values_whose_sum_overflows_is_read():
    g = fixture("grid", n=3).graph
    big = dict.fromkeys(g.vertices, 1e308)
    assert field_list(g, ScalarField(g, big, "rhs_f")) == [1e308] * len(g.vertices)
    zeta = dict.fromkeys(g.boundary, 1e308)
    DirichletProblem(g, constant_field(g, 1.0, "rhs_f"), ScalarField(g, zeta, "boundary_zeta"))


def test_a_nan_in_a_directly_built_rhs_is_refused_before_the_solve():
    # the solve once went on to "the cost of reaching vertex 'v1_1' overflows binary64"
    g = fixture("grid", n=4).graph
    values = {**dict.fromkeys(g.vertices, 1.0), "v1_1": math.nan}
    with pytest.raises(FieldError, match=r"^field \(rhs_f\) has non-finite value nan at vertex 'v1_1'$"):
        DirichletProblem(g, ScalarField(g, values, "rhs_f"), constant_field(g, 0.0, "boundary_zeta"))


# door -> a call that reads rhs values on g: the public constructor, a directly built field's list,
# and the problem that judges a directly built f
DOORS = {
    "field_on": lambda g, vs: field_on(g, vs, "rhs_f"),
    "field_list": lambda g, vs: field_list(g, ScalarField(g, vs, "rhs_f")),
    "DirichletProblem": lambda g, vs: DirichletProblem(g, ScalarField(g, vs, "rhs_f"),
                                                       constant_field(g, 0.0, "boundary_zeta")),
}

# input -> (rhs values over g's vertices with v spoiled, the one message every door gives)
DOOR_INPUTS = {
    **{given: INPUTS[given][:2] for given in ("missing id", "extra id", "nan", "defaultdict")},
    "missing id, nan elsewhere": (lambda dom, v: {**INPUTS["missing id"][0](dom, v), "v2_2": math.nan},
                                  INPUTS["missing id"][1]),
}


@pytest.mark.parametrize("given", DOOR_INPUTS)
@pytest.mark.parametrize("door", DOORS)
def test_every_door_gives_one_message_per_input(door, given):
    g = fixture("grid", n=3).graph
    make, message = DOOR_INPUTS[given]
    values = make(g.vertices, "v1_1")
    before = dict(values)
    with pytest.raises(FieldError, match="^" + re.escape(message.format(what="field (rhs_f)", v="v1_1")) + "$"):
        DOORS[door](g, values)
    assert dict(values) == before
