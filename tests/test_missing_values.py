"""Every reader of a field's values refuses a missing vertex and leaves the
caller's mapping as it was: no ``__missing__`` runs, no key is added."""

from __future__ import annotations

import collections
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
    solve_dirichlet,
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
    problem = DirichletProblem(g, ScalarField(g, values, "rhs_f"), constant_field(g, 0.0, "boundary_zeta"))
    with _refused("field (rhs_f)", "v1_1"):
        solve_dirichlet(problem)
    assert "v1_1" not in values and len(values) == len(g.vertices) - 1


def test_a_field_read_on_another_graph_refuses_a_missing_vertex():
    g, other = fixture("grid", n=3).graph, fixture("grid", n=3).graph
    values = _missing(g, "v2_0")
    f = ScalarField(g, values, "rhs_f", [1.0] * len(g.vertices))  # its own list is whole
    assert field_list(g, f) == [1.0] * len(g.vertices)
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
