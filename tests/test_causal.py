"""The causal label-setting pass that answers where Picard stops short.

``solve_general(..., max_iter=1)`` spends its one Picard solve and returns
the pass's labels at once.  They must be ``oracles.reference_general_fixpoint``'s
bit for bit, the bitwise fixpoint of the causal update iterated Jacobi-style
from above on the plain bisection and the oracle's own adjacency, together
with their reductions, residuals, flags and exits, and the labels must also
be the fixpoint that the iteration reaches from below: the discrete system
has one solution.  Where the sampled mesh condition 1 - (l_max/2) * B >= 0
fails, ``ConvergenceError`` must name the longest edge and B.  On the hjb
benchmark's instances one application of the update leaves the labels
unchanged, and the eikonal checks pass on f = h(., u(.)).
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from eikograph import (
    ConvergenceError,
    HamiltonianSpec,
    build_graph,
    builtin_hamiltonian,
    check_c_subsolution,
    check_c_supersolution,
    check_monge,
    check_regularity,
    default_check_tol,
    expression_hamiltonian,
    field_on,
    fixture,
    random_metric_graph,
    solve_general,
    validate_hamiltonian,
)
from eikograph.hamiltonians import BUILTIN_NAMES
from oracles import reference_causal_update, reference_general_fixpoint, reference_reduce_field

ROOT = Path(__file__).resolve().parents[1]

FIXTURES = [("interval", {"n": 30}), ("grid", {"n": 6}), ("grid", {"n": 5, "connectivity": 8}),
            ("binary_tree", {"depth": 4}), ("gasket", {"level": 3})]
# (H, the low end of zeta's range, whose top is 0.2): above affine-rho:0.125's
# level h = 0, so every arc from such a vertex costs 0 and equal labels are
# settled in a chain; at zeta = 0.2 everywhere, from many boundary vertices
HAMILTONIANS = [("affine-rho", 0.0), ("p + rho - 1", 0.0), ("p - 0.5*exp(-rho)", 0.0),
                ("p * p + rho - 1", 0.0), ("affine-rho:0.125", 0.15), ("affine-rho:0.125", 0.2)]


def hamiltonian(name):
    return builtin_hamiltonian(name) if name.partition(":")[0] in BUILTIN_NAMES else expression_hamiltonian(name)


def seeded_zeta(g, seed, low=0.0):
    rng = random.Random(seed)
    return field_on(g, {y: rng.uniform(low, 0.2) for y in sorted(g.boundary)}, "boundary_zeta")


def hexes(values, names):
    return [(v, values[v].hex()) for v in names]


def causal_or_refused(g, H, zeta) -> bool:
    """Assert the pass's outputs are the oracle's, its labels reached from
    above and from below, or that the mesh condition refused it; True when
    the pass answered."""
    B = validate_hamiltonian(H, g).mesh_bound
    longest = max(g.edges.values())
    try:
        vf, red, solves = solve_general(g, H, zeta, max_iter=1)
    except ConvergenceError as exc:
        assert 0.5 * longest * B > 1.0
        assert str(exc).endswith(f"has l = {longest}, the sampled B = {B}")
        return False
    assert 0.5 * longest * B <= 1.0 and solves == 2
    u, h, exits = reference_general_fixpoint(g, H, zeta.values)
    names = g.vertices
    assert hexes(vf.u.values, names) == hexes(u, names)
    assert hexes(red.h.values, names) == hexes(h, names)
    assert dict(vf.exit_vertex) == exits
    want = reference_reduce_field(H, g, u)
    assert hexes(red.residuals, names) == hexes(want.residuals, names) and red.flagged == want.flagged
    assert vf.attained == {y: u[y] == zeta.values[y] for y in sorted(g.boundary)}
    below = reference_general_fixpoint(g, H, zeta.values, start="below")[0]
    assert hexes(below, names) == hexes(u, names)
    return True


@pytest.mark.parametrize("fix,params", FIXTURES, ids=lambda p: str(p))
@pytest.mark.parametrize("name,low", HAMILTONIANS)
def test_labels_are_the_fixpoint_oracles(name, low, fix, params):
    g = fixture(fix, **params).graph
    answered = causal_or_refused(g, hamiltonian(name), seeded_zeta(g, 1, low))
    # p * p + rho - 1 has B = 16 (inf dH/dp = 1/16 on the sampled grid)
    assert answered == (name != "p * p + rho - 1" or fix in ("interval", "gasket"))


@pytest.mark.parametrize("name", ["affine-rho", "p + rho - 1", "p - 0.5*exp(-rho)"])
def test_labels_are_the_fixpoint_oracles_on_random_graphs(name):
    H = hamiltonian(name)
    answered = [causal_or_refused(g, H, seeded_zeta(g, seed)) for seed in range(16)
                for g in [random_metric_graph(seed, n_max=30)]]
    # lengths lie in [0.2, 2] and B is 1 for the first two, about 1.07 for the third
    assert all(answered) if name != "p - 0.5*exp(-rho)" else 0 < sum(answered) < len(answered)


# (H, graphs, of which the mesh condition refuses): 200 per builtin, fewer per
# expression; B = 16 for p * p + rho - 1, and every graph has an edge above 1/8
@pytest.mark.parametrize("name,count,refused", [("affine-rho", 200, 0), ("affine-rho:0.125", 200, 0),
                                                ("p + rho - 1", 50, 0), ("p - 0.5*exp(-rho)", 50, 22),
                                                ("p * p + rho - 1", 50, 50)])
def test_one_fixpoint_from_both_starts_on_small_random_graphs(name, count, refused):
    H = hamiltonian(name)
    for seed in range(count):
        g = random_metric_graph(seed, n_min=4, n_max=8)
        zeta = seeded_zeta(g, seed)
        try:
            u = solve_general(g, H, zeta, max_iter=1)[0].u.values
        except ConvergenceError as exc:
            assert "the causal pass needs 1 - (l/2) * B >= 0" in str(exc)
            refused -= 1
            continue
        for start in ("above", "below"):
            assert hexes(reference_general_fixpoint(g, H, zeta.values, start=start)[0], g.vertices) == \
                hexes(u, g.vertices), (seed, start)
    assert refused == 0


def test_equal_candidates_give_the_least_index_its_exit():
    # every label is 0.2 and every arc costs 0; c settles j, j offers n its
    # label, then m settles a, and a < j offers n the same label: n exits at
    # a's exit m, as settle's parent rule (least index) has it, not at c
    g = build_graph({"vertices": ["a", "c", "j", "m", "n"], "boundary": ["c", "m"],
                     "edges": [{"a": a, "b": b, "length": 1.0}
                               for a, b in [("c", "j"), ("j", "n"), ("n", "a"), ("a", "m")]]})
    H, zeta = builtin_hamiltonian("affine-rho:0.125"), field_on(g, {"c": 0.2, "m": 0.2}, "boundary_zeta")
    assert causal_or_refused(g, H, zeta)
    vf = solve_general(g, H, zeta, max_iter=1)[0]
    assert list(vf.u.values) == ["c", "j", "m", "a", "n"] and vf.exit_vertex["n"] == "m"


def test_generic_kernel_gives_the_inlined_kernels_labels():
    # a closure takes the generic kernels, as the benchmark's traced run does
    g = fixture("grid", n=8).graph
    H = builtin_hamiltonian("affine-rho")
    wrapped = HamiltonianSpec(H.name, lambda x, rho, p: H.evaluate(x, rho, p), H.lambda0, H.rho_monotonicity)
    zeta = seeded_zeta(g, 5)
    (vf, red, _), (vf_w, red_w, _) = (solve_general(g, K, zeta, max_iter=1) for K in (H, wrapped))
    assert hexes(vf.u.values, g.vertices) == hexes(vf_w.u.values, g.vertices)
    assert hexes(red.h.values, g.vertices) == hexes(red_w.h.values, g.vertices)
    assert dict(vf.exit_vertex) == dict(vf_w.exit_vertex)


@pytest.mark.parametrize("name,B", [("affine-rho", 1.0), ("affine-rho:3", 1.0), ("p + rho - 1", 1.0),
                                    ("p + 4*rho - 1", 4.0), ("2*p + rho - 1", 0.5), ("quadratic", 0.0),
                                    ("linear", 0.0), ("p * p + rho - 1", 16.0)])
def test_mesh_bound_is_sampled_not_lambda0(name, B):
    # the expressions declare lambda0 = 1e-6: a bound through lambda0 would be 1e6
    assert validate_hamiltonian(hamiltonian(name), fixture("interval", n=4).graph).mesh_bound == B


def hjb_instances():
    """The rho-dependent hjb instances of ``perfbench/workloads.py`` at full
    size, each with its zeta variant 0."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks it up
    spec.loader.exec_module(workloads)
    for j, (name, fix, params, _) in enumerate(workloads.SIZES["full"]["hjb"]):
        H = workloads.hamiltonian(name)
        if H.rho_monotonicity != "independent":
            g = fixture(fix, **params).graph
            yield pytest.param(g, H, field_on(g, workloads.hjb_zeta(j, g, 0), "boundary_zeta"),
                               id=workloads.instance_label(fix, params) + f" {name}")


@pytest.mark.parametrize("g,H,zeta", list(hjb_instances()))
def test_hjb_labels_are_a_fixpoint_and_pass_the_checks(g, H, zeta):
    vf, red, _ = solve_general(g, H, zeta, max_iter=1)
    u = dict(vf.u.values)
    again = reference_causal_update(g, H, zeta.values, u)
    assert hexes(again, g.vertices) == hexes(u, g.vertices)
    f = red.h
    tol = default_check_tol(g, f)
    for report in (check_monge(g, vf.u, f, tol=tol), check_c_subsolution(g, vf.u, f, tol=tol),
                   check_c_supersolution(g, vf.u, f, eps=tol),
                   check_regularity(g, vf.u, tol=default_check_tol(g, None))):
        assert report.passed, report.name
