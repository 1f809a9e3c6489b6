"""Certificates against their pairwise references: the boundary certificate's
min-plus solves and Dinkelbach L, and the bounded searches of ball(); the
boundary certificate bit for bit against its one-solve-per-verdict
reference, with the solves its edge pass saves counted; the local Lipschitz
bound that the along-curves subsolution check implies."""

from __future__ import annotations

import math
import random

import pytest

import oracles
from eikograph import (
    DirichletProblem,
    FieldError,
    ProblemError,
    ScalarField,
    ball,
    check_boundary_consistency,
    check_c_subsolution,
    constant_field,
    distances_from,
    field_from_expression,
    field_on,
    fixture,
    random_metric_graph,
    solve_dirichlet,
)
from eikograph import solver
from eikograph.graph import settle

from oracles import lipschitz_certificate_rows, pairwise_boundary_certificate, reference_boundary_consistency

GRAPHS = (
    [("random", seed) for seed in range(8)]
    + [("grid", {"n": 5}), ("grid", {"n": 6, "connectivity": 8}), ("binary_tree", {"depth": 4})]
)
DATA = ("compatible", "constant_zeta", "incompatible", "constant_f", "zero_patch")


def make_graph(kind, arg):
    if kind == "random":
        return random_metric_graph(arg, n_max=30)
    return fixture(kind, **arg).graph


def make_problem(g, data, seed):
    """Seeded f and zeta of one data kind.

    compatible: zeta = 0.5 * inf f * d(., y0), Lipschitz below inf f;
    constant_zeta: zeta = 0.25 everywhere on the boundary; incompatible: zeta uniform on [0, 50]; constant_f: f = 1, where the
    one-sided bound is met with equality, and zeta = d(., y0); zero_patch:
    f = 0 on a random quarter of the vertices (threshold 0), zeta uniform on
    [0, 1].
    """
    rng = random.Random(f"{seed}-{data}")
    boundary = sorted(g.boundary)
    f_vals = {v: rng.uniform(0.5, 2.0) for v in g.vertices}
    threshold = 1e-9
    if data == "constant_f":
        f_vals = dict.fromkeys(g.vertices, 1.0)
    elif data == "zero_patch":
        f_vals.update(dict.fromkeys(rng.sample(g.vertices, len(g.vertices) // 4), 0.0))
        threshold = 0.0
    d0 = distances_from(g, [boundary[0]])
    if data == "compatible":
        inf_f = min(f_vals.values())
        zeta_vals = {y: 0.5 * inf_f * d0[y] for y in boundary}
    elif data == "constant_f":
        zeta_vals = {y: d0[y] for y in boundary}
    elif data == "constant_zeta":
        zeta_vals = dict.fromkeys(boundary, 0.25)
    else:
        high = 50.0 if data == "incompatible" else 1.0
        zeta_vals = {y: rng.uniform(0.0, high) for y in boundary}
    return DirichletProblem(
        g,
        field_on(g, f_vals, "rhs_f"),
        field_on(g, zeta_vals, "boundary_zeta"),
        threshold=threshold,
    )


@pytest.mark.parametrize("data", DATA)
@pytest.mark.parametrize("kind,arg", GRAPHS)
def test_boundary_certificate_matches_pairwise_oracle(kind, arg, data):
    g = make_graph(kind, arg)
    p = make_problem(g, data, seed=str(arg))
    vf = solve_dirichlet(p)
    cert = check_boundary_consistency(p, vf)
    _, *ref_verdicts = pairwise_boundary_certificate(p, vf.u)
    got = [cert.zeta_lipschitz_ok, cert.curve_condition_ok, cert.weak_bound_ok, cert.two_sided_ok]
    assert got == ref_verdicts
    # _lipschitz_on_boundary's contract: never above the pairwise maximum, at most two ulps below it
    exact = oracles.reference_boundary_lipschitz(g, p.zeta.values)
    assert math.nextafter(math.nextafter(exact, 0.0), 0.0) <= cert.lipschitz_L <= exact
    assert cert.weak_bound_ok  # holds for every solver output
    if data == "compatible":
        assert cert.zeta_lipschitz_ok and cert.two_sided_ok is not None


def test_oracle_instances_cover_both_outcomes():
    # the oracle comparison above must see both outcomes of each condition
    seen = set()
    for kind, arg in GRAPHS:
        g = make_graph(kind, arg)
        for data in DATA:
            p = make_problem(g, data, seed=str(arg))
            cert = check_boundary_consistency(p, solve_dirichlet(p))
            seen.add(("zeta", cert.zeta_lipschitz_ok))
            seen.add(("curve", cert.curve_condition_ok))
            seen.add(("two_sided", cert.two_sided_ok))
    assert {("zeta", True), ("zeta", False), ("curve", True), ("curve", False),
            ("two_sided", True), ("two_sided", None)} <= seen


@pytest.mark.parametrize("shift,weak,two_sided", [(10.0, False, False), (-10.0, True, False)])
def test_value_bound_failure_is_reported(shift, weak, two_sided):
    # u shifted above every cone zeta(y) + K d(x, y) fails the one-sided
    # bound; shifted below every cone zeta(y) - sup f d(x, y), the reverse one
    p = make_problem(fixture("grid", n=5).graph, "compatible", seed="shift")
    vf = solve_dirichlet(p)
    shifted = type(vf)(
        u=field_on(p.graph, {v: x + shift for v, x in vf.u.values.items()}, "solution_u"),
        exit_vertex=vf.exit_vertex,
        attained=vf.attained,
    )
    cert = check_boundary_consistency(p, shifted)
    assert (cert.weak_bound_ok, cert.two_sided_ok) == (weak, two_sided)
    _L, _zeta_ok, _curve_ok, weak_ok, two_sided_ok = pairwise_boundary_certificate(p, shifted.u)
    assert (weak_ok, two_sided_ok) == (weak, two_sided)


def with_u(vf, values):
    return type(vf)(u=field_on(vf.u.graph, values, "solution_u"), exit_vertex=vf.exit_vertex,
                    attained=vf.attained)


def u_variants(p, vf):
    """(name, u values): the solver's u, then u that are no solver output.

    shift_up and shift_down move u by +-10; dip lowers the middle interior
    vertex by 1 (the one-sided bound still holds), deep_dip by 1e6, more
    than any edge weight the certificate uses; boundary_dip puts the first
    boundary vertex 1 below its datum, so the curve condition needs its
    solve; jitter adds +-1e-13, + at the first boundary vertex that attains
    its datum and - at another.
    """
    g, u = p.graph, vf.u.values
    boundary = sorted(g.boundary)
    rng = random.Random(len(u))
    jitter = {v: x + rng.choice((-1e-13, 1e-13)) for v, x in u.items()}
    up = next(y for y in boundary if vf.attained[y])
    down = next(y for y in boundary if y != up)
    jitter[up], jitter[down] = u[up] + 1e-13, u[down] - 1e-13
    x0 = g.interior[len(g.interior) // 2]
    yield "solver", u
    yield "shift_up", {v: x + 10.0 for v, x in u.items()}
    yield "shift_down", {v: x - 10.0 for v, x in u.items()}
    yield "dip", {**u, x0: u[x0] - 1.0}
    yield "deep_dip", {**u, x0: u[x0] - 1e6}
    yield "boundary_dip", {**u, boundary[0]: p.zeta[boundary[0]] - 1.0}
    yield "jitter", jitter


def as_hex(cert):
    return [x.hex() if isinstance(x, float) else x for x in vars(cert).values()]


@pytest.mark.parametrize("data", DATA)
@pytest.mark.parametrize("kind,arg", GRAPHS)
def test_certificate_bit_identical_to_reference(kind, arg, data):
    g = make_graph(kind, arg)
    p = make_problem(g, data, seed=str(arg))
    vf = solve_dirichlet(p)
    for name, u in u_variants(p, vf):
        w = with_u(vf, u)
        assert as_hex(check_boundary_consistency(p, w)) == as_hex(reference_boundary_consistency(p, w)), name


def trace_solves(monkeypatch):
    """Patch the certificate's and the reference's solves to be logged.

    Returns (log, reference count, proven): each certificate solve is logged
    as "curve" (the one with f weights), "dinkelbach" (inside the boundary
    Lipschitz iteration) or "bound"; proven lists each edge pass's result.
    """
    log, ref, proven, phase = [], [0], [], ["bound"]
    lipschitz, labels_reach = solver._lipschitz_on_boundary, solver._labels_reach

    def counted(g, seeds, fl=None, *args, **kwargs):
        log.append("curve" if fl is not None else phase[0])
        return settle(g, seeds, fl, *args, **kwargs)

    def ref_counted(*args, **kwargs):
        ref[0] += 1
        return settle(*args, **kwargs)

    def in_dinkelbach(*args):
        phase[0] = "dinkelbach"
        try:
            return lipschitz(*args)
        finally:
            phase[0] = "bound"

    def recorded(*args, **kwargs):
        proven.append(labels_reach(*args, **kwargs))
        return proven[-1]

    monkeypatch.setattr(solver, "settle", counted)
    monkeypatch.setattr(oracles, "settle", ref_counted)
    monkeypatch.setattr(solver, "_lipschitz_on_boundary", in_dinkelbach)
    monkeypatch.setattr(solver, "_labels_reach", recorded)
    return log, ref, proven


@pytest.mark.parametrize("kind,arg", GRAPHS)
def test_certificate_solve_counts(kind, arg, monkeypatch):
    g = make_graph(kind, arg)
    log, ref, proven = trace_solves(monkeypatch)
    for data in DATA:
        p = make_problem(g, data, seed=str(arg))
        vf = solve_dirichlet(p)
        for name, u in u_variants(p, vf):
            log.clear(), proven.clear()
            ref[0] = 0
            w = with_u(vf, u)
            cert = check_boundary_consistency(p, w)
            reference_boundary_consistency(p, w)
            where = (data, name)
            flat = data == "constant_zeta"  # a constant datum needs no curve solve
            # each pass that proves its verdict saves that verdict's solve, and only that
            assert len(log) == ref[0] - sum(proven) - flat, where
            if name == "solver" and data == "constant_zeta":
                assert log == [], where
            elif name == "solver" and data == "incompatible":
                # the curve solve, unless no datum is undercut, then Dinkelbach's
                curve = ["curve"] * (not all(vf.attained.values()))
                assert log == curve + ["dinkelbach"] * (len(log) - len(curve)), where
            elif name in ("shift_up", "deep_dip", "jitter"):
                assert not any(proven), where  # every pass fails
            elif name == "shift_down":
                assert cert.weak_bound_ok and any(proven), where  # each edge inequality survives the shift
            elif name == "boundary_dip":
                assert ("curve" in log) != flat, where
            if name in ("dip", "deep_dip"):
                assert cert.weak_bound_ok, where


def test_limited_certificate_solves_keep_every_verdict(monkeypatch):
    # _undercuts stops at the largest datum and holds at the largest judged
    # value: each run is a prefix of the unlimited one with the same labels
    # and parents, and every field equals the reference's full solves
    cases = []
    for seed in range(40):
        g = random_metric_graph(seed, n_max=40)
        for data in DATA:
            p = make_problem(g, data, seed=f"limit-{seed}")
            cases.append((p, solve_dirichlet(p)))
    settled, searched = [0], [0]

    def prefix(g, seeds, fl=None, scale=1.0, limit=math.inf):
        dist, order, parent = settle(g, seeds, fl, scale, limit)
        full_dist, full_order, full_parent = settle(g, seeds, fl, scale)
        assert order == full_order[:len(order)]
        got = [(dist[x].hex(), parent[x]) for x in order]
        assert got == [(full_dist[x].hex(), full_parent[x]) for x in order]
        settled[0] += len(order)
        searched[0] += len(full_order)
        return dist, order, parent

    monkeypatch.setattr(solver, "settle", prefix)
    for p, vf in cases:
        assert as_hex(check_boundary_consistency(p, vf)) == as_hex(reference_boundary_consistency(p, vf))
    assert settled[0] < searched[0]


@pytest.mark.parametrize("slope,holds", [(0.5, True), (1.0 + 5e-10, True), (1.0 + 2e-9, False), (1.5, False)])
def test_curve_pass_on_a_linear_u(slope, holds, monkeypatch):
    # f = 1 on an interval and u linear in arc length, equal to zeta at both
    # ends: the curve pass proves the condition up to slope 1 + REL_TOL and
    # past it leaves the verdict to the curve solve
    g = fixture("interval", n=10).graph
    at = distances_from(g, ["v0"])
    p = DirichletProblem(
        g,
        field_on(g, dict.fromkeys(g.vertices, 1.0), "rhs_f"),
        field_on(g, {"v0": 0.0, "v10": slope * at["v10"]}, "boundary_zeta"),
    )
    vf = with_u(solve_dirichlet(p), {v: slope * d for v, d in at.items()})
    log, _ref, _proven = trace_solves(monkeypatch)
    cert = check_boundary_consistency(p, vf)
    assert as_hex(cert) == as_hex(reference_boundary_consistency(p, vf))
    assert cert.curve_condition_ok == holds
    assert ("curve" in log) != holds


def linear_zeta_grids():
    """(n, zeta expression): the grid n = 12 with zeta = 0.7 x, where the
    largest ratio lies on the boundary edge v8_11 - v9_11, then 60 seeded
    grids, n in [4, 15], with zeta linear in one coordinate."""
    yield 12, "linear:0,0.7"
    for seed in range(60):
        rng = random.Random(f"linear-zeta-{seed}")
        yield rng.randint(4, 15), f"linear:{rng.uniform(-1, 1)!r},{rng.uniform(-2, 2)!r},{rng.randrange(2)}"


def test_lipschitz_L_is_the_pairwise_maximum():
    # Dinkelbach stopped an ulp or two short of the maximum where the pair
    # attaining it, a boundary edge, rounded to no undercut; its start now
    # takes the boundary edges' ratios
    for n, expr in linear_zeta_grids():
        g = fixture("grid", n=n).graph
        zeta = field_from_expression(g, expr, "boundary_zeta")
        p = DirichletProblem(g, constant_field(g, 1.0, "rhs_f"), zeta)
        cert = check_boundary_consistency(p, solve_dirichlet(p))
        assert cert.lipschitz_L.hex() == oracles.reference_boundary_lipschitz(g, zeta.values).hex(), (n, expr)
        if (n, expr) == (12, "linear:0,0.7"):
            assert cert.lipschitz_L.hex() == "0x1.6666666666668p-1"


@pytest.mark.parametrize("threshold", [-2.0, math.nan])
def test_negative_or_nan_threshold_is_rejected(threshold):
    # f < 0 reached the certificate only through a ScalarField built directly
    # and a negative threshold (NaN admits any f, as every x < NaN is false);
    # with constant zeta it ended in a TypeError at the Lipschitz witness
    g = fixture("grid", n=6).graph
    f = ScalarField(g, {v: -1.0 for v in g.vertices}, "rhs_f")
    with pytest.raises(ProblemError, match="positivity threshold must be nonnegative"):
        DirichletProblem(g, f, field_on(g, {y: 0.25 for y in g.boundary}, "boundary_zeta"), threshold=threshold)


@pytest.mark.parametrize("other", [("interval", {"n": 4}, "v0_0"), ("grid", {"n": 5}, "v0_5")])
def test_certificate_rejects_u_of_another_graph(other):
    # a u that lacks a vertex of the problem's graph, interior or boundary
    kind, arg, missing = other
    p = make_problem(fixture("grid", n=6).graph, "compatible", seed="other")
    q = make_problem(fixture(kind, **arg).graph, "compatible", seed="other")
    with pytest.raises(FieldError, match=f"no value at vertex '{missing}'"):
        check_boundary_consistency(p, solve_dirichlet(q))


@pytest.mark.parametrize("excess,holds", [
    (lambda c: c * (1.0 + 5e-10), True),  # within REL_TOL of the bound
    (lambda c: c + 5e-13, True),  # within ABS_TOL
    (lambda c: c * (1.0 + 2e-9), False),
    (lambda c: c + 1e-6, False),
])
def test_tolerance_form_at_the_bound(excess, holds):
    # f = 1 on an interval: d = cost, so the strong and the curve condition
    # both compare zeta(v10) - zeta(v0) with the end-to-end path length
    g = fixture("interval", n=10).graph
    length = distances_from(g, ["v0"])["v10"]
    p = DirichletProblem(
        g,
        field_on(g, dict.fromkeys(g.vertices, 1.0), "rhs_f"),
        field_on(g, {"v0": 0.0, "v10": excess(length)}, "boundary_zeta"),
    )
    vf = solve_dirichlet(p)
    cert = check_boundary_consistency(p, vf)
    assert (cert.zeta_lipschitz_ok, cert.curve_condition_ok) == (holds, holds)
    ref_L, *ref_verdicts = pairwise_boundary_certificate(p, vf.u)
    assert [cert.zeta_lipschitz_ok, cert.curve_condition_ok, cert.weak_bound_ok,
            cert.two_sided_ok] == ref_verdicts
    assert abs(cert.lipschitz_L - ref_L) <= 1e-9 * ref_L


@pytest.mark.parametrize("kind,arg", GRAPHS)
def test_csub_pass_implies_local_lipschitz_bound(kind, arg):
    # edge residuals summed along shortest paths bound |u(x) - u(y)| by
    # d(x, y) * sup f, so a csub pass at tol 0 leaves no Lipschitz excess
    g = make_graph(kind, arg)
    p = make_problem(g, "incompatible", seed=str(arg))
    u = solve_dirichlet(p).u
    assert check_c_subsolution(g, u, p.f, tol=0.0).passed
    assert all(worst <= 1e-12 for *_rest, worst in lipschitz_certificate_rows(g, u, p.f))


def test_local_lipschitz_excess_implies_csub_failure():
    # the contrapositive, on a u that is no subsolution
    g = fixture("grid", n=6).graph
    rng = random.Random(11)
    u = field_on(g, {v: rng.uniform(0.0, 5.0) for v in g.vertices}, "solution_u")
    f = field_on(g, {v: rng.uniform(0.5, 2.0) for v in g.vertices}, "rhs_f")
    assert any(worst > 0.0 for *_rest, worst in lipschitz_certificate_rows(g, u, f))
    assert not check_c_subsolution(g, u, f, tol=0.0).passed


@pytest.mark.parametrize("kind,arg", GRAPHS)
def test_bounded_ball_equals_full_filter(kind, arg):
    g = make_graph(kind, arg)
    lengths = sorted(set(g.edges.values()))
    radii = [lengths[0], math.nextafter(lengths[0], math.inf), lengths[-1],
             math.nextafter(lengths[-1], math.inf), 2.0 * g.h_max, 1e9]
    for x in g.vertices[:: max(1, len(g.vertices) // 5)]:
        full = distances_from(g, [x])
        for r in radii:
            want = [(v, d) for v, d in sorted(full.items()) if d < r]
            assert list(ball(g, x, r).items()) == want


@pytest.mark.parametrize("seed", range(6))
def test_bounded_labels_are_a_prefix_of_the_full_pass(seed):
    g = random_metric_graph(seed)
    rng = random.Random(seed)
    seeds = [(g.index[y], rng.uniform(0.0, 1.0)) for y in sorted(g.boundary)]
    labels, order, parent = settle(g, seeds)
    for limit in (0.0, 0.5, labels[order[len(order) // 2]], math.nextafter(labels[order[-1]], math.inf)):
        bounded, prefix, bounded_parent = settle(g, seeds, limit=limit)
        assert prefix == order[: len(prefix)]
        assert [bounded[x] for x in prefix] == [labels[x] for x in prefix]
        assert [bounded_parent[x] for x in prefix] == [parent[x] for x in prefix]
        assert all(labels[x] > limit for x in order[len(prefix):])

