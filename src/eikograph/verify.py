"""Comparison-principle harness, canonical fixtures, and the end-to-end
equivalence suite.

Fixtures are deterministic graph generators (interval, circle, grid, binary
tree, Sierpinski gasket).  The equivalence suite solves a Dirichlet problem on
a fixture at several refinement levels and certifies all four solution-notion
checks, recording how the Monge residual shrinks with the mesh.  The compare
harness verifies the comparison principle: a Monge subsolution stays below a
Monge supersolution once the boundary-band hypothesis holds.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from .errors import ValidationError
from .fields import (
    ScalarField,
    field_from_expression,
    field_on,
    lipschitz_constant,
)
from .graph import MetricGraph, _finalize, edge_key, refine
from .slopes import (
    BASE_TOL,
    CheckReport,
    check_c_subsolution,
    check_c_supersolution,
    check_monge,
    check_regularity,
)
from .solver import DirichletProblem, boundary_band, solve_dirichlet

DEFAULT_SEED = 1729
MONOTONE_SLACK = 1e-12  # float jitter allowance for residual monotonicity


def default_seed() -> int:
    """Fixed test seed, overridable through EIKOGRAPH_SEED."""
    return int(os.environ.get("EIKOGRAPH_SEED", DEFAULT_SEED))


@dataclass(frozen=True)
class Fixture:
    """Deterministic named graph with optional analytic reference solution.

    The reference, when present, is the solution for f = 1 and zero boundary
    data (the distance to the boundary set).
    """

    name: str
    params: dict
    graph: MetricGraph
    reference: dict[str, float] | None = None


def _interval(n: int) -> Fixture:
    if n < 1:
        raise ValidationError("interval fixture needs n >= 1")
    ids = [f"v{k}" for k in range(n + 1)]
    coords = {ids[k]: ((2 * k - n) / n,) for k in range(n + 1)}
    h = 2.0 / n
    edges = {edge_key(ids[k], ids[k + 1]): h for k in range(n)}
    g = _finalize(ids, edges, {ids[0], ids[n]}, coords)
    reference = {v: 1.0 - abs(coords[v][0]) for v in ids}
    return Fixture("interval", {"n": n}, g, reference)


def _circle(n: int) -> Fixture:
    if n < 3:
        raise ValidationError("circle fixture needs n >= 3")
    ids = [f"c{k}" for k in range(n)]
    coords = {
        ids[k]: (math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    }
    chord = 2.0 * math.sin(math.pi / n)
    edges = {edge_key(ids[k], ids[(k + 1) % n]): chord for k in range(n)}
    g = _finalize(ids, edges, (), coords)
    return Fixture("circle", {"n": n}, g, None)


def _grid(n: int, connectivity: int = 4) -> Fixture:
    if n < 2:
        raise ValidationError("grid fixture needs n >= 2")
    if connectivity not in (4, 8):
        raise ValidationError("grid connectivity must be 4 or 8")
    ids = {(i, j): f"v{i}_{j}" for i in range(n) for j in range(n)}
    coords = {ids[(i, j)]: (float(i), float(j)) for i, j in ids}
    edges: dict[tuple[str, str], float] = {}
    diag = math.sqrt(2.0)
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                edges[edge_key(ids[(i, j)], ids[(i + 1, j)])] = 1.0
            if j + 1 < n:
                edges[edge_key(ids[(i, j)], ids[(i, j + 1)])] = 1.0
            if connectivity == 8:
                if i + 1 < n and j + 1 < n:
                    edges[edge_key(ids[(i, j)], ids[(i + 1, j + 1)])] = diag
                if i + 1 < n and j - 1 >= 0:
                    edges[edge_key(ids[(i, j)], ids[(i + 1, j - 1)])] = diag
    ring = {
        ids[(i, j)]
        for i in range(n)
        for j in range(n)
        if i in (0, n - 1) or j in (0, n - 1)
    }
    g = _finalize(ids.values(), edges, ring, coords)
    reference = None
    if connectivity == 4:
        reference = {
            ids[(i, j)]: float(min(i, j, n - 1 - i, n - 1 - j)) for i, j in ids
        }
    return Fixture("grid", {"n": n, "connectivity": connectivity}, g, reference)


def _binary_tree(depth: int) -> Fixture:
    if depth < 1:
        raise ValidationError("binary_tree fixture needs depth >= 1")
    ids = ["t"]
    coords = {"t": (0.5, 0.0)}
    edges: dict[tuple[str, str], float] = {}
    level = ["t"]
    for d in range(1, depth + 1):
        nxt = []
        for node in level:
            for bit in "01":
                child = node + bit
                ids.append(child)
                nxt.append(child)
                edges[edge_key(node, child)] = 1.0
        for k, child in enumerate(nxt):
            coords[child] = ((k + 0.5) / len(nxt), -float(d))
        level = nxt
    g = _finalize(ids, edges, level, coords)  # leaves form the boundary
    reference = {v: float(depth - (len(v) - 1)) for v in ids}
    return Fixture("binary_tree", {"depth": depth}, g, reference)


def _gasket(level: int) -> Fixture:
    if level < 0:
        raise ValidationError("gasket fixture needs level >= 0")
    triangles = [((0, 0), (1, 0), (0, 1))]
    for _ in range(level):
        nxt = []
        for a, b, c in triangles:
            a = (2 * a[0], 2 * a[1])
            b = (2 * b[0], 2 * b[1])
            c = (2 * c[0], 2 * c[1])
            mab = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
            mac = ((a[0] + c[0]) // 2, (a[1] + c[1]) // 2)
            mbc = ((b[0] + c[0]) // 2, (b[1] + c[1]) // 2)
            nxt.extend([(a, mab, mac), (mab, b, mbc), (mac, mbc, c)])
        triangles = nxt
    res = 2**level
    side = 2.0 ** (-level)

    def vid(p: tuple[int, int]) -> str:
        return f"g{p[0]}_{p[1]}"

    vertices: set[str] = set()
    coords: dict[str, tuple[float, float]] = {}
    edges: dict[tuple[str, str], float] = {}
    for tri in triangles:
        names = [vid(p) for p in tri]
        for p, name in zip(tri, names):
            vertices.add(name)
            coords[name] = ((p[0] + 0.5 * p[1]) / res, p[1] * (math.sqrt(3.0) / 2.0) / res)
        for u, v in ((0, 1), (0, 2), (1, 2)):
            edges[edge_key(names[u], names[v])] = side
    corners = {vid((0, 0)), vid((res, 0)), vid((0, res))}
    g = _finalize(vertices, edges, corners, coords)
    return Fixture("gasket", {"level": level}, g, None)


def fixture(name: str, **params) -> Fixture:
    """Deterministic fixture by name: interval(n) | circle(n) |
    grid(n, connectivity) | binary_tree(depth) | gasket(level)."""
    makers: dict[str, Callable[..., Fixture]] = {
        "interval": _interval,
        "circle": _circle,
        "grid": _grid,
        "binary_tree": _binary_tree,
        "gasket": _gasket,
    }
    if name not in makers:
        raise ValidationError(f"unknown fixture {name!r}; known: {sorted(makers)}")
    try:
        return makers[name](**params)
    except TypeError:
        raise ValidationError(f"bad parameters {params!r} for fixture {name!r}")


@dataclass(frozen=True)
class SuiteReport:
    """Per-level check verdicts plus the Monge-residual trend."""

    fixture_name: str
    levels: int
    rows: tuple[tuple[str, str, str, float, float, str], ...]
    monge_residuals: tuple[float, ...]
    monotone_ok: bool
    checks_ok: bool

    @property
    def passed(self) -> bool:
        return self.checks_ok and self.monotone_ok


def equivalence_suite(
    fix: Fixture,
    f_spec: str = "const:1",
    zeta_spec: str = "const:0",
    levels: int = 3,
    positivity_threshold: float = 1e-9,
) -> SuiteReport:
    """Solve on refinements of a fixture and certify all four checks per level.

    ``f_spec`` and ``zeta_spec`` are field expressions (``const:c``,
    ``linear:a,b[,axis]``), evaluated afresh on each refinement.  At level i
    the mesh is h/2^i; the Monge and regularity tolerances are
    Lip(f) * h_max + 1e-9 at that level, the curve subsolution check runs at
    tolerance 0, and the supersolution check at eps = Lip(f) * h_max + 1e-9.
    The max Monge residual must not increase across levels (up to float
    jitter) for Lipschitz f.
    """
    if levels < 1:
        raise ValidationError("equivalence_suite needs levels >= 1")
    base_h = fix.graph.h_max
    rows: list[tuple[str, str, str, float, float, str]] = []
    monge_max: list[float] = []
    checks_ok = True
    for level in range(levels):
        g = refine(fix.graph, base_h / (2**level))
        f = field_from_expression(g, f_spec, "rhs_f")
        zeta = field_from_expression(g, zeta_spec, "boundary_zeta")
        tol = BASE_TOL + lipschitz_constant(g, f) * g.h_max
        vf = solve_dirichlet(DirichletProblem(g, f, zeta, threshold=positivity_threshold))

        reports: list[CheckReport] = [
            check_monge(g, vf.u, f, tol=tol),
            check_c_subsolution(g, vf.u, f, tol=0.0),
            check_c_supersolution(g, vf.u, f, eps=tol),
            check_regularity(g, vf.u, tol=tol),
        ]
        for rep in reports:
            verdict = "pass" if rep.passed else "fail"
            checks_ok = checks_ok and rep.passed
            rows.append((fix.name, str(level), rep.name, rep.max_residual, rep.tol, verdict))
        monge_max.append(reports[0].max_residual)

    monotone_ok = all(
        monge_max[i + 1] <= monge_max[i] + MONOTONE_SLACK for i in range(len(monge_max) - 1)
    )
    rows.append(
        (
            fix.name,
            "all",
            "monge-residual-monotone",
            max(
                (monge_max[i + 1] - monge_max[i] for i in range(len(monge_max) - 1)),
                default=0.0,
            ),
            MONOTONE_SLACK,
            "pass" if monotone_ok else "fail",
        )
    )
    return SuiteReport(
        fixture_name=fix.name,
        levels=levels,
        rows=tuple(rows),
        monge_residuals=tuple(monge_max),
        monotone_ok=monotone_ok,
        checks_ok=checks_ok,
    )


@dataclass(frozen=True)
class ComparisonInstance:
    """Sub/supersolution pair with the tolerances the harness verifies at."""

    graph: MetricGraph
    f: ScalarField
    u_sub: ScalarField
    v_super: ScalarField
    band_delta: float | None = None  # defaults to 2 * h_max
    sub_tol: float | None = None
    super_tol: float | None = None
    band_tol: float = 1e-12
    compare_tol: float = 1e-12
    seed: int | None = None


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the comparison-principle harness for one instance.

    When a hypothesis fails (positivity of f, the Monge sub/super property,
    or the boundary-band ordering) no comparison verdict is produced; the
    first failing hypothesis is named instead.
    """

    seed: int | None
    inf_f: float
    hypothesis_failed: str | None
    sub_report: CheckReport | None
    super_report: CheckReport | None
    band_size: int
    band_max: float | None
    comparison_passed: bool | None
    max_excess: float | None
    violating_vertex: str | None

    @property
    def passed(self) -> bool:
        return self.comparison_passed is True


def compare(inst: ComparisonInstance) -> ComparisonReport:
    """Verify u_sub <= v_super given the comparison-principle hypotheses."""
    g = inst.graph
    inf_f = min(inst.f.values.values())

    def bail(which: str, sub=None, sup=None, band_size=0, band_max=None):
        return ComparisonReport(
            seed=inst.seed,
            inf_f=inf_f,
            hypothesis_failed=which,
            sub_report=sub,
            super_report=sup,
            band_size=band_size,
            band_max=band_max,
            comparison_passed=None,
            max_excess=None,
            violating_vertex=None,
        )

    if not (inf_f > 0.0):
        return bail("positivity")
    sub_rep = check_monge(g, inst.u_sub, inst.f, tol=inst.sub_tol, mode="sub")
    if not sub_rep.passed:
        return bail("monge-sub", sub=sub_rep)
    sup_rep = check_monge(g, inst.v_super, inst.f, tol=inst.super_tol, mode="super")
    if not sup_rep.passed:
        return bail("monge-super", sub=sub_rep, sup=sup_rep)

    delta = inst.band_delta if inst.band_delta is not None else 2.0 * g.h_max
    band = boundary_band(g, delta)
    band_max = max(inst.u_sub[v] - inst.v_super[v] for v in band)
    if band_max > inst.band_tol:
        return bail("boundary-band", sub=sub_rep, sup=sup_rep, band_size=len(band), band_max=band_max)

    excess = {v: inst.u_sub[v] - inst.v_super[v] for v in g.vertices}
    worst = max(sorted(excess), key=lambda v: excess[v])
    max_excess = excess[worst]
    ok = max_excess <= inst.compare_tol
    return ComparisonReport(
        seed=inst.seed,
        inf_f=inf_f,
        hypothesis_failed=None,
        sub_report=sub_rep,
        super_report=sup_rep,
        band_size=len(band),
        band_max=band_max,
        comparison_passed=ok,
        max_excess=max_excess,
        violating_vertex=None if ok else worst,
    )


def random_metric_graph(seed: int, n_min: int = 8, n_max: int = 50) -> MetricGraph:
    """Seeded connected random graph with positive lengths and a boundary."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    ids = [f"n{i:03d}" for i in range(n)]
    edges: dict[tuple[str, str], float] = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[edge_key(ids[i], ids[j])] = rng.uniform(0.2, 2.0)
    for _ in range(int(0.8 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.setdefault(edge_key(ids[i], ids[j]), rng.uniform(0.2, 2.0))
    k = max(1, n // 4)
    boundary = rng.sample(ids, k)
    return _finalize(ids, edges, boundary)


def random_comparison_instance(seed: int) -> ComparisonInstance:
    """Scaled-solver-output instance: u = lambda * v with v a solver output.

    f is random in [0.5, 2], boundary data is zero, lambda in (0, 1]; by
    construction u is a Monge subsolution, v is a Monge solution, and
    u <= v pointwise, so compare must pass.
    """
    rng = random.Random(seed)
    g = random_metric_graph(seed)
    f = field_on(g, {v: rng.uniform(0.5, 2.0) for v in g.vertices}, "rhs_f")
    zeta = field_on(g, {v: 0.0 for v in g.boundary}, "boundary_zeta")
    vf = solve_dirichlet(DirichletProblem(g, f, zeta))
    lam = 1.0 - rng.random()  # in (0, 1]
    u = field_on(g, {v: lam * vf.u[v] for v in g.vertices}, "solution_u")
    return ComparisonInstance(graph=g, f=f, u_sub=u, v_super=vf.u, seed=seed)
