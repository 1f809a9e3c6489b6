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
import random
from dataclasses import dataclass
from itertools import chain
from typing import Callable

from .errors import FieldError, ValidationError
from .fields import ScalarField, field_from_expression, field_list, field_on
from .graph import MAX_REFINE_VERTICES, MetricGraph, _finalize, collector_paused, edge_key, refine
from .slopes import (
    CheckReport,
    check_c_subsolution,
    check_c_supersolution,
    check_monge,
    check_regularity,
    default_check_tol,
)
from .solver import DirichletProblem, boundary_band, solve_dirichlet

MONOTONE_SLACK = 1e-12  # float jitter allowance for residual monotonicity


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


def _require_size(name: str, count: int) -> None:
    """Refuse, before building it, a fixture over MAX_REFINE_VERTICES vertices."""
    if count > MAX_REFINE_VERTICES:
        raise ValidationError(f"{name} fixture would have more than {MAX_REFINE_VERTICES} vertices")


def _interval(n: int) -> Fixture:
    if n < 1:
        raise ValidationError("interval fixture needs n >= 1")
    _require_size("interval", n + 1)
    ids = [f"v{k}" for k in range(n + 1)]
    coords = {ids[k]: ((2 * k - n) / n,) for k in range(n + 1)}
    g = _finalize(ids, list(zip(ids, ids[1:])), [2.0 / n] * n, {ids[0], ids[n]}, coords)
    reference = {v: 1.0 - abs(coords[v][0]) for v in ids}
    return Fixture("interval", {"n": n}, g, reference)


def _circle(n: int) -> Fixture:
    if n < 3:
        raise ValidationError("circle fixture needs n >= 3")
    _require_size("circle", n)
    ids = [f"c{k}" for k in range(n)]
    coords = {
        ids[k]: (math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    }
    chord = 2.0 * math.sin(math.pi / n)
    g = _finalize(ids, list(zip(ids, ids[1:] + ids[:1])), [chord] * n, (), coords)
    return Fixture("circle", {"n": n}, g, None)


def _grid(n: int, connectivity: int = 4) -> Fixture:
    if n < 2:
        raise ValidationError("grid fixture needs n >= 2")
    if connectivity not in (4, 8):
        raise ValidationError("grid connectivity must be 4 or 8")
    _require_size("grid", n * n)
    rows = [[f"v{i}_{j}" for j in range(n)] for i in range(n)]  # rows[i][j] sits at (i, j)
    coords = {name: (float(i), float(j)) for i, row in enumerate(rows) for j, name in enumerate(row)}
    steps = [(row[j], row[j + 1]) for row in rows for j in range(n - 1)]  # (i, j) to (i, j + 1)
    steps += zip(chain.from_iterable(rows[:-1]), chain.from_iterable(rows[1:]))  # to (i + 1, j)
    diagonals = []
    if connectivity == 8:
        for row, below in zip(rows, rows[1:]):
            diagonals += zip(row, below[1:])  # (i, j) to (i + 1, j + 1)
            diagonals += zip(row[1:], below)  # (i, j) to (i + 1, j - 1)
    lengths = [1.0] * len(steps) + [math.sqrt(2.0)] * len(diagonals)
    ring = {*rows[0], *rows[-1], *(row[0] for row in rows), *(row[-1] for row in rows)}
    g = _finalize(coords, steps + diagonals, lengths, ring, coords)
    reference = None
    if connectivity == 4:
        reference = {name: float(min(i, j, n - 1 - i, n - 1 - j))
                     for i, row in enumerate(rows) for j, name in enumerate(row)}
    return Fixture("grid", {"n": n, "connectivity": connectivity}, g, reference)


def _binary_tree(depth: int) -> Fixture:
    if depth < 1:
        raise ValidationError("binary_tree fixture needs depth >= 1")
    _require_size("binary_tree", 2 ** (min(depth, 64) + 1) - 1)  # capped: no huge integer
    coords = {"t": (0.5, 0.0)}
    ends: list[tuple[str, str]] = []
    level = ["t"]
    for d in range(1, depth + 1):
        nxt = [node + bit for node in level for bit in "01"]
        ends += zip(chain.from_iterable(zip(level, level)), nxt)  # each node to its two children
        coords.update((child, ((k + 0.5) / len(nxt), -float(d))) for k, child in enumerate(nxt))
        level = nxt
    g = _finalize(coords, ends, [1.0] * len(ends), level, coords)  # leaves form the boundary
    reference = {v: float(depth - (len(v) - 1)) for v in coords}
    return Fixture("binary_tree", {"depth": depth}, g, reference)


def _gasket(level: int) -> Fixture:
    if level < 0:
        raise ValidationError("gasket fixture needs level >= 0")
    _require_size("gasket", 3 * (3 ** min(level, 64) + 1) // 2)  # capped: no huge integer
    res = 2**level
    # unit triangles (i, j), (i+1, j), (i, j+1) with i + j < 2^level and i & j == 0, in the
    # order that subdividing each triangle into three lists them: i's and j's bits interleaved
    cells = sorted(((i, j) for j in range(res) for i in range(res - j) if not i & j),
                   key=lambda c: int(f"{c[0]:b}", 4) + 2 * int(f"{c[1]:b}", 4))
    coords: dict[str, tuple[float, float]] = {}
    ends: list[tuple[str, str]] = []
    for i, j in cells:
        corners = ((i, j), (i + 1, j), (i, j + 1))
        a, b, c = names = [f"g{x}_{y}" for x, y in corners]
        for (x, y), name in zip(corners, names):
            coords[name] = ((x + 0.5 * y) / res, y * (math.sqrt(3.0) / 2.0) / res)
        ends += ((a, b), (a, c), (b, c))
    g = _finalize(coords, ends, [2.0 ** (-level)] * len(ends), {"g0_0", f"g{res}_0", f"g0_{res}"}, coords)
    return Fixture("gasket", {"level": level}, g, None)


def fixture(name: str, **params) -> Fixture:
    """Deterministic fixture by name: interval(n) | circle(n) |
    grid(n, connectivity) | binary_tree(depth) | gasket(level).  Built with
    the cyclic collector paused."""
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
        with collector_paused():
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
        tol = default_check_tol(g, f)
        vf = solve_dirichlet(DirichletProblem(g, f, zeta))

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
    sub_report: CheckReport | None = None
    super_report: CheckReport | None = None
    band_size: int = 0
    band_max: float | None = None
    comparison_passed: bool | None = None
    max_excess: float | None = None
    violating_vertex: str | None = None

    @property
    def passed(self) -> bool:
        return self.comparison_passed is True


def compare(inst: ComparisonInstance) -> ComparisonReport:
    """Verify u_sub <= v_super given the comparison-principle hypotheses;
    f must be a field on the instance's graph (or an equal one)."""
    g = inst.graph
    if not (inst.f.graph is g or inst.f.graph == g):
        raise FieldError("compare's f is a field on another graph")
    delta = inst.band_delta if inst.band_delta is not None else 2.0 * g.h_max
    if not (delta >= 0.0):
        raise ValidationError(f"compare band_delta must be >= 0, got {delta!r}")
    inf_f = min(inst.f.values.values())

    def report(failed: str | None, **found) -> ComparisonReport:
        return ComparisonReport(inst.seed, inf_f, failed, **found)

    if not (inf_f > 0.0):
        return report("positivity")
    sub_tol, super_tol = (default_check_tol(g, inst.f) if t is None else t
                          for t in (inst.sub_tol, inst.super_tol))
    sub_rep = check_monge(g, inst.u_sub, inst.f, tol=sub_tol, mode="sub")
    if not sub_rep.passed:
        return report("monge-sub", sub_report=sub_rep)
    sup_rep = check_monge(g, inst.v_super, inst.f, tol=super_tol, mode="super")
    if not sup_rep.passed:
        return report("monge-super", sub_report=sub_rep, super_report=sup_rep)

    # the checks above read every vertex of both fields
    excess = [a - b for a, b in zip(field_list(g, inst.u_sub), field_list(g, inst.v_super))]
    band = boundary_band(g, delta)
    band_max = max(map(excess.__getitem__, map(g.index.__getitem__, band)))
    found = {"sub_report": sub_rep, "super_report": sup_rep, "band_size": len(band), "band_max": band_max}
    if band_max > inst.band_tol:
        return report("boundary-band", **found)
    worst = max(range(len(excess)), key=excess.__getitem__)  # the first in id order among ties
    ok = excess[worst] <= inst.compare_tol
    return report(None, **found, comparison_passed=ok, max_excess=excess[worst],
                  violating_vertex=None if ok else g.vertices[worst])


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
    return _finalize(ids, edges, edges.values(), boundary)


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
    u = field_on(g, dict(zip(g.vertices, [lam * x for x in field_list(g, vf.u)])), "solution_u")
    return ComparisonInstance(graph=g, f=f, u_sub=u, v_super=vf.u, seed=seed)
