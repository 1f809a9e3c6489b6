"""Command-line surface: solve | solve-h | check | compare | suite |
induce-metric | refine | fixture.

Exit codes: 0 on success or check pass, 1 on check fail, 2 on input error.
All outputs are deterministic: rows sorted by id, floats written with their
shortest round-trip representation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import EikographError, ValidationError
from .fields import (
    ScalarField,
    field_from_expression,
    is_field_expression,
    read_field_csv,
    write_field_csv,
)
from .graph import (
    MetricGraph,
    chord_from_coords,
    induce_intrinsic,
    read_csv,
    read_graph,
    refine,
    write_csv,
    write_graph,
)
from .slopes import (
    CheckReport,
    check_c_subsolution,
    check_c_supersolution,
    check_monge,
    check_regularity,
)

if TYPE_CHECKING:
    from .solver import ValueFunction

# Handlers import solver, hamiltonians and verify, so `check` and `refine` never
# load them; hamiltonians.BUILTIN_NAMES, literal so that the parser needs neither:
BUILTIN_NAMES = ("affine-rho", "ex1", "ex2", "linear", "plateau", "quadratic")


def _check_io_paths(inputs, outputs) -> None:
    """Refuse an output that would overwrite an input or another output;
    paths are compared resolved, so ``./g.json`` is ``g.json``."""
    taken = {os.path.realpath(p) for p in inputs if p}
    for out in filter(None, outputs):
        real = os.path.realpath(out)
        if real in taken:
            raise ValidationError(f"output path {out!r} collides with an input path or another output")
        taken.add(real)


def _tolerance(text: str) -> float:
    """float() that refuses NaN, which every comparison reads as false."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return value


def _given(**flags) -> dict:
    """The flags set on the command line; an unset flag keeps the library default."""
    return {name: value for name, value in flags.items() if value is not None}


def _load_field(g: MetricGraph, spec: str, role: str) -> ScalarField:
    if is_field_expression(spec):
        return field_from_expression(g, spec, role)
    return read_field_csv(g, spec, role)


def write_solution_csv(vf: ValueFunction, path: str) -> None:
    """Solution CSV: vertex_id,u,exit_vertex,attained (attained on boundary rows)."""
    rows = ([v, repr(vf.u[v]), vf.exit_vertex[v], str(vf.attained[v]).lower() if v in vf.attained else ""]
            for v in vf.u.graph.vertices)
    write_csv(path, ["vertex_id", "u", "exit_vertex", "attained"], rows)


def emit_plot_data(u: ScalarField, g: MetricGraph, path: str, layout: str = "auto") -> None:
    """Write plot-ready CSV: vertex_id[,x[,y[,...]]],u sorted by vertex id.

    layout "coords" requires coordinates on every vertex; "auto" includes
    coordinate columns only when all vertices carry them.
    """
    have_all = all(v in g.coords for v in g.vertices)
    if layout == "coords" and not have_all:
        missing = next(v for v in g.vertices if v not in g.coords)
        raise ValidationError(f"plot layout 'coords' needs coords on every vertex (missing at {missing!r})")
    use_coords = have_all if layout == "auto" else layout == "coords"
    dims = len(g.coords[g.vertices[0]]) if use_coords else 0
    names = ["x", "y", "z"] + [f"c{k}" for k in range(3, dims)]
    write_csv(path, ["vertex_id", *names[:dims], "u"],
              ([v, *map(repr, g.coords[v] if use_coords else ()), repr(u[v])] for v in g.vertices))


def write_report_csv(report: CheckReport, path: str) -> None:
    rows = [[item, repr(residual), verdict] for item, residual, verdict in report.rows()]
    rows += [[item, repr(report.excluded[item]), "excluded"] for item in sorted(report.excluded)]
    write_csv(path, ["item_id", "residual", "verdict"], rows)


# --- command handlers -------------------------------------------------------


def _fixture_params(name: str, args) -> dict:
    """Fixture parameters from the size flag the fixture needs (--n, --depth
    or --level), plus --connectivity for grids; a missing size flag is an
    input error."""
    flag = {"interval": "n", "circle": "n", "grid": "n", "binary_tree": "depth", "gasket": "level"}[name]
    value = getattr(args, flag)
    if value is None:
        raise ValidationError(f"fixture {name!r} needs --{flag}")
    params = {flag: value}
    if name == "grid":
        params["connectivity"] = args.connectivity
    return params


def _cmd_fixture(args) -> int:
    from .verify import fixture
    fix = fixture(args.name, **_fixture_params(args.name, args))
    _check_io_paths([], [args.out])
    write_graph(fix.graph, args.out)
    g = fix.graph
    print(f"fixture {args.name}: {len(g.vertices)} vertices, {sum(map(len, g.nbrs)) // 2} edges, "
          f"{len(g.boundary)} boundary -> {args.out}")
    return 0


def _cmd_solve(args) -> int:
    from .solver import DirichletProblem, check_boundary_consistency, solve_dirichlet
    _check_io_paths([args.graph, args.f, args.zeta], [args.out, args.plot])
    g = read_graph(args.graph)
    f = _load_field(g, args.f, "rhs_f")
    zeta = _load_field(g, args.zeta, "boundary_zeta")
    problem = DirichletProblem(g, f, zeta, **_given(threshold=args.threshold))
    vf = solve_dirichlet(problem)
    write_solution_csv(vf, args.out)
    if args.plot:
        emit_plot_data(vf.u, g, args.plot, layout=args.plot_layout)
    print(f"solved {len(g.vertices)} vertices -> {args.out}")
    if args.certify:
        cert = check_boundary_consistency(problem, vf)
        print(f"boundary data Lipschitz L={cert.lipschitz_L} vs inf f={cert.inf_f}: "
              f"{'compatible' if cert.zeta_lipschitz_ok else 'incompatible'}; "
              f"one-sided value bound {'holds' if cert.weak_bound_ok else 'FAILS'}")
    unattained = sorted(v for v, ok in vf.attained.items() if not ok)
    if unattained:
        print(f"boundary values not attained at {unattained}")
    return 0


def _cmd_solve_h(args) -> int:
    from .hamiltonians import builtin_hamiltonian, expression_hamiltonian, solve_general
    _check_io_paths([args.graph, args.zeta], [args.out, args.h_out, args.plot])
    g = read_graph(args.graph)
    zeta = _load_field(g, args.zeta, "boundary_zeta")
    name = args.hamiltonian
    if name.partition(":")[0] in BUILTIN_NAMES:
        H = builtin_hamiltonian(name)
    else:
        H = expression_hamiltonian(name)
    vf, reduction, iterations = solve_general(
        g, H, zeta, **_given(tol=args.tol, max_iter=args.max_iter, bisect_tol=args.bisect_tol)
    )
    write_solution_csv(vf, args.out)
    if args.h_out:
        write_field_csv(reduction.h, args.h_out)
    if args.plot:
        emit_plot_data(vf.u, g, args.plot, layout=args.plot_layout)
    worst = max(reduction.residuals.values(), default=0.0)
    print(f"solved H={H.name} in {iterations} iteration(s); "
          f"max reduction residual {worst} -> {args.out}")
    if reduction.flagged:
        print(f"warning: reduction forced h=0 with residual > tol at {list(reduction.flagged)[:5]}")
    return 0


def _cmd_check(args) -> int:
    _check_io_paths([args.graph, args.u, args.f], [args.report])
    g = read_graph(args.graph)
    u = read_field_csv(g, args.u, "solution_u")
    f = None
    if args.f is not None:
        f = _load_field(g, args.f, "rhs_f")
    if args.kind != "regularity" and f is None:
        raise ValidationError(f"check {args.kind} needs --f")
    if args.kind == "monge":
        report = check_monge(g, u, f, tol=args.tol, mode=args.mode)
    elif args.kind == "csub":
        report = check_c_subsolution(g, u, f, **_given(tol=args.tol))
    elif args.kind == "csuper":
        report = check_c_supersolution(g, u, f, eps=args.tol)
    else:
        report = check_regularity(g, u, tol=args.tol)
    if args.report:
        write_report_csv(report, args.report)
    if report.passed:
        print(f"check {report.name}: PASS ({len(report.residuals)} items, "
              f"max residual {report.max_residual} <= tol {report.tol})")
        return 0
    print(f"check {report.name}: FAIL at {report.worst_item} "
          f"(residual {report.max_residual} > tol {report.tol}; "
          f"{len(report.failures())} failing items)")
    return 1


def _cmd_compare(args) -> int:
    from .verify import ComparisonInstance, compare
    _check_io_paths([args.graph, args.f, args.u, args.v], [args.report])
    g = read_graph(args.graph)
    f = _load_field(g, args.f, "rhs_f")
    u = read_field_csv(g, args.u, "solution_u")
    v = read_field_csv(g, args.v, "solution_u")
    inst = ComparisonInstance(
        graph=g,
        f=f,
        u_sub=u,
        v_super=v,
        band_delta=args.delta,
        sub_tol=args.sub_tol,
        super_tol=args.super_tol,
        **_given(band_tol=args.band_tol, compare_tol=args.tol),
    )
    report = compare(inst)
    if args.report:
        write_csv(args.report, ["item", "value"], [
            ["hypothesis_failed", report.hypothesis_failed or ""],
            ["band_size", report.band_size],
            ["band_max", "" if report.band_max is None else repr(report.band_max)],
            ["comparison_passed", "" if report.comparison_passed is None
             else str(report.comparison_passed).lower()],
            ["max_excess", "" if report.max_excess is None else repr(report.max_excess)],
            ["violating_vertex", report.violating_vertex or ""],
        ])
    if report.hypothesis_failed:
        print(f"compare: hypothesis {report.hypothesis_failed!r} failed; no comparison verdict")
        return 1
    if report.passed:
        print(f"compare: PASS (u <= v + {inst.compare_tol} everywhere, "
              f"max excess {report.max_excess})")
        return 0
    print(f"compare: FAIL at {report.violating_vertex} (excess {report.max_excess})")
    return 1


def _cmd_suite(args) -> int:
    from .verify import equivalence_suite, fixture
    fix = fixture(args.fixture, **_fixture_params(args.fixture, args))
    report = equivalence_suite(fix, f_spec=args.f, zeta_spec=args.zeta, levels=args.levels)
    _check_io_paths([], [args.report])
    if args.report:
        write_csv(args.report, ["fixture", "level", "check", "max_residual", "tol", "verdict"],
                  ([row[0], row[1], row[2], repr(row[3]), repr(row[4]), row[5]] for row in report.rows))
    print(f"suite {fix.name}: levels={report.levels} "
          f"monge residuals {[r for r in report.monge_residuals]} "
          f"{'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_induce_metric(args) -> int:
    _check_io_paths([args.points, args.edges], [args.out, args.probe_out])
    coords: dict[str, tuple[float, ...]] = {}
    for lineno, row in read_csv(args.points, [("vertex_id",)], 1):
        if row[0] in coords:
            raise ValidationError(f"{args.points}:{lineno}: duplicate vertex id {row[0]!r}")
        try:
            coords[row[0]] = tuple(float(c) for c in row[1:] if c != "")
        except ValueError:
            raise ValidationError(f"{args.points}:{lineno}: bad coordinate in {row!r}")
    adjacency = [(row[0], row[1]) for _, row in read_csv(args.edges, [("a", "b")], 2)]
    boundary = [b for b in (args.boundary or "").split(",") if b]
    g, probe = induce_intrinsic(tuple(sorted(coords)), chord_from_coords(coords), adjacency,
                                boundary=boundary, coords=coords, sample_pairs=args.pairs)
    write_graph(g, args.out)
    if args.probe_out:
        write_csv(args.probe_out, ["d_max", "ratio_max", "ratio_mean", "count"],
                  ([repr(d_max), repr(r_max), repr(r_mean), count]
                   for d_max, r_max, r_mean, count in probe.buckets))
    print(f"induced metric graph: {len(g.vertices)} vertices, {sum(map(len, g.nbrs)) // 2} edges "
          f"-> {args.out}")
    print(f"consistency probe: {probe.pairs_sampled} pairs, max ratio {probe.max_ratio} ({probe.note})")
    return 0


def _cmd_refine(args) -> int:
    _check_io_paths([args.graph], [args.out])
    g = read_graph(args.graph)
    refined = refine(g, args.h_max)
    write_graph(refined, args.out)
    print(f"refined to h_max<={args.h_max}: {len(refined.vertices)} vertices, "
          f"{sum(map(len, refined.nbrs)) // 2} edges -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eikograph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixture", help="generate a deterministic fixture graph")
    p.add_argument("--name", required=True,
                   choices=["interval", "circle", "grid", "binary_tree", "gasket"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--connectivity", type=int, default=4, choices=[4, 8])
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_fixture)

    p = sub.add_parser("solve", help="solve the Dirichlet problem |grad u| = f")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", required=True, help="field CSV or expression (const:c, linear:a,b[,axis])")
    p.add_argument("--zeta", required=True, help="boundary field CSV or expression")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=_tolerance, default=None, help="positivity threshold for f")
    p.add_argument("--plot", default=None, help="also write plot-data CSV here")
    p.add_argument("--plot-layout", default="auto", choices=["auto", "coords"])
    p.add_argument("--certify", action="store_true",
                   help="also print the boundary-consistency certificate")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("solve-h", help="solve H(x, u, |grad u|) = 0 via reduction")
    p.add_argument("--graph", required=True)
    p.add_argument("--hamiltonian", required=True,
                   help=f"builtin name {BUILTIN_NAMES} (with optional :level) or expression in p, rho")
    p.add_argument("--zeta", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=None, help="Picard stopping tolerance")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--bisect-tol", type=float, default=None)
    p.add_argument("--h-out", default=None, help="write the reduced rhs field CSV here")
    p.add_argument("--plot", default=None)
    p.add_argument("--plot-layout", default="auto", choices=["auto", "coords"])
    p.set_defaults(handler=_cmd_solve_h)

    p = sub.add_parser("check", help="run a solution-notion check")
    p.add_argument("kind", choices=["monge", "csub", "csuper", "regularity"])
    p.add_argument("--graph", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--f", default=None)
    p.add_argument("--tol", type=_tolerance, default=None)
    p.add_argument("--mode", default="solution", choices=["solution", "sub", "super"],
                   help="monge check mode")
    p.add_argument("--report", default=None, help="write per-item report CSV here")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("compare", help="comparison-principle harness")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--u", required=True, help="candidate Monge subsolution")
    p.add_argument("--v", required=True, help="candidate Monge supersolution")
    p.add_argument("--delta", type=float, default=None, help="boundary band width (default 2 h_max)")
    p.add_argument("--band-tol", type=_tolerance, default=None)
    p.add_argument("--sub-tol", type=_tolerance, default=None)
    p.add_argument("--super-tol", type=_tolerance, default=None)
    p.add_argument("--tol", type=_tolerance, default=None, help="comparison tolerance")
    p.add_argument("--report", default=None)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("suite", help="equivalence suite across refinement levels")
    p.add_argument("--fixture", required=True,
                   choices=["interval", "circle", "grid", "binary_tree", "gasket"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--connectivity", type=int, default=4, choices=[4, 8])
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--f", default="const:1")
    p.add_argument("--zeta", default="const:0")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--report", default=None)
    p.set_defaults(handler=_cmd_suite)

    p = sub.add_parser("induce-metric", help="induce the intrinsic metric from chord distances")
    p.add_argument("--points", required=True, help="CSV vertex_id,x[,y,...]")
    p.add_argument("--edges", required=True, help="CSV a,b adjacency")
    p.add_argument("--boundary", default="", help="comma-separated boundary ids")
    p.add_argument("--pairs", type=int, default=256, help="sampled pairs for the metric checks")
    p.add_argument("--out", required=True)
    p.add_argument("--probe-out", default=None)
    p.set_defaults(handler=_cmd_induce_metric)

    p = sub.add_parser("refine", help="subdivide edges to a target mesh size")
    p.add_argument("--graph", required=True)
    p.add_argument("--h-max", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_refine)

    return parser


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except EikographError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
