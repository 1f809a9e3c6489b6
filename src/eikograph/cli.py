"""Command-line surface: solve | solve-h | check | compare | suite |
induce-metric | refine | fixture.

Exit codes: 0 on success or check pass, 1 on check fail, 2 on input error.
All outputs are deterministic: rows sorted by id, floats written with their
shortest round-trip representation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields as dc_fields

from . import verify
from .errors import EikographError, ValidationError
from .fields import (
    ScalarField,
    field_from_expression,
    field_on,
    is_field_expression,
    read_field_csv,
    write_field_csv,
)
from .graph import ChordInput, MetricGraph, chord_from_coords, induce_intrinsic, read_graph, refine, write_graph
from .hamiltonians import (
    BUILTIN_NAMES,
    builtin_hamiltonian,
    expression_hamiltonian,
    solve_general,
)
from .slopes import (
    CheckReport,
    check_c_subsolution,
    check_c_supersolution,
    check_monge,
    check_regularity,
)
from .solver import DirichletProblem, ValueFunction, check_boundary_consistency, solve_dirichlet
from .verify import ComparisonInstance, compare, equivalence_suite, fixture


@dataclass
class RunConfig:
    """Tolerances and defaults; a --config JSON file overrides these, and
    explicit command-line flags override the file."""

    positivity_threshold: float = 1e-9
    check_tol: float | None = None  # None: auto (1e-9 + Lip(f) * h_max)
    bisect_tol: float = 1e-9
    picard_tol: float = 1e-8
    picard_max_iter: int = 100
    band_tol: float = 1e-12
    compare_tol: float = 1e-12
    seed: int | None = None  # None: EIKOGRAPH_SEED or the package default

    def __post_init__(self):
        for name in ("positivity_threshold", "bisect_tol", "picard_tol", "band_tol", "compare_tol"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ValidationError(f"config {name} must be positive, got {value!r}")
        if self.check_tol is not None and self.check_tol < 0.0:
            raise ValidationError(f"config check_tol must be >= 0, got {self.check_tol!r}")
        if self.picard_max_iter < 1:
            raise ValidationError("config picard_max_iter must be >= 1")

    @property
    def effective_seed(self) -> int:
        return self.seed if self.seed is not None else verify.default_seed()


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}")
    known = {f.name for f in dc_fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"{path}: unknown config keys {sorted(unknown)}")
    return RunConfig(**data)


def _check_io_paths(inputs, outputs) -> None:
    ins = {p for p in inputs if p}
    for out in outputs:
        if out and out in ins:
            raise ValidationError(f"output path {out!r} collides with an input path")


def _load_field(g: MetricGraph, spec: str, role: str) -> ScalarField:
    if is_field_expression(spec):
        return field_from_expression(g, spec, role)
    return read_field_csv(g, spec, role)


def write_solution_csv(vf: ValueFunction, path: str) -> None:
    """Solution CSV: vertex_id,u,exit_vertex,attained (attained on boundary rows)."""
    g = vf.u.graph
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex_id", "u", "exit_vertex", "attained"])
        for v in g.vertices:
            attained = ""
            if v in g.boundary:
                attained = "true" if vf.attained[v] else "false"
            writer.writerow([v, repr(vf.u[v]), vf.exit_vertex[v], attained])


def read_solution_csv(g: MetricGraph, path: str) -> ScalarField:
    """Read either a plain field CSV or a solver output CSV as solution_u."""
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if (header is None or len(header) < 2 or header[0].strip() != "vertex_id"
                or header[1].strip() not in ("u", "value")):
            raise ValidationError(f"{path}: expected header 'vertex_id,u,...' or 'vertex_id,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values[row[0]] = float(row[1])
            except (IndexError, ValueError):
                raise ValidationError(f"{path}:{lineno}: bad row {row!r}")
    return field_on(g, values, "solution_u")


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
    dims = max((len(g.coords[v]) for v in g.vertices), default=0) if use_coords else 0
    names = ["x", "y", "z"] + [f"c{k}" for k in range(3, dims)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex_id", *names[:dims], "u"])
        for v in g.vertices:
            xs = [repr(c) for c in g.coords[v][:dims]] if use_coords else []
            xs += [""] * (dims - len(xs))
            writer.writerow([v, *xs, repr(u[v])])


def write_report_csv(report: CheckReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "residual", "verdict"])
        for item, residual, verdict in report.rows():
            writer.writerow([item, repr(residual), verdict])
        for item in sorted(report.excluded):
            writer.writerow([item, repr(report.excluded[item]), "excluded"])


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
    fix = fixture(args.name, **_fixture_params(args.name, args))
    _check_io_paths([], [args.out])
    write_graph(fix.graph, args.out)
    g = fix.graph
    print(f"fixture {args.name}: {len(g.vertices)} vertices, {len(g.edges)} edges, "
          f"{len(g.boundary)} boundary -> {args.out}")
    return 0


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    threshold = args.threshold if args.threshold is not None else cfg.positivity_threshold
    _check_io_paths([args.graph, args.f, args.zeta], [args.out, args.plot])
    g = read_graph(args.graph)
    f = _load_field(g, args.f, "rhs_f")
    zeta = _load_field(g, args.zeta, "boundary_zeta")
    problem = DirichletProblem(g, f, zeta, threshold=threshold)
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
    cfg = load_config(args.config)
    tol = args.tol if args.tol is not None else cfg.picard_tol
    bisect_tol = args.bisect_tol if args.bisect_tol is not None else cfg.bisect_tol
    max_iter = args.max_iter if args.max_iter is not None else cfg.picard_max_iter
    _check_io_paths([args.graph, args.zeta], [args.out, args.h_out, args.plot])
    g = read_graph(args.graph)
    zeta = _load_field(g, args.zeta, "boundary_zeta")
    name = args.hamiltonian
    if name.partition(":")[0] in BUILTIN_NAMES:
        H = builtin_hamiltonian(name)
    else:
        H = expression_hamiltonian(name, rho_monotonicity=args.rho_monotonicity)
    vf, reduction, iterations = solve_general(
        g, H, zeta, tol=tol, max_iter=max_iter, bisect_tol=bisect_tol
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
    cfg = load_config(args.config)
    tol = args.tol if args.tol is not None else cfg.check_tol
    _check_io_paths([args.graph, args.u, args.f], [args.report])
    g = read_graph(args.graph)
    u = read_solution_csv(g, args.u)
    f = None
    if args.f is not None:
        f = _load_field(g, args.f, "rhs_f")
    if args.kind != "regularity" and f is None:
        raise ValidationError(f"check {args.kind} needs --f")
    if args.kind == "monge":
        report = check_monge(g, u, f, tol=tol, mode=args.mode)
    elif args.kind == "csub":
        report = check_c_subsolution(g, u, f, tol=tol if tol is not None else 0.0)
    elif args.kind == "csuper":
        report = check_c_supersolution(g, u, f, eps=tol)
    else:
        report = check_regularity(g, u, tol=tol)
    if args.report:
        write_report_csv(report, args.report)
    if report.passed:
        print(f"check {report.name}: PASS ({len(report.residuals)} items, "
              f"max residual {report.max_residual} <= tol {report.tol})")
        return 0
    worst = report.worst_item
    print(f"check {report.name}: FAIL at {worst} "
          f"(residual {report.residuals[worst]} > tol {report.tol}; "
          f"{len(report.failures())} failing items)")
    return 1


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    _check_io_paths([args.graph, args.f, args.u, args.v], [args.report])
    g = read_graph(args.graph)
    f = _load_field(g, args.f, "rhs_f")
    u = read_solution_csv(g, args.u)
    v = read_solution_csv(g, args.v)
    inst = ComparisonInstance(
        graph=g,
        f=f,
        u_sub=u,
        v_super=v,
        band_delta=args.delta,
        sub_tol=args.sub_tol if args.sub_tol is not None else cfg.check_tol,
        super_tol=args.super_tol if args.super_tol is not None else cfg.check_tol,
        band_tol=args.band_tol if args.band_tol is not None else cfg.band_tol,
        compare_tol=args.tol if args.tol is not None else cfg.compare_tol,
    )
    report = compare(inst)
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["item", "value"])
            writer.writerow(["hypothesis_failed", report.hypothesis_failed or ""])
            writer.writerow(["band_size", report.band_size])
            writer.writerow(["band_max", "" if report.band_max is None else repr(report.band_max)])
            writer.writerow(["comparison_passed", "" if report.comparison_passed is None
                             else str(report.comparison_passed).lower()])
            writer.writerow(["max_excess", "" if report.max_excess is None else repr(report.max_excess)])
            writer.writerow(["violating_vertex", report.violating_vertex or ""])
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
    fix = fixture(args.fixture, **_fixture_params(args.fixture, args))
    report = equivalence_suite(fix, f_spec=args.f, zeta_spec=args.zeta, levels=args.levels)
    _check_io_paths([], [args.report])
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fixture", "level", "check", "max_residual", "tol", "verdict"])
            for row in report.rows:
                writer.writerow([row[0], row[1], row[2], repr(row[3]), repr(row[4]), row[5]])
    print(f"suite {fix.name}: levels={report.levels} "
          f"monge residuals {[r for r in report.monge_residuals]} "
          f"{'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_induce_metric(args) -> int:
    cfg = load_config(args.config)
    _check_io_paths([args.points, args.edges], [args.out, args.probe_out])
    coords: dict[str, tuple[float, ...]] = {}
    with open(args.points, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0].strip() != "vertex_id":
            raise ValidationError(f"{args.points}: expected header 'vertex_id,x[,y,...]'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                coords[row[0]] = tuple(float(c) for c in row[1:] if c != "")
            except ValueError:
                raise ValidationError(f"{args.points}:{lineno}: bad coordinate in {row!r}")
    adjacency: list[tuple[str, str]] = []
    with open(args.edges, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["a", "b"]:
            raise ValidationError(f"{args.edges}: expected header 'a,b'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValidationError(f"{args.edges}:{lineno}: expected 'a,b'")
            adjacency.append((row[0], row[1]))
    boundary = [b for b in (args.boundary or "").split(",") if b]
    chord = ChordInput(
        ids=tuple(sorted(coords)),
        dist=chord_from_coords(coords),
        adjacency=tuple(adjacency),
    )
    result = induce_intrinsic(
        chord,
        boundary=boundary,
        coords=coords,
        sample_pairs=args.pairs,
        seed=cfg.effective_seed,
    )
    write_graph(result.graph, args.out)
    if args.probe_out:
        with open(args.probe_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["d_max", "ratio_max", "ratio_mean", "count"])
            for d_max, r_max, r_mean, count in result.probe.buckets:
                writer.writerow([repr(d_max), repr(r_max), repr(r_mean), count])
    probe = result.probe
    print(f"induced metric graph: {len(result.graph.vertices)} vertices, "
          f"{len(result.graph.edges)} edges -> {args.out}")
    print(f"consistency probe: {probe.pairs_sampled} pairs, max ratio {probe.max_ratio} ({probe.note})")
    return 0


def _cmd_refine(args) -> int:
    _check_io_paths([args.graph], [args.out])
    g = read_graph(args.graph)
    refined = refine(g, args.h_max)
    write_graph(refined, args.out)
    print(f"refined to h_max<={args.h_max}: {len(refined.vertices)} vertices, "
          f"{len(refined.edges)} edges -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eikograph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config overriding defaults")

    p = sub.add_parser("fixture", help="generate a deterministic fixture graph")
    common(p)
    p.add_argument("--name", required=True,
                   choices=["interval", "circle", "grid", "binary_tree", "gasket"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--connectivity", type=int, default=4, choices=[4, 8])
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_fixture)

    p = sub.add_parser("solve", help="solve the Dirichlet problem |grad u| = f")
    common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--f", required=True, help="field CSV or expression (const:c, linear:a,b[,axis])")
    p.add_argument("--zeta", required=True, help="boundary field CSV or expression")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=None, help="positivity threshold for f")
    p.add_argument("--plot", default=None, help="also write plot-data CSV here")
    p.add_argument("--plot-layout", default="auto", choices=["auto", "coords"])
    p.add_argument("--certify", action="store_true",
                   help="also print the boundary-consistency certificate")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("solve-h", help="solve H(x, u, |grad u|) = 0 via reduction")
    common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--hamiltonian", required=True,
                   help=f"builtin name {BUILTIN_NAMES} (with optional :level) or expression in p, rho")
    p.add_argument("--zeta", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=None, help="Picard stopping tolerance")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--bisect-tol", type=float, default=None)
    p.add_argument("--rho-monotonicity", default=None,
                   choices=["independent", "nondecreasing", "strictly-increasing"])
    p.add_argument("--h-out", default=None, help="write the reduced rhs field CSV here")
    p.add_argument("--plot", default=None)
    p.add_argument("--plot-layout", default="auto", choices=["auto", "coords"])
    p.set_defaults(handler=_cmd_solve_h)

    p = sub.add_parser("check", help="run a solution-notion check")
    common(p)
    p.add_argument("kind", choices=["monge", "csub", "csuper", "regularity"])
    p.add_argument("--graph", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--f", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--mode", default="solution", choices=["solution", "sub", "super"],
                   help="monge check mode")
    p.add_argument("--report", default=None, help="write per-item report CSV here")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("compare", help="comparison-principle harness")
    common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--u", required=True, help="candidate Monge subsolution")
    p.add_argument("--v", required=True, help="candidate Monge supersolution")
    p.add_argument("--delta", type=float, default=None, help="boundary band width (default 2 h_max)")
    p.add_argument("--band-tol", type=float, default=None)
    p.add_argument("--sub-tol", type=float, default=None)
    p.add_argument("--super-tol", type=float, default=None)
    p.add_argument("--tol", type=float, default=None, help="comparison tolerance")
    p.add_argument("--report", default=None)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("suite", help="equivalence suite across refinement levels")
    common(p)
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
    common(p)
    p.add_argument("--points", required=True, help="CSV vertex_id,x[,y,...]")
    p.add_argument("--edges", required=True, help="CSV a,b adjacency")
    p.add_argument("--boundary", default="", help="comma-separated boundary ids")
    p.add_argument("--pairs", type=int, default=256, help="sampled pairs for the metric checks")
    p.add_argument("--out", required=True)
    p.add_argument("--probe-out", default=None)
    p.set_defaults(handler=_cmd_induce_metric)

    p = sub.add_parser("refine", help="subdivide edges to a target mesh size")
    common(p)
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
