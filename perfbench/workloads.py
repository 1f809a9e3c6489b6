"""The four benchmark workloads: sweep, certify, hjb and cli.

Each workload builds its instances in set-up, then runs steps.  A step is
one pass over the workload's instance set.  Around every step sit three
untimed phases: ``prepare`` draws the step's seeded inputs, ``check`` gates
every output, and ``probe`` (traced runs only) makes the extra layer calls
the per-layer metrics need.

Every gated unit of work is a :class:`Call`.  A call fails when the program
raises or when the gate finds a wrong output.  One hjb instance names the
exception that is its documented outcome today (Picard non-convergence on
affine-rho, grid n=40): raised there, it counts in ``failed_frac`` but does
not make the run incorrect.  Raised anywhere else, it is a failed call.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import eikograph as ek

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# Instance sets.  "tiny" keeps every workload's shape at a size the
# benchmark's own tests run in seconds.  An hjb entry is (Hamiltonian,
# fixture, params, excused): ``excused`` is the exception that instance
# raises today, or None.  At the tiny size affine-rho on grid n=8 converges,
# so no tiny instance is excused.
SIZES = {
    "full": {
        "sweep": [("grid", {"n": 150}), ("grid", {"n": 60, "connectivity": 8}),
                  ("gasket", {"level": 7}), ("binary_tree", {"depth": 13})],
        "certify": [("grid", {"n": 30}), ("gasket", {"level": 6}),
                    ("binary_tree", {"depth": 9}), ("grid", {"n": 24, "connectivity": 8})],
        "hjb": [("affine-rho", "interval", {"n": 2000}, None),
                ("p + rho - 1", "interval", {"n": 1000}, None),
                ("affine-rho", "grid", {"n": 20}, None),
                ("quadratic", "grid", {"n": 60}, None),
                ("affine-rho", "grid", {"n": 40}, ek.ConvergenceError)],
        "cli": {"grid_n": 100, "suite_level": 4, "suite_levels": 3},
    },
    "tiny": {
        "sweep": [("grid", {"n": 12}), ("grid", {"n": 6, "connectivity": 8}),
                  ("gasket", {"level": 3}), ("binary_tree", {"depth": 5})],
        "certify": [("grid", {"n": 6}), ("gasket", {"level": 3}),
                    ("binary_tree", {"depth": 4}), ("grid", {"n": 5, "connectivity": 8})],
        "hjb": [("affine-rho", "interval", {"n": 60}, None),
                ("p + rho - 1", "interval", {"n": 40}, None),
                ("affine-rho", "grid", {"n": 5}, None),
                ("quadratic", "grid", {"n": 6}, None),
                ("affine-rho", "grid", {"n": 8}, None)],
        "cli": {"grid_n": 10, "suite_level": 2, "suite_levels": 2},
    },
}

CERTIFY_POOL = 8  # seeded input variants per certify instance
HJB_POOL = 4  # seeded zeta variants per hjb instance
COMPARE_CALLS = 5
BISECT_TOL = 1e-9  # the bisection tolerance solve_general uses by default


def instance_label(name: str, params: dict) -> str:
    return " ".join([name] + [f"{k}={v}" for k, v in params.items()])


def load_expected(workload: str, size: str) -> dict:
    """The recorded verdicts (see record.py) of one workload at one size."""
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)[workload][size]


@dataclass
class Call:
    """One gated unit of work inside a step."""

    name: str
    vertices: int
    output: object = None
    error: BaseException | None = None
    ctx: object = None
    mismatch: str | None = None
    excused: type | None = None  # the exception that is this call's known defect

    @property
    def known_defect(self) -> bool:
        return self.excused is not None and isinstance(self.error, self.excused)


class Workload:
    """Set-up happens in ``__init__``.  A subclass defines the phases the
    runner drives: ``prepare(i)`` returns step i's inputs, ``step(i, inputs)``
    returns its calls, ``check`` gates them and ``probe`` (traced runs only)
    makes the extra layer calls.  A workload whose steps run in child
    processes sets ``child_samples`` to a list, and its steps put the
    children's calibration samples there."""

    child_samples: list[float] | None = None

    def __init__(self, size: str, seed: int, tr, workdir: Path):
        self.size = size
        self.tr = tr
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.counts: dict[str, float] = defaultdict(float)
        self.instances: list[dict] = []

    def build(self, name: str, params: dict) -> ek.Fixture:
        fix = self.tr.call("graph.build", ek.fixture, name, **params)
        g = fix.graph
        self.instances.append({
            "instance": instance_label(name, params),
            "V": len(g.vertices), "E": len(g.edges), "boundary": len(g.boundary),
        })
        return fix

    def attempt(self, calls: list, name: str, vertices: int, fn, *args, traced=True, ctx=None,
                excused=None) -> Call:
        """Run one call, recording its output or the exception it raised."""
        call = Call(name, vertices, ctx=ctx, excused=excused)
        try:
            call.output = self.tr.call(name, fn, *args) if traced else fn(*args)
        except Exception as exc:  # noqa: BLE001 - every raise is a failed call
            call.error = exc.with_traceback(None)  # the frames would pin the step's data
        calls.append(call)
        return call


# --- shared helpers ---------------------------------------------------------


def solve(g, f, zeta, threshold=ek.fields.DEFAULT_POSITIVITY_THRESHOLD):
    """Problem construction (it validates f) plus the solve."""
    problem = ek.DirichletProblem(g, f, zeta, threshold=threshold)
    return problem, ek.solve_dirichlet(problem)


def bellman_mismatch(g, f_vals: dict, zeta_vals: dict, vf) -> str | None:
    """First vertex whose label is not the exact binary64 Bellman value
    min(zeta(x), min_y fl(u(y) + 0.5 * (f(x) + f(y)) * len)), or whose exit
    vertex is not a boundary vertex; None when every vertex is right."""
    u = vf.u.values
    if len(u) != len(g.vertices):
        return f"{len(u)} labels for {len(g.vertices)} vertices"
    for x, nbrs in g.adjacency.items():
        best = zeta_vals.get(x, math.inf)
        fx = f_vals[x]
        for y, length in nbrs:
            cand = u[y] + 0.5 * (fx + f_vals[y]) * length
            if cand < best:
                best = cand
        if u[x] != best:
            return f"label at {x!r} is {u[x]!r}, Bellman value {best!r}"
        if vf.exit_vertex.get(x) not in g.boundary:
            return f"exit vertex of {x!r} is {vf.exit_vertex.get(x)!r}, not a boundary vertex"
    return None


def middle_band(g) -> frozenset:
    """A sixth of the vertices, contiguous in the first coordinate, taken
    from the middle of the graph."""
    order = sorted(g.vertices, key=lambda v: (g.coords[v][0], v))
    width = len(order) // 6
    start = (len(order) - width) // 2
    return frozenset(order[start : start + width])


# --- sweep ------------------------------------------------------------------


class Sweep(Workload):
    """Dirichlet solves with fresh seeded f and zeta each step; every fourth
    step zeroes f on a middle band and solves at threshold 0.

    The exit-vertex retry loop costs 0.25 s or 1.3 s on the grid plateau,
    depending on where the cheapest entry to the band lies.  So plateau
    steps cycle through PLATEAU_POOL fixed draws instead of the run seed's,
    and every run does the same plateau work.
    """

    PLATEAU_POOL = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.graphs = [self.build(name, params).graph for name, params in SIZES[self.size]["sweep"]]
        self.bands = [middle_band(g) for g in self.graphs]

    def prepare(self, i):
        plateau = i % 4 == 3
        rng = random.Random(f"plateau-{i // 4 % self.PLATEAU_POOL}") if plateau else self.rng
        drawn = []
        for g, band in zip(self.graphs, self.bands):
            f_vals = {v: rng.uniform(0.5, 2.0) for v in g.vertices}
            if plateau:
                f_vals.update(dict.fromkeys(band, 0.0))
            zeta_vals = {y: rng.uniform(0.0, 1.0) for y in sorted(g.boundary)}
            drawn.append((f_vals, zeta_vals))
        return {"plateau": plateau, "values": drawn, "fields": []}

    def step(self, i, inputs):
        calls = []
        plateau = inputs["plateau"]
        name = "solver.solve_plateau" if plateau else "solver.solve"
        for g, (f_vals, zeta_vals) in zip(self.graphs, inputs["values"]):
            f = self.tr.call("fields.field", ek.field_on, g, f_vals, "rhs_f")
            zeta = self.tr.call("fields.field", ek.field_on, g, zeta_vals, "boundary_zeta")
            inputs["fields"].append(f)
            args = (g, f, zeta, 0.0) if plateau else (g, f, zeta)
            self.attempt(calls, name, len(g.vertices), solve, *args, ctx=(g, f_vals, zeta_vals))
            self.counts["solver.solves"] += 1
        return calls

    def check(self, i, inputs, calls):
        for call in calls:
            if call.error is None:
                call.mismatch = bellman_mismatch(*call.ctx, call.output[1])

    def probe(self, i, inputs, calls):
        for g, f in zip(self.graphs, inputs["fields"]):
            self.tr.call("graph.distances", ek.distances_from, g, sorted(g.boundary))
            self.tr.call("fields.edge_costs", ek.edge_costs, g, f)


# --- certify ----------------------------------------------------------------


def certify_inputs(index: int, g, variant: int, compatible: bool) -> tuple[dict, dict]:
    """Seeded f in [0.5, 2] and zeta for one pool variant of one instance.
    Compatible zeta is constant; incompatible zeta is uniform on [0, 50]."""
    rng = random.Random(f"certify-{index}-{variant}")
    f_vals = {v: rng.uniform(0.5, 2.0) for v in g.vertices}
    boundary = sorted(g.boundary)
    if compatible:
        c = rng.uniform(0.0, 1.0)
        zeta_vals = dict.fromkeys(boundary, c)
    else:
        zeta_vals = {y: rng.uniform(0.0, 50.0) for y in boundary}
    return f_vals, zeta_vals


def certify_key(label: str, variant: int, compatible: bool) -> str:
    return f"{label}/{variant}/{'compatible' if compatible else 'incompatible'}"


def verdict(output) -> list:
    """The gated verdict of one check: (name, passed, max residual, items)
    for a slopes report, the four booleans for a boundary certificate."""
    if isinstance(output, ek.BoundaryCertificate):
        return ["boundary", output.zeta_lipschitz_ok, output.curve_condition_ok,
                output.weak_bound_ok, output.two_sided_ok]
    return [output.name, output.passed, output.max_residual, len(output.residuals)]


CERTIFY_CHECKS = (
    ("slopes.monge", lambda g, p, vf: ek.check_monge(g, vf.u, p.f)),
    ("slopes.csub", lambda g, p, vf: ek.check_c_subsolution(g, vf.u, p.f)),
    ("slopes.csuper", lambda g, p, vf: ek.check_c_supersolution(g, vf.u, p.f)),
    ("slopes.regularity", lambda g, p, vf: ek.check_regularity(g, vf.u)),
    ("solver.boundary_cert", lambda g, p, vf: ek.check_boundary_consistency(p, vf)),
)


class Certify(Workload):
    """Solve, then run all four slopes checks and the boundary certificate,
    alternating compatible and incompatible zeta; plus comparison runs."""

    def __init__(self, *args):
        super().__init__(*args)
        specs = SIZES[self.size]["certify"]
        self.graphs = [self.build(name, params).graph for name, params in specs]
        self.labels = [instance_label(name, params) for name, params in specs]
        self.expected = load_expected("certify", self.size)

    def prepare(self, i):
        compatible = i % 2 == 0
        drawn = []
        for j, g in enumerate(self.graphs):
            k = self.rng.randrange(CERTIFY_POOL)
            drawn.append((certify_key(self.labels[j], k, compatible),
                          *certify_inputs(j, g, k, compatible)))
        seeds = [self.rng.randrange(2**31) for _ in range(COMPARE_CALLS)]
        return {"values": drawn, "compare_seeds": seeds}

    def step(self, i, inputs):
        calls = []
        for g, (key, f_vals, zeta_vals) in zip(self.graphs, inputs["values"]):
            f = self.tr.call("fields.field", ek.field_on, g, f_vals, "rhs_f")
            zeta = self.tr.call("fields.field", ek.field_on, g, zeta_vals, "boundary_zeta")
            n = len(g.vertices)
            solved = self.attempt(calls, "solver.solve", n, solve, g, f, zeta, ctx=(g, f_vals, zeta_vals))
            self.counts["solver.solves"] += 1
            if solved.error is not None:
                continue
            for pos, (name, run) in enumerate(CERTIFY_CHECKS):
                call = self.attempt(calls, name, n, run, g, *solved.output, ctx=(key, pos))
                if call.error is None and name.startswith("slopes."):
                    self.counts["slopes.items"] += len(call.output.residuals) + len(call.output.excluded)
        for seed in inputs["compare_seeds"]:
            call = self.attempt(calls, "verify.compare", 0, self._compare, seed, traced=False)
            if call.error is None:
                call.vertices = len(call.output[0].graph.vertices)
        return calls

    def _compare(self, seed):
        inst = ek.random_comparison_instance(seed)
        return inst, self.tr.call("verify.compare", ek.compare, inst)

    def check(self, i, inputs, calls):
        for call in calls:
            if call.error is not None:
                continue
            if call.name == "solver.solve":
                call.mismatch = bellman_mismatch(*call.ctx, call.output[1])
            elif call.name == "verify.compare":
                report = call.output[1]
                if not report.passed:
                    call.mismatch = f"comparison failed: {report.hypothesis_failed or report.violating_vertex}"
            else:
                key, pos = call.ctx
                want = self.expected[key][pos]
                got = verdict(call.output)
                if got != want:
                    call.mismatch = f"{key}: verdict {got} != expected {want}"

    def probe(self, i, inputs, calls):
        for g in self.graphs:
            self.tr.call("graph.distances", ek.distances_from, g, sorted(g.boundary))
            centre = g.vertices[len(g.vertices) // 2]
            self.tr.call("graph.ball", ek.ball, g, centre, 2.0 * g.h_max)


# --- hjb --------------------------------------------------------------------


def hamiltonian(name: str):
    if name.partition(":")[0] in ek.hamiltonians.BUILTIN_NAMES:
        return ek.builtin_hamiltonian(name)
    return ek.expression_hamiltonian(name)


def hjb_zeta(index: int, g, variant: int) -> dict:
    """Seeded zeta in [0, 0.2] for one pool variant of one hjb instance."""
    rng = random.Random(f"hjb-{index}-{variant}")
    return {y: rng.uniform(0.0, 0.2) for y in sorted(g.boundary)}


def hjb_key(label: str, h_name: str, variant: int) -> str:
    return f"{h_name} on {label}/{variant}"


def reduction_mismatch(g, H, u: dict, h: dict) -> str | None:
    """First vertex where h(x) is not a nonnegative root of p -> H(x, u(x), p)
    within BISECT_TOL, or u(x) is not finite; None when every vertex is right.
    H is evaluated here, not read from the program's residuals."""
    for x in g.vertices:
        ux, hx = u.get(x), h.get(x)
        if ux is None or hx is None or not math.isfinite(ux):
            return f"vertex {x!r}: label {ux!r}, reduced h {hx!r}"
        res = abs(H.evaluate(x, ux, hx))
        if not (hx >= 0.0 and res <= BISECT_TOL):
            return f"vertex {x!r}: |H(x, u, h)| = {res!r} at h = {hx!r}, bisection tol {BISECT_TOL}"
    return None


class Hjb(Workload):
    """solve_general then check_hamiltonian_monge on each instance, with
    seeded zeta each step.  zeta comes from a pool of HJB_POOL variants per
    instance, so the gate can compare each check's verdict with a record."""

    def __init__(self, *args):
        super().__init__(*args)
        self.items = []
        for h_name, fix, params, excused in SIZES[self.size]["hjb"]:
            g = self.build(fix, params).graph
            self.instances[-1]["hamiltonian"] = h_name
            plain = hamiltonian(h_name)
            # the traced run counts H evaluations through a wrapper
            used = self._counted(plain) if self.tr.enabled else plain
            label = instance_label(fix, params)
            self.items.append((g, plain, used, label, h_name, excused))
        self.expected = load_expected("hjb", self.size)

    def _counted(self, H):
        counts = self.counts

        def evaluate(x, rho, p):
            counts["hamiltonians.h_evals"] += 1
            return H.evaluate(x, rho, p)

        return ek.HamiltonianSpec(H.name, evaluate, H.lambda0, H.rho_monotonicity, H.p_max)

    def prepare(self, i):
        drawn = []
        for j, (g, _, _, label, h_name, _) in enumerate(self.items):
            k = self.rng.randrange(HJB_POOL)
            drawn.append((hjb_key(label, h_name, k), hjb_zeta(j, g, k)))
        return drawn

    def _solve_and_check(self, g, H, zeta):
        vf, reduction, sweeps = self.tr.call("hamiltonians.solve_general", ek.solve_general, g, H, zeta)
        report = self.tr.call("hamiltonians.check_monge", ek.check_hamiltonian_monge, g, vf.u, H)
        return vf, reduction, sweeps, report

    def step(self, i, inputs):
        calls = []
        for (g, plain, H, _, _, excused), (key, zeta_vals) in zip(self.items, inputs):
            zeta = self.tr.call("fields.field", ek.field_on, g, zeta_vals, "boundary_zeta")
            call = self.attempt(calls, "hamiltonians.solve", len(g.vertices), self._solve_and_check,
                                g, H, zeta, traced=False, ctx=(g, plain, key), excused=excused)
            if call.error is None:
                self.counts["hamiltonians.picard_sweeps"] += call.output[2]
            elif isinstance(call.error, ek.ConvergenceError):
                self.counts["hamiltonians.picard_sweeps"] += len(call.error.history)
        return calls

    def check(self, i, inputs, calls):
        for call in calls:
            if call.error is None:
                g, plain, key = call.ctx
                vf, reduction, _, report = call.output
                call.mismatch = reduction_mismatch(g, plain, vf.u.values, reduction.h.values)
                # the excused instance has no record: it raised when the record was made
                if call.mismatch is None and call.excused is None:
                    want, got = self.expected[key], verdict(report)
                    if got != want:
                        call.mismatch = f"{key}: verdict {got} != expected {want}"
            if call.error is not None or call.mismatch is not None:
                self.counts["hamiltonians.failed"] += 1

    def probe(self, i, inputs, calls):
        for (g, plain, *_), call in zip(self.items, calls):
            if call.error is None:
                self.tr.call("hamiltonians.reduce_field", ek.reduce_field, plain, g, call.output[0].u.values)


# --- cli --------------------------------------------------------------------


class Cli(Workload):
    """The command line from files, one fresh subprocess per command."""

    def __init__(self, *args):
        super().__init__(*args)
        spec = SIZES[self.size]["cli"]
        self.grid = self.build("grid", {"n": spec["grid_n"]}).graph
        self.suite_fixture = self.build("gasket", {"level": spec["suite_level"]})
        self.instances[-1]["levels"] = spec["suite_levels"]
        # linear f = a + b x with seeded a, b
        a, b = self.rng.uniform(1.0, 2.0), self.rng.uniform(0.005, 0.02)
        self.f_vals = {v: a + b * self.grid.coords[v][0] for v in self.grid.vertices}
        self.paths = {k: str(self.workdir / name) for k, name in (
            ("graph", "grid.json"), ("f", "f.csv"), ("u", "u.csv"), ("plot", "plot.csv"),
            ("h", "h.csv"), ("copy", "copy.json"))}
        with open(self.paths["f"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["vertex_id", "value"])
            writer.writerows([v, repr(x)] for v, x in self.f_vals.items())
        src = str(HERE.parent / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        p, n = self.paths, str(spec["grid_n"])
        common = ["--graph", p["graph"], "--u", p["u"], "--f", p["f"]]
        self.commands = [
            ("cli.fixture", ["fixture", "--name", "grid", "--n", n, "--out", p["graph"]], 0),
            ("cli.solve", ["solve", "--graph", p["graph"], "--f", p["f"], "--zeta", "const:0",
                           "--out", p["u"], "--plot", p["plot"]], 0),
            ("cli.check", ["check", "monge", *common], 0),
            ("cli.check", ["check", "csub", *common], 0),
            ("cli.check", ["check", "csuper", *common], 0),
            # linear f is not regular at the grid's interior vertices: FAIL is right
            ("cli.check", ["check", "regularity", *common], 1),
            ("cli.suite", ["suite", "--fixture", "gasket", "--level", str(spec["suite_level"]),
                           "--levels", str(spec["suite_levels"])], 0),
            ("cli.solve_h", ["solve-h", "--graph", p["graph"], "--hamiltonian", "quadratic",
                             "--zeta", "const:0", "--out", p["h"]], 0),
        ]
        self.written = ("graph", "u", "plot", "h")
        self.reference = None
        self.child_samples = []

    def _run(self, argv):
        return subprocess.run([sys.executable, *argv], env=self.env, cwd=self.workdir,
                              capture_output=True, text=True, check=False)

    def _command(self, argv):
        """One eikograph command, started through launch.py so that it
        samples the host's speed while it runs."""
        samples = self.workdir / "samples.json"
        done = self._run([str(HERE / "launch.py"), str(samples), *argv])
        if samples.exists():
            self.child_samples += json.loads(samples.read_text())
            samples.unlink()
        return done

    def prepare(self, i):
        # a failing command must not pass off the previous step's file
        for key in self.written:
            Path(self.paths[key]).unlink(missing_ok=True)

    def step(self, i, inputs):
        calls = []
        for name, argv, want in self.commands:
            n = len((self.suite_fixture.graph if name == "cli.suite" else self.grid).vertices)
            self.attempt(calls, name, n, self._command, argv, ctx=want)
        return calls

    def check(self, i, inputs, calls):
        for call in calls:
            if call.error is not None:
                continue
            if call.output.returncode != call.ctx:
                tail = call.output.stderr.strip().splitlines()[-1:] or [""]
                call.mismatch = f"{call.name}: exit {call.output.returncode} != {call.ctx}: {tail[0]}"
            elif call.name == "cli.solve":
                call.mismatch = self._solution_mismatch()
        self.counts["cli.bytes_written"] += sum(
            os.path.getsize(self.paths[k]) for k in self.written if os.path.exists(self.paths[k]))

    def _solution_mismatch(self) -> str | None:
        """Compare the solution CSV field by field with an in-process solve."""
        if self.reference is None:
            g = self.grid
            f = ek.field_on(g, self.f_vals, "rhs_f")
            zeta = ek.field_on(g, dict.fromkeys(g.boundary, 0.0), "boundary_zeta")
            _, vf = solve(g, f, zeta)
            self.reference = [["vertex_id", "u", "exit_vertex", "attained"]] + [
                [v, repr(vf.u[v]), vf.exit_vertex[v],
                 ("true" if vf.attained[v] else "false") if v in g.boundary else ""]
                for v in g.vertices]
        with open(self.paths["u"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows == self.reference:
            return None
        bad = next((k for k, (r, e) in enumerate(zip(rows, self.reference)) if r != e), len(rows))
        return f"solution CSV differs from the in-process solve at row {bad}"

    def probe(self, i, inputs, calls):
        self.tr.call("cli.startup", self._run, ["-c", "import eikograph"])
        g = self.tr.call("graph.read", ek.read_graph, self.paths["graph"])
        self.counts["graph.json_bytes"] += os.path.getsize(self.paths["graph"])
        self.tr.call("graph.write", ek.write_graph, g, self.paths["copy"])
        levels = SIZES[self.size]["cli"]["suite_levels"]
        self.tr.call("verify.suite", ek.equivalence_suite, self.suite_fixture, levels=levels)


WORKLOADS = {"sweep": Sweep, "certify": Certify, "hjb": Hjb, "cli": Cli}
