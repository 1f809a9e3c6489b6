"""Tests of the benchmark itself, at the tiny size:

    python3 perfbench/selftest.py

Not named test_*.py on purpose: the repository's test suite does not
collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import eikograph as ek  # noqa: E402
import run  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import SIZES, Call, Certify, Hjb, bellman_mismatch, solve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


class TinyRuns(unittest.TestCase):
    def test_every_workload_prints_its_declared_metrics(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    out = bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                                "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    res = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], out.stderr)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})

    def test_without_the_program_it_fails_without_a_result(self):
        (HERE / "_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("_runs", "_work", "__pycache__"))
            out = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=Path(tmp))
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


class Gates(unittest.TestCase):
    def setUp(self):
        self.g = ek.fixture("grid", n=6).graph
        self.f_vals = {v: 1.0 + 0.1 * self.g.coords[v][0] for v in self.g.vertices}
        self.zeta_vals = {y: 0.25 * self.g.coords[y][1] for y in sorted(self.g.boundary)}
        f = ek.field_on(self.g, self.f_vals, "rhs_f")
        zeta = ek.field_on(self.g, self.zeta_vals, "boundary_zeta")
        _, self.vf = solve(self.g, f, zeta)

    def test_bellman_gate_accepts_the_solver_output(self):
        self.assertIsNone(bellman_mismatch(self.g, self.f_vals, self.zeta_vals, self.vf))

    def test_bellman_gate_flags_a_label_one_ulp_off(self):
        x = self.g.interior[0]
        self.vf.u.values[x] = math.nextafter(self.vf.u.values[x], math.inf)
        self.assertIn(repr(x), bellman_mismatch(self.g, self.f_vals, self.zeta_vals, self.vf))

    def test_bellman_gate_flags_an_interior_exit_vertex(self):
        x = self.g.interior[0]
        self.vf.exit_vertex[x] = x
        self.assertIn("exit vertex", bellman_mismatch(self.g, self.f_vals, self.zeta_vals, self.vf))

    def test_certify_gate_flags_a_changed_verdict(self):
        w = Certify("tiny", 3, NullTracer(), HERE)  # certify writes no files
        inputs = w.prepare(0)
        calls = w.step(0, inputs)
        w.check(0, inputs, calls)
        self.assertEqual([c.mismatch for c in calls if c.mismatch], [])
        key = inputs["values"][0][0]
        w.expected[key][0][2] += 1e-12  # the recorded monge max residual
        w.check(0, inputs, calls)
        self.assertEqual(sum(c.mismatch is not None for c in calls), 1)

    def hjb_step(self):
        w = Hjb("tiny", 3, NullTracer(), HERE)  # hjb writes no files
        inputs = w.prepare(0)
        calls = w.step(0, inputs)
        w.check(0, inputs, calls)
        self.assertEqual([c.mismatch for c in calls if c.mismatch or c.error], [])
        for call in calls:
            call.mismatch = None
        return w, inputs, calls

    def test_hjb_gate_evaluates_the_reduction_itself(self):
        w, inputs, calls = self.hjb_step()
        g, _, _ = calls[0].ctx
        reduction = calls[0].output[1]
        x = g.vertices[len(g.vertices) // 2]
        reduction.h.values[x] += 1e-6  # residuals and flagged stay as the program left them
        w.check(0, inputs, calls)
        self.assertIn(repr(x), calls[0].mismatch)
        self.assertEqual([c.mismatch for c in calls[1:] if c.mismatch], [])

    def test_hjb_gate_flags_a_changed_monge_verdict(self):
        w, inputs, calls = self.hjb_step()
        key = inputs[1][0]
        w.expected[key][2] += 1e-12  # the recorded max residual
        w.check(0, inputs, calls)
        self.assertEqual([c.ctx[2] for c in calls if c.mismatch], [key])

    def test_only_the_marked_instance_excuses_a_convergence_error(self):
        marked = [(h, fix, params) for h, fix, params, excused in SIZES["full"]["hjb"] if excused]
        self.assertEqual(marked, [("affine-rho", "grid", {"n": 40})])
        error = ek.ConvergenceError("no convergence", [1.0])
        self.assertTrue(Call("hamiltonians.solve", 1, error=error, excused=ek.ConvergenceError).known_defect)
        self.assertFalse(Call("hamiltonians.solve", 1, error=error).known_defect)
        other = ek.HamiltonianError("bad")
        self.assertFalse(Call("hamiltonians.solve", 1, error=other, excused=ek.ConvergenceError).known_defect)


class Calibration(unittest.TestCase):
    def test_scale_is_reference_over_the_trimmed_mean(self):
        at_reference = [calibrate.REFERENCE_S] * 8
        self.assertAlmostEqual(calibrate.scale(at_reference + [1.0, 1e-9]), 1.0)  # one cut each end
        self.assertAlmostEqual(calibrate.scale([2.0 * calibrate.REFERENCE_S] * 3), 0.5)

    def test_sampler_samples_while_the_program_works(self):
        sampler = calibrate.Sampler()
        sampler.start()
        try:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 5 * calibrate.INTERVAL_S:
                sum(range(1000))
            t1 = time.perf_counter()
        finally:
            sampler.stop()
        self.assertGreaterEqual(len(sampler.during(t0, t1)), 3)
        self.assertEqual(len(sampler.during(t1 + 1.0, t1 + 2.0)), 1)  # none there: takes one

    def test_launch_keeps_the_exit_code_and_returns_samples(self):
        (HERE / "_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
            samples = Path(tmp) / "samples.json"
            out = subprocess.run(
                [sys.executable, str(HERE / "launch.py"), str(samples), "check", "monge",
                 "--graph", str(Path(tmp) / "missing.json"), "--u", "u.csv", "--f", "f.csv"],
                env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
                timeout=60, check=False)
            self.assertEqual(out.returncode, 2, out.stderr)
            self.assertGreaterEqual(len(json.loads(samples.read_text())), 1)


class Statistics(unittest.TestCase):
    def test_tail_leaves_ten_steps_beyond(self):
        value, pct = run.tail([float(k) for k in range(1, 41)])
        self.assertEqual(value, 30.0)
        self.assertEqual(pct, 75.0)

    def test_tail_falls_back_to_the_upper_median(self):
        self.assertEqual(run.tail([4.0, 1.0, 3.0, 2.0]), (3.0, 75.0))
        self.assertEqual(run.tail([2.0, 1.0, 3.0]), (2.0, 100.0 * 2 / 3))

    def test_self_time_subtracts_children(self):
        tr = Tracer()
        tr.step = 0

        def outer():
            tr.call("inner", time.sleep, 0.02)
            time.sleep(0.01)

        tr.call("outer", outer)
        (_, o_start, o_end, o_parent, _), (_, i_start, i_end, i_parent, _) = tr.spans
        self.assertEqual((o_parent, i_parent), (None, 0))
        own = tr.self_times(steps=2)
        self.assertEqual(own["inner"], (i_end - i_start) / 2)
        self.assertEqual(own["outer"], ((o_end - o_start) - (i_end - i_start)) / 2)
        self.assertGreaterEqual(own["outer"], 0.005)


if __name__ == "__main__":
    unittest.main()
