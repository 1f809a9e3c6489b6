"""Smoke runs of the benchmark's four workloads at their tiny size.

The runs gate every solve against the exact Bellman fixpoint (sweep,
certify, cli) or the reduction residuals (hjb), and every check and
certificate verdict against the verdicts recorded in
perfbench/expected.json, so a changed verdict fails here.  The benchmark
imports the package's public names, so a deleted name it uses fails here
too.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def assert_tiny_run_correct(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0


def test_sweep_tiny_run_is_correct():
    assert_tiny_run_correct("sweep")


def test_certify_tiny_run_is_correct():
    assert_tiny_run_correct("certify")


def test_hjb_tiny_run_is_correct():
    # gates the hjb residuals and monge verdicts against the tiny record,
    # so a reduction that drifts by one ulp fails here
    assert_tiny_run_correct("hjb")


def test_cli_tiny_run_is_correct():
    assert_tiny_run_correct("cli")
