"""What a process loads: `import eikograph`, a `check` run and an
`induce-metric` run leave the solver, hamiltonians and verify modules
unloaded, and the package resolves their names on first use."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import eikograph
from eikograph import cli, hamiltonians

from test_cli import run_cli

LAZY = ("eikograph.solver", "eikograph.hamiltonians", "eikograph.verify")
SRC = os.path.dirname(os.path.dirname(eikograph.__file__))


def python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package under test on its path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)


def imported(*args: str, cwd=None) -> tuple[int, set[str]]:
    """Exit code and the modules a fresh interpreter imports, read from -X importtime."""
    proc = python("-X", "importtime", *args, cwd=cwd)
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


def test_import_loads_no_lazy_module():
    code, names = imported("-c", "import eikograph")
    assert code == 0 and "eikograph.slopes" in names
    assert not names & set(LAZY)


def test_check_process_loads_no_lazy_module(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("fixture", "--name", "grid", "--n", "6", "--out", "g.json")
    run_cli("solve", "--graph", "g.json", "--f", "const:1", "--zeta", "const:0", "--out", "u.csv")
    code, names = imported("-m", "eikograph.cli", "check", "csub", "--graph", "g.json", "--u", "u.csv",
                           "--f", "const:1", cwd=tmp_path)
    assert code == 0 and "eikograph.slopes" in names
    assert not names & set(LAZY)


def test_induce_metric_process_loads_no_lazy_module(tmp_path):
    (tmp_path / "pts.csv").write_text("vertex_id,x\na,0\nb,1\nc,2\n")
    (tmp_path / "adj.csv").write_text("a,b\na,b\nb,c\n")
    code, names = imported("-m", "eikograph.cli", "induce-metric", "--points", "pts.csv", "--edges", "adj.csv",
                           "--out", "g.json", cwd=tmp_path)
    assert code == 0 and "eikograph.graph" in names
    assert not names & set(LAZY)


def test_lazy_names_resolve_on_first_use():
    """In a fresh process: hamiltonians.BUILTIN_NAMES before anything imports
    that module, every name in __all__, dir(), and slopes still the function
    once hamiltonians has imported the slopes module again."""
    script = """
import json, sys
import eikograph as ek
before = [m for m in %r if m in sys.modules]
builtin = list(ek.hamiltonians.BUILTIN_NAMES)
missing = [n for n in ek.__all__ if not hasattr(ek, n)]
unlisted = sorted(set(ek.__all__) - set(dir(ek)))
slopes_is_function = ek.slopes is sys.modules["eikograph.slopes"].slopes
print(json.dumps([before, builtin, missing, unlisted, slopes_is_function, len(ek.__all__)]))
""" % (LAZY,)
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    before, builtin, missing, unlisted, slopes_is_function, count = json.loads(proc.stdout)
    assert before == []
    assert builtin == list(hamiltonians.BUILTIN_NAMES)
    assert missing == [] and unlisted == []
    assert count == 69  # 74 once, less ChordInput, InducedMetric, BallSet, FieldReport and ConsistencyProbe
    assert slopes_is_function


def test_dir_lists_the_lazy_names_before_their_use():
    # run in process too: the fresh process above hides it from tools/uncovered.py
    listed = dir(eikograph)
    assert listed == sorted(listed) and set(eikograph.__all__) <= set(listed)
    assert {"solve_general", "fixture", "hamiltonians"} <= set(listed)


def test_star_import_and_unknown_name():
    namespace: dict = {}
    exec("from eikograph import *", namespace)
    assert set(eikograph.__all__) <= namespace.keys()
    assert namespace["fixture"] is eikograph.verify.fixture
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        eikograph.no_such_name


def test_cli_builtin_names_match_hamiltonians():
    # kept literal in cli so that --help imports nothing more
    assert cli.BUILTIN_NAMES == hamiltonians.BUILTIN_NAMES
