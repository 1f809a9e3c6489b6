"""The two instantiations of the reduction kernel.

``_evaluator`` compiles the bracket, search, bisection and residual loop
once per expression, with the expression inlined; every other evaluator
runs the one generic kernel, which calls it.  Both must give the plain references in
``tests/oracles.py`` bit for bit, and an expression must give what the same
evaluator wrapped in a closure gives: a kernel name that shadowed one the
expression reads would show here.  Expressions that bind names with ``:=``,
or nest too deeply to compile, are refused with a HamiltonianError.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import eikograph
from eikograph import (
    HamiltonianError,
    HamiltonianSpec,
    builtin_hamiltonian,
    expression_hamiltonian,
    field_on,
    fixture,
    reduce_field,
    reduce_h,
    solve_general,
)
from eikograph import hamiltonians as hamiltonians_module
from eikograph.hamiltonians import _EXPR_NAMES, _GENERIC, _KERNEL_NAMES, BUILTIN_NAMES, _kernel_of
from oracles import reference_reduce_field, reference_reduce_h, reference_solve_general, wrapped

from test_cli import run_cli

LEVELS = ("", ":2.5", ":inf", ":nan")
EXPRESSIONS = (
    "e * p + rho / pi - 1",
    "p - 1 / e",
    "p * p + rho - pi / e",
    "min([rho for _ in (1,)]) + p - 1",
    "(lambda: p)() + rho - 1",
    "max([q * e for q in (p, p / 2)]) + rho - 1",
)


INLINED = {name + level: builtin_hamiltonian(name + level) for name in BUILTIN_NAMES for level in LEVELS}
INLINED.update((expr, expression_hamiltonian(expr)) for expr in EXPRESSIONS)


def outcome(fn, *args):
    """Float hex strings of a value, a list or a reduction, or (exception type, message)."""
    try:
        got = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    if isinstance(got, float):
        return got.hex()
    if isinstance(got, tuple):  # solve_general: (value function, reduction, sweeps)
        vf, red, sweeps = got
        return sweeps, [v.hex() for v in vf.u.values.values()], outcome(lambda: red)
    return ([v.hex() for v in got.h.values.values()], [v.hex() for v in got.residuals.values()],
            got.flagged)


def rho_samples():
    rng = random.Random(22)
    return [0.0, -0.0, 1.0, -1.0, 0.5 - 2.0**-40] + [rng.uniform(-3.0, 3.0) for _ in range(8)]


@pytest.mark.parametrize("H", INLINED.values(), ids=INLINED.keys())
class TestBothKernels:
    def test_kernels_are_the_expected_ones(self, H):
        assert _kernel_of(H.evaluate) is not _GENERIC
        assert _kernel_of(wrapped(H).evaluate) is _GENERIC

    def test_reduce_h(self, H):
        plain = wrapped(H)
        for rho in rho_samples():
            for tol in (1e-9, 1e-12):
                want = outcome(reference_reduce_h, H, "v2", rho, tol)
                assert outcome(reduce_h, H, "v2", rho, tol) == want, (rho, tol)
                assert outcome(reduce_h, plain, "v2", rho, tol) == want, (rho, tol)

    def test_reduce_field(self, H):
        g = fixture("grid", n=4).graph
        rng = random.Random(5)
        rho = {v: rng.uniform(-1.0, 2.0) for v in g.vertices}
        want = outcome(reference_reduce_field, H, g, rho)
        assert outcome(reduce_field, H, g, rho) == want
        assert outcome(reduce_field, wrapped(H), g, rho) == want

    def test_solve_general(self, H):
        g = fixture("interval", n=24).graph
        rng = random.Random(9)
        zeta = field_on(g, {y: rng.uniform(0.0, 0.2) for y in sorted(g.boundary)}, "boundary_zeta")
        want = outcome(reference_solve_general, g, H, zeta)
        assert outcome(solve_general, g, H, zeta) == want
        assert outcome(solve_general, g, wrapped(H), zeta) == want


def test_kernel_names_shadow_no_expression_name():
    # the kernel's locals and globals sit in the scope an inlined expression
    # reads; abs is shared, and is the same object in both
    readable = set(_EXPR_NAMES) | {"c"}
    assert not set(_GENERIC.__code__.co_varnames) & readable
    assert set(_KERNEL_NAMES) & readable == {"abs"} and _KERNEL_NAMES["abs"] is _EXPR_NAMES["abs"]


ROOT_RHO = 0.25


def test_residual_failure_matches_the_reference():
    # H raises only at its root, after the bisection's last evaluation, so
    # the error comes from the residual evaluation
    root = reference_reduce_h(expression_hamiltonian("p + rho - 0.95"), "v0", ROOT_RHO)
    assert root not in (0.0, 1.0)

    def evaluate(x, rho, p):
        if p == root:
            raise ValueError("only at the root")
        return p + rho - 0.95

    hs = [HamiltonianSpec("faulty", evaluate, lambda0=1.0),
          expression_hamiltonian(f"p + rho - 0.95 + 0.0 / (p != {root!r})")]
    g = fixture("interval", n=4).graph
    rho = {v: ROOT_RHO for v in g.vertices}
    for H in hs:
        assert outcome(reduce_h, H, "v0", ROOT_RHO) == root.hex()
        got = outcome(reduce_field, H, g, rho)
        assert got == outcome(reference_reduce_field, H, g, rho)
        assert got[0] is HamiltonianError and f"p={root}" in got[1]
    assert _kernel_of(hs[1].evaluate) is not _GENERIC and _kernel_of(hs[0].evaluate) is _GENERIC


WALRUS = ("(p := 5) + rho - 1", "[rho := 1 for _ in (1,)][0] + p", '(f"{(p := 5)}" and 0) + p')


@pytest.mark.parametrize("expr", WALRUS)
def test_assignment_expression_rejected(expr):
    with pytest.raises(HamiltonianError, match="':='"):
        expression_hamiltonian(expr)


@pytest.mark.parametrize("expr", ["-" * 5000 + "p", "+".join(["p"] * 5000)])
def test_too_deep_expression_rejected(expr):
    with pytest.raises(HamiltonianError, match="nested too deeply"):
        expression_hamiltonian(expr)


@pytest.mark.parametrize("error", [RecursionError, MemoryError, SyntaxError])
def test_kernel_that_does_not_compile_falls_back_to_the_generic_one(monkeypatch, error):
    def refuse(source, names):
        raise error("too deep for the kernel")

    monkeypatch.setattr(hamiltonians_module, "_kernel", refuse)
    H = expression_hamiltonian("p * p + rho - 1")
    assert _kernel_of(H.evaluate) is _GENERIC
    for rho in rho_samples():
        assert outcome(reduce_h, H, "v", rho) == outcome(reference_reduce_h, H, "v", rho)


def test_expression_at_the_nesting_limit_is_accepted():
    # 198 parentheses are within the parser's limit as the lambda, and
    # inlined, two levels deeper, may not be: either kernel gives the reference
    H = expression_hamiltonian("abs(" * 198 + "p" + ")" * 198 + " - 1")
    for rho in (0.0, 1.0):
        assert outcome(reduce_h, H, "v", rho) == outcome(reference_reduce_h, H, "v", rho)


def assert_one_error_line(err):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("expr", WALRUS[:2] + ("-" * 5000 + "p", "+".join(["p"] * 5000)),
                         ids=["walrus", "walrus-comprehension", "deep-unary", "deep-sum"])
def test_cli_refuses_with_exit_2(tmp_path, capsys, monkeypatch, expr):
    monkeypatch.chdir(tmp_path)
    run_cli("fixture", "--name", "interval", "--n", "4", "--out", "i4.json")
    capsys.readouterr()
    code = run_cli("solve-h", "--graph", "i4.json", f"--hamiltonian={expr}", "--zeta", "const:0",
                   "--out", "h.csv")
    assert code == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "h.csv").exists()


def test_cli_process_refuses_a_deep_expression_with_exit_2(tmp_path):
    # a fresh process, as a user runs it: no traceback and no exit 1
    assert run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(tmp_path / "i4.json")) == 0
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eikograph.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "eikograph.cli", "solve-h", "--graph", "i4.json",
         "--hamiltonian=" + "-" * 5000 + "p", "--zeta", "const:0", "--out", "h.csv"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 2
    assert "nested too deeply" in assert_one_error_line(proc.stderr)
