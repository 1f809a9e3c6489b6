"""Byte-identity check of the eikograph CLI between two source trees.

    python tools/cmp_cli.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``eikograph`` package (a
checkout's ``src``).  The same fixed command list runs once with each on
``PYTHONPATH``, in its own temporary directory: every fixture kind, small
and at benchmark sizes, solve with --plot and --certify, solve-h with
--h-out (Picard over many sweeps, the causal pass after --max-iter, an
H that its mesh condition refuses, a builtin with a level, an expression
with nested scopes and a finer --bisect-tol among them), the four checks
with --report on eight (graph, solution) pairs and monge's sub and super
modes, compare, suite, induce-metric, and refine both with a split and
with an h_max that splits no edge, on valid input, and ``--help`` of the
program and of each subcommand.  One hand-written graph, MESSY, lists its
vertices and edges out of id order, with parallel edges of different
lengths both ways round; it is solved, checked and refined.  Another,
PARTIAL, has coords on some vertices only; it is refined.  A third,
COLLIDE, has ids that hold ``->``, so that two of its oriented edges print
as the same csub item ``a->b->c``; the four checks run on it with a
hand-written solution that breaks one of the two by 4.0 (a report keyed by
the printed item would keep only one of them).  Beside the commands, one
child process runs ``solve_general`` in process on the five hjb instances
of ``perfbench/workloads.py`` at their full size, each with its seeded
zeta variant 0, at the default ``max_iter`` and at ``max_iter=1``, where
a rho-dependent H goes straight to the causal pass (see
:func:`solve_general_digest`).  The two manifests
(below) are compared entry by entry: one line per command, file or hjb
instance that differs, exit 1 on any difference, else 0.

    python tools/cmp_cli.py --manifest PATH [SRC]

runs the same command list once, with SRC (default: this checkout's
``src``), and writes to PATH a JSON manifest: the Python version and
platform, each command's exit code and the sha256 of its stdout and
stderr (keyed by its argv), the sha256 of every file left in its
directory, and per hjb instance the count ``solve_general`` returns and
the sha256 of its outputs, or the message of the error it raises.
``tests/test_manifest.py`` regenerates it and compares it, entry by entry,
with ``tests/golden/manifest.json``; a change that moves an output on
purpose re-records that file with this command.  Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile

CHECKS = ("monge", "csub", "csuper", "regularity")
PAIRS = [  # (graph, solution, f) pairs every check runs on; bumpy.csv fails all four
    ("interval.json", "u_interval.csv", "const:1"),
    ("grid.json", "u_grid.csv", "linear:1,0.5"),
    ("gasket.json", "u_gasket.csv", "const:2"),
    ("grid.json", "bumpy.csv", "const:1"),
    ("grid8.json", "u_grid8.csv", "const:0.5"),  # unequal edge lengths
    ("tree.json", "u_tree.csv", "const:1"),  # boundary at the leaves: regularity excludes their parents
    ("messy.json", "u_messy.csv", "const:1"),
    ("collide.json", "u_collide.csv", "const:1"),  # two csub arcs print as "a->b->c"; one fails
]

MESSY = {  # ids out of order ("w10" sorts before "w2"); parallel edges shorter, longer and equal
    "vertices": ["w3", "w10", "w1", "w20", "w2", "w4", "w11"],
    "edges": [{"a": a, "b": b, "length": length} for a, b, length in [
        ("w4", "w3", 1.0), ("w10", "w1", 0.5), ("w3", "w2", 0.8), ("w2", "w1", 1.5),
        ("w1", "w2", 0.75), ("w20", "w4", 1.25), ("w11", "w10", 0.6), ("w3", "w11", 0.9),
        ("w11", "w3", 1.9), ("w2", "w20", 2.0), ("w4", "w11", 0.3), ("w20", "w2", 2.0)]],
    "boundary": ["w20", "w1"],
}

COLLIDE = {  # ids that hold "->": arcs a -> "b->c" and "a->b" -> c both print as "a->b->c"
    "vertices": ["a", "a->b", "b->c", "c", "z"],
    "edges": [{"a": a, "b": b, "length": 1.0} for a, b in [("a", "b->c"), ("a->b", "c"), ("b->c", "z"), ("c", "z")]],
    "boundary": ["z"],
}
COLLIDE_U = {"a": 6.0, "a->b": 2.0, "b->c": 1.0, "c": 1.0, "z": 0.0}  # f = 1: a -> "b->c" fails by 4.0

PARTIAL = {  # coords on p1 and p2 only; refine interpolates between them and nowhere else
    "vertices": ["p0", {"id": "p1", "coords": [0.0, 1.0]}, {"id": "p2", "coords": [1.0, 1.0]}, "p3"],
    "edges": [{"a": "p0", "b": "p1", "length": 1.0}, {"a": "p1", "b": "p2", "length": 1.0},
              {"a": "p2", "b": "p3", "length": 0.75}, {"a": "p3", "b": "p0", "length": 2.0}],
    "boundary": ["p0"],
}

COMMANDS = [
    ["fixture", "--name", "interval", "--n", "40", "--out", "interval.json"],
    ["fixture", "--name", "interval", "--n", "4", "--out", "interval4.json"],
    ["fixture", "--name", "grid", "--n", "12", "--out", "grid.json"],
    ["fixture", "--name", "grid", "--n", "8", "--connectivity", "8", "--out", "grid8.json"],
    ["fixture", "--name", "gasket", "--level", "3", "--out", "gasket.json"],
    ["fixture", "--name", "binary_tree", "--depth", "5", "--out", "tree.json"],
    ["fixture", "--name", "circle", "--n", "9", "--out", "circle.json"],
    # benchmark sizes: cli's grid, sweep's 8-connected grid, certify's tree and gasket
    ["fixture", "--name", "grid", "--n", "100", "--out", "grid100.json"],
    ["fixture", "--name", "grid", "--n", "60", "--connectivity", "8", "--out", "grid60_8.json"],
    ["fixture", "--name", "binary_tree", "--depth", "9", "--out", "tree9.json"],
    ["fixture", "--name", "gasket", "--level", "6", "--out", "gasket6.json"],
    ["solve", "--graph", "interval.json", "--f", "const:1", "--zeta", "const:0",
     "--out", "u_interval.csv", "--plot", "plot_interval.csv", "--certify"],
    ["solve", "--graph", "grid.json", "--f", "linear:1,0.5", "--zeta", "linear:0,1",
     "--out", "u_grid.csv", "--plot", "plot_grid.csv", "--plot-layout", "coords", "--certify"],
    ["solve", "--graph", "gasket.json", "--f", "const:2", "--zeta", "linear:0,3",
     "--out", "u_gasket.csv", "--plot", "plot_gasket.csv", "--certify"],
    ["solve", "--graph", "interval.json", "--f", "f_zero.csv", "--zeta", "const:0",
     "--out", "u_zero.csv", "--threshold", "0"],
    ["solve", "--graph", "grid8.json", "--f", "const:0.5", "--zeta", "const:1", "--out", "u_grid8.csv"],
    ["solve", "--graph", "tree.json", "--f", "const:1", "--zeta", "const:0", "--out", "u_tree.csv"],
    ["solve", "--graph", "messy.json", "--f", "const:1", "--zeta", "const:0", "--out", "u_messy.csv",
     "--certify"],
    ["solve-h", "--graph", "interval.json", "--hamiltonian", "quadratic", "--zeta", "const:0",
     "--out", "uh_quadratic.csv", "--h-out", "h_quadratic.csv", "--plot", "plot_h.csv"],
    ["solve-h", "--graph", "interval.json", "--hamiltonian", "p + rho - 1", "--zeta", "const:0",
     "--out", "uh_expr.csv", "--h-out", "h_expr.csv"],
    ["solve-h", "--graph", "interval4.json", "--hamiltonian", "affine-rho", "--zeta", "const:0",
     "--out", "uh_fixpoint.csv", "--h-out", "h_fixpoint.csv", "--tol", "0", "--max-iter", "40",
     "--bisect-tol", "1e-10"],
    # Picard over many sweeps (50); stopped after 3, where the causal pass answers; and
    # stopped after 3 on an H whose sampled mesh bound refuses the pass, with the ConvergenceError
    ["solve-h", "--graph", "grid.json", "--hamiltonian", "affine-rho", "--zeta", "linear:0,0.02",
     "--out", "uh_picard.csv", "--h-out", "h_picard.csv"],
    ["solve-h", "--graph", "grid.json", "--hamiltonian", "affine-rho", "--zeta", "linear:0,0.02",
     "--out", "uh_stopped.csv", "--max-iter", "3"],
    ["solve-h", "--graph", "grid.json", "--hamiltonian", "p - exp(-4*rho)", "--zeta", "linear:0,0.02",
     "--out", "uh_refused.csv", "--max-iter", "3"],
    # a builtin level, an expression with nested scopes and a finer bisection,
    # each through the reduction kernel its Hamiltonian compiles to
    ["solve-h", "--graph", "grid8.json", "--hamiltonian", "affine-rho:2", "--zeta", "linear:0,0.1",
     "--out", "uh_level.csv", "--h-out", "h_level.csv"],
    ["solve-h", "--graph", "interval.json", "--hamiltonian", "min([rho for _ in (1,)]) + (lambda: p)() - 1",
     "--zeta", "const:0.1", "--out", "uh_scopes.csv", "--h-out", "h_scopes.csv"],
    ["solve-h", "--graph", "gasket.json", "--hamiltonian", "p * p + rho - 1", "--zeta", "const:0",
     "--out", "uh_bisect.csv", "--h-out", "h_bisect.csv", "--bisect-tol", "1e-12"],
    *(["check", kind, "--graph", graph, "--u", u, "--f", f, "--report", f"{kind}_{n}.csv"]
      for n, (graph, u, f) in enumerate(PAIRS) for kind in CHECKS),
    ["check", "monge", "--graph", "grid.json", "--u", "u_grid.csv", "--f", "linear:1,0.5",
     "--mode", "sub", "--tol", "0.25", "--report", "monge_sub.csv"],
    ["check", "monge", "--graph", "grid.json", "--u", "bumpy.csv", "--f", "const:1",
     "--mode", "super", "--report", "monge_super.csv"],
    ["check", "csub", "--graph", "grid.json", "--u", "bumpy.csv", "--f", "const:1",
     "--tol", "0.5", "--report", "csub_tol.csv"],
    ["compare", "--graph", "interval.json", "--f", "const:1", "--u", "half.csv",
     "--v", "u_interval.csv", "--report", "compare_pass.csv"],
    ["compare", "--graph", "interval.json", "--f", "const:1", "--u", "u_interval.csv",
     "--v", "half.csv", "--report", "compare_swapped.csv"],
    ["compare", "--graph", "interval.json", "--f", "const:1", "--u", "half.csv",
     "--v", "u_interval.csv", "--delta", "0.3", "--band-tol", "0", "--sub-tol", "0.1",
     "--super-tol", "0.1", "--tol", "-0.01", "--report", "compare_flags.csv"],
    ["suite", "--fixture", "gasket", "--level", "2", "--levels", "3", "--report", "suite_gasket.csv"],
    ["suite", "--fixture", "grid", "--n", "6", "--f", "linear:1,0.5", "--zeta", "const:0",
     "--levels", "2", "--report", "suite_grid.csv"],
    ["induce-metric", "--points", "points.csv", "--edges", "ring.csv", "--boundary", "c00,c30",
     "--out", "induced.json"],
    ["refine", "--graph", "gasket.json", "--h-max", "0.05", "--out", "refined.json"],
    ["refine", "--graph", "gasket.json", "--h-max", "1e9", "--out", "unrefined.json"],
    ["refine", "--graph", "messy.json", "--h-max", "0.4", "--out", "refined_messy.json"],
    ["refine", "--graph", "partial.json", "--h-max", "0.3", "--out", "refined_partial.json"],
    ["--help"],
    *([command, "--help"] for command in ("fixture", "solve", "solve-h", "check", "compare", "suite",
                                          "induce-metric", "refine")),
]


def write_inputs(d: str) -> None:
    """Hand-made inputs: a field with a zero, a half solution, a bumpy
    solution on the 12 x 12 grid, 60 points on a circle with a ring, the
    out-of-order graph MESSY, the partial-coords graph PARTIAL and the graph
    COLLIDE with its solution."""
    x = [(2 * k - 40) / 40 for k in range(41)]
    files = {
        "f_zero.csv": [f"v{k},{0.0 if k == 20 else 1.0!r}" for k in range(41)],
        "half.csv": [f"v{k},{0.5 * (1.0 - abs(x[k]))!r}" for k in range(41)],
        "bumpy.csv": [f"v{i}_{j},{((7 * i + 3 * j) % 5) * 0.5!r}" for i in range(12) for j in range(12)],
        "points.csv": [f"c{k:02d},{math.cos(2 * math.pi * k / 60)!r},{math.sin(2 * math.pi * k / 60)!r}"
                       for k in range(60)],
        "ring.csv": [f"c{k:02d},c{(k + 1) % 60:02d}" for k in range(60)],
        "u_collide.csv": [f"{v},{x!r}" for v, x in COLLIDE_U.items()],
    }
    headers = {"points.csv": "vertex_id,x,y", "ring.csv": "a,b"}
    for name, rows in files.items():
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join([headers.get(name, "vertex_id,value"), *rows]) + "\n")
    for name, spec in (("messy.json", MESSY), ("partial.json", PARTIAL), ("collide.json", COLLIDE)):
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)


def platform_tag() -> str:
    """What the manifest's bytes may depend on: the interpreter, whose
    argparse words the help, and the platform, whose libm rounds the
    ``math.sin`` and ``math.cos`` of ``points.csv``."""
    return (f"{platform.python_implementation()} {platform.python_version()} "
            f"{sys.platform} {platform.machine()}")


def solve_general_digest() -> dict:
    """Per hjb instance of ``perfbench/workloads.py`` at its full size, keyed
    as the benchmark keys its records, ``solve_general``'s outputs with the
    instance's zeta variant 0, and again at ``max_iter=1`` under the key
    with `` max_iter=1`` appended: the count it returns and the sha256 of one
    line per vertex in id order (id, label, exit, h and residual, each
    float by ``float.hex``, and for a boundary vertex whether its datum is
    attained) followed by the flagged vertices; or the message of the
    ConvergenceError it raises.  It imports ``eikograph`` from the path."""
    import eikograph as ek
    from perfbench.workloads import SIZES, hamiltonian, hjb_key, hjb_zeta, instance_label

    digest = {}
    for j, (h_name, fix, params, _) in enumerate(SIZES["full"]["hjb"]):
        g = ek.fixture(fix, **params).graph
        zeta = ek.field_on(g, hjb_zeta(j, g, 0), "boundary_zeta")
        for suffix, options in (("", {}), (" max_iter=1", {"max_iter": 1})):
            key = hjb_key(instance_label(fix, params), h_name, 0) + suffix
            try:
                vf, red, count = ek.solve_general(g, hamiltonian(h_name), zeta, **options)
            except ek.ConvergenceError as exc:
                digest[key] = {"error": str(exc)}
                continue
            lines = [f"{v} {vf.u.values[v].hex()} {vf.exit_vertex[v]} {red.h.values[v].hex()} "
                     f"{red.residuals[v].hex()} {vf.attained.get(v, '')}" for v in g.vertices]
            lines.append(" ".join(red.flagged))
            digest[key] = {"count": count, "sha256": _sha256("\n".join(lines).encode())}
    return digest


def manifest(src: str, d: str) -> dict:
    """Run every command with ``src`` in the empty directory ``d``; return
    the platform tag, per command (keyed by its argv) the exit code and the
    sha256 of stdout and stderr, per file left in ``d`` its sha256, and
    :func:`solve_general_digest`, taken in one more child process (without
    bytecode, so that it leaves no file in ``perfbench/``)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    write_inputs(d)
    commands = {}
    for argv in COMMANDS:
        key = " ".join(argv)
        assert key not in commands, f"command listed twice: {key}"
        proc = subprocess.run([sys.executable, "-m", "eikograph.cli", *argv], cwd=d, env=env,
                              capture_output=True)
        commands[key] = {"exit": proc.returncode, "stdout": _sha256(proc.stdout),
                         "stderr": _sha256(proc.stderr)}
    files = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            files[name] = _sha256(fh.read())
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.abspath(src), here, os.path.dirname(here)])
    proc = subprocess.run([sys.executable, "-B", "-c", "import cmp_cli, json; "
                           "print(json.dumps(cmp_cli.solve_general_digest()))"],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    return {"platform": platform_tag(), "commands": commands, "files": files,
            "solve_general": json.loads(proc.stdout)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_differences(want: dict, got: dict) -> list[str]:
    """One line per command, file or hjb instance whose entry differs
    between two manifests; a manifest recorded on another platform is one
    line alone."""
    if want["platform"] != got["platform"]:
        return [f"the manifest was recorded on {want['platform']}, this is {got['platform']}: "
                "its bytes need not match here; re-record it with tools/cmp_cli.py --manifest"]
    lines = []
    for kind, name in (("commands", "command"), ("files", "file"), ("solve_general", "solve_general")):
        wanted, made = want.get(kind, {}), got.get(kind, {})
        for key in sorted(wanted.keys() | made.keys()):
            old, new = wanted.get(key), made.get(key)
            if old == new:
                continue
            if old is None or new is None:
                what = "not in the manifest" if old is None else "no longer made"
            elif kind == "files":
                what = "bytes differ"
            else:
                what = ", ".join(f"{f} {old.get(f)} -> {new.get(f)}" if f in ("exit", "count") else f"{f} differs"
                                 for f in ("exit", "stdout", "stderr", "count", "error", "sha256")
                                 if old.get(f) != new.get(f))
            lines.append(f"{name} {key!r}: {what}")
    return lines


def write_manifest(path: str, src: str) -> None:
    with tempfile.TemporaryDirectory() as d:
        record = manifest(src, d)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--manifest"] and len(argv) in (2, 3):
        write_manifest(argv[1], argv[2] if len(argv) == 3 else os.path.join(os.path.dirname(__file__), "..", "src"))
        return 0
    if len(argv) != 2:
        print("usage: python tools/cmp_cli.py PARENT_SRC CHANGE_SRC\n"
              "       python tools/cmp_cli.py --manifest PATH [SRC]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        want, got = manifest(argv[0], parent), manifest(argv[1], change)
    differences = manifest_differences(want, got)
    print(f"{len(got['commands'])} commands and {len(got['files'])} files compared")
    print("\n".join(differences) or "all identical")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
