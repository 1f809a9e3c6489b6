"""Byte-identity check of the eikograph CLI between two source trees.

    python tools/cmp_cli.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``eikograph`` package (a
checkout's ``src``).  The same fixed command list runs once with each on
``PYTHONPATH``, in its own temporary directory: every fixture kind, small
and at benchmark sizes, solve with --plot and --certify, solve-h with
--h-out (Picard over many sweeps and stopped by --max-iter among them), the
four checks with --report on seven (graph, solution) pairs and monge's sub
and super modes, compare, suite, induce-metric, and refine both with a
split and with an h_max that splits no edge, on valid input, and ``--help``
of the program and of each subcommand.  One hand-written graph, MESSY, lists
its vertices and edges out of id order, with parallel edges of different
lengths both ways round; it is solved, checked and refined.  Another,
PARTIAL, has coords on some vertices only; it is refined.  Every output
file, each command's stdout and stderr and the list of exit codes are then
compared byte for byte.  Graph files whose bytes differ, as they do across a
change of the graph format, are loaded with CHANGE_SRC's ``read_graph``, and
those that give the same graph (ids, boundary, coords in order, index and
lists, compared by repr) are listed.  Exits 0 when every file is identical,
or differs only as a graph file that loads to the same graph; else 1, with
the other differing files listed.  Standard library only.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
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
]

MESSY = {  # ids out of order ("w10" sorts before "w2"); parallel edges shorter, longer and equal
    "vertices": ["w3", "w10", "w1", "w20", "w2", "w4", "w11"],
    "edges": [{"a": a, "b": b, "length": length} for a, b, length in [
        ("w4", "w3", 1.0), ("w10", "w1", 0.5), ("w3", "w2", 0.8), ("w2", "w1", 1.5),
        ("w1", "w2", 0.75), ("w20", "w4", 1.25), ("w11", "w10", 0.6), ("w3", "w11", 0.9),
        ("w11", "w3", 1.9), ("w2", "w20", 2.0), ("w4", "w11", 0.3), ("w20", "w2", 2.0)]],
    "boundary": ["w20", "w1"],
}

PARTIAL = {  # coords on p1 and p2 only; refine interpolates between them and nowhere else
    "vertices": ["p0", {"id": "p1", "coords": [0.0, 1.0]}, {"id": "p2", "coords": [1.0, 1.0]}, "p3"],
    "edges": [{"a": "p0", "b": "p1", "length": 1.0}, {"a": "p1", "b": "p2", "length": 1.0},
              {"a": "p2", "b": "p3", "length": 0.75}, {"a": "p3", "b": "p0", "length": 2.0}],
    "boundary": ["p0"],
}

# Run with CHANGE_SRC on the path: prints the names whose two files load to the same graph.
SAME_GRAPH = """
import sys
from eikograph import read_graph
parent, change, *names = sys.argv[1:]

def fields(path):
    g = read_graph(path)
    return repr((g.vertices, sorted(g.boundary), list(g.coords.items()), list(g.index.items()), g.nbrs, g.lens))

for name in names:
    try:
        if fields(f"{parent}/{name}") == fields(f"{change}/{name}"):
            print(name)
    except Exception:
        pass
"""

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
    # Picard over many sweeps (50), and stopped after 3 with the ConvergenceError message
    ["solve-h", "--graph", "grid.json", "--hamiltonian", "affine-rho", "--zeta", "linear:0,0.02",
     "--out", "uh_picard.csv", "--h-out", "h_picard.csv"],
    ["solve-h", "--graph", "grid.json", "--hamiltonian", "affine-rho", "--zeta", "linear:0,0.02",
     "--out", "uh_stopped.csv", "--max-iter", "3"],
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
     "--pairs", "64", "--out", "induced.json", "--probe-out", "probe.csv"],
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
    out-of-order graph MESSY and the partial-coords graph PARTIAL."""
    x = [(2 * k - 40) / 40 for k in range(41)]
    files = {
        "f_zero.csv": [f"v{k},{0.0 if k == 20 else 1.0!r}" for k in range(41)],
        "half.csv": [f"v{k},{0.5 * (1.0 - abs(x[k]))!r}" for k in range(41)],
        "bumpy.csv": [f"v{i}_{j},{((7 * i + 3 * j) % 5) * 0.5!r}" for i in range(12) for j in range(12)],
        "points.csv": [f"c{k:02d},{math.cos(2 * math.pi * k / 60)!r},{math.sin(2 * math.pi * k / 60)!r}"
                       for k in range(60)],
        "ring.csv": [f"c{k:02d},c{(k + 1) % 60:02d}" for k in range(60)],
    }
    headers = {"points.csv": "vertex_id,x,y", "ring.csv": "a,b"}
    for name, rows in files.items():
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join([headers.get(name, "vertex_id,value"), *rows]) + "\n")
    for name, spec in (("messy.json", MESSY), ("partial.json", PARTIAL)):
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)


def run_all(src: str, d: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    write_inputs(d)
    codes = []
    for n, argv in enumerate(COMMANDS):
        proc = subprocess.run([sys.executable, "-m", "eikograph.cli", *argv], cwd=d, env=env,
                              capture_output=True)
        for stream in ("stdout", "stderr"):
            with open(os.path.join(d, f"cmd{n:02d}.{stream}"), "wb") as fh:
                fh.write(getattr(proc, stream))
        codes.append(f"{n:02d} {proc.returncode} {' '.join(argv)}\n")
    with open(os.path.join(d, "exit_codes.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(codes)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/cmp_cli.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        run_all(argv[0], parent)
        run_all(argv[1], change)
        names = sorted(set(os.listdir(parent)) | set(os.listdir(change)))
        differ = [name for name in names
                  if not (os.path.isfile(os.path.join(parent, name))
                          and os.path.isfile(os.path.join(change, name))
                          and filecmp.cmp(os.path.join(parent, name), os.path.join(change, name),
                                          shallow=False))]
        with open(os.path.join(parent, "exit_codes.txt"), encoding="utf-8") as fh:
            summary = [line.split(" ", 2)[1] for line in fh]
        graphs = [name for name in differ if name.endswith(".json") and all(
            os.path.isfile(os.path.join(d, name)) for d in (parent, change))]
        same_graph = subprocess.run(
            [sys.executable, "-c", SAME_GRAPH, parent, change, *graphs], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(argv[1]))).stdout.split() if graphs else []
    print(f"{len(COMMANDS)} commands (exit codes {' '.join(summary)}), {len(names)} files compared")
    if same_graph:
        print("graph files that differ in bytes but load to the same graph: " + " ".join(same_graph))
    other = [name for name in differ if name not in same_graph]
    if other:
        print("differ: " + " ".join(other))
        return 1
    print("all identical" if not differ else "all other files identical")
    return 0

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
