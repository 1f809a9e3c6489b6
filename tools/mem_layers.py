"""Python heap that fixed graph-building layers keep and peak at, under tracemalloc.

    python3 tools/mem_layers.py SRC [SRC2]

Each argument is a directory that holds the ``eikograph`` package (a
checkout's ``src``).  With one, this process imports the package from it
and runs the layers in order: the four fixture builds of perfbench's sweep
workload at its full size, ``read_graph`` of the grid n=100 fixture written
as a version 2 file and as a compact version 1 file, ``refine`` of that
grid at h_max 0.25 (69,400 vertices), and ``field_on`` of a seeded rhs_f
on grid n=150, the sweep's largest graph, with values drawn as the sweep
draws them (the field's stored form).  Each layer runs after a collection,
with tracemalloc started just before it and stopped just after, and prints
the MiB that its result keeps and the MiB at which its allocations peaked.
tracemalloc counts Python's own allocations, so the same code on the same
Python gives the same figures on every run, where the peak RSS of a whole
benchmark process moves by a fraction of a MB between runs of identical
code.  The input files, the field's graph and its values are made before
the layers run, outside the trace.  With two roots, each runs in its own
child process, and one table gives both sides and the change from the
first to the second.  Takes about 6 s a root on a 2-core x86-64.  Standard
library only.
"""

from __future__ import annotations

import gc
import importlib
import json
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from typing import Callable

SWEEP = [("grid", {"n": 150}), ("grid", {"n": 60, "connectivity": 8}),  # perfbench's full sweep set
         ("gasket", {"level": 7}), ("binary_tree", {"depth": 13})]
FILE_N = 100  # the grid of the graph files, and the grid refined
REFINE_H = 0.25
FIELD = ("grid", {"n": 150})  # the graph of the field layer
MIB = 2**20


def version_1(g) -> dict:
    """The version 1 description of ``g``, through the views every version of the package has."""
    vertices = [{"id": v, "coords": list(g.coords[v])} if v in g.coords else {"id": v} for v in g.vertices]
    edges = [{"a": a, "b": b, "length": length} for (a, b), length in g.edges.items()]
    return {"version": 1, "vertices": vertices, "edges": edges, "boundary": sorted(g.boundary)}


def label(name: str, params: dict) -> str:
    """A fixture's name and parameters as a layer's name shows them."""
    return f"{name} {' '.join(f'{k}={v}' for k, v in params.items())}"


def layers(ek, workdir: Path, sweep=SWEEP, file_n: int = FILE_N, refine_h: float = REFINE_H,
           field=FIELD) -> list:
    """(name, build) of every layer: ``build()`` runs the layer and returns
    what it keeps.  Writes the graph files into ``workdir``, and builds the
    field's graph and values, first."""
    grid = ek.fixture("grid", n=file_n).graph
    v2, v1 = str(workdir / "v2.json"), str(workdir / "v1.json")
    ek.write_graph(grid, v2)
    Path(v1).write_text(json.dumps(version_1(grid), separators=(",", ":")) + "\n", encoding="utf-8")
    g = ek.fixture(field[0], **field[1]).graph
    rng = random.Random(0)
    f_vals = {v: rng.uniform(0.5, 2.0) for v in g.vertices}  # as the sweep draws f
    out = [(f"fixture {label(name, params)}", lambda name=name, params=params: ek.fixture(name, **params).graph)
           for name, params in sweep]
    return out + [(f"read_graph grid n={file_n} version 2", lambda: ek.read_graph(v2)),
                  (f"read_graph grid n={file_n} version 1", lambda: ek.read_graph(v1)),
                  (f"refine grid n={file_n} h_max={refine_h}", lambda: ek.refine(grid, refine_h)),
                  (f"field_on rhs_f {label(*field)}", lambda: ek.field_on(g, f_vals, "rhs_f"))]


def traced(build: Callable) -> tuple[float, float]:
    """(MiB kept, MiB peak) of ``build()``, from a collection and a fresh trace."""
    gc.collect()
    tracemalloc.start()
    try:
        made = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del made
    return kept / MIB, peak / MIB


def measure(src: str) -> dict[str, tuple[float, float]]:
    """Layer name -> (MiB kept, MiB peak), with ``eikograph`` imported from ``src``."""
    sys.path.insert(0, str(Path(src).resolve()))
    ek = importlib.import_module("eikograph")
    with tempfile.TemporaryDirectory() as workdir:
        return {name: traced(build) for name, build in layers(ek, Path(workdir))}


def table(sides: list[dict[str, tuple[float, float]]]) -> str:
    """One line a layer: kept and peak MiB of each side, then the second's change from the first."""
    lines = [f"{'layer':<40} {'kept MiB':<{8 if len(sides) == 1 else 26}}  peak MiB"]
    for name in sides[0]:
        cells = [[side[name][k] for side in sides] for k in (0, 1)]
        if len(sides) == 1:
            lines.append(f"{name:<40} {cells[0][0]:8.2f}  {cells[1][0]:8.2f}")
        else:
            lines.append(f"{name:<40} " + "  ".join(f"{a:6.2f} -> {b:6.2f} {f'({(b - a) / a:+.1%})':>9}" for a, b in cells))
    return "\n".join(lines)


def child(src: str) -> dict[str, tuple[float, float]]:
    """:func:`measure` of ``src`` in a fresh process: no module or allocator state carries over."""
    code = f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import mem_layers; " \
           f"print(json.dumps(mem_layers.measure({src!r})))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: {src}: exited {proc.returncode}\n{proc.stderr}")
    return {name: tuple(pair) for name, pair in json.loads(proc.stdout).items()}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 tools/mem_layers.py SRC [SRC2]", file=sys.stderr)
        return 2
    print(table([measure(argv[0])] if len(argv) == 1 else list(map(child, argv))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
