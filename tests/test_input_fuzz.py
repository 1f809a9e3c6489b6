"""Seeded mutation fuzz of every input file the CLI reads.

Valid graph JSON (version 2 as write_graph writes it, and version 1), field
CSV, solution CSV and induce-metric points and edges CSVs are mutated
(truncation, dropped columns, wrong JSON types, non-list containers,
non-UTF-8 bytes, unknown ids, non-finite cells, ragged coords, repeated rows
and entries) and the command that reads each file runs in-process.  Every
case must exit 0, 1 or 2 without an exception escaping, and an exit 2 must
print exactly one ``error:`` line.  Named mutations that once exited 0, and
those of the version 2 columns, must exit 2.  Three small valid graphs (one
vertex; two boundary vertices; a path whose ends are the boundary) run
through every subcommand that reads a graph, and each run must exit 0.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from eikograph import fixture, write_graph
from eikograph.cli import run

from oracles import graph_to_dict_v1

CASES_PER_TARGET = 60
WRONG_VALUES = [5, -1, 1.5, 10**400, "abc", "", None, True, [], [1, "x"], {}, {"id": 1}]
BAD_CELLS = ["nan", "inf", "-inf", "", "abc", "1e400", "zz", "-1"]


def mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    kind = rng.randrange(3)
    at = rng.randrange(len(data) + 1)
    if kind == 0:
        return data[:at]  # truncation
    if kind == 1:
        return data[:at] + bytes([rng.choice([0x80, 0xC3, 0xFF, 0xFE])]) + data[at:]  # not UTF-8
    return data[:at] + b"\x00" + data[at:]


def mutate_csv(text: str, rng: random.Random, ragged: bool) -> str:
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    cells = lines[k].split(",")
    kind = rng.randrange(6 if ragged else 5)
    if kind == 4:
        lines.insert(rng.randrange(1, len(lines) + 1), lines[k])  # repeated row or header
        return "\n".join(lines) + "\n"
    if kind == 0:
        cells.pop(rng.randrange(len(cells)))  # dropped column
    elif kind == 1:
        cells[rng.randrange(len(cells))] = rng.choice(BAD_CELLS)  # non-finite or junk cell
    elif kind == 2:
        cells[0] = "ghost"  # unknown id
    elif kind == 3:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", ",", ",,,"]))
    elif kind == 5:
        cells.append(rng.choice(["0.5", "", "nan"]))  # ragged coords
    lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def mutate_json(text: str, rng: random.Random) -> str:
    data = json.loads(text)
    by_depth: dict[int, list] = {}
    for path in _paths(data):
        by_depth.setdefault(len(path), []).append(path)
    depth = rng.randrange(len(by_depth))  # top-level keys as likely as deep cells
    if depth == 0:
        return json.dumps(rng.choice(WRONG_VALUES))
    path = rng.choice(by_depth[depth])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    kind = rng.randrange(6)
    if kind == 0:
        parent[path[-1]] = rng.choice(WRONG_VALUES)  # wrong type, or a non-list container
    elif kind == 1 and isinstance(parent, dict):
        del parent[path[-1]]
    elif kind == 2 and isinstance(parent[path[-1]], list) and parent[path[-1]]:
        parent[path[-1]].pop()  # ragged coords, a dropped vertex or edge
    elif kind == 3:
        parent[path[-1]] = float(rng.choice(["nan", "inf", "-inf"]))
    elif kind == 4 and isinstance(parent[path[-1]], list) and parent[path[-1]]:
        items = parent[path[-1]]
        items.append(rng.choice(items))  # a repeated vertex, edge, boundary id or coord
    else:
        parent[path[-1]] = "ghost"  # unknown id
    return json.dumps(data)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    g = fixture("grid", n=3).graph
    p = {name: str(d / name) for name in
         ("g.json", "g1.json", "f.csv", "u.csv", "pts.csv", "adj.csv", "out.csv", "out.json")}
    write_graph(g, p["g.json"])
    with open(p["g1.json"], "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict_v1(g), fh)
    with open(p["f.csv"], "w") as fh:
        fh.write("vertex_id,value\n" + "".join(f"{v},{1.0 + 0.25 * i}\n" for i, v in enumerate(g.vertices)))
    with open(p["pts.csv"], "w") as fh:
        fh.write("vertex_id,x,y\n" + "".join(f"{v},{x!r},{y!r}\n" for v, (x, y) in sorted(g.coords.items())))
    with open(p["adj.csv"], "w") as fh:
        fh.write("a,b\n" + "".join(f"{a},{b}\n" for a, b in sorted(g.edges)))
    assert run(["solve", "--graph", p["g.json"], "--f", p["f.csv"], "--zeta", "const:0",
                "--out", p["u.csv"]]) == 0
    return p


def solve_on(graph):
    return lambda p: ["solve", "--graph", p[graph], "--f", "const:1", "--zeta", "const:0",
                      "--out", p["out.csv"], "--plot", p["out.csv"] + ".plot"]


COMMANDS = {
    "g.json": solve_on("g.json"),
    "g1.json": solve_on("g1.json"),
    "f.csv": lambda p: ["solve", "--graph", p["g.json"], "--f", p["f.csv"], "--zeta", "const:0",
                        "--out", p["out.csv"]],
    "u.csv": lambda p: ["check", "monge", "--graph", p["g.json"], "--u", p["u.csv"], "--f", "const:1"],
    "pts.csv": lambda p: ["induce-metric", "--points", p["pts.csv"], "--edges", p["adj.csv"], "--out", p["out.json"]],
    "adj.csv": lambda p: ["induce-metric", "--points", p["pts.csv"], "--edges", p["adj.csv"], "--out", p["out.json"]],
}


@pytest.mark.parametrize("target", sorted(COMMANDS))
def test_mutated_input_keeps_exit_code_contract(base, tmp_path, capsys, target):
    rng = random.Random(f"fuzz-{target}")
    with open(base[target], "rb") as fh:
        original = fh.read()
    paths = dict(base, **{target: str(tmp_path / target)})
    argv = COMMANDS[target](dict(paths, **{"out.csv": str(tmp_path / "out.csv"),
                                           "out.json": str(tmp_path / "out.json")}))
    seen = set()
    for case in range(CASES_PER_TARGET):
        if case % 3 == 0:
            data = mutate_bytes(original, rng)
        elif target.endswith(".json"):
            data = mutate_json(original.decode(), rng).encode()
        else:
            data = mutate_csv(original.decode(), rng, ragged=target == "pts.csv").encode()
        with open(paths[target], "wb") as fh:
            fh.write(data)
        capsys.readouterr()
        try:
            code = run(argv)
        except Exception as exc:  # a traceback: the contract is broken
            pytest.fail(f"{target} case {case}: {type(exc).__name__}: {exc}\ninput: {data[:300]!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (case, data)
        assert "Traceback" not in err, (case, data)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (case, data, err)
        seen.add(code)
    assert 2 in seen


def repeat_first_row(lines: list[str]) -> None:
    vid, _, rest = lines[1].partition(",")
    lines.append(vid + "," + "5.0" * bool(rest))  # v1 = 1.0, then v1 = 5.0


HOLES = {
    # inputs that must be rejected rather than read as something else
    "version-99": ("g.json", lambda d: d.update(version=99), "unsupported graph version 99"),
    "version-true": ("g.json", lambda d: d.update(version=True), "unsupported graph version True"),
    "duplicate-vertex": ("g1.json", lambda d: d["vertices"].append(d["vertices"][4]),
                         "duplicate vertex id"),
    "boolean-length": ("g1.json", lambda d: d["edges"][0].update(length=True), "non-numeric length True"),
    "string-length": ("g1.json", lambda d: d["edges"][0].update(length="1.5"), "non-numeric length '1.5'"),
    "boolean-coord": ("g1.json", lambda d: d["vertices"][0]["coords"].__setitem__(1, True),
                      "coords must be a list of numbers"),
    "string-coord": ("g1.json", lambda d: d["vertices"][0]["coords"].__setitem__(1, "1.5"),
                     "coords must be a list of numbers"),
    "infinite-coord": ("g1.json", lambda d: d["vertices"][0]["coords"].__setitem__(1, math.inf),
                       "coords must be finite"),
    "infinite-point": ("pts.csv", lambda lines: lines.__setitem__(2, lines[2].split(",")[0] + ",inf,0.0"),
                       "coords must be finite"),
    "nan-parallel-edge": ("g1.json", lambda d: d["edges"].append(dict(d["edges"][0], length=math.nan)),
                          "has length nan; a length must be a positive finite number"),
    "inf-parallel-edge": ("g1.json", lambda d: d["edges"].insert(0, dict(d["edges"][0], length=math.inf)),
                          "has length inf; a length must be a positive finite number"),
    "v2-index-out-of-range": ("g.json", lambda d: d["b"].__setitem__(-1, len(d["ids"])),
                              "graph (a, b) entry 11 is (7, 9); pairs must be strictly increasing"),
    "v2-a-not-below-b": ("g.json", lambda d: d.update(a=d["b"], b=d["a"]), "graph (a, b) entry 0 is (1, 0)"),
    "v2-unsorted-pairs": ("g.json", lambda d: [d[k].insert(0, d[k].pop(1)) for k in ("a", "b", "length")],
                          "graph (a, b) entry 1 is (0, 1)"),
    "v2-repeated-pair": ("g.json", lambda d: [d[k].insert(1, d[k][0]) for k in ("a", "b", "length")],
                         "graph (a, b) entry 1 is (0, 1)"),
    "v2-bool-index": ("g.json", lambda d: d["a"].__setitem__(0, False), "graph (a, b) entry 0 is (False, 1)"),
    "v2-float-index": ("g.json", lambda d: d["a"].__setitem__(0, 0.0), "graph (a, b) entry 0 is (0.0, 1)"),
    "v2-unequal-columns": ("g.json", lambda d: d["length"].pop(), "must be equally long, got 12, 12 and 11"),
    "v2-ragged-coords": ("g.json", lambda d: d["coords"].pop(),
                         "graph coords must hold dim = 2 numbers for each of 9 vertices, got 17"),
    "v2-nonfinite-coords": ("g.json", lambda d: d["coords"].__setitem__(3, math.inf),
                            "vertex 'v0_1': coords must be finite"),
    "v2-string-coord": ("g.json", lambda d: d["coords"].__setitem__(3, "1.5"),
                        "vertex 'v0_1': coords must be numbers, got '1.5'"),
    "v2-unsorted-ids": ("g.json", lambda d: d["ids"].insert(0, d["ids"].pop(1)), "graph ids entry 1 is 'v0_0'"),
    "v2-repeated-id": ("g.json", lambda d: d["ids"].__setitem__(1, "v0_0"), "graph ids entry 1 is 'v0_0'"),
    "v2-non-string-id": ("g.json", lambda d: d["ids"].__setitem__(0, 0), "graph ids entry 0 is 0"),
    "v2-with-v1-keys": ("g1.json", lambda d: d.update(version=2), "graph description missing key 'ids'"),
    "v2-zero-length": ("g.json", lambda d: d["length"].__setitem__(2, 0.0),
                       "edge ('v0_1', 'v0_2') has length 0.0; a length must be a positive finite number"),
    "v2-boolean-length": ("g.json", lambda d: d["length"].__setitem__(0, True), "has length True"),
    "v2-unknown-boundary": ("g.json", lambda d: d["boundary"].append("ghost"),
                            "boundary references unknown vertices ['ghost']"),
    "v2-coords-at-out-of-range": ("g.json", lambda d: d.update(coords_at=[0, 9], coords=d["coords"][:4]),
                                  "graph coords_at entry 1 is 9"),
    "v2-disconnected": ("g.json", lambda d: [d[k].__delitem__(slice(2)) for k in ("a", "b", "length")],
                        "graph is disconnected; unreachable vertices include ['v0_1', "),
    "duplicate-field-row": ("f.csv", repeat_first_row, ":11: duplicate vertex id"),
    "duplicate-solution-row": ("u.csv", repeat_first_row, ":11: duplicate vertex id"),
    "duplicate-point-row": ("pts.csv", repeat_first_row, ":11: duplicate vertex id"),
}


@pytest.mark.parametrize("hole", sorted(HOLES))
def test_named_mutation_exits_2(base, tmp_path, capsys, hole):
    target, mutation, message = HOLES[hole]
    with open(base[target], encoding="utf-8") as fh:
        text = fh.read()
    if target.endswith(".json"):
        data = json.loads(text)
        mutation(data)
        text = json.dumps(data)
    else:
        lines = text.splitlines()
        mutation(lines)
        text = "\n".join(lines) + "\n"
    paths = dict(base, **{target: str(tmp_path / target), "out.csv": str(tmp_path / "out.csv"),
                          "out.json": str(tmp_path / "out.json")})
    with open(paths[target], "w", encoding="utf-8") as fh:
        fh.write(text)
    capsys.readouterr()
    assert run(COMMANDS[target](paths)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


SMALL_GRAPHS = {  # valid graphs at the low end of the size range: (ids, edges, boundary)
    "one-vertex": ("a", [], "a"),
    "two-boundary": ("ab", ["ab"], "ab"),
    "path": ("abc", ["ab", "bc"], "ac"),
}


def small_commands(p):
    """Every subcommand that reads a graph, on one small graph, after solve."""
    g, u = p["g.json"], p["u.csv"]
    yield ["solve", "--graph", g, "--f", "const:1", "--zeta", "const:0", "--out", u, "--certify",
           "--plot", p["plot.svg"]]
    for hamiltonian in ("affine-rho", "quadratic"):
        for max_iter in ([], ["--max-iter", "1"]):
            yield ["solve-h", "--graph", g, "--hamiltonian", hamiltonian, "--zeta", "const:0",
                   "--out", p["h.csv"], *max_iter]
    for check in ("monge", "csub", "csuper", "regularity"):
        yield ["check", check, "--graph", g, "--u", u, "--f", "const:1"]
    yield ["compare", "--graph", g, "--f", "const:1", "--u", u, "--v", u]
    yield ["refine", "--graph", g, "--h-max", "0.3", "--out", p["refined.json"]]
    yield ["induce-metric", "--points", p["pts.csv"], "--edges", p["adj.csv"], "--out", p["induced.json"]]


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_small_graphs_keep_exit_code_contract_in_every_subcommand(tmp_path, capsys, name):
    ids, edges, boundary = SMALL_GRAPHS[name]
    p = {f: str(tmp_path / f) for f in ("g.json", "u.csv", "plot.svg", "h.csv", "refined.json", "pts.csv",
                                         "adj.csv", "induced.json")}
    with open(p["g.json"], "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "vertices": [{"id": v, "coords": [float(i)]} for i, v in enumerate(ids)],
                   "edges": [{"a": a, "b": b, "length": 1.0} for a, b in edges], "boundary": list(boundary)}, fh)
    with open(p["pts.csv"], "w") as fh:
        fh.write("vertex_id,x\n" + "".join(f"{v},{float(i)}\n" for i, v in enumerate(ids)))
    with open(p["adj.csv"], "w") as fh:
        fh.write("a,b\n" + "".join(f"{a},{b}\n" for a, b in edges))
    codes = []
    for argv in small_commands(p):
        capsys.readouterr()
        try:
            code = run(argv)
        except Exception as exc:  # a traceback: the contract is broken
            pytest.fail(f"{name} {argv[:2]}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
        codes.append(code)
    assert codes == [0] * len(codes), codes  # each input is valid, and each check passes on it
