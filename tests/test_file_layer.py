"""The shared file layer: read_json, read_csv, write_csv, and the exact bytes
of every file the CLI writes."""

from __future__ import annotations

import pytest

from eikograph.cli import run
from eikograph.errors import ValidationError
from eikograph.graph import read_csv, read_graph, read_json, write_csv

# Graph files are one line of compact JSON in format version 2.  V1_GRAPH and
# INDENTED_GRAPH hold the same two files in version 1, as written before:
# compact, and earlier indented (json.dump with indent=1); read_graph still
# takes both.
GRAPH = '{"version":2,"ids":["v0","v1","v2"],"dim":1,"coords":[-1.0,0.0,1.0],"a":[0,1],"b":[1,2],"length":[1.0,1.0],'
V1_GRAPH = (
    '{"version":1,"vertices":[{"id":"v0","coords":[-1.0]},{"id":"v1","coords":[0.0]},{"id":"v2","coords":[1.0]}],'
    '"edges":[{"a":"v0","b":"v1","length":1.0},{"a":"v1","b":"v2","length":1.0}],'
)
INDENTED_GRAPH = (
    '{\n "version": 1,\n "vertices": [\n  {\n   "id": "v0",\n   "coords": [\n    -1.0\n   ]\n  },\n'
    '  {\n   "id": "v1",\n   "coords": [\n    0.0\n   ]\n  },\n'
    '  {\n   "id": "v2",\n   "coords": [\n    1.0\n   ]\n  }\n ],\n'
    ' "edges": [\n  {\n   "a": "v0",\n   "b": "v1",\n   "length": 1.0\n  },\n'
    '  {\n   "a": "v1",\n   "b": "v2",\n   "length": 1.0\n  }\n ],\n'
)

# Files written on interval n=2 with f = linear:1,0.5 and zeta = 0.
EXPECTED = {
    "g.json": GRAPH + '"boundary":["v0","v2"]}\n',
    "u.csv": "vertex_id,u,exit_vertex,attained\r\nv0,0.0,v0,true\r\nv1,0.75,v0,\r\nv2,0.0,v2,true\r\n",
    "plot.csv": "vertex_id,x,u\r\nv0,-1.0,0.0\r\nv1,0.0,0.75\r\nv2,1.0,0.0\r\n",
    "uh.csv": "vertex_id,u,exit_vertex,attained\r\nv0,0.0,v0,true\r\nv1,0.6666666641831398,v0,\r\n"
              "v2,0.0,v2,true\r\n",
    "h.csv": "vertex_id,value\r\nv0,1.0\r\nv1,0.3333333358168602\r\nv2,1.0\r\n",
    "reg.csv": "item_id,residual,verdict\r\nv1,0.0,excluded\r\n",
    "monge.csv": "item_id,residual,verdict\r\nv1,0.25,pass\r\n",
    "cmp.csv": "item,value\r\nhypothesis_failed,\r\nband_size,3\r\nband_max,0.0\r\n"
               "comparison_passed,true\r\nmax_excess,0.0\r\nviolating_vertex,\r\n",
    "suite.csv": "fixture,level,check,max_residual,tol,verdict\r\n"
                 "interval,0,monge,0.0,1e-09,pass\r\ninterval,0,csub,0.0,0.0,pass\r\n"
                 "interval,0,csuper,0.0,0.0,pass\r\ninterval,0,regularity,0.0,1e-09,pass\r\n"
                 "interval,all,monge-residual-monotone,0.0,1e-12,pass\r\n",
    "ind.json": GRAPH + '"boundary":[]}\n',
}


def test_every_writer_byte_exact(tmp_path):
    p = {name: str(tmp_path / name) for name in [*EXPECTED, "pts.csv", "adj.csv"]}
    (tmp_path / "pts.csv").write_text("vertex_id,x\nv0,-1.0\nv1,0.0\nv2,1.0\n")
    (tmp_path / "adj.csv").write_text("a,b\nv0,v1\nv1,v2\n")
    commands = [
        ["fixture", "--name", "interval", "--n", "2", "--out", p["g.json"]],
        ["solve", "--graph", p["g.json"], "--f", "linear:1,0.5", "--zeta", "const:0",
         "--out", p["u.csv"], "--plot", p["plot.csv"]],
        ["solve-h", "--graph", p["g.json"], "--hamiltonian", "p + rho - 1", "--zeta", "const:0",
         "--out", p["uh.csv"], "--h-out", p["h.csv"]],
        ["check", "regularity", "--graph", p["g.json"], "--u", p["u.csv"], "--report", p["reg.csv"]],
        ["check", "monge", "--graph", p["g.json"], "--u", p["u.csv"], "--f", "linear:1,0.5",
         "--report", p["monge.csv"]],
        ["compare", "--graph", p["g.json"], "--f", "linear:1,0.5", "--u", p["u.csv"], "--v", p["u.csv"],
         "--report", p["cmp.csv"]],
        ["suite", "--fixture", "interval", "--n", "2", "--levels", "1", "--report", p["suite.csv"]],
        ["induce-metric", "--points", p["pts.csv"], "--edges", p["adj.csv"], "--out", p["ind.json"]],
    ]
    for argv in commands:
        assert run(argv) == 0, argv
    for name, text in EXPECTED.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


INDENTED = {
    "g.json": INDENTED_GRAPH + ' "boundary": [\n  "v0",\n  "v2"\n ]\n}\n',
    "ind.json": INDENTED_GRAPH + ' "boundary": []\n}\n',
}
V1 = {"g.json": V1_GRAPH + '"boundary":["v0","v2"]}\n', "ind.json": V1_GRAPH + '"boundary":[]}\n'}


@pytest.mark.parametrize("name", sorted(INDENTED))
def test_indented_graph_file_reads_as_the_compact_one(tmp_path, name):
    """Both version 1 layouts load to the graph of the version 2 file."""
    new = tmp_path / "new.json"
    new.write_text(EXPECTED[name], encoding="utf-8")
    g = read_graph(str(new))
    for old_text in (INDENTED[name], V1[name]):
        (tmp_path / "old.json").write_text(old_text, encoding="utf-8")
        old = read_graph(str(tmp_path / "old.json"))
        assert old == g
        assert (list(old.coords.items()), old.index, old.nbrs, old.lens) == (list(g.coords.items()), g.index,
                                                                              g.nbrs, g.lens)


class TestReadCsv:
    def rows(self, tmp_path, text, headers=(("vertex_id", "value"),), width=2):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        return list(read_csv(str(path), headers, width))

    def test_blank_rows_skipped_and_lines_counted(self, tmp_path):
        rows = self.rows(tmp_path, "vertex_id, value ,extra\r\n\r\na,1\n\nb,2,x\n")
        assert rows == [(3, ["a", "1"]), (5, ["b", "2", "x"])]

    def test_any_listed_header_accepted(self, tmp_path):
        headers = (("vertex_id", "u"), ("vertex_id", "value"))
        assert self.rows(tmp_path, "vertex_id,u,exit\na,1\n", headers) == [(2, ["a", "1"])]
        assert self.rows(tmp_path, "vertex_id,value\na,1\n", headers) == [(2, ["a", "1"])]

    @pytest.mark.parametrize("text", ["", "\n", "vertex_id\na,1\n", "id,value\na,1\n"])
    def test_bad_header_names_path_and_wanted_header(self, tmp_path, text):
        with pytest.raises(ValidationError, match="in.csv: expected header 'vertex_id,value'"):
            self.rows(tmp_path, text)

    def test_short_row_names_path_and_line(self, tmp_path):
        with pytest.raises(ValidationError, match=r"in\.csv:4: expected 2 columns"):
            self.rows(tmp_path, "vertex_id,value\na,1\n\nb\n")

    def test_non_utf8_names_path(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"vertex_id,value\na,\xff\n")
        with pytest.raises(ValidationError, match="in.csv: not UTF-8"):
            list(read_csv(str(path), [("vertex_id", "value")], 2))


    def test_oversize_field_names_path_and_line(self, tmp_path):
        with pytest.raises(ValidationError, match=r"in\.csv:3: field larger than field limit"):
            self.rows(tmp_path, "vertex_id,value\na,1\nb," + "1" * 200_000 + "\n")


class TestReadJson:
    @pytest.mark.parametrize("text", ['{"a": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000])
    def test_unconvertible_integer_or_deep_nesting_rejected(self, tmp_path, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match="in.json: unreadable JSON"):
            read_json(str(path))

    def test_malformed_reports_line_and_column(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text('{\n  "a": [1,,2]\n}\n')
        with pytest.raises(ValidationError, match="in.json: malformed JSON at line 2 column 11"):
            read_json(str(path))

    def test_non_utf8_names_path(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_bytes(b'{"a": "\xff"}')
        with pytest.raises(ValidationError, match="in.json: not UTF-8"):
            read_json(str(path))


def test_write_csv_default_dialect(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ["id", "note"], iter([["a", 'x,"y"'], ["b", 3]]))
    assert path.read_bytes() == b'id,note\r\na,"x,""y"""\r\nb,3\r\n'
