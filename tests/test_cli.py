"""Command-line surface: exit codes, file formats, determinism."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re

import pytest

from eikograph import constant_field, field_on, fixture, read_graph
from eikograph import graph as graph_module
from eikograph import verify as verify_module
from eikograph.cli import FIXTURE_SIZE_FLAGS, emit_plot_data, run
from eikograph.errors import ValidationError
from eikograph.fields import read_field_csv, write_field_csv
from oracles import COLLIDE, COLLIDE_U


def run_cli(*args):
    return run(list(args))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPipeline:
    def test_fixture_solve_check(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        u_path = tmp_path / "u.csv"
        assert run_cli("fixture", "--name", "interval", "--n", "200", "--out", str(g_path)) == 0
        assert run_cli("solve", "--graph", str(g_path), "--f", "const:1",
                       "--zeta", "const:0", "--out", str(u_path)) == 0
        rows = read_rows(u_path)
        assert rows[0] == ["vertex_id", "u", "exit_vertex", "attained"]
        assert len(rows) == 202
        by_id = {r[0]: r for r in rows[1:]}
        assert float(by_id["v100"][1]) == pytest.approx(1.0, abs=1e-12)
        assert by_id["v0"][3] == "true"
        assert by_id["v1"][3] == ""  # interior rows carry no attainment flag
        assert run_cli("check", "monge", "--graph", str(g_path), "--u", str(u_path),
                       "--f", "const:1") == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_check_fails_on_inverted_cone(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "200", "--out", str(g_path))
        g = read_graph(str(g_path))
        u = field_on(g, {v: abs(g.coords[v][0]) - 1.0 for v in g.vertices}, "solution_u")
        u_path = tmp_path / "u.csv"
        write_field_csv(u, str(u_path))
        report_path = tmp_path / "report.csv"
        code = run_cli("check", "monge", "--graph", str(g_path), "--u", str(u_path),
                       "--f", "const:1", "--report", str(report_path))
        assert code == 1
        out = capsys.readouterr().out
        assert "v100" in out  # the vertex at coordinate 0
        rows = read_rows(report_path)
        assert rows[0] == ["item_id", "residual", "verdict"]
        verdicts = {r[0]: r[2] for r in rows[1:]}
        assert verdicts["v100"] == "fail"
        assert sum(1 for v in verdicts.values() if v == "fail") == 1

    def test_csub_reports_arcs_that_print_alike(self, tmp_path, capsys):
        # arcs a -> "b->c" and "a->b" -> c both print as "a->b->c"; the first fails by 4.0
        g_path, u_path, report_path = (str(tmp_path / name) for name in ("g.json", "u.csv", "report.csv"))
        with open(g_path, "w", encoding="utf-8") as fh:
            json.dump(COLLIDE, fh)
        write_field_csv(field_on(read_graph(g_path), COLLIDE_U, "solution_u"), u_path)
        code = run_cli("check", "csub", "--graph", g_path, "--u", u_path, "--f", "const:1",
                       "--report", report_path)
        assert code == 1
        assert capsys.readouterr().out == "check csub: FAIL at a->b->c (residual 4.0 > tol 0.0; 1 failing items)\n"
        rows = read_rows(report_path)
        assert len(rows) == 1 + 8
        assert [r for r in rows if r[0] == "a->b->c"] == [["a->b->c", "0.0", "pass"], ["a->b->c", "4.0", "fail"]]

    def test_nan_residual_counts_as_failing(self, tmp_path, capsys):
        # edges of length 1e-300 around x overflow both slopes to inf, and inf - inf is NaN
        g_path, u_path, report_path = (str(tmp_path / name) for name in ("g.json", "u.csv", "report.csv"))
        path = [("p", "a", 1.0), ("a", "x", 1e-300), ("x", "b", 1e-300), ("b", "q", 1.0)]
        with open(g_path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": ["p", "a", "x", "b", "q"], "boundary": ["p", "q"],
                       "edges": [{"a": a, "b": b, "length": length} for a, b, length in path]}, fh)
        (tmp_path / "u.csv").write_text("vertex_id,value\np,0\na,-1e10\nx,0\nb,1e10\nq,0\n")
        code = run_cli("check", "regularity", "--graph", g_path, "--u", u_path, "--report", report_path)
        assert code == 1
        assert capsys.readouterr().out == ("check regularity: FAIL at x "
                                           "(residual nan > tol 1e-09; 1 failing items)\n")
        assert ["x", "nan", "fail"] in read_rows(report_path)

    def test_fail_line_names_a_nan_item_past_the_smallest_key(self, tmp_path, capsys):
        # zz's NaN sorts after the passing c2; the FAIL line names zz and its residual
        g_path, u_path, report_path = (str(tmp_path / name) for name in ("g.json", "u.csv", "report.csv"))
        edges = [("p", "a", 1.0), ("a", "zz", 1e-300), ("zz", "b", 1e-300), ("b", "q", 1.0),
                 ("p", "c1", 1.0), ("c1", "c2", 1.0), ("c2", "c3", 1.0), ("c3", "r", 1.0)]
        with open(g_path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": ["p", "a", "zz", "b", "q", "c1", "c2", "c3", "r"], "boundary": ["p", "q", "r"],
                       "edges": [{"a": a, "b": b, "length": length} for a, b, length in edges]}, fh)
        (tmp_path / "u.csv").write_text(
            "vertex_id,value\np,0\na,-1e10\nzz,0\nb,1e10\nq,0\nc1,0\nc2,0\nc3,0\nr,0\n")
        code = run_cli("check", "regularity", "--graph", g_path, "--u", u_path, "--report", report_path)
        assert code == 1
        assert capsys.readouterr().out == ("check regularity: FAIL at zz "
                                           "(residual nan > tol 1e-09; 1 failing items)\n")
        rows = read_rows(report_path)
        assert ["c2", "0.0", "pass"] in rows and ["zz", "nan", "fail"] in rows

    def test_fixture_table_names_every_fixture(self, tmp_path):
        # each name builds from its size flag alone, and the table lists what verify.fixture knows
        for name, flag in FIXTURE_SIZE_FLAGS.items():
            out = str(tmp_path / f"{name}.json")
            assert run_cli("fixture", "--name", name, f"--{flag}", "3", "--out", out) == 0
            assert read_graph(out) == fixture(name, **{flag: 3}).graph
        with pytest.raises(ValidationError, match=re.escape(f"known: {sorted(FIXTURE_SIZE_FLAGS)}")):
            fixture("nowhere")

    def test_solve_h_counterexample_exits_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "50", "--out", str(g_path))
        code = run_cli("solve-h", "--graph", str(g_path), "--hamiltonian", "ex1",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "decreases" in err

    def test_solve_h_non_finite_hamiltonian_exits_2(self, tmp_path, capsys):
        # linear:-inf is +inf everywhere: it used to pass validation and exit 0
        # with "max reduction residual inf"
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        code = run_cli("solve-h", "--graph", str(g_path), "--hamiltonian", "linear:-inf",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "error: hamiltonian 'linear': H(x='v0', rho=-1.0, p=0.0) = inf is not finite" in err
        assert not (tmp_path / "u.csv").exists()

    def test_solve_h_quadratic(self, tmp_path):
        g_path = tmp_path / "g.json"
        u_path = tmp_path / "u.csv"
        h_path = tmp_path / "h.csv"
        run_cli("fixture", "--name", "interval", "--n", "100", "--out", str(g_path))
        code = run_cli("solve-h", "--graph", str(g_path), "--hamiltonian", "quadratic",
                       "--zeta", "const:0", "--out", str(u_path), "--h-out", str(h_path))
        assert code == 0
        h_rows = read_rows(h_path)
        assert h_rows[0] == ["vertex_id", "value"]
        assert all(abs(float(r[1]) - 1.0) <= 1e-9 for r in h_rows[1:])

    def test_solve_h_derives_rho_monotonicity(self, tmp_path, capsys):
        # the option is gone: an expression that names rho is nondecreasing in
        # rho, so Picard iterates instead of stopping after the single solve
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "40", "--out", str(g_path))
        argv = ["solve-h", "--graph", str(g_path), "--hamiltonian", "p + rho - 1",
                "--zeta", "const:0", "--out", str(tmp_path / "u.csv")]
        capsys.readouterr()
        assert run_cli(*argv, "--rho-monotonicity", "independent") == 2
        assert "unrecognized arguments: --rho-monotonicity" in capsys.readouterr().err
        assert not (tmp_path / "u.csv").exists()
        assert run_cli(*argv) == 0
        iterations = int(re.search(r"in (\d+) iteration", capsys.readouterr().out).group(1))
        assert iterations > 1

    def test_compare_cli(self, tmp_path):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "100", "--out", str(g_path))
        u_path = tmp_path / "u.csv"
        run_cli("solve", "--graph", str(g_path), "--f", "const:1", "--zeta", "const:0",
                "--out", str(u_path))
        g = read_graph(str(g_path))
        vf_u = read_field_csv(g, str(u_path), "solution_u")
        half = field_on(g, {v: 0.5 * vf_u[v] for v in g.vertices}, "solution_u")
        half_path = tmp_path / "half.csv"
        write_field_csv(half, str(half_path))
        assert run_cli("compare", "--graph", str(g_path), "--f", "const:1",
                       "--u", str(half_path), "--v", str(u_path)) == 0
        # swapped: supersolution hypothesis fails -> exit 1
        assert run_cli("compare", "--graph", str(g_path), "--f", "const:1",
                       "--u", str(u_path), "--v", str(half_path)) == 1

    def test_compare_cli_fail_and_subsolution_hypothesis(self, tmp_path, capsys):
        g_path, u_path, triple_path = tmp_path / "g.json", tmp_path / "u.csv", tmp_path / "triple.csv"
        run_cli("fixture", "--name", "interval", "--n", "10", "--out", str(g_path))
        run_cli("solve", "--graph", str(g_path), "--f", "const:1", "--zeta", "const:0", "--out", str(u_path))
        g = read_graph(str(g_path))
        u = read_field_csv(g, str(u_path), "solution_u")
        write_field_csv(field_on(g, {v: 3.0 * u[v] for v in g.vertices}, "solution_u"), str(triple_path))
        capsys.readouterr()
        # u = v: no vertex meets u <= v - 1
        assert run_cli("compare", "--graph", str(g_path), "--f", "const:1",
                       "--u", str(u_path), "--v", str(u_path), "--tol", "-1") == 1
        assert capsys.readouterr().out == "compare: FAIL at v0 (excess 0.0)\n"
        # |grad 3u| = 3 > f: u is no Monge subsolution
        assert run_cli("compare", "--graph", str(g_path), "--f", "const:1",
                       "--u", str(triple_path), "--v", str(u_path)) == 1
        assert "hypothesis 'monge-sub' failed" in capsys.readouterr().out

    def test_suite_cli(self, tmp_path):
        report_path = tmp_path / "suite.csv"
        code = run_cli("suite", "--fixture", "gasket", "--level", "3",
                       "--f", "const:1", "--levels", "2", "--report", str(report_path))
        assert code == 0
        rows = read_rows(report_path)
        assert rows[0] == ["fixture", "level", "check", "max_residual", "tol", "verdict"]
        assert all(r[5] == "pass" for r in rows[1:])

    def test_refine_cli(self, tmp_path):
        g_path = tmp_path / "g.json"
        r_path = tmp_path / "r.json"
        run_cli("fixture", "--name", "interval", "--n", "10", "--out", str(g_path))
        assert run_cli("refine", "--graph", str(g_path), "--h-max", "0.05", "--out", str(r_path)) == 0
        refined = read_graph(str(r_path))
        assert len(refined.edges) == 40

    def test_induce_metric_cli(self, tmp_path):
        n = 200
        pts_path = tmp_path / "pts.csv"
        adj_path = tmp_path / "adj.csv"
        with open(pts_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["vertex_id", "x", "y"])
            for k in range(n):
                th = 2.0 * math.pi * k / n
                writer.writerow([f"c{k:03d}", repr(math.cos(th)), repr(math.sin(th))])
        with open(adj_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b"])
            for k in range(n):
                writer.writerow([f"c{k:03d}", f"c{(k + 1) % n:03d}"])
        out_path = tmp_path / "g.json"
        probe_path = tmp_path / "probe.csv"
        code = run_cli("induce-metric", "--points", str(pts_path), "--edges", str(adj_path),
                       "--out", str(out_path), "--probe-out", str(probe_path))
        assert code == 0
        g = read_graph(str(out_path))
        assert len(g.edges) == n
        probe_rows = read_rows(probe_path)
        assert probe_rows[0] == ["d_max", "ratio_max", "ratio_mean", "count"]
        assert all(float(r[1]) >= 1.0 - 1e-12 for r in probe_rows[1:])


    def test_solve_certify_incompatible_data(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        zeta_path = tmp_path / "zeta.csv"
        run_cli("fixture", "--name", "interval", "--n", "200", "--out", str(g_path))
        zeta_path.write_text("vertex_id,value\nv0,0\nv200,3\n")
        capsys.readouterr()
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:1", "--zeta", str(zeta_path),
                       "--out", str(tmp_path / "u.csv"), "--certify")
        assert code == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "Lipschitz" in ln)
        printed_L = re.search(r"L=(\S+) ", line).group(1)
        assert float(printed_L) == pytest.approx(1.5, rel=1e-9)
        assert "incompatible" in line
        assert "holds" in line


def test_hot_commands_never_build_the_edge_view(tmp_path, capsys, monkeypatch):
    # check, solve --certify, solve-h and compare read only the CSR lists,
    # h_max and csuper's witness curve included
    monkeypatch.chdir(tmp_path)
    run_cli("fixture", "--name", "grid", "--n", "6", "--out", "g.json")
    run_cli("solve", "--graph", "g.json", "--f", "const:1", "--zeta", "const:0", "--out", "u.csv")

    def no_view(g):
        raise AssertionError("the string-keyed edge view was built")

    monkeypatch.setattr(graph_module.MetricGraph, "edges", property(no_view))
    with pytest.raises(AssertionError, match="edge view"):
        read_graph("g.json").edges
    solution = ["--graph", "g.json", "--u", "u.csv"]
    for argv, code in [
        (["check", "monge", *solution, "--f", "const:1"], 0),
        (["check", "csub", *solution, "--f", "const:1"], 0),
        (["check", "csuper", *solution, "--f", "const:1"], 0),
        (["check", "regularity", *solution], 0),
        (["solve", "--graph", "g.json", "--f", "const:1", "--zeta", "linear:0,0.5", "--out", "v.csv",
          "--certify"], 0),
        (["solve-h", "--graph", "g.json", "--hamiltonian", "affine-rho", "--zeta", "const:0",
          "--out", "h.csv"], 0),
        (["compare", "--graph", "g.json", "--f", "const:1", "--u", "u.csv", "--v", "u.csv"], 0),
    ]:
        assert run_cli(*argv) == code, argv
    assert "Lipschitz L=" in capsys.readouterr().out


class TestPlot:
    def test_plot_written_with_coords(self, tmp_path):
        g_path = tmp_path / "g.json"
        u_path = tmp_path / "u.csv"
        plot_path = tmp_path / "plot.csv"
        run_cli("fixture", "--name", "gasket", "--level", "2", "--out", str(g_path))
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:1", "--zeta", "const:0",
                       "--out", str(u_path), "--plot", str(plot_path),
                       "--plot-layout", "coords")
        assert code == 0
        rows = read_rows(plot_path)
        assert rows[0] == ["vertex_id", "x", "y", "u"]
        u_rows = {r[0]: r[1] for r in read_rows(u_path)[1:]}
        for row in rows[1:]:
            assert row[3] == u_rows[row[0]]

    def test_plot_layout_coords_without_coords_exits_2(self, tmp_path):
        g_path = tmp_path / "g.json"
        spec = {
            "vertices": [{"id": "a"}, {"id": "b"}],
            "edges": [{"a": "a", "b": "b", "length": 1.0}],
            "boundary": ["a", "b"],
        }
        g_path.write_text(json.dumps(spec))
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:1", "--zeta", "const:0",
                       "--out", str(tmp_path / "u.csv"),
                       "--plot", str(tmp_path / "plot.csv"), "--plot-layout", "coords")
        assert code == 2

    def test_emit_plot_data_without_coords_drops_columns(self, tmp_path):
        g = fixture("interval", n=4).graph
        stripped = dataclasses.replace(g, coords={})
        u = constant_field(stripped, 0.5, "solution_u")
        path = tmp_path / "p.csv"
        emit_plot_data(u, stripped, str(path))
        rows = read_rows(path)
        assert rows[0] == ["vertex_id", "u"]


class TestErrorsAndConfig:
    def test_malformed_graph_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [,]}')
        code = run_cli("solve", "--graph", str(bad), "--f", "const:1",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"))
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_command_exits_2(self):
        assert run_cli("frobnicate") == 2

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        return lines[0]

    @pytest.mark.parametrize("command,flags", [
        ("fixture", ["--name", "binary_tree"]),
        ("fixture", ["--name", "gasket"]),
        ("fixture", ["--name", "grid"]),
        ("suite", ["--fixture", "binary_tree"]),
        ("suite", ["--fixture", "gasket"]),
        ("suite", ["--fixture", "interval"]),
    ])
    def test_missing_fixture_size_exits_2(self, tmp_path, capsys, command, flags):
        out = ["--out", str(tmp_path / "g.json")] if command == "fixture" else []
        assert run_cli(command, *flags, *out) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["refine", "--graph", "g.json", "--h-max", "0.1", "--out", "./g.json"],
        ["refine", "--graph", "g.json", "--h-max", "0.1", "--out", "sub/../g.json"],
        ["solve", "--graph", "g.json", "--f", "const:1", "--zeta", "const:0", "--out", "u.csv", "--plot", "u.csv"],
        ["solve", "--graph", "g.json", "--f", "const:1", "--zeta", "const:0", "--out", "u.csv",
         "--plot", "./u.csv"],
        ["solve-h", "--graph", "g.json", "--hamiltonian", "quadratic", "--zeta", "const:0", "--out", "h.csv",
         "--h-out", "h.csv"],
        ["induce-metric", "--points", "pts.csv", "--edges", "adj.csv", "--out", "p.csv", "--probe-out", "p.csv"],
    ], ids=["refine-input", "refine-input-dotdot", "solve-plot", "solve-plot-dot", "solve-h-h-out",
            "induce-metric-probe"])
    def test_output_on_an_input_or_another_output_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        # these once overwrote the input graph, or wrote the solution and then replaced it, and exited 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", "g.json")
        (tmp_path / "pts.csv").write_text("vertex_id,x\na,0.0\nb,1.0\n")
        (tmp_path / "adj.csv").write_text("a,b\na,b\n")
        before = (tmp_path / "g.json").read_bytes()
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert "collides with an input path or another output" in self.assert_one_error_line(capsys)
        assert (tmp_path / "g.json").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adj.csv", "g.json", "pts.csv", "sub"]

    @pytest.mark.parametrize("argv", [
        ["solve", "--graph", "g.json", "--f", "linear:1,2,-3", "--zeta", "const:0", "--out", "v.csv"],
        ["solve", "--graph", "g.json", "--f", "linear:1,2,-1", "--zeta", "const:0", "--out", "v.csv"],
        ["solve", "--graph", "g.json", "--f", "const:1", "--zeta", "linear:1,2,-3", "--out", "v.csv"],
        ["solve-h", "--graph", "g.json", "--hamiltonian", "linear", "--zeta", "linear:1,2,-3", "--out", "v.csv"],
        ["check", "monge", "--graph", "g.json", "--u", "u.csv", "--f", "linear:1,2,-3"],
        ["suite", "--fixture", "grid", "--n", "4", "--f", "linear:1,2,-3"],
    ], ids=["solve-f", "solve-f-last", "solve-zeta", "solve-h-zeta", "check-monge-f", "suite-f"])
    def test_negative_linear_axis_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        # axis -3 on 2-D coords escaped as IndexError with exit 1; -1 read the last coordinate
        monkeypatch.chdir(tmp_path)
        run_cli("fixture", "--name", "grid", "--n", "4", "--out", "g.json")
        run_cli("solve", "--graph", "g.json", "--f", "const:1", "--zeta", "const:0", "--out", "u.csv")
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert "bad linear field expression 'linear:1,2,-" in self.assert_one_error_line(capsys)
        assert not (tmp_path / "v.csv").exists()

    def test_one_column_solution_header_exits_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        u_path = tmp_path / "u.csv"
        u_path.write_text("vertex_id\nv0\n")
        capsys.readouterr()
        code = run_cli("check", "regularity", "--graph", str(g_path), "--u", str(u_path))
        assert code == 2
        self.assert_one_error_line(capsys)

    def test_string_boundary_in_graph_json_exits_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps({
            "vertices": ["v0", "v1"],
            "edges": [{"a": "v0", "b": "v1", "length": 1.0}],
            "boundary": "v0",
        }))
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:1",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"))
        assert code == 2
        assert "boundary must be a list" in self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("target", ["graph", "u", "f"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, target):
        paths = {name: tmp_path / file for name, file in
                 [("graph", "g.json"), ("u", "u.csv"), ("f", "f.csv")]}
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(paths["graph"]))
        run_cli("solve", "--graph", str(paths["graph"]), "--f", "const:1", "--zeta", "const:0",
                "--out", str(paths["u"]))
        write_field_csv(constant_field(read_graph(str(paths["graph"])), 1.0, "rhs_f"), str(paths["f"]))
        text = paths[target].read_bytes()
        paths[target].write_bytes(text[:20] + b"\xff" + text[20:])
        capsys.readouterr()
        code = run_cli("check", "monge", "--graph", str(paths["graph"]), "--u", str(paths["u"]),
                       "--f", str(paths["f"]))
        assert code == 2
        assert str(paths[target]) in self.assert_one_error_line(capsys)

    def test_non_utf8_solution_for_regularity_exits_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        u_path = tmp_path / "u.csv"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        u_path.write_bytes(b"vertex_id,u\nv0,\xff\n")
        capsys.readouterr()
        code = run_cli("check", "regularity", "--graph", str(g_path), "--u", str(u_path))
        assert code == 2
        assert "not UTF-8" in self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("vertices,edges", [
        (5, [{"a": "v0", "b": "v1", "length": 1.0}]),
        ("v0v1", [{"a": "v0", "b": "v1", "length": 1.0}]),
        (["v0", "v1"], 7),
        (["v0", "v1"], {"a": "v0", "b": "v1", "length": 1.0}),
    ])
    def test_non_list_vertices_or_edges_exit_2(self, tmp_path, capsys, vertices, edges):
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps({"vertices": vertices, "edges": edges, "boundary": ["v0"]}))
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:1",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"))
        assert code == 2
        assert "must be a list" in self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("target,text,vertex", [
        ("f", "vertex_id,value\nv0,nan\nv1,1\nv2,1\nv3,1\nv4,1\n", "'v0'"),
        ("f", "vertex_id,value\nv0,1\nv1,1\nv2,inf\nv3,1\nv4,1\n", "'v2'"),
        ("zeta", "vertex_id,value\nv0,0\nv4,nan\n", "'v4'"),
        ("zeta", "vertex_id,value\nv0,-inf\nv4,0\n", "'v0'"),
    ])
    def test_non_finite_field_value_exits_2(self, tmp_path, capsys, target, text, vertex):
        # f(v0) = nan used to give u(v1) = 1.5 (0.5 with f = 1), zeta(v4) = nan
        # only "not attained"; both exited 0
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        fields = {"f": "const:1", "zeta": "const:0"}
        fields[target] = str(tmp_path / "field.csv")
        (tmp_path / "field.csv").write_text(text)
        capsys.readouterr()
        code = run_cli("solve", "--graph", str(g_path), "--f", fields["f"], "--zeta", fields["zeta"],
                       "--out", str(tmp_path / "u.csv"))
        assert code == 2
        line = self.assert_one_error_line(capsys)
        assert "non-finite" in line and vertex in line
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("target,text", [
        ("f", "vertex_id,value\nv0,1\nv1,1\nv2,1\nv3,1\nv4,1\nv1,5\n"),
        ("zeta", "vertex_id,value\nv0,0\nv4,0\nv0,2\n"),
    ])
    def test_duplicate_field_id_exits_2(self, tmp_path, capsys, target, text):
        # the last row used to win: f(v1) = 5 solved and exited 0
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        fields = {"f": "const:1", "zeta": "const:0"}
        fields[target] = str(tmp_path / "field.csv")
        (tmp_path / "field.csv").write_text(text)
        capsys.readouterr()
        code = run_cli("solve", "--graph", str(g_path), "--f", fields["f"], "--zeta", fields["zeta"],
                       "--out", str(tmp_path / "u.csv"))
        assert code == 2
        line = self.assert_one_error_line(capsys)
        vid, lineno = ("'v1'", 7) if target == "f" else ("'v0'", 4)
        assert f"field.csv:{lineno}: duplicate vertex id {vid}" in line
        assert not (tmp_path / "u.csv").exists()

    def test_mixed_coord_dimensions_in_graph_exit_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps({
            "vertices": [{"id": "a", "coords": [0.0, 0.0]}, {"id": "b", "coords": [1.0]}],
            "edges": [{"a": "a", "b": "b", "length": 1.0}],
            "boundary": ["a"],
        }))
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:1", "--zeta", "const:0",
                       "--out", str(tmp_path / "u.csv"), "--plot", str(tmp_path / "plot.csv"))
        assert code == 2
        assert "coords mix dimensions" in self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("points,edges,message", [
        # used to exit 0 with edge b-c of length 3.0 (zip truncated c's coords)
        ("vertex_id,x,y\na,0,0\nb,3,4\nc,6\n", "a,b\na,b\nb,c\n", "coords mix dimensions"),
        ("vertex_id\na,0\nb\n", "a,b\na,b\n", "coords mix dimensions"),
        ("vertex_id,x\na,0\nb,1e200\n", "a,b\na,b\n", "overflows"),
        ("vertex_id,x\na,0\nb,1\n", "a,b\na,b\nb\n", "expected 2 columns"),
        ("vertex_id,x,y\na,0,0\nb,1,0\n", "a,b\na,b\na,c\n", "'c'"),
        ("vertex_id,x,y\na,0,0\nb,1,\xff\n", "a,b\na,b\n", "not UTF-8"),
        ("vertex_id,x,y\na,0,0\nb,1,0\n", "a,b\na,\xff\n", "not UTF-8"),
        # used to keep the last row: an edge a-b of length 2.0
        ("vertex_id,x\na,0\na,3\nb,1\n", "a,b\na,b\n", "pts.csv:3: duplicate vertex id 'a'"),
    ])
    def test_induce_metric_bad_input_exits_2(self, tmp_path, capsys, points, edges, message):
        pts_path = tmp_path / "pts.csv"
        adj_path = tmp_path / "adj.csv"
        pts_path.write_bytes(points.encode("latin-1"))
        adj_path.write_bytes(edges.encode("latin-1"))
        code = run_cli("induce-metric", "--points", str(pts_path), "--edges", str(adj_path),
                       "--out", str(tmp_path / "g.json"))
        assert code == 2
        assert message in self.assert_one_error_line(capsys)

    def test_refine_infinite_h_max_keeps_graph(self, tmp_path):
        g_path = tmp_path / "g.json"
        r_path = tmp_path / "r.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        assert run_cli("refine", "--graph", str(g_path), "--h-max", "inf", "--out", str(r_path)) == 0
        assert r_path.read_bytes() == g_path.read_bytes()

    @pytest.mark.parametrize("h_max", ["1e-320", "1e-300"])
    def test_refine_tiny_h_max_exits_2(self, tmp_path, capsys, h_max):
        # used to end in OverflowError (1e-320) or MemoryError (1e-300)
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        capsys.readouterr()
        code = run_cli("refine", "--graph", str(g_path), "--h-max", h_max,
                       "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert f"h_max {h_max}" in self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv,message", [
        (["fixture", "--name", "grid", "--n", "1001"], "grid fixture would have more than 1000000 vertices"),
        (["refine", "--graph", "g.json", "--h-max", "1.6e-6"], "would add more than 1000000 vertices"),
    ], ids=["fixture", "refine"])
    def test_over_a_million_vertices_exits_2_before_building(self, tmp_path, capsys, monkeypatch, argv,
                                                              message):
        # at about 2 kB a vertex these once went on to build 1.0 and 1.25 million vertices
        monkeypatch.chdir(tmp_path)
        run_cli("fixture", "--name", "interval", "--n", "2", "--out", "g.json")
        capsys.readouterr()

        def build(vertices, *args, finalize=graph_module._finalize):
            vertices = list(vertices)
            assert len(vertices) == 3, "a big graph was built"
            return finalize(vertices, *args)

        monkeypatch.setattr(graph_module, "_finalize", build)
        monkeypatch.setattr(verify_module, "_finalize", build)
        assert run_cli(*argv, "--out", "big.json") == 2
        assert message in self.assert_one_error_line(capsys)
        assert not (tmp_path / "big.json").exists()

    def test_overflowing_cost_is_not_called_unreachable(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "grid", "--n", "3", "--out", str(g_path))
        capsys.readouterr()
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:1e308", "--zeta", "const:0",
                       "--out", str(tmp_path / "u.csv"))
        assert code == 2
        assert "vertex 'v1_1' overflows binary64" in self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("command,flags,boundary,code,message", [
        (["check", "monge"], ["--f", "const:1"], [], 2, "error: vertex 'a' is isolated; slopes are undefined"),
        (["check", "csuper"], ["--f", "const:1"], [], 2, "error: vertex 'a' is isolated"),
        (["compare"], ["--f", "const:1", "--v", "u.csv"], ["a"], 0, None),
    ])
    def test_one_vertex_graph(self, tmp_path, capsys, command, flags, boundary, code, message):
        # an edgeless graph has mesh 0: the default tolerances need no edge
        g_path, u_path = tmp_path / "g.json", tmp_path / "u.csv"
        g_path.write_text(json.dumps({"vertices": ["a"], "edges": [], "boundary": boundary}))
        u_path.write_text("vertex_id,value\na,0\n")
        flags = [str(u_path) if flag == "u.csv" else flag for flag in flags]
        assert run_cli(*command, "--graph", str(g_path), "--u", str(u_path), *flags) == code
        if message is None:
            assert "Traceback" not in capsys.readouterr().err
        else:
            assert self.assert_one_error_line(capsys) == message

    @pytest.mark.parametrize("pairs", ["-1", "1000000000"])
    def test_induce_metric_pairs_out_of_range_exits_2(self, tmp_path, capsys, pairs):
        # 10**9 used to run the triangle sampling for minutes on these four points
        (tmp_path / "pts.csv").write_text("vertex_id,x,y\na,0,0\nb,1,0\nc,1,1\nd,0,1\n")
        (tmp_path / "adj.csv").write_text("a,b\na,b\nb,c\nc,d\nd,a\n")
        code = run_cli("induce-metric", "--points", str(tmp_path / "pts.csv"), "--edges",
                       str(tmp_path / "adj.csv"), "--out", str(tmp_path / "g.json"), "--pairs", pairs)
        assert code == 2
        assert f"got {pairs}" in self.assert_one_error_line(capsys)
        assert not (tmp_path / "g.json").exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        capsys.readouterr()
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:1", "--zeta", "const:0",
                       "--out", str(tmp_path / "missing" / "u.csv"))
        assert code == 2
        assert "No such file or directory" in self.assert_one_error_line(capsys)

    def test_output_colliding_with_input_exits_2(self, tmp_path):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        code = run_cli("refine", "--graph", str(g_path), "--h-max", "0.1", "--out", str(g_path))
        assert code == 2

    @pytest.mark.parametrize("coords,message", [
        ("xy", "coords must be a list"),
        (5, "coords must be a list"),
        (["x", 1.0], "coords must be numbers"),
        ([[0.0], 1.0], "coords must be numbers"),
    ])
    def test_bad_vertex_coords_exit_2(self, tmp_path, capsys, coords, message):
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps({
            "vertices": [{"id": "v0", "coords": [0.0, 0.0]}, {"id": "v1", "coords": coords}],
            "edges": [{"a": "v0", "b": "v1", "length": 1.0}],
            "boundary": ["v0"],
        }))
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:1",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"))
        assert code == 2
        line = self.assert_one_error_line(capsys)
        assert "'v1'" in line and message in line

    @pytest.mark.parametrize("argv", [
        ["fixture", "--name", "interval", "--n", "4", "--out", "g.json"],
        ["solve", "--graph", "g.json", "--f", "const:1", "--zeta", "const:0", "--out", "u.csv"],
        ["solve-h", "--graph", "g.json", "--hamiltonian", "quadratic", "--zeta", "const:0",
         "--out", "u.csv"],
        ["check", "monge", "--graph", "g.json", "--u", "u.csv", "--f", "const:1"],
        ["compare", "--graph", "g.json", "--f", "const:1", "--u", "u.csv", "--v", "v.csv"],
        ["suite", "--fixture", "interval", "--n", "4"],
        ["induce-metric", "--points", "p.csv", "--edges", "e.csv", "--out", "g.json"],
        ["refine", "--graph", "g.json", "--h-max", "0.5", "--out", "r.json"],
    ], ids=lambda argv: argv[0])
    def test_config_flag_is_unknown(self, tmp_path, capsys, argv):
        # each setting has one way in, its flag; a settings file is no argument
        assert run_cli(argv[0], "--help") == 0
        assert "--config" not in capsys.readouterr().out
        assert run_cli(*argv, "--config", str(tmp_path / "cfg.json")) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,name", [
        ("--max-iter", "0", "max_iter"),
        ("--tol", "-1", "tol"),
        ("--tol", "nan", "tol"),
    ])
    def test_bad_picard_setting_exits_2(self, tmp_path, capsys, flag, value, name):
        # --max-iter 0 used to fail after no sweep ("last change nan"), and
        # --tol nan to run all 100 sweeps and report "last change 0.0"
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        capsys.readouterr()
        code = run_cli("solve-h", "--graph", str(g_path), "--hamiltonian", "affine-rho",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"), flag, value)
        assert code == 2
        assert f"Picard {name} must be" in self.assert_one_error_line(capsys)
        assert not (tmp_path / "u.csv").exists()

    def test_zero_tolerance_and_threshold_solve(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        # tol 0 stops at the bitwise Picard fixpoint
        assert run_cli("solve-h", "--graph", str(g_path), "--hamiltonian", "affine-rho",
                       "--zeta", "const:0", "--out", str(tmp_path / "uh.csv"), "--tol", "0") == 0
        assert "in 27 iteration(s)" in capsys.readouterr().out
        # threshold 0 admits an f that vanishes at a vertex
        f_path = tmp_path / "f.csv"
        f_path.write_text("vertex_id,value\nv0,1\nv1,1\nv2,0\nv3,1\nv4,1\n")
        assert run_cli("solve", "--graph", str(g_path), "--f", str(f_path), "--zeta", "const:0",
                       "--out", str(tmp_path / "u.csv"), "--threshold", "0") == 0
        assert run_cli("solve", "--graph", str(g_path), "--f", str(f_path), "--zeta", "const:0",
                       "--out", str(tmp_path / "u.csv")) == 2

    @pytest.mark.parametrize("argv,flag", [
        (["check", "monge", "--graph", "g.json", "--u", "u.csv", "--f", "const:1"], "--tol"),
        (["check", "csuper", "--graph", "g.json", "--u", "u.csv", "--f", "const:1"], "--tol"),
        *((["compare", "--graph", "g.json", "--f", "const:1", "--u", "u.csv", "--v", "u.csv"], flag)
          for flag in ("--tol", "--band-tol", "--sub-tol", "--super-tol")),
        (["solve", "--graph", "g.json", "--f", "const:0", "--zeta", "const:0", "--out", "u0.csv"],
         "--threshold"),
    ], ids=lambda x: x if isinstance(x, str) else x[1] if x[0] == "check" else x[0])
    def test_nan_tolerance_exits_2(self, tmp_path, capsys, monkeypatch, argv, flag):
        # every comparison with NaN is false: compare --band-tol nan passed the
        # band hypothesis, check --tol nan failed with 0 failing items, and
        # solve --threshold nan accepted f = 0
        monkeypatch.chdir(tmp_path)
        run_cli("fixture", "--name", "grid", "--n", "6", "--out", "g.json")
        run_cli("solve", "--graph", "g.json", "--f", "const:1", "--zeta", "const:0", "--out", "u.csv")
        capsys.readouterr()
        assert run_cli(*argv, flag, "nan") == 2
        assert f"argument {flag}: 'nan' is not a number" in capsys.readouterr().err
        assert not (tmp_path / "u0.csv").exists()

    def test_negative_threshold_exits_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "grid", "--n", "6", "--out", str(g_path))
        capsys.readouterr()
        assert run_cli("solve", "--graph", str(g_path), "--f", "const:1", "--zeta", "const:0",
                       "--out", str(tmp_path / "u.csv"), "--threshold", "-1") == 2
        assert "positivity threshold must be nonnegative, got -1.0" in self.assert_one_error_line(capsys)
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("delta", ["-1", "nan"])
    def test_bad_band_delta_exits_2(self, tmp_path, capsys, delta):
        # an empty band used to raise ValueError from max(): a traceback, exit 1
        g_path = tmp_path / "g.json"
        u_path = tmp_path / "u.csv"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        run_cli("solve", "--graph", str(g_path), "--f", "const:1", "--zeta", "const:0",
                "--out", str(u_path))
        capsys.readouterr()
        code = run_cli("compare", "--graph", str(g_path), "--f", "const:1", "--u", str(u_path),
                       "--v", str(u_path), "--delta", delta)
        assert code == 2
        assert "band_delta must be >= 0" in self.assert_one_error_line(capsys)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        outs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            g_path = d / "g.json"
            u_path = d / "u.csv"
            p_path = d / "plot.csv"
            run_cli("fixture", "--name", "grid", "--n", "12", "--out", str(g_path))
            run_cli("solve", "--graph", str(g_path), "--f", "linear:1,0.5",
                    "--zeta", "const:0", "--out", str(u_path), "--plot", str(p_path))
            outs.append((g_path.read_bytes(), u_path.read_bytes(), p_path.read_bytes()))
        assert outs[0] == outs[1]
