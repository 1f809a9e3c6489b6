"""Command-line surface: exit codes, file formats, determinism."""

from __future__ import annotations

import csv
import json
import math

import pytest

from eikograph import constant_field, field_on, fixture, read_graph
from eikograph.cli import RunConfig, emit_plot_data, run
from eikograph.errors import ValidationError
from eikograph.fields import write_field_csv


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

    def test_solve_h_counterexample_exits_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "50", "--out", str(g_path))
        code = run_cli("solve-h", "--graph", str(g_path), "--hamiltonian", "ex1",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "decreases" in err

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

    def test_compare_cli(self, tmp_path):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "100", "--out", str(g_path))
        u_path = tmp_path / "u.csv"
        run_cli("solve", "--graph", str(g_path), "--f", "const:1", "--zeta", "const:0",
                "--out", str(u_path))
        g = read_graph(str(g_path))
        from eikograph.cli import read_solution_csv

        vf_u = read_solution_csv(g, str(u_path))
        half = field_on(g, {v: 0.5 * vf_u[v] for v in g.vertices}, "solution_u")
        half_path = tmp_path / "half.csv"
        write_field_csv(half, str(half_path))
        assert run_cli("compare", "--graph", str(g_path), "--f", "const:1",
                       "--u", str(half_path), "--v", str(u_path)) == 0
        # swapped: supersolution hypothesis fails -> exit 1
        assert run_cli("compare", "--graph", str(g_path), "--f", "const:1",
                       "--u", str(u_path), "--v", str(half_path)) == 1

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
        stripped = type(g)(
            vertices=g.vertices, edges=g.edges, boundary=g.boundary,
            coords={}, adjacency=g.adjacency,
        )
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

    def test_output_colliding_with_input_exits_2(self, tmp_path):
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        code = run_cli("refine", "--graph", str(g_path), "--h-max", "0.1", "--out", str(g_path))
        assert code == 2

    def test_config_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"positivity_threshold": 0.5}))
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "10", "--out", str(g_path))
        # f = 0.2 violates the configured threshold -> input error
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:0.2",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"),
                       "--config", str(cfg_path))
        assert code == 2
        # explicit flag takes precedence over the config file
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:0.2",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"),
                       "--config", str(cfg_path), "--threshold", "1e-9")
        assert code == 0

    def test_bad_config_key_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"wrench": 1}))
        g_path = tmp_path / "g.json"
        run_cli("fixture", "--name", "interval", "--n", "4", "--out", str(g_path))
        code = run_cli("solve", "--graph", str(g_path), "--f", "const:1",
                       "--zeta", "const:0", "--out", str(tmp_path / "u.csv"),
                       "--config", str(cfg_path))
        assert code == 2

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RunConfig(positivity_threshold=-1.0)
        with pytest.raises(ValidationError):
            RunConfig(check_tol=-0.5)
        with pytest.raises(ValidationError):
            RunConfig(picard_max_iter=0)


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
