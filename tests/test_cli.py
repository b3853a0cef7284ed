import json

import numpy as np

from corrpca.cli import main


def run(args):
    return main([str(a) for a in args])


class TestSynth:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run(["synth", "--n", 400, "--p", 3, "--seed", 7, "--output", out]) == 0
        X = np.loadtxt(out, delimiter=",")
        assert X.shape == (400, 3)
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["outlier_indices"] == []

    def test_outlier_indices_listed(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run(
            ["synth", "--n", 400, "--p", 3, "--seed", 1, "--outlier-frac", 0.05,
             "--output", out]
        ) == 0
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        assert len(meta["outlier_indices"]) == 20

    def test_rerun_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--n", 50, "--p", 3, "--seed", 3, "--output", a])
        run(["synth", "--n", 50, "--p", 3, "--seed", 3, "--output", b])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_exit_2(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(
            ["synth", "--n", 10, "--p", 3, "--seed", 0, "--outlier-frac", 2.0,
             "--output", out]
        ) == 2

    def test_unwritable_output_exit_4(self, tmp_path):
        assert run(
            ["synth", "--n", 10, "--p", 3, "--seed", 0,
             "--output", str(tmp_path / "no" / "such" / "dir.csv")]
        ) == 4


class TestFit:
    def test_round_trip_from_synth(self, tmp_path):
        data = tmp_path / "data.csv"
        report = tmp_path / "report.json"
        run(["synth", "--n", 120, "--p", 3, "--seed", 5, "--output", data])
        assert run(["fit", "--input", data, "--output", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == 1
        assert doc["n"] == 120 and doc["p"] == 3
        V = np.array(doc["components_rows"])
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-6
        assert doc["config"]["eta"] == 0.95
        assert doc["config"]["n_decay"] == 65

    def test_empty_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(["fit", "--input", empty, "--output", tmp_path / "r.json"]) == 2

    def test_n_less_than_p_exit_3(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        assert run(["fit", "--input", short, "--output", tmp_path / "r.json"]) == 3

    def test_overflowing_scatter_exit_3(self, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        np.savetxt(huge, 1e160 * np.random.default_rng(1).standard_normal((50, 3)), delimiter=",")
        assert run(["fit", "--input", huge, "--output", tmp_path / "r.json"]) == 3
        assert "overflows" in capsys.readouterr().err

    def test_tiny_sigma_schedule_reports_underflow(self, tmp_path):
        # rows along the coordinate axes: rows along a fixed point keep weight
        # 1 at any sigma, so the schedule runs on until 2 sigma^2 underflows
        rng = np.random.default_rng(0)
        X = np.vstack([np.outer(rng.uniform(2.0, 3.0, 30), e) for e in np.eye(3)])
        data = tmp_path / "data.csv"
        np.savetxt(data, X * np.repeat([3.0, 2.0, 1.0], 30)[:, None], delimiter=",")
        report = tmp_path / "r.json"
        assert run(["fit", "--input", data, "--eta", 0.3, "--n-decay", 800, "--output", report]) == 0
        doc = json.loads(report.read_text())
        assert [(d["sigma_underflow"], d["converged"]) for d in doc["diagnostics"][:2]] == [(True, False)] * 2
        V = np.array(doc["components_rows"])
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-6

    def test_header_flag(self, tmp_path):
        data = tmp_path / "h.csv"
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((30, 2))
        data.write_text("a,b\n" + "\n".join(f"{x},{y}" for x, y in rows) + "\n")
        assert run(
            ["fit", "--input", data, "--header", "--n-decay", 5,
             "--output", tmp_path / "r.json"]
        ) == 0


class TestDemo:
    def test_report_structure(self, tmp_path):
        out = tmp_path / "demo.json"
        plot = tmp_path / "plot.csv"
        assert run(
            ["demo", "--n", 80, "--replicates", 2, "--seed", 0, "--n-decay", 10,
             "--output", out, "--plot-csv", plot]
        ) == 0
        doc = json.loads(out.read_text())
        agg = doc["aggregate"]
        for key in ("mcpi_median_abs_cos", "pca_median_abs_cos",
                    "mcpi_mean_abs_cos", "pca_mean_abs_cos"):
            assert len(agg[key]) == 3
        assert len(doc["replicates"]) == 2
        assert doc["config"]["seed"] == 0
        lines = plot.read_text().strip().splitlines()
        # header + 80 samples + 3 direction sets x 3 components
        assert len(lines) == 1 + 80 + 9
        assert lines[0] == "kind,index,c1,c2,c3"

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["demo", "--n", 60, "--replicates", 1, "--seed", 4, "--n-decay", 8]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_outlier_rows_marked_in_plot(self, tmp_path):
        out = tmp_path / "demo.json"
        plot = tmp_path / "plot.csv"
        assert run(
            ["demo", "--n", 100, "--replicates", 1, "--seed", 2, "--n-decay", 5,
             "--outlier-frac", 0.05, "--output", out, "--plot-csv", plot]
        ) == 0
        kinds = [line.split(",")[0] for line in plot.read_text().splitlines()[1:]]
        assert kinds.count("outlier") == 5
