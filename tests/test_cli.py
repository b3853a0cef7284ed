import json

import numpy as np
import pytest

from corrpca.cli import main
from corrpca.mcpi import fit


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


class TestFit:
    def test_round_trip_from_synth(self, tmp_path):
        data = tmp_path / "data.csv"
        report = tmp_path / "report.json"
        run(["synth", "--n", 120, "--p", 3, "--seed", 5, "--output", data])
        assert run(["fit", "--input", data, "--output", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == 4
        assert doc["n"] == 120 and doc["p"] == 3
        V = np.array(doc["components_rows"])
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-6
        assert doc["config"] == {"center": False, "input": str(data)}

    def test_empty_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(["fit", "--input", empty, "--output", tmp_path / "r.json"]) == 2

    def test_n_less_than_p_exit_3(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        assert run(["fit", "--input", short, "--output", tmp_path / "r.json"]) == 3

    def test_overflowing_scatter_exit_3(self, tmp_path):
        # X^T X of the CSV overflows float64, but fit runs at unit scale
        for n in (50, 400):
            X = np.random.default_rng(1).standard_normal((n, 3))
            huge = tmp_path / f"huge{n}.csv"
            np.savetxt(huge, 1e160 * X, delimiter=",")
            assert run(["fit", "--input", huge, "--output", tmp_path / "r.json"]) == 0
            V = np.array(json.loads((tmp_path / "r.json").read_text())["components_rows"])
            assert np.max(np.abs(V - fit(X).components)) <= 1e-12

    def test_underflowing_scatter_exit_3(self, tmp_path):
        # X^T X of the CSV underflows to 0, but fit runs at unit scale
        X = np.random.default_rng(1).standard_normal((400, 3))
        tiny = tmp_path / "tiny.csv"
        np.savetxt(tiny, 1e-200 * X, delimiter=",")
        assert run(["fit", "--input", tiny, "--output", tmp_path / "r.json"]) == 0
        V = np.array(json.loads((tmp_path / "r.json").read_text())["components_rows"])
        assert np.max(np.abs(V - fit(X).components)) <= 1e-12

    def test_center_on_large_offset(self, tmp_path):
        # the column sums overflow at the input's scale; pytest turns any
        # RuntimeWarning into an error, so the fit must be silent
        data = tmp_path / "offset.csv"
        data.write_text("1.5e308,1e308\n1e308,-1.7e308\n-1e308,1.2e308\n")
        report = tmp_path / "r.json"
        assert run(["fit", "--input", data, "--output", report, "--center"]) == 0
        doc = json.loads(report.read_text())
        V = np.array(doc["components_rows"])
        assert np.max(np.abs(V.T @ V - np.eye(2))) <= 1e-12
        assert doc["config"]["center"] is True

    def test_reports_are_strict_json(self, tmp_path):
        # the null-space component's final_sigma is NaN and, with --center on
        # the large-offset CSV, the eigenvalues are inf: both written as null
        def strict(path):
            def reject(token):
                raise ValueError(f"{token} is not JSON")
            return json.loads(path.read_text(), parse_constant=reject)

        data, offset = tmp_path / "data.csv", tmp_path / "offset.csv"
        run(["synth", "--n", 120, "--p", 3, "--seed", 5, "--output", data])
        offset.write_text("1.5e308,1e308\n1e308,-1.7e308\n-1e308,1.2e308\n")
        assert run(["fit", "--input", data, "--output", tmp_path / "r.json"]) == 0
        assert run(["fit", "--input", offset, "--center", "--output", tmp_path / "o.json"]) == 0
        doc = strict(tmp_path / "r.json")
        assert doc["diagnostics"][-1]["final_sigma"] is None
        assert all(d["final_sigma"] > 0.0 for d in doc["diagnostics"][:-1])
        assert strict(tmp_path / "o.json")["apriori_eigenvalues"] == [None, None]

    def test_collinear_columns_exit_3(self, tmp_path, capsys):
        X = np.random.default_rng(2).standard_normal((50, 3))
        X[:, 2] = X[:, 0] + X[:, 1]
        data = tmp_path / "collinear.csv"
        np.savetxt(data, X, delimiter=",")
        assert run(["fit", "--input", data, "--output", tmp_path / "r.json"]) == 3
        assert "drop or combine collinear columns" in capsys.readouterr().err

    def test_rounding_level_median_falls_back_to_rms(self, tmp_path):
        # 60 rows within 1e-13 of the e1 axis and 40 in the (e2, e3) plane:
        # in the complement of e1 the median residual is ~1e-13, rounding
        # noise, so component 2's kernel size comes from the RMS residual of
        # the planar rows and the component iterates at their scale
        rng = np.random.default_rng(0)
        near_axis = np.column_stack([rng.choice([-1.0, 1.0], 60) * rng.uniform(2.0, 3.0, 60),
                                     1e-13 * rng.standard_normal((60, 2))])
        plane = np.column_stack([np.zeros(40), rng.standard_normal((40, 2))])
        data = tmp_path / "data.csv"
        np.savetxt(data, np.vstack([near_axis, plane]), delimiter=",", fmt="%.17g")
        report = tmp_path / "r.json"
        assert run(["fit", "--input", data, "--output", report]) == 0
        doc = json.loads(report.read_text())
        d = doc["diagnostics"][1]
        assert d["outer_iterations"] > 0 and d["converged"] and not d["sigma_underflow"]
        assert d["final_sigma"] > 0.1
        V = np.array(doc["components_rows"])
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-6

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_cell_exit_3(self, tmp_path, bad, capsys):
        rows = np.random.default_rng(3).standard_normal((20, 3)).astype(str)
        rows[4, 1] = bad
        data = tmp_path / "data.csv"
        data.write_text("\n".join(",".join(r) for r in rows) + "\n")
        assert run(["fit", "--input", data, "--output", tmp_path / "r.json"]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_header_flag(self, tmp_path):
        data = tmp_path / "h.csv"
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((30, 2))
        data.write_text("a,b\n" + "\n".join(f"{x},{y}" for x, y in rows) + "\n")
        assert run(
            ["fit", "--input", data, "--header", "--output", tmp_path / "r.json"]
        ) == 0


class TestDemo:
    def test_report_structure(self, tmp_path):
        out = tmp_path / "demo.json"
        plot = tmp_path / "plot.csv"
        assert run(
            ["demo", "--n", 80, "--replicates", 2, "--seed", 0,
             "--output", out, "--plot-csv", plot]
        ) == 0
        doc = json.loads(out.read_text())
        agg = doc["aggregate"]
        for key in ("mcpi_median_abs_cos", "pca_median_abs_cos",
                    "mcpi_mean_abs_cos", "pca_mean_abs_cos"):
            assert len(agg[key]) == 3
        assert len(doc["replicates"]) == 2
        assert doc["schema_version"] == 4
        assert doc["config"]["seed"] == 0
        assert "eta" not in doc["config"] and "n_decay" not in doc["config"]
        lines = plot.read_text().strip().splitlines()
        # header + 80 samples + 3 direction sets x 3 components
        assert len(lines) == 1 + 80 + 9
        assert lines[0] == "kind,index,c1,c2,c3"

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["demo", "--n", 60, "--replicates", 1, "--seed", 4]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_outlier_rows_marked_in_plot(self, tmp_path):
        out = tmp_path / "demo.json"
        plot = tmp_path / "plot.csv"
        assert run(
            ["demo", "--n", 100, "--replicates", 1, "--seed", 2,
             "--outlier-frac", 0.05, "--output", out, "--plot-csv", plot]
        ) == 0
        kinds = [line.split(",")[0] for line in plot.read_text().splitlines()[1:]]
        assert kinds.count("outlier") == 5


BAD_SCATTERS = {
    "non_symmetric": [[4.0, 1.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 2.0]],
    "non_pd": [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "nan": [[4.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 2.0]],
}


class TestScatterCsv:
    @pytest.mark.parametrize("kind", sorted(BAD_SCATTERS))
    @pytest.mark.parametrize("command", ["demo", "synth"])
    def test_bad_scatter_exit_2(self, tmp_path, command, kind, capsys):
        scatter = tmp_path / "scatter.csv"
        np.savetxt(scatter, np.array(BAD_SCATTERS[kind]), delimiter=",")
        args = [command, "--n", 40, "--p", 3, "--seed", 0, "--scatter-csv", scatter,
                "--output", tmp_path / "out"]
        if command == "demo":
            args += ["--replicates", 1]
        assert run(args) == 2
        assert "bad scatter matrix" in capsys.readouterr().err


# Valid flags per command; the flags of a row come after them and so win.
VALID_FLAGS = {
    "fit": ["--input", "{data}"],
    "synth": ["--n", 40, "--p", 3, "--seed", 0],
    "demo": ["--n", 40, "--replicates", 1],
}


def row(command, flags, code, name=None):
    name = name or ",".join(f"{k[2:]}={v}" for k, v in zip(flags[::2], flags[1::2]))
    return pytest.param(command, flags, code, id=f"{command}-{name}")


EXIT_TABLE = [
    *(row(c, f, 2) for c in ("synth", "demo")
      for f in (["--outlier-frac", 2], ["--nu", -1], ["--nu", "nan"], ["--n", 0], ["--p", 0],
                ["--seed", -1])),
    row("demo", ["--replicates", 0], 2),
    row("demo", ["--replicates", -1], 2),
    row("demo", ["--n", 2, "--p", 3], 3),
    *(row(c, ["--output", "{tmp}/no/such/dir/out"], 4, "unwritable-output")
      for c in ("fit", "demo", "synth")),
]


class TestExitCodes:
    @pytest.mark.parametrize("command,flags,code", EXIT_TABLE)
    def test_exit_code(self, tmp_path, capsys, command, flags, code):
        data = tmp_path / "data.csv"
        np.savetxt(data, np.random.default_rng(0).standard_normal((40, 3)), delimiter=",")
        argv = [command, *VALID_FLAGS[command], "--output", tmp_path / "out", *flags]
        argv = [str(a).format(data=data, tmp=tmp_path) for a in argv]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
