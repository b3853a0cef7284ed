import argparse
import bz2
import gzip
import json
import lzma
import math
import time
from dataclasses import MISSING, fields

import numpy as np
import pytest

from corrpca.cli import (CSV_BLOCK_ROWS, _default_scatter, _read_matrix_csv, _write_matrix_csv,
                         build_parser, main)
from corrpca.datagen import OUTLIER_BASES, ExperimentSpec, generate_experiment
from corrpca.mcpi import MCPIConfig, fit


def run(args):
    return main([str(a) for a in args])


def strict_json(text):
    """The parsed report; NaN and infinities are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


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
        for flags, basis, count in [(["--outlier-frac", 0.05], "literal", 20),
                                    (["--outlier-frac", 0.1, "--outlier-basis", "rotated"], "rotated", 40)]:
            assert run(["synth", "--n", 400, "--p", 3, "--seed", 1, *flags, "--output", out]) == 0
            meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
            assert meta["outlier_basis"] == basis
            assert len(meta["outlier_indices"]) == count

    def test_sidecar_carries_spec_defaults(self, tmp_path):
        # the spec fields with no flag given take ExperimentSpec's defaults
        out = tmp_path / "data.csv"
        assert run(["synth", "--n", 40, "--p", 3, "--seed", 7, "--output", out]) == 0
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        defaults = {f.name: f.default for f in fields(ExperimentSpec) if f.default is not MISSING}
        assert {name: meta[name] for name in defaults} == {**defaults, "seed": 7}

    @pytest.mark.parametrize("command", ["synth", "demo"])
    def test_outlier_basis_choices_are_the_spec_bases(self, command):
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        action = next(a for a in commands[command]._actions if a.dest == "outlier_basis")
        assert action.choices == OUTLIER_BASES

    def test_rerun_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--n", 50, "--p", 3, "--seed", 3, "--output", a])
        run(["synth", "--n", 50, "--p", 3, "--seed", 3, "--output", b])
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_identical_gzip_files(self, tmp_path, monkeypatch):
        # gzip.open stamps the clock into the header; two runs that see
        # different clocks write the same bytes
        outputs = []
        for clock in (1e9, 2e9):
            monkeypatch.setattr(time, "time", lambda: clock)
            out = tmp_path / str(int(clock)) / "x.csv.gz"
            out.parent.mkdir()
            assert run(["synth", "--n", 50, "--p", 3, "--seed", 3, "--output", out]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def savetxt_bytes(path, X):
    np.savetxt(path, X, delimiter=",", fmt="%.17g")
    return path.read_bytes()


class TestSynthCsv:
    """synth's block writer against np.savetxt, whose bytes it reproduces."""

    def assert_savetxt_bytes(self, path, X):
        _write_matrix_csv(str(path), X)
        assert path.read_bytes() == savetxt_bytes(path.with_suffix(".savetxt"), X)
        # %.17g round-trips every float64, -0.0 and subnormals included
        assert _read_matrix_csv(str(path)).tobytes() == X.tobytes()

    @pytest.mark.parametrize("p", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                   3 * CSV_BLOCK_ROWS + 7])
    def test_bytes_equal_savetxt(self, tmp_path, n, p):
        rng = np.random.default_rng(n * p)
        X = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-300, 301, size=(n, p))
        self.assert_savetxt_bytes(tmp_path / "x.csv", X)

    def test_extreme_values_equal_savetxt(self, tmp_path):
        row = np.array([-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1])
        self.assert_savetxt_bytes(tmp_path / "row.csv", row[None, :])
        self.assert_savetxt_bytes(tmp_path / "column.csv", row[:, None])

    def test_synth_writes_savetxt_bytes(self, tmp_path):
        out = tmp_path / "w.csv"
        run(["synth", "--n", 3 * CSV_BLOCK_ROWS + 7, "--p", 4, "--outlier-frac", 0.05,
             "--seed", 2, "--output", out])
        X, _ = generate_experiment(ExperimentSpec(n=3 * CSV_BLOCK_ROWS + 7, p=4,
                                                  scatter=_default_scatter(4),
                                                  outlier_fraction=0.05, seed=2))
        assert out.read_bytes() == savetxt_bytes(tmp_path / "savetxt.csv", X)

    @pytest.mark.parametrize("suffix,magic,codec", [(".gz", b"\x1f\x8b", gzip),
                                                    (".bz2", b"BZh", bz2),
                                                    (".xz", b"\xfd7zXZ", lzma),
                                                    # .lzma is written as xz too
                                                    (".lzma", b"\xfd7zXZ\x00", lzma)],
                             ids=["gz", "bz2", "xz", "lzma"])
    def test_compressed_by_suffix(self, tmp_path, suffix, magic, codec):
        flags = ["synth", "--n", CSV_BLOCK_ROWS + 1, "--p", 3, "--outlier-frac", 0.05,
                 "--seed", 4, "--output"]
        plain, packed = tmp_path / "x.csv", tmp_path / f"x.csv{suffix}"
        assert run([*flags, plain]) == 0 and run([*flags, packed]) == 0
        assert packed.read_bytes().startswith(magic)
        assert codec.decompress(packed.read_bytes()) == plain.read_bytes()
        components = []
        for data in (plain, packed):
            assert run(["fit", "--input", data, "--output", tmp_path / "r.json"]) == 0
            components.append(json.loads((tmp_path / "r.json").read_text())["components_rows"])
        assert components[1] == components[0]


# (n, p, seed, flags) of synth runs: default ones, and contaminated ones at
# p = 2, 3 and 10, with literal and rotated outliers
SYNTH_FITS = [
    (120, 3, 5, []),
    (400, 3, 1, []),
    (400, 3, 1, ["--outlier-frac", 0.1, "--outlier-basis", "rotated"]),
    (400, 2, 5, ["--outlier-frac", 0.05]),
    (2000, 10, 1, ["--outlier-frac", 0.05]),
    (20000, 10, 4, ["--outlier-frac", 0.05]),
]


class TestFit:
    def test_round_trip_from_synth(self, tmp_path):
        # every component converges at a finite kernel size, the basis is
        # orthonormal to rounding, and the report has fit's bits, plain and
        # centred (fit of the CSV's rows, C- or column-major)
        data = tmp_path / "data.csv"
        report = tmp_path / "report.json"
        for n, p, seed, flags in SYNTH_FITS:
            run(["synth", "--n", n, "--p", p, "--seed", seed, *flags, "--output", data])
            X = np.loadtxt(data, delimiter=",")
            for center, want in [(False, fit(X)),
                                 (True, fit(np.asfortranarray(X), MCPIConfig(center=True)))]:
                argv = ["fit", "--input", data, "--output", report] + ["--center"] * center
                assert run(argv) == 0
                doc = json.loads(report.read_text())
                assert doc["schema_version"] == 4
                assert doc["n"] == n and doc["p"] == p
                assert doc["config"] == {"center": center, "input": str(data)}
                assert all(d["converged"] and not d["sigma_underflow"] for d in doc["diagnostics"])
                assert all(0.0 < d["final_sigma"] < math.inf
                           for d in doc["diagnostics"] if d["method"] == "mcpi")
                V = np.array(doc["components_rows"])
                assert np.max(np.abs(V.T @ V - np.eye(p))) <= 1e-12
                assert doc["components_rows"] == want.components.tolist()

    def test_empty_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(["fit", "--input", empty, "--output", tmp_path / "r.json"]) == 2

    def test_n_less_than_p_exit_0(self, tmp_path):
        # two rows span a plane of the three coordinates: the second
        # component stops at the floor, and the last is the plane's normal
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        short = tmp_path / "short.csv"
        np.savetxt(short, X, delimiter=",")
        assert run(["fit", "--input", short, "--output", tmp_path / "r.json"]) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["n"] == 2 and doc["p"] == 3
        assert [d["sigma_underflow"] for d in doc["diagnostics"]] == [False, True, False]
        assert [d["method"] for d in doc["diagnostics"]] == ["mcpi", "mcpi", "null_space"]
        V = np.array(doc["components_rows"])
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-12
        assert np.max(np.abs(X @ V[:, 2])) <= 1e-12 * np.max(np.abs(X))

    def test_overflowing_scatter_fitted_exit_0(self, tmp_path):
        # X^T X of the CSV overflows float64, but fit runs at unit scale
        for n in (50, 400):
            X = np.random.default_rng(1).standard_normal((n, 3))
            huge = tmp_path / f"huge{n}.csv"
            np.savetxt(huge, 1e160 * X, delimiter=",")
            assert run(["fit", "--input", huge, "--output", tmp_path / "r.json"]) == 0
            V = np.array(json.loads((tmp_path / "r.json").read_text())["components_rows"])
            assert np.max(np.abs(V - fit(X).components)) <= 1e-12

    def test_underflowing_scatter_fitted_exit_0(self, tmp_path):
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
        data, offset = tmp_path / "data.csv", tmp_path / "offset.csv"
        run(["synth", "--n", 120, "--p", 3, "--seed", 5, "--output", data])
        offset.write_text("1.5e308,1e308\n1e308,-1.7e308\n-1e308,1.2e308\n")
        assert run(["fit", "--input", data, "--output", tmp_path / "r.json"]) == 0
        assert run(["fit", "--input", offset, "--center", "--output", tmp_path / "o.json"]) == 0
        doc = strict_json((tmp_path / "r.json").read_text())
        assert doc["diagnostics"][-1]["final_sigma"] is None
        assert all(d["final_sigma"] > 0.0 for d in doc["diagnostics"][:-1])
        assert strict_json((tmp_path / "o.json").read_text())["apriori_eigenvalues"] == [None, None]

    def test_collinear_columns_exit_0(self, tmp_path, capsys):
        # the direction without variance is fitted, and reported: the
        # component before it stops at the kernel-size floor
        X = np.random.default_rng(2).standard_normal((50, 3))
        X[:, 2] = X[:, 0] + X[:, 1]
        data = tmp_path / "collinear.csv"
        np.savetxt(data, X, delimiter=",")
        assert run(["fit", "--input", data, "--output", tmp_path / "r.json"]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "r.json").read_text())
        assert [d["sigma_underflow"] for d in doc["diagnostics"]] == [False, True, False]
        null = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
        assert abs(np.array(doc["components_rows"])[:, -1] @ null) == pytest.approx(1.0, abs=1e-12)

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

    def test_apriori_vector_in_the_span_of_found_components_exit_0(self, tmp_path, capsys):
        # rows each on one axis, where component 3's a-priori vector lies in
        # the span of components 1 and 2 (tests/test_mcpi.py, axis_data)
        rng = np.random.default_rng(1)
        blocks = [(0, 155, 7.6), (0, 24, 22.0), (1, 284, 3.4), (2, 80, 4.4), (2, 12, 46.0), (3, 252, 2.7)]
        X = np.vstack([np.outer(scale * rng.standard_normal(k), np.eye(4)[col]) for col, k, scale in blocks])
        data = tmp_path / "axes.csv"
        np.savetxt(data, X, delimiter=",", fmt="%.17g")
        assert run(["fit", "--input", data, "--output", tmp_path / "r.json"]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "r.json").read_text())
        assert all(d["converged"] for d in doc["diagnostics"])
        V = np.array(doc["components_rows"])
        assert np.max(np.abs(V.T @ V - np.eye(4))) <= 1e-12

    def test_header_flag(self, tmp_path):
        data = tmp_path / "h.csv"
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((30, 2))
        data.write_text("a,b\n" + "\n".join(f"{x},{y}" for x, y in rows) + "\n")
        assert run(
            ["fit", "--input", data, "--header", "--output", tmp_path / "r.json"]
        ) == 0


class TestDefaultOutput:
    @pytest.mark.parametrize("argv", [["fit", "--input", "{data}"], ["demo", "--n", 40, "--replicates", 1],
                                      ["demo", "--n", 2, "--p", 3, "--replicates", 1]])
    def test_report_to_stdout_by_default(self, tmp_path, capsys, argv):
        # --output defaults to "-": the strict-JSON report goes to stdout
        data = tmp_path / "data.csv"
        np.savetxt(data, np.random.default_rng(0).standard_normal((40, 3)), delimiter=",")
        assert main([str(a).format(data=data) for a in argv]) == 0
        assert strict_json(capsys.readouterr().out)["command"] == argv[0]


class TestDemo:
    def test_report_structure(self, tmp_path):
        out = tmp_path / "demo.json"
        plot = tmp_path / "plot.csv"
        assert run(
            ["demo", "--n", 80, "--replicates", 2, "--seed", 0,
             "--output", out, "--plot-csv", plot]
        ) == 0
        doc = strict_json(out.read_text())
        agg = doc["aggregate"]
        for key in ("mcpi_median_abs_cos", "pca_median_abs_cos",
                    "mcpi_mean_abs_cos", "pca_mean_abs_cos"):
            assert len(agg[key]) == 3
        assert len(doc["replicates"]) == 2
        assert doc["schema_version"] == 4
        assert doc["config"]["seed"] == 0
        assert set(doc["config"]) == {"n", "p", "outlier_fraction", "nu", "center", "seed", "replicates",
                                      "outlier_basis", "scatter_rows"}
        lines = plot.read_text().strip().splitlines()
        # header + 80 samples + 3 direction sets x 3 components
        assert len(lines) == 1 + 80 + 9
        assert lines[0] == "kind,index,c1,c2,c3"
        # the headline run, 5 replicates at 5% outliers, keeps acceptance
        # criterion 3's floor and beats PCA on components 1 and 2
        assert run(["demo", "--replicates", 5, "--outlier-frac", 0.05, "--output", out]) == 0
        agg = strict_json(out.read_text())["aggregate"]
        m, p = agg["mcpi_median_abs_cos"], agg["pca_median_abs_cos"]
        assert min(m) >= 0.95 and m[0] > p[0] and m[1] > p[1]

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
    *(row(c, ["--nu", 1e308], 2) for c in ("synth", "demo")),
    *(row("fit", ["--input", "{tmp}/" + name], 2, name)
      for name in ("missing.csv", "text.csv", "ragged.csv")),
    row("fit", ["--input", "{tmp}/nan.csv"], 3, "nan.csv"),
    *(row(c, ["--output", "{tmp}/no/such/dir/out"], 4, "unwritable-output")
      for c in ("fit", "demo", "synth")),
    row("demo", ["--plot-csv", "{tmp}/no/such/dir/p.csv"], 4, "unwritable-plot"),
    # the data file is written, then its report fails: the run removes it
    row("synth", ["--output", "{tmp}/sidecar"], 4, "unwritable-sidecar"),
    row("demo", ["--plot-csv", "{tmp}/p.csv", "--output", "{tmp}/no/such/dir/out"], 4,
        "plot-then-unwritable-output"),
]


class TestExitCodes:
    @pytest.mark.parametrize("command,flags,code", EXIT_TABLE)
    def test_exit_code(self, tmp_path, capsys, command, flags, code):
        data = tmp_path / "data.csv"
        np.savetxt(data, np.random.default_rng(0).standard_normal((40, 3)), delimiter=",")
        (tmp_path / "text.csv").write_text("1,2,3\n4,x,6\n7,8,9\n")
        (tmp_path / "ragged.csv").write_text("1,2,3\n4,5\n7,8,9\n")
        (tmp_path / "nan.csv").write_text("1,2,3\nnan,5,6\n")
        (tmp_path / "sidecar.meta.json").mkdir()  # synth's sidecar cannot be written
        argv = [command, *VALID_FLAGS[command], "--output", tmp_path / "out", *flags]
        argv = [str(a).format(data=data, tmp=tmp_path) for a in argv]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        if flags[0] == "--input" and code == 2:  # the unreadable input file, named once
            assert err.count(argv[-1]) == 1
        # a bad flag or input is found before any work, every command writes
        # its report last, and a data file written before a report that fails
        # is removed, so a failed run leaves no file
        assert sorted(tmp_path.iterdir()) == before
