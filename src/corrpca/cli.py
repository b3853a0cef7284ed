"""Command-line entry point: fit a CSV dataset, synthesize one, or run the
outlier-contamination demo comparing the robust fit against plain PCA.

Exit codes, every one decided in ``main``: 0 success; 2 a bad flag or
input file, found by argparse or by the command's read function, which
checks every flag and input before any work; 3 degenerate input
(``DegenerateInputError``: non-finite cells) and 4 a failed write (an
``OSError``), both raised by the command's run function.  Each command
writes its JSON report last, so a failed write leaves no report, and
removes the data file it wrote before a report that could not be written.
Rank-deficient data (collinear columns, or fewer rows than columns) are
fitted, not rejected: at rank r < p, components r to p - 1 report
``sigma_underflow``, and the last p - r are the directions without variance.

Reports are strict JSON (RFC 8259): a non-finite float, such as the
null-space component's ``final_sigma`` (NaN) or an eigenvalue beyond
float64's range (inf), is written as ``null``.
"""

from __future__ import annotations

import argparse
import bz2
import gzip
import io
import json
import lzma
import os
import sys
import warnings
from dataclasses import fields, replace

import numpy as np

from .datagen import OUTLIER_BASES, ExperimentSpec, generate_experiment
from .linalg import sym_evd
from .mcpi import DegenerateInputError, MCPIConfig, fit, standard_pca
from .metrics import component_alignment

SCHEMA_VERSION = 4

# Demo default scatter for p=3; distinct eigenvalues, off-axis eigenvectors.
DEFAULT_SCATTER_3D = np.array(
    [[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]]
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

# Rows formatted per ``%`` call by _write_matrix_csv: enough that the Python
# overhead per call vanishes, few enough that a block's text and Python floats
# (~60 bytes a cell, ~180 kB at p = 3) stay small next to a large matrix.
CSV_BLOCK_ROWS = 1024


def _gzip_open(path: str, mode: str):
    """``gzip.open(path, mode)`` in a text write mode, with mtime 0 in the
    gzip header in place of the clock, so that reruns give the same bytes."""
    return io.TextIOWrapper(gzip.GzipFile(path, mode.replace("t", "b"), mtime=0))


# Output suffixes that _write_matrix_csv compresses, as np.savetxt does
# (".lzma" too writes the xz format).
_CSV_OPENERS = {".gz": _gzip_open, ".bz2": bz2.open, ".xz": lzma.open, ".lzma": lzma.open}


def _default_scatter(p: int) -> np.ndarray:
    if p == 3:
        return DEFAULT_SCATTER_3D
    return np.diag(np.arange(p, 0, -1, dtype=float))


def _read_matrix_csv(path: str, header: bool = False) -> np.ndarray:
    """The numbers in a CSV file; ValueError if it cannot be read or parsed."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty input is reported as a parse error
            X = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    except FileNotFoundError as err:  # numpy's message is the path and "not found."
        raise ValueError(f"cannot read {path}: not found") from err
    except OSError as err:  # strerror, when set, leaves the path out
        raise ValueError(f"cannot read {path}: {err.strerror or err}") from err
    except ValueError as err:
        raise ValueError(f"cannot parse {path}: {err}") from err
    if X.size == 0:
        raise ValueError(f"cannot parse {path}: empty input")
    return X


def _write_matrix_csv(path: str, X: np.ndarray) -> None:
    """Write X with the bytes of ``np.savetxt(path, X, delimiter=",",
    fmt="%.17g")``, compressed by the suffix as savetxt does, formatting
    CSV_BLOCK_ROWS rows per ``%`` call instead of one."""
    opener = _CSV_OPENERS.get(os.path.splitext(path)[1], open)
    row_fmt = ",".join(["%.17g"] * X.shape[1]) + "\n"
    with opener(path, "wt") as fh:
        for start in range(0, X.shape[0], CSV_BLOCK_ROWS):
            block = X[start:start + CSV_BLOCK_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path: str | None, command: str, payload: dict, data: str | None = None) -> None:
    """Write the report of ``command``, headed by its schema version, as
    strict JSON to ``path``, or to stdout when that is None or "-".  A
    failed write removes ``data``, the data file the run wrote before its
    report, and re-raises, so that a failed run leaves neither."""
    payload = {"schema_version": SCHEMA_VERSION, "command": command, **payload}
    # NaN and Infinity, which JSON lacks, read back as None and are written as null
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    try:
        if path is None or path == "-":
            sys.stdout.write(text + "\n")
        else:
            with open(path, "w") as fh:
                fh.write(text + "\n")
    except OSError:
        if data:
            os.remove(data)
        raise


def _experiment(args) -> ExperimentSpec:
    """The experiment of ``synth`` and ``demo`` (checked as it is built): the
    spec fields given on the command line, the spec's defaults for the rest,
    and the scatter read from ``--scatter-csv`` or the default one for ``--p``."""
    scatter = _read_matrix_csv(args.scatter_csv) if args.scatter_csv else _default_scatter(args.p)
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentSpec) if hasattr(args, f.name)}
    return ExperimentSpec(**given, scatter=scatter)


def _spec_dict(spec: ExperimentSpec) -> dict:
    """The fields of an experiment, as the ``synth`` sidecar and the ``demo``
    config write them: the scatter as ``scatter_rows``."""
    d = {f.name: getattr(spec, f.name) for f in fields(spec)}
    d["scatter_rows"] = d.pop("scatter").tolist()
    return d


def cmd_fit(args, X: np.ndarray) -> None:
    result = fit(X, MCPIConfig(center=args.center))
    _write_json(args.output, "fit", {
        "config": {
            "center": args.center,
            "input": args.input,
        },
        "n": int(X.shape[0]),
        "p": int(X.shape[1]),
        "components_rows": result.components.tolist(),
        "apriori_eigenvalues": result.apriori_eigenvalues.tolist(),
        "diagnostics": [d.as_dict() for d in result.diagnostics],
    })


def cmd_synth(args, spec: ExperimentSpec) -> None:
    """Write the experiment's rows to ``--output`` as CSV and its spec, with
    the outlier row indices, to ``<output>.meta.json``.

    The CSV has one row per line and each cell formatted ``%.17g``, so every
    float64 reads back to the same bits: the bytes of ``np.savetxt(output, X,
    delimiter=",", fmt="%.17g")``.  An output ending in ``.gz``, ``.bz2`` or
    ``.xz`` is compressed in that format, and one ending in ``.lzma`` as xz;
    ``fit`` reads each of them as well."""
    X, idx = generate_experiment(spec)
    _write_matrix_csv(args.output, X)
    _write_json(args.output + ".meta.json", "synth", {
        **_spec_dict(spec),
        "outlier_indices": idx.tolist(),
    }, data=args.output)


def _write_plot_csv(path, X, idx, eigvals, V_true, V_mcpi, V_pca) -> None:
    """Plot-ready rows: samples first, then the direction triples, scaled by
    twice the true standard deviation along each component."""
    p = X.shape[1]
    with open(path, "w") as fh:
        fh.write("kind,index," + ",".join(f"c{i + 1}" for i in range(p)) + "\n")
        outliers = set(int(i) for i in idx)
        for k, row in enumerate(X):
            kind = "outlier" if k in outliers else "sample"
            fh.write(f"{kind},{k}," + ",".join(f"{x:.17g}" for x in row) + "\n")
        for label, V in (("true", V_true), ("mcpi", V_mcpi), ("pca", V_pca)):
            for j in range(p):
                d = 2.0 * np.sqrt(eigvals[j]) * V[:, j]
                fh.write(f"{label},{j}," + ",".join(f"{x:.17g}" for x in d) + "\n")


def _read_demo(args) -> ExperimentSpec:
    """The experiment of ``demo``, once ``--replicates`` is checked too."""
    spec = _experiment(args)
    if args.replicates < 1:
        raise ValueError(f"--replicates must be >= 1, got {args.replicates}")
    return spec


def cmd_demo(args, spec: ExperimentSpec) -> None:
    truth = sym_evd(spec.scatter)
    V_true = truth.vectors
    replicate_rows = []
    for r in range(args.replicates):
        rep_spec = replace(spec, seed=spec.seed + r)
        X, idx = generate_experiment(rep_spec)
        V_m = fit(X, MCPIConfig(center=args.center)).components
        V_p = standard_pca(X, args.center).components
        if r == 0 and args.plot_csv:
            _write_plot_csv(args.plot_csv, X, idx, truth.values, V_true, V_m, V_p)
        replicate_rows.append(
            {
                "replicate": r,
                "seed": rep_spec.seed,
                "n_outliers": int(idx.size),
                "mcpi_abs_cos": component_alignment(V_m, V_true).per_component_abs_cos.tolist(),
                "pca_abs_cos": component_alignment(V_p, V_true).per_component_abs_cos.tolist(),
            }
        )
    aggregate = {}
    for method in ("mcpi", "pca"):
        scores = np.array([row[f"{method}_abs_cos"] for row in replicate_rows])
        aggregate[f"{method}_median_abs_cos"] = np.median(scores, axis=0).tolist()
        aggregate[f"{method}_mean_abs_cos"] = np.mean(scores, axis=0).tolist()
    _write_json(args.output, "demo", {
        "config": {
            **_spec_dict(spec),
            "center": args.center,
            "replicates": args.replicates,
        },
        "true_eigenvalues": truth.values.tolist(),
        "true_components_rows": V_true.tolist(),
        "replicates": replicate_rows,
        "aggregate": aggregate,
    }, data=args.plot_csv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrpca",
        description="Robust PCA via correntropy-weighted power iterations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The MCPIConfig option shared by fit and demo.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--center", action="store_true")

    # The ExperimentSpec options shared by synth and demo (besides --n, --p
    # and --seed, which synth requires).  A spec option not given, here or
    # demo's --seed, leaves its field unset on args: the spec's default applies.
    data = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    data.add_argument("--outlier-frac", type=float, dest="outlier_fraction", metavar="OUTLIER_FRAC")
    data.add_argument("--nu", type=float)
    data.add_argument("--outlier-basis", choices=OUTLIER_BASES)
    data.add_argument("--scatter-csv", default=None, help="override the p x p scatter")

    p_fit = sub.add_parser(
        "fit", parents=[config], help="fit a CSV dataset and write a JSON report"
    )
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--output", default="-")
    p_fit.add_argument("--header", action="store_true", help="skip one header line")
    p_fit.set_defaults(read=lambda args: _read_matrix_csv(args.input, args.header), run=cmd_fit)

    p_demo = sub.add_parser(
        "demo", parents=[config, data], help="synthetic comparison against plain PCA"
    )
    p_demo.add_argument("--n", type=int, default=400)
    p_demo.add_argument("--p", type=int, default=3)
    p_demo.add_argument("--replicates", type=int, default=20)
    p_demo.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_demo.add_argument("--output", default="-")
    p_demo.add_argument("--plot-csv", default=None)
    p_demo.set_defaults(read=_read_demo, run=cmd_demo)

    p_synth = sub.add_parser("synth", parents=[data], help="write a synthetic dataset as CSV")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--p", type=int, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(read=_experiment, run=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs = args.read(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    try:
        args.run(args, inputs)
    except DegenerateInputError as err:
        print(f"error: degenerate input: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as err:  # every input was read above
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
