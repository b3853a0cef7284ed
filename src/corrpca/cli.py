"""Command-line entry point: fit a CSV dataset, synthesize one, or run the
outlier-contamination demo comparing the robust fit against plain PCA.

Exit codes: 0 success; 2 a bad flag or input file, decided by argparse or
by the one ``try`` in which each command checks all its flags and inputs
before any work; 3 degenerate input (``DegenerateInputError``) and 4 a failed
write (an ``OSError`` once the inputs are read), both decided in ``main``.

Reports are strict JSON (RFC 8259): a non-finite float, such as the
null-space component's ``final_sigma`` (NaN) or an eigenvalue beyond
float64's range (inf), is written as ``null``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace

import numpy as np

from .datagen import ExperimentSpec, generate_experiment
from .linalg import sym_evd
from .mcpi import DegenerateInputError, MCPIConfig, PCAResult, fit, standard_pca
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
    except (OSError, ValueError) as err:
        raise ValueError(f"cannot parse {path}: {err}") from err
    if X.size == 0:
        raise ValueError(f"cannot parse {path}: empty input")
    return X


def _write_json(path: str | None, payload: dict) -> None:
    # NaN and Infinity, which JSON lacks, read back as None and are written as null
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _result_dict(result: PCAResult) -> dict:
    return {
        "components_rows": result.components.tolist(),
        "apriori_eigenvalues": result.apriori_eigenvalues.tolist(),
        "diagnostics": [d.as_dict() for d in result.diagnostics],
    }


def _experiment(args) -> ExperimentSpec:
    """The experiment of ``synth`` and ``demo`` (checked as it is built), with
    the scatter read from ``--scatter-csv`` or the default one for ``--p``."""
    scatter = _read_matrix_csv(args.scatter_csv) if args.scatter_csv else _default_scatter(args.p)
    return ExperimentSpec(n=args.n, p=args.p, scatter=scatter, outlier_fraction=args.outlier_frac,
                          nu=args.nu, seed=args.seed, outlier_basis=args.outlier_basis)


def cmd_fit(args) -> int:
    try:
        X = _read_matrix_csv(args.input, args.header)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    result = fit(X, MCPIConfig(center=args.center))
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "config": {
            "center": args.center,
            "input": args.input,
        },
        "n": int(X.shape[0]),
        "p": int(X.shape[1]),
        **_result_dict(result),
    }
    _write_json(args.output, report)
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        spec = _experiment(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    X, idx = generate_experiment(spec)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "command": "synth",
        "seed": spec.seed,
        "n": spec.n,
        "p": spec.p,
        "scatter_rows": spec.scatter.tolist(),
        "outlier_fraction": spec.outlier_fraction,
        "nu": spec.nu,
        "outlier_basis": spec.outlier_basis,
        "outlier_indices": idx.tolist(),
    }
    np.savetxt(args.output, X, delimiter=",", fmt="%.17g")
    _write_json(args.output + ".meta.json", sidecar)
    return EXIT_OK


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


def cmd_demo(args) -> int:
    try:
        spec = _experiment(args)
        if args.replicates < 1:
            raise ValueError(f"--replicates must be >= 1, got {args.replicates}")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    cfg = MCPIConfig(center=args.center)
    truth = sym_evd(spec.scatter)
    V_true = truth.vectors

    replicate_rows = []
    mcpi_scores = np.empty((args.replicates, args.p))
    pca_scores = np.empty((args.replicates, args.p))
    first = None
    for r in range(args.replicates):
        rep_spec = replace(spec, seed=args.seed + r)
        X, idx = generate_experiment(rep_spec)
        res_m = fit(X, cfg)
        res_p = standard_pca(X, cfg.center)
        a_m = component_alignment(res_m.components, V_true)
        a_p = component_alignment(res_p.components, V_true)
        mcpi_scores[r] = a_m.per_component_abs_cos
        pca_scores[r] = a_p.per_component_abs_cos
        if first is None:
            first = (X, idx, res_m.components, res_p.components)
        replicate_rows.append(
            {
                "replicate": r,
                "seed": rep_spec.seed,
                "n_outliers": int(idx.size),
                "mcpi_abs_cos": a_m.per_component_abs_cos.tolist(),
                "pca_abs_cos": a_p.per_component_abs_cos.tolist(),
            }
        )

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "demo",
        "config": {
            "n": args.n,
            "p": args.p,
            "outlier_fraction": args.outlier_frac,
            "nu": args.nu,
            "center": args.center,
            "seed": args.seed,
            "replicates": args.replicates,
            "outlier_basis": args.outlier_basis,
            "scatter_rows": spec.scatter.tolist(),
        },
        "true_eigenvalues": truth.values.tolist(),
        "true_components_rows": V_true.tolist(),
        "replicates": replicate_rows,
        "aggregate": {
            "mcpi_median_abs_cos": np.median(mcpi_scores, axis=0).tolist(),
            "mcpi_mean_abs_cos": np.mean(mcpi_scores, axis=0).tolist(),
            "pca_median_abs_cos": np.median(pca_scores, axis=0).tolist(),
            "pca_mean_abs_cos": np.mean(pca_scores, axis=0).tolist(),
        },
    }
    _write_json(args.output, report)
    if args.plot_csv:
        X, idx, V_m, V_p = first
        _write_plot_csv(args.plot_csv, X, idx, truth.values, V_true, V_m, V_p)
    return EXIT_OK


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
    # and --seed, whose defaults differ).
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--outlier-frac", type=float, default=0.0)
    data.add_argument("--nu", type=float, default=15.0)
    data.add_argument("--outlier-basis", choices=("literal", "rotated"), default="literal")
    data.add_argument("--scatter-csv", default=None, help="override the p x p scatter")

    p_fit = sub.add_parser(
        "fit", parents=[config], help="fit a CSV dataset and write a JSON report"
    )
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--output", default="-")
    p_fit.add_argument("--header", action="store_true", help="skip one header line")
    p_fit.set_defaults(func=cmd_fit)

    p_demo = sub.add_parser(
        "demo", parents=[config, data], help="synthetic comparison against plain PCA"
    )
    p_demo.add_argument("--n", type=int, default=400)
    p_demo.add_argument("--p", type=int, default=3)
    p_demo.add_argument("--replicates", type=int, default=20)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--output", default="-")
    p_demo.add_argument("--plot-csv", default=None)
    p_demo.set_defaults(func=cmd_demo)

    p_synth = sub.add_parser("synth", parents=[data], help="write a synthetic dataset as CSV")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--p", type=int, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateInputError as err:
        print(f"error: degenerate input: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as err:  # the commands read all their inputs before this
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
