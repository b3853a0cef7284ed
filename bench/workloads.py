"""The benchmark's workloads.

Each workload builds a pool of inputs from the run's seed (pool item r uses
data seed ``seed * pool_size + r``, so two run seeds never share data), runs
one op on a pool item by calling corrpca's public functions, and turns the
op's raw output into an ``Outcome`` after the timer has stopped.  The timed
loop in ``run.py`` cycles through the pool.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corrpca import cli, datagen, linalg, mcpi, metrics

ORTHONORMAL_TOL = 1e-8
# Acceptance criterion 3 (tests/test_acceptance.py): MCPI's median |cos| per
# component is at least this, and beats PCA's on the first two components.
MC_MEDIAN_FLOOR = 0.95
OUTLIER_FRACTION = 0.05
NU = 15.0


@dataclass
class Outcome:
    """What the checks and the solver counts need from one op."""

    components: np.ndarray  # p x p, one component per column
    abs_cos: np.ndarray | None  # per-component |cos| against the true eigenvectors
    diagnostics: list[dict]  # ComponentDiagnostics.as_dict() of the fit
    problems: list[str] = field(default_factory=list)
    pca_abs_cos: np.ndarray | None = None


def check_components(V: np.ndarray, p: int) -> list[str]:
    """Components are a finite p x p matrix with orthonormal columns."""
    if V.shape != (p, p):
        return [f"components have shape {V.shape}, expected {(p, p)}"]
    if not np.all(np.isfinite(V)):
        return ["components are not finite"]
    dev = float(np.max(np.abs(V.T @ V - np.eye(p))))
    if dev > ORTHONORMAL_TOL:
        return [f"max |V^T V - I| = {dev:.3g} > {ORTHONORMAL_TOL:g}"]
    return []


def _outcome(V, truth, diagnostics) -> Outcome:
    problems = check_components(V, truth.shape[0])
    abs_cos = None if problems else metrics.component_alignment(V, truth).per_component_abs_cos
    return Outcome(V, abs_cos, diagnostics, problems)


class Workload:
    pool_size: int
    probe: tuple[int, int, int]  # OpProbe (n, p, rounds): a few percent of one op

    def check_pass(self, outcomes: list[Outcome]) -> list[str]:
        """Checks over the first pass through the pool, beyond the per-op ones."""
        return []


class MonteCarlo(Workload):
    """One Monte Carlo replicate of ``corrpca demo``: generate, fit, PCA,
    and two alignments against the truth."""

    name = "mc_n400_p3"
    pool_size = 40
    probe = (400, 3, 100)

    def setup(self, seed: int, workdir: Path) -> list:
        scatter = cli.DEFAULT_SCATTER_3D
        self.truth = linalg.sym_evd(scatter).vectors
        return [
            datagen.ExperimentSpec(n=400, p=3, scatter=scatter, outlier_fraction=OUTLIER_FRACTION,
                                   nu=NU, seed=seed * self.pool_size + r)
            for r in range(self.pool_size)
        ]

    def run(self, spec, index: int):
        X, _ = datagen.generate_experiment(spec)
        robust = mcpi.fit(X, mcpi.MCPIConfig())
        baseline = mcpi.standard_pca(X)
        return (robust,
                metrics.component_alignment(robust.components, self.truth),
                metrics.component_alignment(baseline.components, self.truth))

    def outcome(self, spec, index: int, raw) -> Outcome:
        robust, a_robust, a_pca = raw
        return Outcome(robust.components, a_robust.per_component_abs_cos,
                       [d.as_dict() for d in robust.diagnostics],
                       check_components(robust.components, len(self.truth)), a_pca.per_component_abs_cos)

    def check_pass(self, outcomes: list[Outcome]) -> list[str]:
        mcpi_med = np.median([o.abs_cos for o in outcomes], axis=0)
        pca_med = np.median([o.pca_abs_cos for o in outcomes], axis=0)
        problems = []
        if not np.all(mcpi_med >= MC_MEDIAN_FLOOR):
            problems.append(f"MCPI median |cos| {mcpi_med.tolist()} below {MC_MEDIAN_FLOOR}")
        if not np.all(mcpi_med[:2] > pca_med[:2]):
            problems.append(f"MCPI median |cos| {mcpi_med.tolist()} does not beat PCA {pca_med.tolist()}")
        return problems


class CliFit(Workload):
    """``corrpca fit`` on a large CSV, called in-process through cli.main."""

    name = "cli_fit_n40000_p3"
    pool_size = 2
    n = 40000
    probe = (n, 3, 25)

    def setup(self, seed: int, workdir: Path) -> list:
        items = []
        for r in range(self.pool_size):
            csv = workdir / f"data{r}.csv"
            code = cli.main(["synth", "--n", str(self.n), "--p", "3",
                             "--outlier-frac", str(OUTLIER_FRACTION), "--nu", str(NU),
                             "--seed", str(seed * self.pool_size + r), "--output", str(csv)])
            if code != 0:
                raise RuntimeError(f"corrpca synth exited with {code}")
            items.append(csv)
        meta = json.loads(Path(f"{items[0]}.meta.json").read_text())
        self.truth = linalg.sym_evd(np.array(meta["scatter_rows"])).vectors
        self.workdir = workdir
        self._reference = {}
        return items

    def _report_path(self, index: int) -> Path:
        return self.workdir / f"report{index}.json"

    def run(self, csv, index: int):
        return cli.main(["fit", "--input", str(csv), "--output", str(self._report_path(index))])

    def outcome(self, csv, index: int, raw) -> Outcome:
        if raw != cli.EXIT_OK:
            return Outcome(np.empty((0, 0)), None, [], [f"corrpca fit exited with {raw}"])
        report = json.loads(self._report_path(index).read_text())
        self._report_path(index).unlink()
        out = _outcome(np.array(report["components_rows"]), self.truth, report["diagnostics"])
        if csv not in self._reference:  # mcpi.fit on the same CSV, computed once per file
            self._reference[csv] = mcpi.fit(np.loadtxt(csv, delimiter=",", ndmin=2)).components
        if not np.array_equal(out.components, self._reference[csv]):
            out.problems.append("report components differ from mcpi.fit on the same CSV")
        return out


class Fit10(Workload):
    """One mcpi.fit at n=2000, p=10 with the CLI's default diag(10..1) scatter."""

    name = "fit_n2000_p10"
    pool_size = 6
    probe = (2000, 10, 40)

    def setup(self, seed: int, workdir: Path) -> list:
        scatter = np.diag(np.arange(10, 0, -1, dtype=float))
        self.truth = linalg.sym_evd(scatter).vectors
        return [
            datagen.generate_experiment(datagen.ExperimentSpec(
                n=2000, p=10, scatter=scatter, outlier_fraction=OUTLIER_FRACTION, nu=NU,
                seed=seed * self.pool_size + r))[0]
            for r in range(self.pool_size)
        ]

    def run(self, X, index: int):
        return mcpi.fit(X)

    def outcome(self, X, index: int, raw) -> Outcome:
        return _outcome(raw.components, self.truth, [d.as_dict() for d in raw.diagnostics])


WORKLOADS = {w.name: w for w in (MonteCarlo, CliFit, Fit10)}
