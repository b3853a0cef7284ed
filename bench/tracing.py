"""In-memory span recorder for the traced benchmark run, and the table of
corrpca layers it wraps.

``cli`` and ``mcpi`` bind their helpers by name at import
(``from .linalg import power_iteration``), so a function is wrapped in every
corrpca module namespace that holds it, not only where it is defined.  Each
call records one span: label, parent span, op index, start and end.  Spans
stay in memory until the run ends; self time is derived from them then, as a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

import corrpca
from corrpca import cli, correntropy, datagen, linalg, mcpi, metrics

MODULES = (corrpca, cli, correntropy, datagen, linalg, mcpi, metrics)

# Traced functions, labelled by the module that defines them.
LAYERS = {
    "linalg.power_iteration": linalg.power_iteration,
    "correntropy.residual_weights": correntropy.residual_weights,
    "correntropy.weighted_scatter": correntropy.weighted_scatter,
    "correntropy.all_underflowed": correntropy.all_underflowed,
    "mcpi.build_deflated_operator": mcpi.build_deflated_operator,
    "mcpi.woodbury_update": mcpi.woodbury_update,
    "linalg.orthogonalize_against": linalg.orthogonalize_against,
    "linalg.null_space_vector": linalg.null_space_vector,
    "cli.main": cli.main,
    "datagen.generate_experiment": datagen.generate_experiment,
    "linalg.sym_evd": linalg.sym_evd,
    "metrics.component_alignment": metrics.component_alignment,
    "mcpi.fit": mcpi.fit,
    "mcpi.standard_pca": mcpi.standard_pca,
}

CORRENTROPY = ("correntropy.residual_weights", "correntropy.weighted_scatter",
               "correntropy.all_underflowed")


# Bytes and flops of the correntropy kernels, computed from the array shapes
# (float64, every array read or written once, caches ignored).

def _residual_weights_work(args, result):
    n, p = np.shape(args[0])
    # X and R read; R x_k written and re-read by the einsum; squared norms,
    # the scaled exponent and the weights each written and read once.
    return {"bytes": 8 * (3 * n * p + p * p + 5 * n), "flops": 2 * n * p * p + 2 * n * p + 2 * n}


def _weighted_scatter_work(args, result):
    n, p = np.shape(args[0])
    # w and X read into w*X, which is written, then read with X by the matmul.
    return {"bytes": 8 * (n + 4 * n * p + p * p), "flops": n * p + 2 * n * p * p}


def _all_underflowed_work(args, result):
    (n,) = np.shape(args[0])
    return {"bytes": 8 * n + 2 * n, "flops": n}  # one compare per weight, bool mask


def _power_iteration_counts(args, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


COUNTERS = {
    "correntropy.residual_weights": _residual_weights_work,
    "correntropy.weighted_scatter": _weighted_scatter_work,
    "correntropy.all_underflowed": _all_underflowed_work,
    "linalg.power_iteration": _power_iteration_counts,
}


class Tracer:
    """Records spans of the LAYERS functions while an op runs under ``op``."""

    ROOT = "op"

    def __init__(self):
        self.labels = [self.ROOT, *LAYERS]
        self.counts: dict[str, dict[str, int]] = {label: {} for label in COUNTERS}
        self._label = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._t0 = array("q")
        self._t1 = array("q")
        self._stack = [-1]
        self._op_index = -1
        wrappers = {
            fn: self._wrap(i, label, fn) for i, (label, fn) in enumerate(LAYERS.items(), start=1)
        }
        self._patches = [
            (module, name, value, wrappers[value])
            for module in MODULES
            for name, value in vars(module).items()
            if isinstance(value, types.FunctionType) and value in wrappers
        ]

    def _open(self, label: int) -> int:
        sid = len(self._t0)
        self._label.append(label)
        self._parent.append(self._stack[-1])
        self._op.append(self._op_index)
        self._t1.append(0)
        self._stack.append(sid)
        self._t0.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self._t1[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, label_index: int, label: str, fn):
        counter = COUNTERS.get(label)
        totals = self.counts.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(label_index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                for key, value in counter(args, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    @contextmanager
    def op(self, index: int):
        """Patch the wrappers in, run one op under a root span, restore."""
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)
        self._op_index = index
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)
            for module, name, original, _ in self._patches:
                setattr(module, name, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "label": np.array(self._label, dtype=np.int64),
            "parent": np.array(self._parent, dtype=np.int64),
            "op": np.array(self._op, dtype=np.int64),
            "t0_ns": np.array(self._t0, dtype=np.int64),
            "t1_ns": np.array(self._t1, dtype=np.int64),
        }

    def per_label(self) -> dict[str, tuple[int, float]]:
        """{label: (calls, self seconds)} summed over every traced op."""
        a = self.arrays()
        dur = (a["t1_ns"] - a["t0_ns"]).astype(float)
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - child
        k = len(self.labels)
        calls = np.bincount(a["label"], minlength=k)
        self_s = np.bincount(a["label"], weights=self_ns, minlength=k) / 1e9
        return {label: (int(calls[i]), float(self_s[i])) for i, label in enumerate(self.labels)}

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())
