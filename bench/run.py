"""corrpca benchmark: closed-loop workloads timed from outside the library.

    python3 bench/run.py --workload mc_n400_p3 --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

One process runs one workload as a closed loop: the next op starts when the
previous one has finished.  The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
The line before it is the full report: environment, host-speed probe,
solver counts and every end-to-end metric with its unit.  ``--workload all``
runs each workload that BENCHMARK.json lists, untraced, in a child process
and prints a table.

Exit code 0 when every check passed, 1 when a check or an op failed, 2 on
bad usage or when the corrpca sources are not in ``src/`` beside this
directory.
"""

import os

# One BLAS thread, set before numpy loads: the ops are serial and the host
# has two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # scratch inputs while a run lasts, and the span files
SETUP_REPEATS = 11
PROBE_STEPS = 3000
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
IMPORT_SNIPPET = "import time; t0 = time.perf_counter(); import corrpca; print(time.perf_counter() - t0)"

# End-to-end metrics that BENCHMARK.json gates.  The report line carries all
# of them and also op_s_p50, op_s_tail, ops_per_s and failed_frac: raw wall
# times swing by 2x with the shared host's speed, and failed_frac is 0 on
# every passing run, so those cannot hold a bound.
GATED = ("setup_s", "op_probe_p50", "abs_cos_min_p50", "peak_rss_mb")


@dataclass
class Op:
    index: int
    item: int  # pool position
    traced: bool
    seconds: float = 0.0
    probe_s: float = 0.0  # mean of the OpProbe times just before and after the op
    raw: object = None
    error: str | None = None
    outcome: object = None

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.outcome.problems)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def host_probe() -> float:
    """Seconds for a fixed 3x3 matvec-and-normalize loop, timed before and
    after each run as a record of the host's speed."""
    A = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])
    v = np.full(3, 3.0 ** -0.5)
    t0 = time.perf_counter()
    for _ in range(PROBE_STEPS):
        w = A @ v
        v = w / np.linalg.norm(w)
    return time.perf_counter() - t0


class OpProbe:
    """A fixed kernel shaped like the workload's ops, timed between ops.

    Each round computes residual weights and a weighted scatter on a fixed
    n x p array, then takes 25 matvec-and-normalize steps on the scatter:
    the same mix of array work and Python overhead as one outer iteration
    of a fit.  Its code never changes, so its time tracks the host's speed
    for that mix."""

    def __init__(self, n: int, p: int, rounds: int):
        self.Y = np.random.default_rng(0).standard_normal((n, p))
        self.rounds = rounds

    def __call__(self) -> float:
        Y = self.Y
        p = Y.shape[1]
        eye = np.eye(p)
        v = np.full(p, p ** -0.5)
        t0 = time.perf_counter()
        for _ in range(self.rounds):
            resid = Y @ (eye - np.outer(v, v)).T
            w = np.exp(-np.einsum("ij,ij->i", resid, resid) / 2.0)
            S = (w[:, None] * Y).T @ Y
            for _ in range(25):
                u = S @ v
                v = u / np.linalg.norm(u)
        return time.perf_counter() - t0


def import_seconds() -> float:
    """Time to import corrpca (and numpy under it) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, check=True)
    return float(proc.stdout)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_op(workload, items, item: int, index: int, tracer) -> Op:
    op = Op(index, item, tracer is not None)
    with tracer.op(index) if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            op.raw = workload.run(items[item], index)
        except Exception:  # an op that raises is a failed op; the loop goes on
            op.error = traceback.format_exc()
        op.seconds = time.perf_counter() - t0
    return op


def timed_loop(workload, items, seconds: float, tracer):
    """Cycle through the pool until the next unit of work would end past
    ``seconds``, after at least one full pass.

    Untraced, the unit is one op, and the workload's OpProbe runs between
    ops.  Traced, each item runs untraced and then traced, and the unit is a
    whole pass, so every pool item is traced equally often.  Returns the ops
    and the loop's wall time without the probes."""
    ops: list[Op] = []
    modes = (None, tracer) if tracer is not None else (None,)
    unit = len(items) if tracer is not None else 1
    probe = OpProbe(*workload.probe) if tracer is None else None
    probe_total = 0.0
    last_probe = probe() if probe is not None else 0.0
    start = time.perf_counter()
    n = 0
    while True:
        for mode in modes:
            op = run_op(workload, items, n % len(items), len(ops), mode)
            if probe is not None:
                now = probe()
                op.probe_s = (last_probe + now) / 2
                probe_total += now
                last_probe = now
            ops.append(op)
        n += 1
        if n >= len(items) and n % unit == 0:
            elapsed = time.perf_counter() - start
            if elapsed * (1 + unit / n) > seconds:
                return ops, elapsed - probe_total


def tail(times: list[float]) -> dict:
    """Highest whole percentile with at least TAIL_BEYOND ops above it."""
    n = len(times)
    pct = int(100 * (n - TAIL_BEYOND) / n) if n > TAIL_BEYOND else 0
    if pct <= 50:
        return {"unit": "s", "ops": n,
                "note": f"omitted: {n} ops, a tail above p50 needs {2 * TAIL_BEYOND}"}
    return {"value": float(np.percentile(times, pct)), "unit": "s", "percentile": pct, "ops": n}


def solver_counts(outcomes) -> dict:
    """Per-op means over one pass of the pool; they repeat exactly for a seed."""
    diags = [d for o in outcomes for d in o.diagnostics if d["method"] == "mcpi"]
    n = len(outcomes)
    return {
        "mcpi.fit.outer_iterations": sum(d["outer_iterations"] for d in diags) / n,
        "mcpi.fit.inner_iterations": sum(d["inner_iterations"] for d in diags) / n,
        "mcpi.fit.converged_frac": sum(bool(d["converged"]) for d in diags) / len(diags),
        "mcpi.fit.sigma_underflow": sum(bool(d["sigma_underflow"]) for d in diags) / n,
    }


def end_to_end(setup_s, ops: list[Op], loop_s, passed, failed_frac) -> dict:
    times = [op.seconds for op in ops]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_probe_p50": {"value": statistics.median(op.seconds / op.probe_s for op in ops),
                         "unit": "probe"},
        "op_s_p50": {"value": statistics.median(times), "unit": "s"},
        "op_s_tail": tail(times),
        "ops_per_s": {"value": len(ops) / loop_s, "unit": "1/s"},
        "abs_cos_min_p50": {"value": statistics.median(float(o.abs_cos.min()) for o in passed)
                            if passed else 0.0, "unit": "cos"},
        "failed_frac": {"value": failed_frac, "unit": "fraction"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def layer_metrics(tracer, traced: list[Op], untraced: list[Op]) -> dict:
    from tracing import CORRENTROPY, LAYERS

    n = len(traced)
    op_time = sum(op.seconds for op in traced)
    per = tracer.per_label()
    out = {}
    for label in LAYERS:
        calls, self_s = per[label]
        out[f"{label}.calls"] = (calls / n, "count")
        out[f"{label}.self_s"] = (self_s / n, "s")
        out[f"{label}.share"] = (self_s / op_time, "fraction")
    power = tracer.counts["linalg.power_iteration"]
    power_calls = per["linalg.power_iteration"][0]
    out["linalg.power_iteration.iterations"] = (power.get("iterations", 0) / n, "count")
    out["linalg.power_iteration.converged_frac"] = (
        power.get("converged", 0) / power_calls if power_calls else 1.0, "fraction")
    work = {key: sum(tracer.counts[label].get(key, 0) for label in CORRENTROPY)
            for key in ("bytes", "flops")}
    busy = sum(per[label][1] for label in CORRENTROPY)
    out["correntropy.bytes_computed"] = (work["bytes"] / n, "B")
    out["correntropy.flops_computed"] = (work["flops"] / n, "flop")
    out["correntropy.gbps_computed"] = (work["bytes"] / busy / 1e9 if busy else 0.0, "GB/s")
    out["tracing_overhead_frac"] = (
        statistics.median(op.seconds for op in traced)
        / statistics.median(op.seconds for op in untraced) - 1.0, "fraction")
    return out


def run_workload(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    probe_before = host_probe()
    import_times = [import_seconds() for _ in range(SETUP_REPEATS)]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            items = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        ops, loop_s = timed_loop(workload, items, args.seconds, tracer)
        for op in ops:  # the checks run after the loop, off the clock
            if op.error is None:
                try:
                    op.outcome = workload.outcome(items[op.item], op.index, op.raw)
                except Exception:
                    op.error = traceback.format_exc()
            op.raw = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_after = host_probe()

    first_pass: dict[int, Op] = {}
    for op in ops:
        first_pass.setdefault(op.item, op)
    passed = [op.outcome for op in first_pass.values() if not op.failed]
    problems = [f"op {op.index}: {op.error or '; '.join(op.outcome.problems)}"
                for op in ops if op.failed]
    pass_problems = workload.check_pass(passed) if len(passed) == len(items) else []
    if pass_problems:  # a failed check over the pass fails every op in it
        problems += [f"pass: {p}" for p in pass_problems]
    failed = len({op.index for op in ops if op.failed}
                 | ({op.index for op in first_pass.values()} if pass_problems else set()))

    untraced = [op for op in ops if not op.traced]
    counts = solver_counts(passed) if passed else {}
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "import_s": import_times, "setup_inputs_s": setup_times, "pool_size": len(items),
        "ops": len(ops), "loop_s": loop_s, "solver_counts": counts, "problems": problems[:20],
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, [op for op in ops if op.traced], untraced)
        metrics.update({name: (value, "fraction" if name.endswith("_frac") else "count")
                        for name, value in counts.items()})
        result_metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        spans = OUT / f"spans-{args.workload}.npz"
        tracer.save(spans)
        report["spans"] = str(spans.relative_to(ROOT))
    else:
        report["op_s"] = [op.seconds for op in ops]
        report["op_probe_s"] = [op.probe_s for op in ops]
        report["end_to_end"] = end_to_end(setup_s, ops, loop_s, passed, failed / len(ops))
        result_metrics = {name: report["end_to_end"][name] for name in GATED}
    for line in problems[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": result_metrics}), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload BENCHMARK.json lists, untraced, in its own process; then one table."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    table = []
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        status = max(status, proc.returncode)
        report = json.loads(lines[-2])["report"]
        for metric, m in report["end_to_end"].items():
            value = m.get("value")
            shown = f"{value:.6g}" if value is not None else m["note"]
            if "percentile" in m:
                shown += f" (p{m['percentile']} of {m['ops']} ops)"
            table.append((name, metric, shown, m["unit"]))
    width = max(len(row[0]) for row in table) if table else 0
    for name, metric, shown, unit in table:
        print(f"{name:<{width}}  {metric:<16} {shown} {unit}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "corrpca" / "__init__.py").is_file():
        print(f"error: no corrpca sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import corrpca

    if Path(corrpca.__file__).resolve().parent != SRC / "corrpca":
        print(f"error: imported corrpca from {corrpca.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
