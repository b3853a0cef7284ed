"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For seed 3, runs each workload BENCHMARK.json lists once untraced and once
traced (one pass of its pool each) and checks that:

* the solver counts repeat exactly between the two runs, and the traced
  power-iteration count equals the fit's inner-iteration count;
* each run emits exactly the metric names BENCHMARK.json lists;
* a copy of the benchmark without the corrpca sources exits non-zero
  without printing a result.

Exit code 0 when every check holds, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


def parse(proc):
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    failures = []

    for workload in names:
        results = {}
        for trace in (0, 1):
            proc = run(workload, SEED, trace)
            if proc.returncode != 0:
                failures.append(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                break
            report, result = parse(proc)
            results[trace] = (report, result)
            got = set(result["metrics"])
            if got != expected[trace]:
                failures.append(f"{workload} trace {trace}: metric names differ from BENCHMARK.json: "
                                f"missing {sorted(expected[trace] - got)}, extra {sorted(got - expected[trace])}")
        if len(results) < 2:
            continue
        counts = [results[t][0]["solver_counts"] for t in (0, 1)]
        if counts[0] != counts[1]:
            failures.append(f"{workload}: solver counts differ: {counts[0]} vs {counts[1]}")
        traced = results[1][1]["metrics"]
        if traced["linalg.power_iteration.iterations"]["value"] != counts[0]["mcpi.fit.inner_iterations"]:
            failures.append(f"{workload}: traced power-iteration count "
                            f"{traced['linalg.power_iteration.iterations']['value']} != fit inner "
                            f"iterations {counts[0]['mcpi.fit.inner_iterations']}")
        print(f"{workload}: solver counts {counts[0]}", flush=True)

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(names[0], SEED, 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAIL", failure)
    print("PASS" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
