"""Steadiness command: repeat runs and report each metric's spread.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]
                                [--first-seed 1] [--trace 0|1]

Runs ``run.py`` once per seed (``--first-seed`` onwards, one new seed
per run) for every chosen workload, sequentially, with the run length
from ``BENCHMARK.json``.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the quartile spread
as a share of the median, the max-min spread as a share of the median,
and the metric's bound from ``BENCHMARK.json``; for traced runs it
checks that work counts repeat exactly on repeated seeds.  The bounds
in ``BENCHMARK.json`` were set from this command's output (README.md).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, WORKLOADS


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stdin=subprocess.DEVNULL, text=True,
                               timeout=900)
    elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit "
                         f"{completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["elapsed"] = elapsed
    return result


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) if median else 1.0
    return {
        "median": median, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat --first-seed instead of new seeds")
    args = parser.parse_args()
    benchmark = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for workload in args.workload or WORKLOADS:
        runs = []
        for number in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else number)
            runs.append(one_run(workload, seed, benchmark["run_seconds"],
                                args.trace))
            print(f"{workload} seed {seed}: {runs[-1]['attempted']} ops, "
                  f"{runs[-1]['failed']} failed, "
                  f"{runs[-1]['elapsed']:.1f} s", file=sys.stderr)
        names = list(runs[0]["metrics"])
        print(f"\n{workload}: {args.runs} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}, "
              f"correct {all(r['correct'] for r in runs)}, "
              f"longest run {max(r['elapsed'] for r in runs):.1f} s")
        print(f"  {'metric':<38}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            row = spread(values)
            bound = bounds.get(name)
            print(f"  {name:<38}{row['median']:>12.5g}{row['q1']:>12.5g}"
                  f"{row['q3']:>12.5g}{row['iqr_share']:>9.3f}"
                  f"{row['range_share']:>10.3f}"
                  f"{'' if bound is None else f'{bound:>7.2f}'}")
        if args.trace and args.same_seed:
            counts = [name for name in names
                      if runs[0]["metrics"][name]["unit"] in ("count",
                                                                "bytes")]
            moved = [name for name in counts
                     if len({r["metrics"][name]["value"] for r in runs}) > 1]
            print(f"  work counts that moved between runs: {moved or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
