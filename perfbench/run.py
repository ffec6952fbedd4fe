"""RENUVER benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated from ``--seed``;
the program is imported from the checkout's ``src``.  Each run sets up
``SETUP_REPEATS`` times (``setup_s`` is the median), then repeats whole
rounds of the workload's operations for ``--seconds``, checking every
output independently.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import (
    BENCH_DIR, ROOT, SETUP_REPEATS, WORKLOADS, CheckoutError, Tally,
    child_env, end_to_end, make_workdir, print_summary, remove_workdir,
    require_checkout, result_line,
)

#: A single worker process may not outlive this (the whole run must end
#: within 180 s).
WORKER_TIMEOUT = 170.0


def _worker(workload: str, workdir: Path, seconds: float, trace: int,
            setup_only: bool) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--workdir", str(workdir),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    completed = subprocess.run(
        command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} worker exited with {completed.returncode}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_in_process(workload: str, workdir: Path, seconds: float,
                   trace: int) -> tuple[bool, Tally, dict]:
    import layers

    setups = [
        _worker(workload, workdir, seconds, trace, setup_only=True)
        for _ in range(SETUP_REPEATS - 1)
    ]
    final = _worker(workload, workdir, seconds, trace, setup_only=False)
    setups.append(final)
    tallies = {kind: Tally(**values)
               for kind, values in final["tallies"].items()}
    correct = all(entry["setup_ok"] for entry in setups)
    everything = Tally()
    for tally in tallies.values():
        everything.merge(tally)
    correct = correct and everything.wrong_outputs == 0
    if not trace:
        metrics = end_to_end(
            tallies["untraced"], [entry["setup_s"] for entry in setups],
            final["peak_rss_mb"],
        )
        return correct, everything, metrics
    rounds = final["rounds"]
    metrics = layers.layer_metrics(
        final["summary"],
        rounds=rounds["traced"],
        workload=workload,
        op_seconds=tallies["traced"].busy_seconds,
        untraced_seconds=tallies["untraced"].busy_seconds
        / rounds["untraced"],
        traced_seconds=tallies["traced"].busy_seconds / rounds["traced"],
    )
    return correct, everything, metrics


def run_service(manifest: dict, workdir: Path, seconds: float,
                trace: int) -> tuple[bool, Tally, dict]:
    import layers
    import service_load

    outcome = service_load.run(manifest, workdir, seconds, bool(trace))
    phases = {phase["traced"]: phase for phase in outcome["phases"]}
    everything = Tally()
    for phase in outcome["phases"]:
        everything.merge(service_load.merged_tally(phase["clients"]))
    correct = outcome["setup_ok"] and everything.wrong_outputs == 0
    untraced = phases[False]
    untraced_tally = service_load.merged_tally(untraced["clients"])
    if not trace:
        start, end = untraced["window"]
        metrics = end_to_end(untraced_tally, outcome["setups"],
                             untraced["peak_rss_mb"],
                             wall_seconds=end - start)
        return correct, everything, metrics
    traced = phases[True]
    traced_tally = service_load.merged_tally(traced["clients"])
    summary, totals = service_load.server_layers(traced)
    rounds = sum(client.rounds for client in traced["clients"])
    untraced_rounds = sum(client.rounds for client in untraced["clients"])
    op_seconds = traced_tally.busy_seconds
    summary["self"]["op"] = op_seconds - totals["requests"]
    medians = service_load.kind_medians(untraced["clients"])
    unpinned = sum(client.unpinned for client in traced["clients"])
    extra = {
        "service.pinned_ms": medians.get("pinned", 0.0),
        "service.cached_ms": medians.get("cached", 0.0),
        "service.append_ms": medians.get("append", 0.0),
        "service.round_ms": medians.get("round", 0.0),
        "service.http_s": (op_seconds - totals["handler"]) / max(rounds, 1),
        "service.artifact_hits_per_unpinned": (
            summary["counts"].get("artifact_hits", 0) / unpinned
            if unpinned else 0.0
        ),
    }
    metrics = layers.layer_metrics(
        summary,
        rounds=rounds,
        workload="warm_service",
        op_seconds=op_seconds,
        untraced_seconds=untraced_tally.busy_seconds / max(untraced_rounds, 1),
        traced_seconds=op_seconds / max(rounds, 1),
        extra=extra,
    )
    return correct, everything, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import inputs

    workdir = make_workdir(args.workload)
    try:
        manifest = inputs.generate(args.workload, workdir, args.seed)
        if args.workload == "warm_service":
            correct, tally, metrics = run_service(
                manifest, workdir, args.seconds, args.trace
            )
        else:
            correct, tally, metrics = run_in_process(
                args.workload, workdir, args.seconds, args.trace
            )
    finally:
        remove_workdir(workdir)
    print_summary(args.workload, tally, metrics)
    print(result_line(correct, tally, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
