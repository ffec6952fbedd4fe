"""Shared plumbing of the benchmark: checkout layout, statistics, the
operation tally and the result line.

Nothing here imports ``repro``: the program is imported only where its
import is being timed (``worker.py``) or where inputs are generated
(``inputs.py``).
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The benchmark's own directory; the checkout root is its parent.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch space for one run's generated inputs and program state.  It
#: lives in the checkout (the benchmark writes nowhere else) and is
#: removed when the run ends.
WORK_ROOT = ROOT / ".perfbench_run"

#: Repeated set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
#: Below this many operations a run has no tail; ``op_tail_ms`` then
#: reports the slowest operation (see README.md).
TAIL_MIN_OPS = 4 * TAIL_BEYOND

WORKLOADS = ("cold_batch", "warm_service", "pipeline_incr", "large_blocked")


class CheckoutError(RuntimeError):
    """The benchmark was started outside a checkout with ``src/repro``."""


def require_checkout() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or refuse.

    The benchmark measures the program in the checkout it ships with;
    without ``src/repro`` there is nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no program sources at {SRC / 'repro'}; run the benchmark "
            f"from the root of a repository checkout"
        )
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: the checkout's sources
    first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def make_workdir(workload: str) -> Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run's directory is still there


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float | None:
    """Peak resident set size (``VmHWM``) of a live child, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def tail(values: list[float]) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it; the maximum when there are fewer than ``TAIL_MIN_OPS``."""
    ordered = sorted(values)
    if len(ordered) < TAIL_MIN_OPS:
        return ordered[-1]
    return ordered[len(ordered) - TAIL_BEYOND - 1]


class CheckFailed(AssertionError):
    """An operation's output failed an independent check."""


@dataclass
class Tally:
    """Operations attempted and failed, with the latencies of the ones
    that succeeded and the missing cells they attempted to impute."""

    attempted: int = 0
    failed: int = 0
    wrong_outputs: int = 0
    latencies: list[float] = field(default_factory=list)
    busy_seconds: float = 0.0
    cells: int = 0
    errors: list[str] = field(default_factory=list)

    def ok(self, seconds: float, cells: int) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.busy_seconds += seconds
        self.cells += cells

    def fail(self, seconds: float, cells: int, error: BaseException) -> None:
        """Count a failed operation; its time and cells still count
        toward throughput (the work was attempted)."""
        self.attempted += 1
        self.failed += 1
        self.busy_seconds += seconds
        self.cells += cells
        if isinstance(error, CheckFailed):
            self.wrong_outputs += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(error).__name__}: {error}")

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong_outputs += other.wrong_outputs
        self.latencies.extend(other.latencies)
        self.busy_seconds += other.busy_seconds
        self.cells += other.cells
        self.errors.extend(other.errors[: max(0, 5 - len(self.errors))])


def run_op(tally: Tally, cells: int, operation, check) -> object:
    """Time ``operation()``, then run ``check(result)`` off the clock.

    Any exception from either counts the operation as failed.  Returns
    the operation's result (``None`` when it failed).
    """
    start = time.perf_counter()
    try:
        result = operation()
    except Exception as exc:  # noqa: BLE001 - a failed op is counted
        tally.fail(time.perf_counter() - start, cells, exc)
        return None
    seconds = time.perf_counter() - start
    try:
        check(result)
    except Exception as exc:  # noqa: BLE001 - a failed check is counted
        tally.fail(seconds, cells, exc)
        return None
    tally.ok(seconds, cells)
    return result


def end_to_end(
    tally: Tally, setup_seconds: list[float], peak_mb: float,
    wall_seconds: float | None = None,
) -> dict[str, dict]:
    """The end-to-end metrics of one untraced run."""
    latencies = tally.latencies or [math.nan]
    wall = tally.busy_seconds if wall_seconds is None else wall_seconds
    return {
        "setup_s": metric(statistics.median(setup_seconds), "s"),
        "op_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": metric(tail(latencies) * 1e3, "ms"),
        "cells_per_s": metric(tally.cells / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": metric(peak_mb, "MiB"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(correct: bool, tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    })


def print_summary(workload: str, tally: Tally, metrics: dict) -> None:
    """Human-readable lines ahead of the JSON result line."""
    print(f"workload {workload}: {tally.attempted} operations attempted, "
          f"{tally.failed} failed")
    for error in tally.errors:
        print(f"  failure: {error}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    sys.stdout.flush()
