"""Seeded input generation for each workload.

Inputs are made in the benchmark's parent process, before any timed or
set-up work, and written into the run's work directory as CSV text plus
a ``manifest.json``.  The same ``--seed`` gives byte-identical inputs.

The tuples come from the program's builtin generators at fixed
generator seeds (the instances users get from ``load_dataset``), so
every run does the same amount of work; ``--seed`` chooses which cells
are made missing, the discovery pair sample, the appended blanks and
the check samples.  The generators are used as data sources only;
their time is not reported.
"""

from __future__ import annotations

import csv
import io
import json
import random
from pathlib import Path

from checks import outcome_dict

#: Builtin generators at the paper's sizes, except physician, which the
#: cold path runs at a few hundred tuples (discovery over the paper's
#: 2,072 tuples takes minutes).
COLD_DATASETS = {
    "restaurant": None, "cars": None, "glass": None, "bridges": None,
    "physician": 300,
}
COLD_MISSING_RATE = 0.03
#: The sampled-discovery operation: a restaurant instance large enough
#: that the all-pairs list dominates memory, capped at ``SAMPLED_PAIRS``.
SAMPLED_TUPLES = 3000
SAMPLED_PAIRS = 20_000

#: warm_service: restaurant instances of ``SERVICE_TUPLES`` rows.
SERVICE_TUPLES = 300
SERVICE_PINNED_INSTANCES = 6
SERVICE_PINNED_PER_CYCLE = 3
SERVICE_APPEND_ROWS = 3
SERVICE_CYCLES = 3          # cycles per session (one connection round)
SERVICE_APPEND_BLANKS = 2   # cells blanked per appended batch

#: pipeline_incr: base batch, then ``INCR_RUNS`` batches per round.
PIPELINE_BASE_ROWS = 300
PIPELINE_BATCH_ROWS = 5
PIPELINE_INCR_RUNS = 20
PIPELINE_MISSING_RATE = 0.05

#: large_blocked: a physician instance of ``BLOCKED_SCALE`` x 1,000
#: tuples (blocking engages at >= 5,000), ``BLOCKED_PASSES`` passes per
#: round, each blanking ``BLOCKED_CELLS`` distinct cells.  At this size
#: a run fits 40+ passes, so ``op_tail_ms`` is a real tail.
BLOCKED_SCALE = 10
BLOCKED_PASSES = 4
BLOCKED_CELLS = 200
#: The hand-written physician RFD set of benchmarks/bench_blocking.py
#: (exact, banded-Levenshtein and numeric-window constraints, so all
#: three index kinds are built), kept here so the benchmark's inputs
#: do not move when that feature bench changes.
BLOCKED_RFDS = (
    "Zip(<=0) -> City(<=0)",
    "Zip(<=0) -> State(<=0)",
    "OrgId(<=0) -> Street(<=0)",
    "OrgId(<=0) -> Zip(<=0)",
    "Organization(<=1) -> City(<=2)",
    "Street(<=1) -> Zip(<=2)",
    "Street(<=1) -> City(<=2)",
    "OrgId(<=0), GradYear(<=1) -> YearsExperience(<=1)",
)
BLOCKED_ATTRIBUTES = ("City", "State", "Street", "Zip", "YearsExperience")


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    records = list(csv.reader(io.StringIO(text)))
    return records[0], records[1:]


def rows_text(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text, encoding="utf-8")
    return name


def _sub_seed(seed: int, label: str) -> int:
    return random.Random(f"{seed}:{label}").randrange(2**31)


def blank(rows: list[list[str]], columns, per_column: int,
          rng: random.Random) -> list[tuple[int, int]]:
    """Blank ``per_column`` present cells of each column, rows drawn by
    ``rng``; returns the blanked ``(row, column)`` cells.

    Equal counts per column keep the work of a run nearly independent
    of the seed: attributes differ widely in imputation cost, so a
    free draw over all cells would move the timings with the seed.
    """
    cells = []
    for column in columns:
        present = [r for r, row in enumerate(rows) if row[column] != ""]
        for row in rng.sample(present, min(per_column, len(present))):
            rows[row][column] = ""
            cells.append((row, column))
    return cells


def dirty_text(relation, rate: float, rng: random.Random
               ) -> tuple[str, int]:
    """``relation`` as CSV with ``rate`` of each column's cells blanked."""
    from repro.dataset import to_csv_text

    header, rows = csv_rows(to_csv_text(relation))
    per_column = max(1, round(rate * len(rows)))
    cells = blank(rows, range(len(header)), per_column, rng)
    return rows_text(header, rows), len(cells)


def cold_batch(workdir: Path, seed: int) -> dict:
    from repro import load_dataset
    from repro.dataset import to_csv_text

    datasets = []
    for name, n_tuples in COLD_DATASETS.items():
        text, cells = dirty_text(
            load_dataset(name, n_tuples=n_tuples), COLD_MISSING_RATE,
            random.Random(_sub_seed(seed, name)),
        )
        datasets.append({
            "name": name,
            "csv": _write(workdir, f"{name}.csv", text),
            "cells": cells,
        })
    sampled = load_dataset("restaurant", n_tuples=SAMPLED_TUPLES)
    return {
        "datasets": datasets,
        "sampled": {
            "csv": _write(workdir, "sampled.csv", to_csv_text(sampled)),
            "max_pairs": SAMPLED_PAIRS,
            "seed": _sub_seed(seed, "pair-sample"),
        },
        "check_seed": _sub_seed(seed, "check"),
    }


def large_blocked(workdir: Path, seed: int) -> dict:
    from repro.dataset import to_csv_text
    from repro.datasets.physician import generate_physician

    clean = generate_physician(1000, seed=0, scale=BLOCKED_SCALE)
    text = to_csv_text(clean)
    header, rows = csv_rows(text)
    columns = [header.index(name) for name in BLOCKED_ATTRIBUTES]
    passes = []
    for number in range(BLOCKED_PASSES):
        cells = blank([list(row) for row in rows], columns,
                      BLOCKED_CELLS // len(columns),
                      random.Random(_sub_seed(seed, f"pass-{number}")))
        passes.append([[row, header[column]]
                       for row, column in sorted(cells)])
    return {
        "csv": _write(workdir, "physician.csv", text),
        "rfds": list(BLOCKED_RFDS),
        "passes": passes,
        "n_tuples": clean.n_tuples,
    }


def pipeline_incr(workdir: Path, seed: int) -> dict:
    from repro import load_dataset
    from repro.dataset import to_csv_text

    total = PIPELINE_BASE_ROWS + PIPELINE_BATCH_ROWS * PIPELINE_INCR_RUNS
    header, rows = csv_rows(to_csv_text(load_dataset("restaurant",
                                                     n_tuples=total)))
    rng = random.Random(_sub_seed(seed, "missing"))
    base = rows[:PIPELINE_BASE_ROWS]
    blank(base, range(len(header)),
          round(PIPELINE_MISSING_RATE * len(base)), rng)
    batches = []
    for number in range(PIPELINE_INCR_RUNS):
        start = PIPELINE_BASE_ROWS + number * PIPELINE_BATCH_ROWS
        chunk = rows[start:start + PIPELINE_BATCH_ROWS]
        # Two blanks per batch, on attributes taken in turn.
        columns = [(2 * number + k) % len(header) for k in range(2)]
        cells = blank(chunk, columns, 1, rng)
        batches.append({
            "csv": _write(workdir, f"batch-{number + 1:06d}.csv",
                          rows_text(header, chunk)),
            "cells": len(cells),
        })
    return {
        "base": _write(workdir, "base.csv", rows_text(header, base)),
        "batches": batches,
    }


def warm_service(workdir: Path, seed: int) -> dict:
    """Restaurant instances, the pinned RFD set discovered on the first
    one, the expected reply CSVs (in-process imputation), a pre-filled
    artifact directory and the rows each session appends."""
    from repro import (
        DiscoveryConfig, Renuver, discover_rfds, load_dataset,
        read_csv_text,
    )
    from repro.dataset import to_csv_text
    from repro.service.artifacts import ArtifactStore

    instances = [
        dirty_text(
            load_dataset("restaurant", n_tuples=SERVICE_TUPLES, seed=number),
            COLD_MISSING_RATE,
            random.Random(_sub_seed(seed, f"instance-{number}")),
        )
        for number in range(SERVICE_PINNED_INSTANCES)
    ]
    config = DiscoveryConfig()
    base = read_csv_text(instances[0][0], name="request")
    discovery = discover_rfds(base, config)
    ArtifactStore(workdir / "artifacts").save_discovery(
        base, config, discovery
    )
    expected = []
    for text, _ in instances:
        relation = read_csv_text(text, name="request")
        result = Renuver(discovery.all_rfds).impute(relation)
        expected.append({
            "csv": to_csv_text(result.relation),
            "outcomes": [outcome_dict(o) for o in result.report.outcomes],
        })

    # Rows a session appends: fresh restaurant tuples with a few blanks.
    extra = load_dataset(
        "restaurant",
        n_tuples=SERVICE_APPEND_ROWS * SERVICE_CYCLES,
        seed=SERVICE_PINNED_INSTANCES,
    )
    header, rows = csv_rows(to_csv_text(extra))
    rng = random.Random(_sub_seed(seed, "append-blanks"))
    appends = []
    for cycle in range(SERVICE_CYCLES):
        chunk = [list(row) for row in rows[
            cycle * SERVICE_APPEND_ROWS:(cycle + 1) * SERVICE_APPEND_ROWS
        ]]
        columns = [(SERVICE_APPEND_BLANKS * cycle + k) % len(header)
                   for k in range(SERVICE_APPEND_BLANKS)]
        blank(chunk, columns, 1, rng)
        appends.append(chunk)
    return {
        "instances": [
            {"csv": _write(workdir, f"instance-{n}.csv", text),
             "cells": cells,
             "expected": _write(workdir, f"expected-{n}.json",
                                json.dumps(expected[n]))}
            for n, (text, cells) in enumerate(instances)
        ],
        "rfds": [str(rfd) for rfd in discovery.all_rfds],
        "header": header,
        "appends": appends,
    }


GENERATORS = {
    "cold_batch": cold_batch,
    "warm_service": warm_service,
    "pipeline_incr": pipeline_incr,
    "large_blocked": large_blocked,
}


def generate(workload: str, workdir: Path, seed: int) -> dict:
    manifest = GENERATORS[workload](workdir, seed)
    (workdir / "manifest.json").write_text(json.dumps(manifest),
                                           encoding="utf-8")
    return manifest
