"""One process of an in-process workload: cold_batch, pipeline_incr or
large_blocked.

``run.py`` starts this script ``SETUP_REPEATS`` times per run.  Each
process imports the program and does the workload's set-up, timing both
(``setup_s``); all but the last stop there.  The last one then repeats
whole rounds of the workload's operations until ``--seconds`` have
passed, checking every output, and prints one JSON line.

With ``--trace 1`` rounds alternate untraced and traced (wrappers from
``tracing.py`` installed); the traced rounds give the per-layer
metrics and the busy-time ratio of the two kinds is the overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import time
from pathlib import Path

import checks
import tracing
from common import Tally, peak_rss_mb, require_checkout, run_op

#: Tuple pairs sampled by the RFD-holds check of each cold operation.
CHECK_PAIRS = 300


class Traced:
    """Op-span and counter bookkeeping for one traced round."""

    def __init__(self, recorder: tracing.Recorder, stats) -> None:
        self.recorder = recorder
        self.stats = stats

    def wrap(self, operation):
        def traced():
            calls, filtered = self.stats.snapshot()
            span = self.recorder.open(tracing.OP)
            try:
                return operation()
            finally:
                self.recorder.close(span)
                after_calls, after_filtered = self.stats.snapshot()
                span.count("distance.levenshtein_calls", after_calls - calls)
                span.count("distance.levenshtein_length_filtered",
                           after_filtered - filtered)
        return traced


class ColdBatch:
    """The CLI's cold path on each builtin generator, plus one sampled
    discovery on a large restaurant instance."""

    def __init__(self, manifest: dict, workdir: Path) -> None:
        self.manifest = manifest
        self.texts = {
            entry["name"]: (workdir / entry["csv"]).read_text("utf-8")
            for entry in manifest["datasets"]
        }
        self.sampled_text = (
            workdir / manifest["sampled"]["csv"]
        ).read_text("utf-8")

    def setup(self) -> bool:
        return True  # the import of the program is the whole set-up

    def round(self, tally: Tally, traced: Traced | None) -> None:
        import repro
        import repro.dataset

        for entry in self.manifest["datasets"]:
            text = self.texts[entry["name"]]

            def operation(text=text, name=entry["name"]):
                relation = repro.read_csv_text(text, name=name)
                discovery = repro.discover_rfds(
                    relation, repro.DiscoveryConfig()
                )
                result = repro.Renuver(discovery.all_rfds).impute(relation)
                return discovery, result, repro.dataset.to_csv_text(
                    result.relation
                )

            def check(output, text=text):
                discovery, result, out = output
                before = checks.Table.from_csv(text)
                after = checks.Table.from_csv(out, before.kinds)
                checks.check_cells(before, after, [
                    checks.outcome_dict(o) for o in result.report.outcomes
                ])
                if not discovery.exact:
                    raise checks.CheckFailed("exact discovery sampled pairs")
                checks.check_rfds_hold(
                    before, [str(rfd) for rfd in discovery.rfds],
                    pairs=CHECK_PAIRS, seed=self.manifest["check_seed"],
                )

            run_op(tally, entry["cells"], _traced(traced, operation), check)

        sampled = self.manifest["sampled"]

        def sampled_op():
            relation = repro.read_csv_text(self.sampled_text, name="sampled")
            return repro.discover_rfds(relation, repro.DiscoveryConfig(
                max_pairs=sampled["max_pairs"], seed=sampled["seed"],
            ))

        def sampled_check(discovery):
            checks.check_sampled(
                discovery.n_pairs, discovery.exact, sampled["max_pairs"]
            )

        run_op(tally, 0, _traced(traced, sampled_op), sampled_check)

    def close(self) -> None:
        pass


class PipelineIncr:
    """A pipeline bootstrapped by one FULL run, then rounds of INCR runs
    each ingesting one small batch.  Every round restarts from a copy
    of the bootstrapped root, so rounds repeat the same work."""

    def __init__(self, manifest: dict, workdir: Path) -> None:
        self.manifest = manifest
        self.workdir = workdir
        self.base_text = (workdir / manifest["base"]).read_text("utf-8")
        self.batches = [
            (workdir / batch["csv"]).read_text("utf-8")
            for batch in manifest["batches"]
        ]
        self.home = workdir / f"pipeline-{os.getpid()}"
        self.rounds = 0

    def setup(self) -> bool:
        from repro.pipeline import Pipeline

        ingest = self.home / "ingest"
        ingest.mkdir(parents=True)
        (ingest / "batch-000000.csv").write_text(self.base_text, "utf-8")
        result = Pipeline(self.home / "root", ingest).run()
        base_rows = len(checks.Table.from_csv(self.base_text).rows)
        return (result.mode == "full" and result.outcome == "committed"
                and result.rows_ingested == base_rows)

    def _store(self, root: Path, version: int) -> checks.Table:
        path = root / "store" / f"imputed-{version:06d}.csv"
        return checks.Table.from_csv(path.read_text("utf-8"))

    def round(self, tally: Tally, traced: Traced | None) -> None:
        from repro.pipeline import Pipeline

        self.rounds += 1
        home = self.workdir / f"round-{self.rounds}"
        shutil.copytree(self.home, home)
        pipeline = Pipeline(home / "root", home / "ingest")
        state = {"store": self._store(home / "root", 1)}
        for number, (text, batch) in enumerate(
            zip(self.batches, self.manifest["batches"]), start=1
        ):
            (home / "ingest" / f"batch-{number:06d}.csv").write_text(
                text, "utf-8"
            )
            incoming = checks.Table.from_csv(text)

            def check(result, incoming=incoming):
                if result.mode != "incr" or result.discovered:
                    raise checks.CheckFailed(
                        f"run {result.run_id} ran {result.mode} "
                        f"(discovered={result.discovered}, degraded="
                        f"{result.degraded_reason})"
                    )
                if result.rows_ingested != len(incoming.rows):
                    raise checks.CheckFailed(
                        f"run {result.run_id} ingested "
                        f"{result.rows_ingested} rows, batch has "
                        f"{len(incoming.rows)}"
                    )
                store = self._store(home / "root", result.store_version)
                checks.check_store_growth(state["store"], incoming, store)
                state["store"] = store

            run_op(tally, batch["cells"], _traced(traced, pipeline.run),
                   check)
        shutil.rmtree(home, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.home, ignore_errors=True)


class LargeBlocked:
    """Repeated imputation passes over one large physician instance,
    where the default config engages the blocking indexes."""

    def __init__(self, manifest: dict, workdir: Path) -> None:
        self.manifest = manifest
        self.text = (workdir / manifest["csv"]).read_text("utf-8")
        self.kinds = checks.Table.from_csv(self.text).kinds
        self.relation = None

    def setup(self) -> bool:
        import repro

        self.relation = repro.read_csv_text(self.text, name="physician")
        return self.relation.n_tuples == self.manifest["n_tuples"]

    def round(self, tally: Tally, traced: Traced | None) -> None:
        import repro
        from repro.dataset import MISSING

        clean = self.relation
        header = list(clean.attribute_names)
        kinds = self.kinds
        before_rows = [clean.row_values(r) for r in range(clean.n_tuples)]
        rfds = [repro.parse_rfd(text) for text in self.manifest["rfds"]]
        for cells in self.manifest["passes"]:
            dirty = clean.copy()
            for row, attribute in cells:
                dirty.set_value(row, attribute, MISSING)
            before_list = list(before_rows)
            for row, attribute in cells:
                values = list(before_list[row])
                values[header.index(attribute)] = MISSING
                before_list[row] = tuple(values)
            before = checks.Table(header, before_list, kinds, raw=True,
                                  missing=MISSING)

            def operation(dirty=dirty):
                return repro.Renuver(rfds).impute(dirty, inplace=True)

            def check(result, before=before):
                out = result.relation
                after = checks.Table(header, [
                    out.row_values(r) for r in range(out.n_tuples)
                ], kinds, raw=True, missing=MISSING)
                checks.check_cells(before, after, [
                    checks.outcome_dict(o) for o in result.report.outcomes
                ])

            run_op(tally, len(cells), _traced(traced, operation), check)

    def close(self) -> None:
        pass


WORKLOADS = {
    "cold_batch": ColdBatch,
    "pipeline_incr": PipelineIncr,
    "large_blocked": LargeBlocked,
}


def _traced(traced: Traced | None, operation):
    return operation if traced is None else traced.wrap(operation)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    manifest = json.loads((args.workdir / "manifest.json").read_text())
    workload = WORKLOADS[args.workload](manifest, args.workdir)

    start = time.perf_counter()
    require_checkout()
    import repro  # noqa: F401 - part of the timed set-up
    setup_ok = workload.setup()
    setup_seconds = time.perf_counter() - start
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_seconds, "setup_ok": setup_ok}))
        return 0

    recorder = tracing.Recorder()
    traced_helper = None
    if args.trace:
        from repro.distance.levenshtein import BOUNDED_STATS

        tracing.import_layers()
        traced_helper = Traced(recorder, BOUNDED_STATS)
    tallies = {False: Tally(), True: Tally()}
    rounds = {False: 0, True: 0}
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and rounds[False] > rounds[True]
        installation = (
            tracing.install(recorder, args.workload) if traced else None
        )
        try:
            workload.round(tallies[traced],
                           traced_helper if traced else None)
        finally:
            if installation is not None:
                tracing.uninstall(installation)
        rounds[traced] += 1
        balanced = not args.trace or rounds[False] == rounds[True]
        if time.perf_counter() >= deadline and balanced:
            break
    workload.close()

    payload = {
        "setup_s": setup_seconds,
        "setup_ok": setup_ok,
        "peak_rss_mb": peak_rss_mb(),
        "tallies": {
            "untraced": vars(tallies[False]),
            "traced": vars(tallies[True]),
        },
        "rounds": {"untraced": rounds[False], "traced": rounds[True]},
    }
    if args.trace:
        payload["summary"] = tracing.summarize(recorder.spans)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
