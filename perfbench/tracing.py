"""The traced mode: spans around each layer's public functions.

The wrappers live here, in the benchmark, and are installed by patching
the program's modules and classes after import (:func:`install`) and
removed again by :func:`uninstall`.  Spans (name, start, end, parent and
optional work counts) are kept in memory by a :class:`Recorder` and
summarized when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.

Per-pair hot functions (``levenshtein_bounded``) are not wrapped: their
work is read from the program's own counters (``BOUNDED_STATS``,
``ImputationReport.kernel_counters``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

#: Name of the span the benchmark opens around each timed operation.
OP = "op"

#: Layer spans whose self time is the work of an entry point calling
#: into other layers (orchestration, HTTP framing).  Their self time is
#: reported like every other layer's but does not count as attributed.
ENTRY_SPANS = ("pipeline.run", "service.server")


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] | None = None

    def count(self, key: str, amount: float) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + amount


class Recorder:
    """In-memory span store; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()


def _post_discover(span: Span, args, result) -> None:
    span.count("discovery.pairs", result.n_pairs)
    span.count("discovery.rfds", len(result.rfds))


#: ``kernel_counters`` keys read into per-layer counts.
KERNEL_COUNTS = {
    "vector_builds": "distance.vector_builds",
    "vector_cache_hits": "distance.vector_cache_hits",
    "index_builds": "index.builds",
    "index_probes": "index.probes",
    "index_served_probes": "index.served_probes",
    "index_fallbacks": "index.fallbacks",
    "index_pruned_pairs": "index.pruned_pairs",
}


def _post_impute(span: Span, args, result) -> None:
    report = result.report
    span.count("core.cells", report.missing_count)
    span.count("core.imputed", report.imputed_count)
    span.count(
        "core.candidates_tried",
        sum(outcome.candidates_tried for outcome in report.outcomes),
    )
    for key, name in KERNEL_COUNTS.items():
        span.count(name, report.kernel_counters.get(key, 0))


def _post_artifact_load(span: Span, args, result) -> None:
    span.count("artifact_hits", 0 if result is None else 1)


def _post_persist(span: Span, args, result) -> None:
    store, session_id = args[0], args[1]
    try:
        span.count("service.persist_bytes",
                   store.path_for(session_id).stat().st_size)
    except OSError:
        pass


def _post_fingerprint(span: Span, args, result) -> None:
    span.count("utils.fingerprint_calls", 1)


def _post_atomic_write(span: Span, args, result) -> None:
    span.count("bytes_written", len(args[1].encode("utf-8")))


_ENGINES = (
    "repro.core.donor_scan:ScalarEngine",
    "repro.core.donor_scan:VectorizedEngine",
    "repro.core.blocked:BlockedEngine",
)
_CELL_SCANS = (
    "repro.core.donor_scan:_ScalarCellScan",
    "repro.core.donor_scan:_VectorizedCellScan",
    "repro.core.blocked:_BlockedCellScan",
)
_JOURNAL_WRITES = (
    "write_header", "record_cell", "record_degradation",
    "record_reactivation", "record_budget", "record_end", "close",
)
_ARTIFACT_CALLS = ("load_discovery", "save_discovery",
                   "load_matrix", "save_matrix")


def layer_table(workload: str) -> list[tuple[str, str, Callable | None]]:
    """``(span name, target, post-hook)`` for every wrapped function.

    A target is ``module:function`` or ``module:Class.method``; a
    method inherited from another program class is wrapped only where
    it is defined (one method inherited from the standard library,
    ``finish_request``, is wrapped on the program's server class).
    """
    artifacts = (
        "service.artifact_load" if workload == "warm_service"
        else "pipeline.artifacts"
    )
    table: list[tuple[str, str, Callable | None]] = [
        ("dataset.parse", "repro.dataset.csv_io:read_csv", None),
        ("dataset.parse", "repro.dataset.csv_io:read_csv_text", None),
        ("dataset.serialize", "repro.dataset.csv_io:to_csv_text", None),
        ("dataset.serialize", "repro.dataset.csv_io:write_csv", None),
        ("dataset.missing_scan",
         "repro.dataset.relation:Relation.incomplete_rows", None),
        ("dataset.missing_scan",
         "repro.dataset.relation:Relation.missing_cells", None),
        ("discovery.matrix",
         "repro.discovery.pattern_matrix:PairDistanceMatrix.__init__", None),
        ("discovery.lattice", "repro.discovery.dime:discover_rfds",
         _post_discover),
        ("discovery.incremental",
         "repro.discovery.incremental:IncrementalDiscovery.insert", None),
        ("distance.vector",
         "repro.distance.kernels:DonorScanKernels.vector", None),
        ("distance.vector",
         "repro.distance.kernels:DonorScanKernels.subset_vector", None),
        ("core.impute", "repro.core.renuver:Renuver.impute", _post_impute),
        ("index.probe", "repro.index.plan:IndexPlan.candidate_rows", None),
        ("service.server",
         "repro.service.http:ImputationHTTPServer.finish_request", None),
        ("service.handler",
         "repro.service.engine:PreparedEngine.impute_once", None),
        ("service.handler",
         "repro.service.engine:PreparedEngine.open_session", None),
        ("service.handler",
         "repro.service.engine:PreparedEngine.prepare_rfds", None),
        ("service.handler",
         "repro.service.sessions:ServiceSession.append", None),
        ("service.handler",
         "repro.service.sessions:ServiceSession.impute", None),
        ("service.persist",
         "repro.service.durability:SessionStore.save", _post_persist),
        ("pipeline.run", "repro.pipeline.runner:Pipeline.run", None),
        ("pipeline.load",
         "repro.pipeline.reconcile:load_store_relation", None),
        ("pipeline.load", "repro.pipeline.ingest:batch_rows", None),
        ("pipeline.load", "repro.pipeline.ingest:load_combined", None),
        ("pipeline.commit", "repro.pipeline.reconcile:commit_store", None),
        ("pipeline.state", "repro.pipeline.state:RunStateStore.load", None),
        ("pipeline.state", "repro.pipeline.state:RunStateStore.save", None),
        ("utils.fingerprint",
         "repro.utils.fingerprint:relation_fingerprint", _post_fingerprint),
        ("utils.atomic_write", "repro.utils.atomic:atomic_write_text",
         _post_atomic_write),
        ("robustness.journal", "repro.robustness.journal:replay_journal",
         None),
        ("telemetry.export",
         "repro.pipeline.runs:RunDirectory.export_telemetry", None),
    ]
    for engine in _ENGINES:
        table += [
            ("core.keyness", f"{engine}.partition_key_rfds", None),
            ("core.scan", f"{engine}.cell_scan", None),
            ("core.verify", f"{engine}.is_faultless", None),
        ]
    table += [("core.scan", f"{scan}.candidates", None)
              for scan in _CELL_SCANS]
    table += [
        ("robustness.journal",
         f"repro.robustness.journal:JournalWriter.{name}", None)
        for name in _JOURNAL_WRITES
    ]
    for name in _ARTIFACT_CALLS:
        post = _post_artifact_load if name == "load_discovery" else None
        table.append(
            (artifacts, f"repro.service.artifacts:ArtifactStore.{name}",
             post)
        )
    return table


class Installation:
    """The patches made by :func:`install`, undone by :func:`uninstall`."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []


def _wrap(recorder: Recorder, original, name: str, post):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if post is not None:
            post(span, args, result)
        return result

    return wrapper


def install(recorder: Recorder, workload: str) -> Installation:
    """Wrap every function of :func:`layer_table` in place.

    Module-level functions are replaced in every loaded ``repro``
    module that bound them by name, so ``from x import f`` call sites
    see the wrapper too.
    """
    installation = Installation()
    for name, target, post in layer_table(workload):
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, method = qualname.split(".")
            owner = getattr(module, class_name)
            definer = next(cls for cls in owner.__mro__
                           if method in cls.__dict__)
            if definer is not owner and definer.__module__.startswith(
                "repro"
            ):
                continue  # inherited: wrapped on the defining class
            original = definer.__dict__[method]
            installation.patches.append((owner, method, original))
            setattr(owner, method, _wrap(recorder, original, name, post))
            continue
        original = getattr(module, qualname)
        wrapper = _wrap(recorder, original, name, post)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    installation.patches.append((loaded, attribute, value))
                    setattr(loaded, attribute, wrapper)
    return installation


def uninstall(installation: Installation) -> None:
    for owner, attribute, original in reversed(installation.patches):
        setattr(owner, attribute, original)
    installation.patches.clear()


def import_layers() -> None:
    """Import every module :func:`layer_table` names, so installation
    sees all call sites."""
    for _, target, _ in layer_table("any"):
        importlib.import_module(target.split(":")[0])


def summarize(
    spans: Iterable[Span], *, start: float = float("-inf"),
    end: float = float("inf"),
) -> dict:
    """Self time and counts per span name, for spans opened in
    ``[start, end]``; ``op`` spans are the benchmark's own."""
    selected = [span for span in spans if start <= span.start <= end]
    child_time: dict[int, float] = {}
    for span in selected:
        if span.parent is not None:
            key = id(span.parent)
            child_time[key] = child_time.get(key, 0.0) + (
                span.end - span.start
            )
    self_time: dict[str, float] = {}
    counts: dict[str, float] = {}
    for span in selected:
        duration = span.end - span.start
        own = duration - child_time.get(id(span), 0.0)
        self_time[span.name] = self_time.get(span.name, 0.0) + own
        for key, amount in (span.counts or {}).items():
            counts[key] = counts.get(key, 0) + amount
    return {"self": self_time, "counts": counts}


def write_spans(spans: Iterable[Span], path: Path) -> None:
    """Dump spans as JSON lines (used by the traced server launcher)."""
    index = {}
    with path.open("w", encoding="utf-8") as handle:
        for number, span in enumerate(spans):
            index[id(span)] = number
            handle.write(json.dumps([
                span.name, span.start, span.end,
                index.get(id(span.parent)) if span.parent else None,
                span.counts,
            ]) + "\n")


def read_spans(path: Path) -> list[Span]:
    spans: list[Span] = []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            name, start, end, parent, counts = json.loads(line)
            span = Span(name, start, spans[parent] if parent is not None
                        else None)
            span.end = end
            span.counts = counts
            spans.append(span)
    return spans
