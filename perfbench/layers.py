"""Per-layer metrics of a traced run.

Every traced run prints all of :data:`PER_LAYER`, each normalized *per
round* (one round is the fixed set of operations a workload repeats;
see README.md), so runs of different lengths are comparable and work
counts of one seed repeat exactly.  Layers a workload does not reach
read 0.
"""

from __future__ import annotations

from common import metric
from tracing import ENTRY_SPANS

#: (name, unit, better) for every per-layer metric.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("dataset.parse_s", "s", "lower"),
    ("dataset.serialize_s", "s", "lower"),
    ("dataset.missing_scan_s", "s", "lower"),
    ("discovery.matrix_s", "s", "lower"),
    ("discovery.lattice_s", "s", "lower"),
    ("discovery.incremental_s", "s", "lower"),
    ("discovery.pairs", "count", "lower"),
    ("discovery.rfds", "count", "higher"),
    ("distance.vector_s", "s", "lower"),
    ("distance.levenshtein_calls", "count", "lower"),
    ("distance.levenshtein_length_filtered", "count", "higher"),
    ("distance.vector_builds", "count", "lower"),
    ("distance.vector_cache_hits", "count", "higher"),
    ("core.impute_s", "s", "lower"),
    ("core.keyness_s", "s", "lower"),
    ("core.scan_s", "s", "lower"),
    ("core.verify_s", "s", "lower"),
    ("core.cells", "count", "higher"),
    ("core.imputed", "count", "higher"),
    ("core.imputed_ratio", "ratio", "higher"),
    ("core.candidates_tried", "count", "lower"),
    ("index.probe_s", "s", "lower"),
    ("index.builds", "count", "lower"),
    ("index.probes", "count", "lower"),
    ("index.served_probes", "count", "higher"),
    ("index.served_ratio", "ratio", "higher"),
    ("index.fallbacks", "count", "lower"),
    ("index.pruned_pairs", "count", "higher"),
    ("service.pinned_ms", "ms", "lower"),
    ("service.cached_ms", "ms", "lower"),
    ("service.append_ms", "ms", "lower"),
    ("service.round_ms", "ms", "lower"),
    ("service.handler_s", "s", "lower"),
    ("service.server_s", "s", "lower"),
    ("service.http_s", "s", "lower"),
    ("service.artifact_load_s", "s", "lower"),
    ("service.artifact_hits", "count", "higher"),
    ("service.artifact_hits_per_unpinned", "ratio", "higher"),
    ("service.persist_s", "s", "lower"),
    ("service.persist_bytes", "bytes", "lower"),
    ("pipeline.run_s", "s", "lower"),
    ("pipeline.load_s", "s", "lower"),
    ("pipeline.commit_s", "s", "lower"),
    ("pipeline.state_s", "s", "lower"),
    ("pipeline.artifacts_s", "s", "lower"),
    ("pipeline.bytes_written", "bytes", "lower"),
    ("utils.fingerprint_s", "s", "lower"),
    ("utils.fingerprint_calls", "count", "lower"),
    ("utils.atomic_write_s", "s", "lower"),
    ("robustness.journal_s", "s", "lower"),
    ("telemetry.export_s", "s", "lower"),
    ("trace.rounds", "rounds", "higher"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Span names whose self time is reported as ``<name>_s``
#: (``service.http_s`` is client latency minus handler time, no span).
TIMED_SPANS = tuple(
    name[:-2] for name, unit, _ in PER_LAYER
    if unit == "s" and name[:-2] not in ("service.http",)
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    summary: dict,
    *,
    rounds: int,
    workload: str,
    op_seconds: float,
    untraced_seconds: float,
    traced_seconds: float,
    extra: dict[str, float] | None = None,
) -> dict[str, dict]:
    """Per-round per-layer metrics from a :func:`tracing.summarize`
    result.

    ``op_seconds`` is the traced operations' total latency;
    ``untraced_seconds`` and ``traced_seconds`` are the per-round busy
    times of the untraced and traced rounds, whose ratio is the
    tracing overhead.  ``extra`` supplies values measured outside the
    span tree (client-side latencies of the service).
    """
    per_round = max(rounds, 1)
    self_time = summary["self"]
    counts = dict(summary["counts"])
    if workload == "pipeline_incr":
        counts["pipeline.bytes_written"] = counts.get("bytes_written", 0)
    if workload == "warm_service":
        counts["service.artifact_hits"] = counts.get("artifact_hits", 0)
    values: dict[str, float] = {}
    for name in TIMED_SPANS:
        values[f"{name}_s"] = self_time.get(name, 0.0) / per_round
    for name, unit, _ in PER_LAYER:
        if unit in ("count", "bytes") and name not in values:
            values[name] = counts.get(name, 0) / per_round
    values["core.imputed_ratio"] = _ratio(
        counts.get("core.imputed", 0), counts.get("core.cells", 0)
    )
    values["index.served_ratio"] = _ratio(
        counts.get("index.served_probes", 0), counts.get("index.probes", 0)
    )
    # Entry spans are named, but their self time is glue between layers
    # (orchestration, HTTP framing): count it as unattributed.
    unattributed = self_time.get("op", 0.0) + sum(
        self_time.get(name, 0.0) for name in ENTRY_SPANS
    )
    values["trace.coverage_pct"] = 100.0 * _ratio(
        op_seconds - unattributed, op_seconds
    )
    values["trace.overhead_pct"] = 100.0 * (
        _ratio(traced_seconds, untraced_seconds) - 1.0
    )
    values["trace.rounds"] = float(rounds)
    values.update(extra or {})
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {
        name: metric(values.get(name, 0.0), units[name])
        for name, _, _ in PER_LAYER
    }
