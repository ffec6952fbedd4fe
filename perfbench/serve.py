"""Traced server launcher for the warm_service workload.

Installs the layer wrappers of ``tracing.py``, then runs the program's
own ``serve`` command in this process (which calls ``build_server``),
so the server is the one users start with ``python -m repro serve``.
When the server drains after SIGTERM, the spans, the program's
Levenshtein counters sampled at each request's start and end, and the
process's peak RSS are written to the given files.

Usage: ``python3 perfbench/serve.py --artifact-dir DIR --spans FILE
--stats FILE``.
"""

from __future__ import annotations

import argparse
import functools
import json
import time
from pathlib import Path

import tracing
from common import peak_rss_mb, require_checkout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact-dir", required=True)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--stats", required=True, type=Path)
    args = parser.parse_args()
    require_checkout()
    from repro import cli
    from repro.distance.levenshtein import BOUNDED_STATS
    from repro.service.http import ImputationHTTPServer

    tracing.import_layers()
    recorder = tracing.Recorder()
    tracing.install(recorder, "warm_service")
    samples: list[tuple[float, int, int]] = []
    handled = ImputationHTTPServer.finish_request

    @functools.wraps(handled)
    def sampled(self, *call_args, **kwargs):
        samples.append((time.perf_counter(), *BOUNDED_STATS.snapshot()))
        try:
            return handled(self, *call_args, **kwargs)
        finally:
            samples.append((time.perf_counter(), *BOUNDED_STATS.snapshot()))

    ImputationHTTPServer.finish_request = sampled
    code = cli.main([
        "serve", "--port", "0", "--artifact-dir", args.artifact_dir,
    ])
    tracing.write_spans(recorder.spans, args.spans)
    args.stats.write_text(json.dumps({
        "peak_rss_mb": peak_rss_mb(),
        "levenshtein_samples": samples,
    }), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
