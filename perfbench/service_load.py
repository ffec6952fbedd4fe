"""The warm_service workload: a server process driven over HTTP.

The server runs in its own process (``python -m repro serve`` with an
artifact directory, or ``serve.py`` when traced); this process is the
client.  ``CLIENTS`` closed-loop connections each repeat whole rounds:
open a durable session over the cached base instance, run
``SERVICE_CYCLES`` cycles of

1. ``SERVICE_PINNED_PER_CYCLE`` pinned-RFD ``POST /v1/impute`` requests,
   each on the next of ``SERVICE_PINNED_INSTANCES`` instances,
2. an unpinned ``POST /v1/impute`` answered from the artifact cache,
3. a session ``POST .../tuples`` append,
4. a session ``POST .../impute`` round,

and delete the session.  Every reply is checked (see ``checks.py``).
Pinned requests are the majority so that the median request falls
inside one kind of request rather than on the edge between the slow
imputations and the fast session calls.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from common import (
    BENCH_DIR, ROOT, SETUP_REPEATS, Tally, child_env, proc_peak_rss_mb,
    run_op,
)
from inputs import SERVICE_CYCLES, SERVICE_PINNED_PER_CYCLE

CLIENTS = 2
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
_BANNER = re.compile(r"serving on http://127\.0\.0\.1:(\d+)")


class BootError(RuntimeError):
    """The server did not come up."""


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    spans: Path | None = None
    stats: Path | None = None

    def request(self, method: str, path: str, body: bytes | None = None):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=120
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self) -> float | None:
        """SIGTERM (the server drains), wait; returns the peak RSS."""
        peak = proc_peak_rss_mb(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.stats is not None and self.stats.exists():
            peak = json.loads(self.stats.read_text())["peak_rss_mb"]
        return peak


def boot(workdir: Path, number: int, traced: bool) -> Server:
    artifacts = workdir / f"artifacts-{number}"
    shutil.copytree(workdir / "artifacts", artifacts)
    log = workdir / f"server-{number}.log"
    spans = stats = None
    if traced:
        spans, stats = workdir / f"spans-{number}.jsonl", \
            workdir / f"stats-{number}.json"
        command = [sys.executable, str(BENCH_DIR / "serve.py"),
                   "--artifact-dir", str(artifacts),
                   "--spans", str(spans), "--stats", str(stats)]
    else:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--artifact-dir", str(artifacts)]
    with log.open("w", encoding="utf-8") as handle:
        process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=handle,
        )
    deadline = time.perf_counter() + BOOT_TIMEOUT
    while True:
        match = _BANNER.search(log.read_text(encoding="utf-8"))
        if match:
            break
        if process.poll() is not None or time.perf_counter() > deadline:
            if process.poll() is None:
                process.kill()
            process.wait()
            raise BootError(f"server did not start: "
                            f"{log.read_text(encoding='utf-8')[-2000:]}")
        time.sleep(0.005)
    server = Server(process, int(match.group(1)), spans, stats)
    while server.request("GET", "/healthz/ready")[0] != 200:
        if time.perf_counter() > deadline:
            server.stop()
            raise BootError("server never became ready")
        time.sleep(0.005)
    return server


@dataclass
class Client:
    """One closed-loop connection's state and tallies."""

    inputs: "Inputs"
    server: Server
    tally: Tally = field(default_factory=Tally)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    rounds: int = 0
    unpinned: int = 0

    def op(self, kind: str, method: str, path: str, payload, cells, check):
        body = None if payload is None else json.dumps(payload).encode()

        def operation():
            return self.server.request(method, path, body)

        def checked(reply):
            status, data = reply
            if not 200 <= status < 300:
                raise RuntimeError(f"{method} {path} answered {status}: "
                                   f"{data[:300]!r}")
            return check(json.loads(data))

        count = len(self.tally.latencies)
        result = run_op(self.tally, cells, operation, checked)
        if len(self.tally.latencies) > count:
            self.by_kind.setdefault(kind, []).append(
                self.tally.latencies[-1]
            )
        return result

    def round(self) -> None:
        data = self.inputs
        base = data.instances[0]
        created = {}

        def check_created(reply):
            if reply.get("rfd_source") != "cache":
                raise checks.CheckFailed(
                    f"session RFDs came from {reply.get('rfd_source')!r}"
                )
            created.update(reply)

        self.unpinned += 1
        self.op("create", "POST", "/v1/sessions",
                {"csv": base.csv, "name": "request"}, 0, check_created)
        if "id" not in created:
            return
        session = f"/v1/sessions/{created['id']}"
        model = checks.Table.from_csv(base.csv, data.kinds)
        for cycle in range(SERVICE_CYCLES):
            for step in range(SERVICE_PINNED_PER_CYCLE):
                pinned = data.instances[
                    (cycle * SERVICE_PINNED_PER_CYCLE + step)
                    % len(data.instances)
                ]
                self.op("pinned", "POST", "/v1/impute",
                        {"csv": pinned.csv, "rfds": data.rfds,
                         "name": "request"},
                        pinned.cells, _expect(pinned.expected, "provided"))
            self.unpinned += 1
            self.op("cached", "POST", "/v1/impute",
                    {"csv": base.csv, "name": "request"},
                    base.cells, _expect(base.expected, "cache"))
            rows = data.appends[cycle]
            first = len(model.rows)
            model = checks.Table(model.header, model.rows + rows,
                                 model.kinds)
            self.op("append", "POST", f"{session}/tuples",
                    {"rows": data.typed_rows(rows)}, 0,
                    _expect_rows(list(range(first, first + len(rows)))))
            pending = model_missing(model)
            state = {"model": model}

            def check_round(reply, state=state):
                after = checks.Table.from_csv(reply["csv"], data.kinds)
                checks.check_cells(state["model"], after, reply["outcomes"])
                state["model"] = after

            self.op("round", "POST", f"{session}/impute", {}, pending,
                    check_round)
            model = state["model"]
        self.op("delete", "DELETE", session, None, 0, lambda reply: None)
        self.rounds += 1


def model_missing(table: checks.Table) -> int:
    return sum(table.is_missing(cell) for row in table.rows for cell in row)


def _expect(expected: str, source: str):
    def check(reply):
        if reply.get("rfd_source") != source:
            raise checks.CheckFailed(
                f"rfd_source {reply.get('rfd_source')!r}, expected {source}"
            )
        if reply.get("csv") != expected:
            raise checks.CheckFailed(
                "reply CSV differs from the in-process imputation"
            )
    return check


def _expect_rows(rows: list[int]):
    def check(reply):
        if reply.get("rows") != rows:
            raise checks.CheckFailed(
                f"append placed rows {reply.get('rows')}, expected {rows}"
            )
    return check


@dataclass
class Instance:
    csv: str
    cells: int
    expected: str


class Inputs:
    def __init__(self, manifest: dict, workdir: Path) -> None:
        self.header = manifest["header"]
        self.rfds = manifest["rfds"]
        self.appends = manifest["appends"]
        self.instances = []
        self.setup_ok = True
        self.kinds = None
        for entry in manifest["instances"]:
            text = (workdir / entry["csv"]).read_text("utf-8")
            before = checks.Table.from_csv(text)
            self.kinds = self.kinds or before.kinds
            expected = json.loads((workdir / entry["expected"]).read_text())
            # The expected replies come from the program in-process; they
            # must pass the independent checks themselves.
            try:
                checks.check_cells(
                    before,
                    checks.Table.from_csv(expected["csv"], before.kinds),
                    expected["outcomes"],
                )
            except checks.CheckFailed as exc:
                print(f"expected reply fails its check: {exc}",
                      file=sys.stderr)
                self.setup_ok = False
            self.instances.append(
                Instance(text, entry["cells"], expected["csv"])
            )

    def typed_rows(self, rows: list[list[str]]) -> list[list]:
        return [
            [checks.typed(self.kinds[name], cell)
             for name, cell in zip(self.header, row)]
            for row in rows
        ]


def warm_up(server: Server, inputs: Inputs) -> None:
    """Per connection, one cached request (loads the artifact)."""
    base = inputs.instances[0]
    for _ in range(CLIENTS):
        status, data = server.request("POST", "/v1/impute", json.dumps(
            {"csv": base.csv, "name": "request"}
        ).encode())
        if status != 200 or json.loads(data)["rfd_source"] != "cache":
            raise BootError(f"warm-up request answered {status}")


def drive(server: Server, inputs: Inputs, seconds: float):
    """Run ``CLIENTS`` connections in lockstep rounds until ``seconds``
    pass; returns the clients and the window.

    The connections meet at a barrier after every round and decide
    together whether to start another, so every run interleaves the
    same rounds the same way and no connection runs alone at the end.
    """
    clients = [Client(inputs, server) for _ in range(CLIENTS)]
    start = time.perf_counter()
    deadline = start + seconds
    decision = {"stop": False}
    barrier = threading.Barrier(
        CLIENTS,
        action=lambda: decision.update(stop=time.perf_counter() >= deadline),
    )
    errors: list[BaseException] = []

    def loop(client: Client) -> None:
        try:
            while True:
                client.round()
                barrier.wait(timeout=BOOT_TIMEOUT + 120)
                if decision["stop"]:
                    return
        except threading.BrokenBarrierError:
            return
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=loop, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return clients, start, time.perf_counter()


def run(manifest: dict, workdir: Path, seconds: float, trace: bool) -> dict:
    inputs = Inputs(manifest, workdir)
    setups: list[float] = []
    phases: list[tuple[bool, float]] = (
        [(False, seconds / 2), (True, seconds / 2)] if trace
        else [(False, seconds)]
    )
    boots = max(SETUP_REPEATS, len(phases) + 1)
    result = {"setups": setups, "setup_ok": inputs.setup_ok, "phases": []}
    for number in range(boots):
        phase_index = number - (boots - len(phases))
        traced = phase_index >= 0 and phases[phase_index][0]
        start = time.perf_counter()
        server = boot(workdir, number, traced)
        try:
            warm_up(server, inputs)
            setups.append(time.perf_counter() - start)
            if phase_index < 0:
                continue
            clients, window_start, window_end = drive(
                server, inputs, phases[phase_index][1]
            )
        finally:
            peak = server.stop()
        result["phases"].append({
            "traced": traced,
            "clients": clients,
            "window": (window_start, window_end),
            "peak_rss_mb": peak,
            "server": server,
        })
    return result


def merged_tally(clients) -> Tally:
    tally = Tally()
    for client in clients:
        tally.merge(client.tally)
    return tally


def kind_medians(clients) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for client in clients:
        for kind, values in client.by_kind.items():
            by_kind.setdefault(kind, []).extend(values)
    return {kind: statistics.median(values) * 1e3
            for kind, values in by_kind.items()}


def server_layers(phase: dict) -> tuple[dict, dict[str, float]]:
    """Summarize a traced phase's server spans inside the window."""
    start, end = phase["window"]
    server: Server = phase["server"]
    spans = tracing.read_spans(server.spans)
    summary = tracing.summarize(spans, start=start, end=end)
    window_spans = [span for span in spans if start <= span.start <= end]
    requests = sum(span.end - span.start for span in window_spans
                   if span.name == "service.server")
    handler = sum(
        span.end - span.start for span in window_spans
        if span.name == "service.handler"
        and not _has_ancestor(span, "service.handler")
    )
    samples = [
        sample for sample in json.loads(
            server.stats.read_text())["levenshtein_samples"]
        if start <= sample[0] <= end
    ]
    if samples:
        summary["counts"]["distance.levenshtein_calls"] = (
            samples[-1][1] - samples[0][1]
        )
        summary["counts"]["distance.levenshtein_length_filtered"] = (
            samples[-1][2] - samples[0][2]
        )
    return summary, {"requests": requests, "handler": handler}


def _has_ancestor(span: tracing.Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False
