"""The three workloads.  Each is a closed loop with one caller.

``backfill-block``
    In-process catch-up replay through ``ResilientHotSpotService.submit_block``
    in 24-hour, day-aligned blocks, no checkpoint directory.  Nothing is
    written to disk and nothing crosses a process.
``live-fleet-http``
    The gateway over a supervised 2-shard fleet, launched in its own process
    (``launcher.py``) with a checkpoint directory and the default 168-hour
    snapshot cadence.  One keep-alive connection POSTs one hour per request
    from bodies encoded before timing starts; one SSE subscriber stays
    connected on a second connection for as long as the system runs.
``paper-sweep``
    Offline, serial ``SweepRunner.run`` calls over the pinned grid, one
    sweep day ``t`` per call.

A run sets up several times and measures one segment on what each set-up
built.  Each driver works on one set-up: it does its untimed warm-up when it
is built, :meth:`segment` measures whole units of work into the run's shared
:class:`Outcome` until its share of time has passed, and :meth:`finish`
checks the outputs.  :meth:`close` releases everything on any path.  The
in-process drivers lower the process's peak RSS mark before the segment and
read it after, so ``peak_rss_kb`` is the peak of the measured work.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import fixture as fx
from spans import Tracer, install, load_spans

try:
    import orjson
except ImportError:
    orjson = None

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    work: int = 0  #: hours accepted, or sweep cells evaluated
    windows: list = field(default_factory=list)  #: measured ``(start, end)`` ns
    #: Per measured window, the acknowledgement and alert times taken in it.
    ack_ns: list = field(default_factory=list)
    alert_ns: list = field(default_factory=list)
    peak_rss_kb: int = 0
    counters: dict = field(default_factory=lambda: defaultdict(int))
    spans: list | None = None
    root_pid: int = field(default_factory=os.getpid)

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.windows) / 1e9

    @property
    def per_s(self) -> float:
        return self.work / self.wall_s


# ------------------------------------------------------------- backfill-block
class BackfillBlock:
    def __init__(self, fixture, reference, out: Outcome, tracer: Tracer | None = None) -> None:
        from repro.serve import ModelRegistry

        self.fixture, self.reference, self.out, self.tracer = fixture, reference, out, tracer
        self.registry = ModelRegistry(fixture.registry_root)
        kpis, calendar = fixture.dataset.kpis, fixture.dataset.calendar
        self.blocks = [
            (lo, kpis.values[:, lo:lo + 24, :], kpis.missing[:, lo:lo + 24, :],
             calendar[lo:lo + 24])
            for lo in range(0, fixture.n_hours, 24)
        ]
        # One untimed pass loads the packed forests and fills lazy state.
        events, _ = self._pass(None)
        fx.check_events(events, fixture.n_days - 1, reference, "backfill-block warm-up")
        self._uninstall = install(tracer) if tracer is not None else None

    def _pass(self, out: Outcome | None):
        service = fx.guarded_service(self.fixture, self.registry)
        events, acks, alerts = [], [], []
        for lo, values, missing, rows in self.blocks:
            start = time.perf_counter_ns()
            block_events = service.submit_block(values, missing, rows, first_hour=lo)
            end = time.perf_counter_ns()
            acks.append(end - start)
            if any(event.get("type") == "alert" for event in block_events):
                alerts.append(end - start)
            events.extend(block_events)
        if out is not None:
            out.attempted += len(self.blocks)
            out.work += self.fixture.n_hours
            out.ack_ns.append(acks)
            out.alert_ns.append(alerts)
        return events, service

    def segment(self, seconds: float) -> None:
        """Whole replay passes, each over a fresh service, for *seconds*.

        Each pass is a measured window of its own.  Its events are checked
        between windows and then dropped, so what the benchmark holds does
        not grow with the number of passes.
        """
        fx.reset_peak_rss()
        measured = 0
        while measured < seconds * 1e9:
            start = time.perf_counter_ns()
            events, service = self._pass(self.out)
            end = time.perf_counter_ns()
            self.out.windows.append((start, end))
            measured += end - start
            self.out.failed += service.dead_letters.total
            fx.check_events(events, self.fixture.n_days - 1, self.reference, "backfill-block")
        self.out.peak_rss_kb = max(self.out.peak_rss_kb, fx.peak_rss_kb())

    def finish(self) -> None:
        self.close()
        self.out.counters["quarantined"] = self.out.failed
        if self.tracer is not None:
            self.out.spans = self.tracer.records()

    def close(self) -> None:
        if self._uninstall is not None:
            self._uninstall()
            self._uninstall = None


# ---------------------------------------------------------------- paper-sweep
class PaperSweep:
    """The grid swept one ``t`` at a time, in whole passes over the grid.

    Every cell derives its seed from ``(model, t, h, w)``, so a call over one
    day's slice returns exactly that slice of the full grid's rows.  The
    latency of one Table III row, every model at one ``(t, h, w)``, is the
    sum of its cells' ``run_cell`` times.  A segment sweeps whole grids, so
    every run measures the same mix of rows.
    """

    def __init__(self, fixture, reference, out: Outcome, tracer: Tracer | None = None) -> None:
        from repro.core.experiment import SweepRunner

        self.fixture, self.reference, self.out, self.tracer = fixture, reference, out, tracer
        self.slices = fx.grid_slices()
        self._row_ns = defaultdict(int)
        self._runner_class = SweepRunner
        self._run_cell = SweepRunner.run_cell
        run_cell, row_ns = self._run_cell, self._row_ns

        def timed_cell(runner, model_name, t_day, horizon, window):
            start = time.perf_counter_ns()
            try:
                return run_cell(runner, model_name, t_day, horizon, window)
            finally:
                row_ns[(t_day, horizon, window)] += time.perf_counter_ns() - start

        # Row latency is read around the public run_cell, outside any span.
        SweepRunner.run_cell = timed_cell
        # One untimed sweep day warms the runner's code paths.
        t_day, grid = self.slices[0]
        fx.check_rows(fx.sweep_runner(fixture.dataset).run(grid, n_jobs=1), t_day, reference)
        self._uninstall = install(tracer) if tracer is not None else None

    def segment(self, seconds: float) -> None:
        """Whole grids, one sweep day per call, for about *seconds*.

        The segment ends at the grid boundary nearest its share of time, so
        a grid that takes most of the share is not run twice.
        """
        out = self.out
        fx.reset_peak_rss()
        results, row_ns = [], []
        start = time.perf_counter_ns()
        while True:
            grid_start = time.perf_counter_ns()
            for t_day, grid in self.slices:
                self._row_ns.clear()
                rows = fx.sweep_runner(self.fixture.dataset).run(grid, n_jobs=1)
                results.append((t_day, rows))
                out.attempted += grid.n_combinations
                out.work += len(rows)
                row_ns.extend(self._row_ns.values())
            end = time.perf_counter_ns()
            if end - start + (end - grid_start) / 2 >= seconds * 1e9:
                break
        out.windows.append((start, end))
        out.ack_ns.append(row_ns)
        out.peak_rss_kb = max(out.peak_rss_kb, fx.peak_rss_kb())
        for t_day, rows in results:
            fx.check_rows(rows, t_day, self.reference)

    def finish(self) -> None:
        self.close()
        self.out.alert_ns = self.out.ack_ns
        if self.tracer is not None:
            self.out.spans = self.tracer.records()

    def close(self) -> None:
        if self._uninstall is not None:
            self._uninstall()
            self._uninstall = None
        self._runner_class.run_cell = self._run_cell


# ------------------------------------------------------------ live-fleet-http
SHARDS = 2
SNAPSHOT_EVERY = 168  # the CLI default cadence


class LiveSystem:
    """The launched gateway process and how to reach and stop it."""

    def __init__(self, fixture, directory: Path, trace_dir: Path | None) -> None:
        from repro.fleet import FleetConfig

        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        fleet = FleetConfig.for_dataset(
            fixture.dataset, fixture.registry_root, model=fx.MODEL, window=fx.WINDOW,
            horizons=fx.HORIZONS, start_day=fx.START_DAY, top_k=fx.TOP_K,
            w_max=fx.WINDOW, snapshot_every=SNAPSHOT_EVERY,
        )
        self.stats_path = directory / "launcher-stats.json"
        config = {
            "fleet": asdict(fleet),
            "shards": SHARDS,
            "checkpoint_dir": str(directory / "ckpt"),
            "stats_path": str(self.stats_path),
            "trace_dir": None if trace_dir is None else str(trace_dir),
        }
        config_path = directory / "launcher.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        self.log = open(directory / "launcher.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(config_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
        )
        line = _readline(self.process.stdout, timeout=120)
        try:
            hello = json.loads(line)
        except ValueError:
            self.stop()
            raise RuntimeError(
                f"launcher did not start: {line!r}; see {directory / 'launcher.log'}"
            ) from None
        self.host, self.port = hello["host"], hello["port"]

    def stop(self) -> dict:
        """Close the launcher's stdin, wait for it, return its statistics."""
        if not self.log.closed:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
            finally:
                self.process.stdout.close()
                self.log.close()
        if self.process.returncode != 0 or not self.stats_path.exists():
            raise RuntimeError(
                f"launcher exited with {self.process.returncode}; "
                f"see {self.directory / 'launcher.log'}"
            )
        return json.loads(self.stats_path.read_text(encoding="utf-8"))


def _readline(stream, timeout: float) -> bytes:
    ready, _, _ = select.select([stream], [], [], timeout)
    return stream.readline() if ready else b""


class SseReader(threading.Thread):
    """The one SSE subscriber: every frame with its arrival time."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(daemon=True)
        self.sock = socket.create_connection((host, port))
        self.sock.sendall(b"GET /alerts?last_event_id=-1 HTTP/1.1\r\nHost: bench\r\n\r\n")
        self.frames: list[tuple[int, str, int]] = []
        self.arrived = threading.Condition()

    def run(self) -> None:
        buffer = b""
        while True:
            try:
                chunk = self.sock.recv(1 << 16)
            except OSError:
                break
            if not chunk:
                break
            now = time.perf_counter_ns()
            buffer += chunk
            frames = []
            while b"\n\n" in buffer:
                raw, buffer = buffer.split(b"\n\n", 1)
                event_id = data = None
                for line in raw.decode("utf-8").splitlines():
                    if line.startswith("id:"):
                        event_id = int(line[3:].strip())
                    elif line.startswith("data:"):
                        data = line[5:].strip()
                if event_id is not None and data is not None:
                    frames.append((event_id, data, now))
            if frames:
                with self.arrived:
                    self.frames.extend(frames)
                    self.arrived.notify_all()

    def wait_for(self, event_id: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self.arrived:
            while not self.frames or self.frames[-1][0] < event_id:
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self.arrived.wait(left)
        return True

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.join(timeout=30)


def _dumps(obj) -> bytes:
    """Compact JSON; orjson, when installed, encodes it ten times faster."""
    if orjson is None:
        return json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return orjson.dumps(obj)


def encode_bodies(fixture) -> tuple[list[bytes], float]:
    """One JSONL ``POST /ticks`` body per hour; returns (bodies, seconds).

    Both encoders write each float's shortest round-trip form, so the
    gateway decodes exactly the world's values either way.
    """
    kpis, calendar = fixture.dataset.kpis, fixture.dataset.calendar
    start = time.perf_counter()
    bodies = [
        _dumps({
            "op": "tick",
            "hour": hour,
            "values": kpis.values[:, hour, :].tolist(),
            "missing": kpis.missing[:, hour, :].tolist(),
            "calendar": calendar[hour].tolist(),
        }) + b"\n"
        for hour in range(fixture.n_hours)
    ]
    return bodies, time.perf_counter() - start


class LiveFleetHttp:
    """One POST per hour into one live system, from the first serving day on.

    Every set-up launches a fresh system, so every segment sends the same
    hours: the days before serving starts are caught up one day per request
    and the first serving day is sent hour by hour, both untimed; timing
    starts on the next day.  The world holds 1,968 timed hours, about three
    times what a 5 s segment acknowledges on a 2-core machine; a segment
    that sends them all ends there and says so in the report.
    """

    _HEADERS = {"Content-Type": "application/x-ndjson"}

    def __init__(self, fixture, reference, out: Outcome, system: LiveSystem,
                 bodies: list[bytes], tracer: Tracer | None = None) -> None:
        self.fixture, self.reference, self.out, self.tracer = fixture, reference, out, tracer
        self.bodies, self.system = bodies, system
        self.day_last_id: dict[int, tuple[int, int]] = {}  # day -> (event id, sent ns)
        self.acks: list[int] = []
        self.conn = self.reader = None
        try:
            self.reader = SseReader(system.host, system.port)
            self.reader.start()
            self.conn = http.client.HTTPConnection(system.host, system.port, timeout=120)
            for lo in range(0, fx.START_DAY * 24, 24):
                status, reply = self._post(b"".join(self.bodies[lo:lo + 24]))
                out.attempted += 1
                if status != 200 or reply.get("processed") != 24:
                    out.failed += 1
            self.hour = fx.START_DAY * 24
            while self.hour < (fx.START_DAY + 1) * 24:
                self._send(timed=False)
        except BaseException:
            self.close()
            raise

    def _post(self, body: bytes) -> tuple[int, dict]:
        self.conn.request("POST", "/ticks", body=body, headers=self._HEADERS)
        response = self.conn.getresponse()
        payload = response.read()
        return response.status, (json.loads(payload) if response.status == 200 else {})

    def _send(self, timed: bool) -> None:
        """POST the next hour; when *timed*, record its ack and day-end alert."""
        out, hour, body = self.out, self.hour, self.bodies[self.hour]
        sent = time.perf_counter_ns()
        self.conn.request("POST", "/ticks", body=body, headers=self._HEADERS)
        response = self.conn.getresponse()
        payload = response.read()
        acked = time.perf_counter_ns()
        self.hour += 1
        out.attempted += 1
        reply = json.loads(payload) if response.status == 200 else {}
        if reply.get("processed") != 1:
            out.failed += 1
            return
        if not timed:
            return
        out.work += 1
        self.acks.append(acked - sent)
        out.counters["request_bytes"] += len(body)
        if self.tracer is not None:
            self.tracer.add("gateway.post", sent, acked, request=hour, count=len(body))
        result = reply["results"][0]
        if any(event.get("type") == "alert" for event in result["events"]):
            self.day_last_id[hour // 24] = (result["event_ids"][-1], sent)

    def segment(self, seconds: float) -> None:
        """One POST per hour until *seconds* pass and a day is complete."""
        start = time.perf_counter_ns()
        while self.hour < len(self.bodies):
            self._send(timed=True)
            if self.hour % 24 == 0 and time.perf_counter_ns() - start >= seconds * 1e9:
                break
        else:
            self.out.counters["ran_out"] += 1
        self.out.windows.append((start, time.perf_counter_ns()))
        self.out.ack_ns.append(self.acks)

    def finish(self) -> None:
        """Check the system's SSE stream, stop it and keep its numbers."""
        out = self.out
        self.conn.request("GET", "/status")
        status = json.loads(self.conn.getresponse().read())
        last_id = status["journal"]["next_event_id"] - 1
        if not self.reader.wait_for(last_id, timeout=60):
            raise fx.Mismatch(f"SSE subscriber never received event {last_id}")
        self.conn.close()
        self.reader.close()
        system, self.system = self.system, None
        stats = system.stop()

        arrival = {event_id: at for event_id, _, at in self.reader.frames}
        out.alert_ns.append([arrival[event_id] - sent
                             for event_id, sent in self.day_last_id.values()])
        events = [json.loads(data) for _, data, _ in sorted(self.reader.frames)]
        fx.check_events(events, self.hour // 24 - 1, self.reference, "live-fleet-http SSE")
        out.counters["sse_dropped"] += status["sse"]["dropped_events"]
        out.counters["rejected"] += status["ingest"]["rejected"]
        out.counters["quarantined"] += status["quarantine"]["total"]
        out.counters["restarts"] += int(stats["restarts"])
        out.peak_rss_kb = max(out.peak_rss_kb, int(stats["peak_rss_kb"]))
        if self.tracer is not None:
            self.tracer.dump()
            out.spans = load_spans(self.tracer.out_dir)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.reader is not None:
            self.reader.close()
        if self.system is not None:
            system, self.system = self.system, None
            try:
                system.stop()
            except RuntimeError:
                pass
