"""Fleet coordinator: route ticks to shards, merge one event stream.

:class:`FleetCoordinator` is the fleet's single front door.  It owns the
*global* halves of the resilience pipeline — tick validation against the
full network shape, the dead-letter queue, gap synthesis, and dark-alert
masking — and drives every shard worker with the rows it owns, then
merges the shards' response fragments back into one deterministic event
stream.

The merged stream is, by construction, bitwise identical (as JSON
lines) to what a single-engine
:class:`~repro.resilience.guard.ResilientHotSpotService` over the whole
network emits, for any shard count and either backend.  The merge rules
that guarantee it (DESIGN.md 3f):

* ``sector_dark`` events sort by global sector id (each shard reports
  its newly-dark sectors in ascending local order, which is ascending
  global order within the shard; the merge interleaves shards);
* the ``day`` event's ``hot_sectors`` is the ascending union of the
  shards' local hot sets;
* alerts are assembled from *full local score vectors*: the coordinator
  scatters each shard's fragment into a global score array and applies
  the exact single-engine policy — stable argsort, top-k, optional
  threshold, then global dark masking — because per-shard top-k would
  not commute with the global ranking;
* lifecycle events append in ascending shard-id order.

Watermark protocol: a tick is acknowledged (its events returned / its
``watermark.json`` advanced) only after every shard has applied *and
journaled* it.  A crash anywhere leaves either no shard or every shard
at-or-past the watermark, which is what
:func:`repro.fleet.recovery.recover_fleet` relies on to resume to a
bitwise-identical continuation.

Two backends drive the shards: :class:`SerialBackend` runs the workers
in-process (the fallback and the kill-point test harness);
:class:`ProcessBackend` forks worker hosts over pipes, broadcasting each
tick through writable shared memory
(:class:`~repro.parallel.shm.SharedArrayBundle`), reusing the
:mod:`repro.parallel` machinery and degrading to serial exactly like
the sweep does.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from repro.data.store import write_json_atomic
from repro.data.tensor import HOURS_PER_DAY
from repro.fleet.partition import PartitionPlan
from repro.fleet.worker import (
    FleetConfig,
    ShardWorker,
    SimulatedKill,
    build_worker,
)
from repro.parallel.pool import PoolUnavailable, effective_jobs, partition
from repro.parallel.shm import (
    SharedArrayBundle,
    SharedMemoryUnavailable,
    shared_memory_available,
)
from repro.resilience.validate import (
    ACCEPT,
    QUARANTINE,
    RECONCILE,
    DeadLetterQueue,
    TickValidator,
)
from repro.serve.ingest import default_calendar_row
from repro.serve.telemetry import ServeTelemetry

__all__ = [
    "WATERMARK_NAME",
    "FleetCoordinator",
    "ProcessBackend",
    "SerialBackend",
    "build_fleet",
    "recovered_clock",
]

#: Fleet-level acknowledge file: the number of hours whose events have
#: been merged and released to the caller.
WATERMARK_NAME = "watermark.json"


# --------------------------------------------------------------------------
# backends
# --------------------------------------------------------------------------
class SerialBackend:
    """All shard workers in the coordinator's process.

    The reference backend: trivially deterministic, no IPC, and the only
    one the kill-point suite uses (workers stay reachable so tests can
    arm :attr:`ShardWorker.kill_at` directly).
    """

    name = "serial"

    #: No broadcast buffer to size: blocks pass whole (None = unlimited).
    block_capacity: int | None = None

    def __init__(self, workers: list[ShardWorker]) -> None:
        self.workers = workers

    @classmethod
    def build(
        cls,
        directory: Path,
        plan: PartitionPlan,
        config: FleetConfig,
        resume: bool,
    ) -> "SerialBackend":
        return cls(
            [
                build_worker(directory, plan, shard, config, resume=resume)
                for shard in range(plan.n_shards)
            ]
        )

    def submit_hour(self, hour, values, missing, calendar_row) -> list[dict]:
        return [
            worker.submit(
                hour,
                values[worker.sector_ids, :],
                missing[worker.sector_ids, :],
                calendar_row,
            )
            for worker in self.workers
        ]

    def submit_block(
        self, first_hour, values, missing, calendar_rows, released_before=None
    ) -> list[list[dict]]:
        return [
            worker.submit_block(
                first_hour,
                values[worker.sector_ids, :, :],
                missing[worker.sector_ids, :, :],
                calendar_rows,
                released_before=released_before,
            )
            for worker in self.workers
        ]

    def ring(self, hour: int) -> list:
        return [worker.ring_payload(hour) for worker in self.workers]

    def predict(self, horizon, model=None, window=None) -> list[np.ndarray]:
        return [
            worker.predict_fragment(horizon, model=model, window=window)
            for worker in self.workers
        ]

    def shard_hours(self) -> list[int]:
        return [worker.ingestor.hours_seen for worker in self.workers]

    def stats(self) -> list[dict]:
        return [worker.stats() for worker in self.workers]

    def telemetries(self) -> list[ServeTelemetry]:
        return [worker.engine.telemetry for worker in self.workers]

    def close(self) -> None:
        for worker in self.workers:
            worker.close()


def _host_main(conn, specs, directory, plan, config, shard_ids, resume) -> None:
    """Process-backend child: host a contiguous group of shard workers.

    Ticks arrive by reference — the parent broadcasts each hour's global
    payload through shared memory and sends only the hour number down
    the pipe; the child slices its shards' rows out of the mapping.
    """
    bundle = None
    workers: list[ShardWorker] = []
    try:
        bundle = SharedArrayBundle.attach(specs)
        workers = [
            build_worker(directory, plan, shard, config, resume=resume)
            for shard in shard_ids
        ]
        conn.send(("hello", [w.ingestor.hours_seen for w in workers]))
    except Exception as error:  # noqa: BLE001 - report, then die
        try:
            conn.send(("fatal", f"{type(error).__name__}: {error}"))
        except OSError:
            pass
        return
    values = bundle["values"]
    missing = bundle["missing"]
    calendar = bundle["calendar"]
    flags = bundle["flags"]
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                break
            op = request[0]
            try:
                if op == "tick":
                    hour = request[1]
                    row = calendar[0].copy() if flags[0] else None
                    payload = [
                        w.submit(
                            hour,
                            values[w.sector_ids, 0, :],
                            missing[w.sector_ids, 0, :],
                            row,
                        )
                        for w in workers
                    ]
                elif op == "tick_block":
                    _, first_hour, n_hours, released_before = request
                    rows = calendar[:n_hours].copy() if flags[0] else None
                    payload = [
                        w.submit_block(
                            first_hour,
                            values[w.sector_ids, :n_hours, :],
                            missing[w.sector_ids, :n_hours, :],
                            rows,
                            released_before=released_before,
                        )
                        for w in workers
                    ]
                elif op == "ring":
                    payload = [w.ring_payload(request[1]) for w in workers]
                elif op == "predict":
                    _, horizon, model, window = request
                    payload = [
                        w.predict_fragment(horizon, model=model, window=window)
                        for w in workers
                    ]
                elif op == "stats":
                    payload = [w.stats() for w in workers]
                elif op == "telemetry":
                    payload = [w.engine.telemetry for w in workers]
                elif op == "close":
                    for w in workers:
                        w.close()
                    conn.send(("ok", None))
                    break
                else:
                    raise ValueError(f"unknown fleet op {op!r}")
                conn.send(("ok", payload))
            except Exception as error:  # noqa: BLE001 - relay to the parent
                conn.send(("err", f"{type(error).__name__}: {error}"))
    finally:
        if bundle is not None:
            bundle.destroy()  # non-owner: closes the mapping, no unlink


class ProcessBackend:
    """Shard workers fanned out over forked host processes.

    ``jobs`` hosts each own a contiguous group of shards (the same
    :func:`~repro.parallel.pool.partition` used by the sweep).  Raises
    :class:`PoolUnavailable` / :class:`SharedMemoryUnavailable` when the
    platform cannot support it, and :func:`build_fleet` degrades to
    :class:`SerialBackend` — same merged stream either way.
    """

    name = "process"

    #: Hours per shared-memory broadcast; larger blocks are split by the
    #: coordinator.  One day keeps the mapping small while amortising
    #: the pipe round-trip 24× over per-hour driving.
    block_capacity: int = HOURS_PER_DAY

    def __init__(
        self,
        directory: Path,
        plan: PartitionPlan,
        config: FleetConfig,
        resume: bool,
        jobs: int,
    ) -> None:
        import multiprocessing

        if not shared_memory_available():
            raise SharedMemoryUnavailable("no shared memory on this host")
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as error:
            raise PoolUnavailable(f"fork start method unavailable: {error}") from error
        groups = partition(list(range(plan.n_shards)), jobs)
        if len(groups) < 2:
            raise PoolUnavailable("process backend needs >= 2 worker groups")
        # Broadcast buffers hold up to ``block_capacity`` hours; a
        # single tick uses column 0, micro-batches fill a prefix and
        # ship only (first_hour, n_hours) down the pipe.
        self._bundle = SharedArrayBundle.create(
            {
                "values": np.zeros(
                    (config.n_sectors, self.block_capacity, config.n_kpis)
                ),
                "missing": np.zeros(
                    (config.n_sectors, self.block_capacity, config.n_kpis),
                    dtype=bool,
                ),
                "calendar": np.zeros((self.block_capacity, 5)),
                "flags": np.zeros(1),
            },
            writable=True,
        )
        self._children: list = []
        self._hours: list[int] = []
        try:
            for group in groups:
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_host_main,
                    args=(
                        child_conn,
                        self._bundle.specs(),
                        str(directory),
                        plan,
                        config,
                        group,
                        resume,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._children.append((process, parent_conn, group))
            for process, conn, group in self._children:
                kind, payload = self._recv(process, conn)
                if kind != "hello":
                    raise RuntimeError(
                        f"shard host for {group} failed to start: {payload}"
                    )
                self._hours.extend(payload)
        except PoolUnavailable:
            self.close()
            raise
        except (OSError, RuntimeError) as error:
            self.close()
            raise PoolUnavailable(f"cannot start shard hosts: {error}") from error

    @staticmethod
    def _recv(process, conn):
        while not conn.poll(0.2):
            if not process.is_alive():
                raise RuntimeError(
                    f"shard host pid {process.pid} died (exit {process.exitcode})"
                )
        return conn.recv()

    def _roundtrip(self, request) -> list:
        for _, conn, _ in self._children:
            conn.send(request)
        payload: list = []
        for process, conn, _ in self._children:
            kind, part = self._recv(process, conn)
            if kind == "err":
                raise RuntimeError(f"shard host failed: {part}")
            payload.extend(part if isinstance(part, list) else [part])
        return payload

    def submit_hour(self, hour, values, missing, calendar_row) -> list[dict]:
        self._bundle["values"][:, 0, :] = values
        self._bundle["missing"][:, 0, :] = missing
        if calendar_row is None:
            self._bundle["flags"][0] = 0.0
        else:
            self._bundle["flags"][0] = 1.0
            self._bundle["calendar"][0, :] = calendar_row
        return self._roundtrip(("tick", int(hour)))

    def submit_block(
        self, first_hour, values, missing, calendar_rows, released_before=None
    ) -> list[list[dict]]:
        n_hours = int(values.shape[1])
        if n_hours > self.block_capacity:
            raise ValueError(
                f"block of {n_hours} hours exceeds the broadcast capacity "
                f"{self.block_capacity}"
            )
        self._bundle["values"][:, :n_hours, :] = values
        self._bundle["missing"][:, :n_hours, :] = missing
        if calendar_rows is None:
            self._bundle["flags"][0] = 0.0
        else:
            self._bundle["flags"][0] = 1.0
            self._bundle["calendar"][:n_hours, :] = calendar_rows
        return self._roundtrip(
            (
                "tick_block",
                int(first_hour),
                n_hours,
                None if released_before is None else int(released_before),
            )
        )

    def ring(self, hour: int) -> list:
        return self._roundtrip(("ring", int(hour)))

    def predict(self, horizon, model=None, window=None) -> list[np.ndarray]:
        return self._roundtrip(("predict", int(horizon), model, window))

    def shard_hours(self) -> list[int]:
        return list(self._hours)

    def stats(self) -> list[dict]:
        return self._roundtrip(("stats",))

    def telemetries(self) -> list[ServeTelemetry]:
        return self._roundtrip(("telemetry",))

    def close(self) -> None:
        children, self._children = self._children, []
        try:
            for process, conn, _ in children:
                try:
                    if process.is_alive():
                        conn.send(("close",))
                        self._recv(process, conn)
                except (OSError, RuntimeError, EOFError):
                    pass
                finally:
                    conn.close()
                    process.join(timeout=5)
                    if process.is_alive():
                        process.terminate()
                        process.join(timeout=5)
                    if process.is_alive():
                        # terminate() can be swallowed by a SIGTERM-masked
                        # child; SIGKILL cannot.
                        process.kill()
                        process.join()
        finally:
            bundle, self._bundle = self._bundle, None
            if bundle is not None:
                bundle.destroy()


# --------------------------------------------------------------------------
# coordinator
# --------------------------------------------------------------------------
class FleetCoordinator:
    """Global validation, shard routing, and deterministic event merge."""

    def __init__(
        self,
        directory: str | Path,
        plan: PartitionPlan,
        config: FleetConfig,
        backend,
        clock: int = 0,
        validator: TickValidator | None = None,
        dead_letters: DeadLetterQueue | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.plan = plan
        self.config = config
        self.backend = backend
        self.clock = int(clock)
        self.validator = validator or TickValidator(
            n_sectors=config.n_sectors,
            n_kpis=config.n_kpis,
            start_hour=config.start_hour,
        )
        self.dead_letters = dead_letters or DeadLetterQueue()
        self.telemetry = ServeTelemetry()
        #: ``("mid_merge", hour)`` → raise :class:`SimulatedKill` after
        #: the shards applied the hour but before the merge/acknowledge.
        self.kill_at: tuple | None = None
        #: Optional per-hour event tap: ``tap(hour, events)`` fires with
        #: each hour's merged (gap-prefixed) event list after the shards
        #: applied and journaled it but **before** the fleet watermark
        #: advances.  A crash between shard journaling and the tap
        #: leaves the watermark behind, so resume re-drives the hour
        #: and the shards re-emit their persisted responses — the tap
        #: sees an identical list and must be idempotent per hour.  The
        #: gateway points this at its durable event journal for SSE
        #: delivery (DESIGN.md 3j).
        self.event_tap = None

    # -------------------------------------------------------------- ticks
    @property
    def t_day(self) -> int:
        """Last fully merged day (-1 before the first completes)."""
        return self.clock // HOURS_PER_DAY - 1

    def submit_tick(
        self,
        values,
        missing=None,
        calendar_row=None,
        hour: int | None = None,
    ) -> list[dict]:
        """Validate, route, merge, acknowledge one tick.

        The exact control flow of
        :meth:`ResilientHotSpotService.submit_tick`, with the per-row
        work delegated to the shards: quarantine and duplicate verdicts
        are handled entirely here; accepted ticks (gap fills included)
        are broadcast to every shard, and the merged events are released
        only after every shard journaled the hour (then the fleet
        watermark advances).
        """
        verdict = self.validator.validate(
            values,
            missing,
            calendar_row,
            hour=hour,
            clock=self.clock,
            ring_payload=self._ring_payload,
        )
        if verdict.action == QUARANTINE:
            self.telemetry.inc("ticks_quarantined")
            record = self.dead_letters.push(
                verdict.reason, hour=verdict.declared_hour, detail=verdict.detail
            )
            return [self.telemetry.event("quarantine", **record)]
        if verdict.action == RECONCILE:
            self.telemetry.inc("ticks_reconciled")
            return [
                self.telemetry.event(
                    "duplicate", hour=verdict.declared_hour, detail=verdict.detail
                )
            ]
        assert verdict.action == ACCEPT
        events: list[dict] = []
        for _ in range(verdict.gap_hours):
            hour_now = self.clock
            gap_values = np.full((self.config.n_sectors, self.config.n_kpis), np.nan)
            gap_missing = np.ones_like(gap_values, dtype=bool)
            self.telemetry.inc("ticks_gap_filled")
            events.extend(
                self._drive_hour(
                    hour_now,
                    gap_values,
                    gap_missing,
                    self._default_calendar(hour_now),
                    prefix=[self.telemetry.event("gap_fill", hour=hour_now)],
                )
            )
        events.extend(
            self._drive_hour(
                self.clock, verdict.values, verdict.missing, verdict.calendar_row
            )
        )
        write_json_atomic(
            self.directory / WATERMARK_NAME, {"emitted_hours": self.clock}
        )
        return events

    def submit_block(
        self,
        values,
        missing=None,
        calendar_rows=None,
        first_hour: int | None = None,
    ) -> list[dict]:
        """Validate, broadcast, and merge a micro-batch of hours.

        Fleet twin of :meth:`ResilientHotSpotService.submit_block`: the
        whole block is probed at once against the clocks its columns
        would meet in per-hour order; a block of plain accepts is
        broadcast to the shards in ``block_capacity`` slices (each shard
        applies and journals it in day chunks) and the per-hour
        fragments are merged in order, producing the identical event
        stream.  A rejected probe (any quarantine, duplicate, or gap
        verdict) replays the original columns through per-hour
        :meth:`submit_tick`.  The watermark advances once, after the
        whole block is merged — a mid-block crash re-drives from the
        last acknowledged hour and shards re-emit what they already
        journaled.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError(
                f"values must be (n_sectors, n_hours, n_kpis), got {values.shape}"
            )
        if missing is not None:
            missing = np.asarray(missing, dtype=bool)
        if calendar_rows is not None:
            calendar_rows = np.asarray(calendar_rows, dtype=np.float64)
        n_hours = values.shape[1]
        if n_hours == 0:
            return []
        block = self.validator.validate_block(
            values, missing, calendar_rows, first_hour, self.clock
        )
        if block is None:
            events: list[dict] = []
            for j in range(n_hours):
                events.extend(
                    self.submit_tick(
                        values[:, j, :],
                        None if missing is None else missing[:, j, :],
                        None if calendar_rows is None else calendar_rows[j],
                        hour=None if first_hour is None else first_hour + j,
                    )
                )
            return events
        block_values, block_missing, calendar_block = block
        events = []
        capacity = self.backend.block_capacity or n_hours
        # The acknowledged boundary for this whole block: shards keep
        # every non-trivial response from here on so a mid-block crash
        # re-emits faithfully across capacity slices and day chunks.
        released = self.clock
        start = 0
        while start < n_hours:
            stop = min(start + capacity, n_hours)
            hour0 = self.clock
            responses = self.backend.submit_block(
                hour0,
                block_values[:, start:stop, :],
                block_missing[:, start:stop, :],
                None if calendar_block is None else calendar_block[start:stop],
                released_before=released,
            )
            if (
                self.kill_at is not None
                and self.kill_at[0] == "mid_merge"
                and hour0 <= self.kill_at[1] < hour0 + (stop - start)
            ):
                self.kill_at = None
                raise SimulatedKill(
                    f"simulated crash: coordinator at mid_merge of block "
                    f"[{hour0}, {hour0 + stop - start})"
                )
            self.clock = hour0 + (stop - start)
            for j in range(stop - start):
                hour_events = self._merge(hour0 + j, [shard[j] for shard in responses])
                if self.event_tap is not None:
                    self.event_tap(hour0 + j, hour_events)
                events.extend(hour_events)
            start = stop
        write_json_atomic(
            self.directory / WATERMARK_NAME, {"emitted_hours": self.clock}
        )
        return events

    def _drive_hour(
        self, hour, values, missing, calendar_row, prefix: list[dict] | None = None
    ) -> list[dict]:
        """Broadcast one accepted hour to the shards and merge fragments."""
        responses = self.backend.submit_hour(hour, values, missing, calendar_row)
        if self.kill_at == ("mid_merge", hour):
            self.kill_at = None
            raise SimulatedKill(
                f"simulated crash: coordinator at mid_merge of hour {hour}"
            )
        self.clock = hour + 1
        events = (prefix or []) + self._merge(hour, responses)
        if self.event_tap is not None:
            self.event_tap(hour, events)
        return events

    def _merge(self, hour: int, responses: list[dict]) -> list[dict]:
        events: list[dict] = []
        # Supervision transitions (shard_degraded / shard_recovered /
        # poison_block) ride on the response that triggered them and are
        # released first; healthy runs carry none, so stream parity with
        # the single engine is untouched.
        for response in responses:
            events.extend(response.get("supervisor", ()))
        newly_dark = sorted(
            (int(sector), int(run))
            for response in responses
            for sector, run in response["dark_new"]
        )
        for sector, run in newly_dark:
            events.append(
                self.telemetry.event(
                    "sector_dark", sector=sector, hour=hour, missing_run=run
                )
            )
        if not responses[0]["day_completed"]:
            return events
        t_day = int(responses[0]["t_day"])
        hot = sorted(
            int(sector) for response in responses for sector in response["hot"]
        )
        events.append({"type": "day", "t_day": t_day, "hot_sectors": hot})
        if t_day >= self.config.start_day:
            dark_mask = self._assemble_mask(responses)
            for horizon in self.config.horizons:
                scores = self._assemble_scores(responses, horizon)
                if scores is None:
                    continue
                alert = self._build_alert(t_day, int(horizon), scores)
                if alert is None:
                    continue
                self.telemetry.inc("alerts_emitted")
                events.append(self._mask_alert(alert, dark_mask))
        for response in responses:
            events.extend(response["lifecycle"])
        return events

    def _assemble_scores(self, responses, horizon) -> np.ndarray | None:
        key = str(int(horizon))
        scores = np.empty(self.config.n_sectors, dtype=np.float64)
        for shard, response in enumerate(responses):
            fragment = response["scores"].get(key)
            if fragment is None:
                return None
            scores[self.plan.sectors_of(shard)] = np.asarray(
                fragment, dtype=np.float64
            )
        return scores

    def _assemble_mask(self, responses) -> np.ndarray:
        mask = np.zeros(self.config.n_sectors, dtype=bool)
        for shard, response in enumerate(responses):
            local = response["dark_mask"]
            if local:
                mask[self.plan.sectors_of(shard)] = np.asarray(local, dtype=bool)
        return mask

    def _build_alert(self, t_day, horizon, scores) -> dict | None:
        order = np.argsort(-scores, kind="stable")[: self.config.top_k]
        if self.config.alert_threshold is not None:
            order = order[scores[order] >= self.config.alert_threshold]
        if order.size == 0:
            return None
        return {
            "type": "alert",
            "t_day": t_day,
            "horizon": horizon,
            "forecast_day": t_day + horizon,
            "model": self.config.model,
            "sectors": [int(i) for i in order],
            "scores": [float(scores[i]) for i in order],
        }

    def _mask_alert(self, alert: dict, dark_mask: np.ndarray) -> dict:
        if not dark_mask.any():
            return alert
        keep = [i for i, s in enumerate(alert["sectors"]) if not dark_mask[s]]
        removed = len(alert["sectors"]) - len(keep)
        if removed:
            self.telemetry.inc("alert_sectors_suppressed_dark", removed)
        if not keep:
            return self.telemetry.event(
                "alert_suppressed",
                t_day=alert["t_day"],
                horizon=alert["horizon"],
                reason="all alerted sectors are dark",
            )
        if removed:
            alert = {
                **alert,
                "sectors": [alert["sectors"][i] for i in keep],
                "scores": [alert["scores"][i] for i in keep],
            }
        return alert

    def _ring_payload(self, hour: int):
        payloads = self.backend.ring(hour)
        if any(payload is None for payload in payloads):
            return None
        values = np.empty((self.config.n_sectors, self.config.n_kpis))
        missing = np.empty((self.config.n_sectors, self.config.n_kpis), dtype=bool)
        for shard, (shard_values, shard_missing) in enumerate(payloads):
            ids = self.plan.sectors_of(shard)
            values[ids, :] = shard_values
            missing[ids, :] = shard_missing
        return values, missing

    def _default_calendar(self, hour: int) -> np.ndarray:
        return default_calendar_row(
            hour,
            start_weekday=self.config.start_weekday,
            start_hour=self.config.start_hour,
            start_day_of_month=self.config.start_day_of_month,
        )

    # ------------------------------------------------------------ serving
    def predict(self, horizon: int, model=None, window=None) -> np.ndarray:
        fragments = self.backend.predict(horizon, model=model, window=window)
        scores = np.empty(self.config.n_sectors, dtype=np.float64)
        for shard, fragment in enumerate(fragments):
            scores[self.plan.sectors_of(shard)] = fragment
        return scores

    def run_jsonl(self, lines: Iterable[str], out: IO[str]) -> int:
        """JSONL driver, same protocol as the single-engine service.

        ``tick`` goes through :meth:`submit_tick`; ``predict`` and
        ``stats`` answer from the merged fleet; error handling matches
        :meth:`HotSpotService.run_jsonl` (bad lines emit structured
        error events, only sink :class:`OSError` propagates).
        """
        processed = 0
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            processed += 1
            try:
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as error:
                    self._emit_error(out, line_no, None, "malformed_json", error)
                    continue
                if not isinstance(request, dict):
                    self._emit_error(
                        out, line_no, None, "not_an_object",
                        TypeError(
                            f"expected a JSON object, got {type(request).__name__}"
                        ),
                    )
                    continue
                op = request.get("op")
                if op == "stop":
                    self._emit(out, {"type": "stopped", "processed": processed})
                    break
                if op == "tick" or op == "predict" or op == "stats":
                    self._handle(out, request, op)
                else:
                    self._emit_error(
                        out, line_no, op, "unknown_op",
                        ValueError(f"unknown op {op!r}"),
                    )
            except OSError:
                raise
            except Exception as error:  # noqa: BLE001 - fleet must survive bad input
                op = request.get("op") if isinstance(request, dict) else None
                self._emit_error(out, line_no, op, "operation_failed", error)
        return processed

    def _handle(self, out: IO[str], request: dict, op: str) -> None:
        if op == "tick":
            values = np.asarray(request["values"], dtype=np.float64)
            missing = request.get("missing")
            if missing is not None:
                missing = np.asarray(missing, dtype=bool)
            calendar = request.get("calendar")
            if calendar is not None:
                calendar = np.asarray(calendar, dtype=np.float64)
            hour = request.get("hour")
            if hour is not None:
                hour = int(hour)
            for event in self.submit_tick(values, missing, calendar, hour=hour):
                self._emit(out, event)
        elif op == "predict":
            scores = self.predict(
                int(request["horizon"]),
                model=request.get("model"),
                window=request.get("window"),
            )
            self._emit(
                out,
                {
                    "type": "prediction",
                    "t_day": self.t_day,
                    "horizon": int(request["horizon"]),
                    "scores": [float(s) for s in scores],
                },
            )
        elif op == "stats":
            self._emit(out, {"type": "stats", **self.stats()})

    def _emit_error(self, out, line_no, op, reason, error) -> None:
        self.telemetry.inc("stream_errors")
        self._emit(
            out,
            {
                "event": "error",
                "type": "error",
                "line": line_no,
                "op": op,
                "reason": reason,
                "error": type(error).__name__,
                "message": str(error),
            },
        )

    @staticmethod
    def _emit(out: IO[str], event: dict) -> None:
        out.write(json.dumps(event) + "\n")
        out.flush()

    # -------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Merged fleet snapshot: pooled telemetry + per-shard counters."""
        shard_stats = self.backend.stats()
        merged = self.telemetry.merge(self.backend.telemetries())
        snapshot = merged.stats()
        snapshot["fleet"] = {
            "n_shards": self.plan.n_shards,
            "generation": self.plan.generation,
            "clock": self.clock,
            "backend": self.backend.name,
            "per_shard": [s.get("shard", {}) for s in shard_stats],
        }
        snapshot["resilience"] = {"dead_letters": self.dead_letters.stats()}
        if hasattr(self.backend, "supervisor_stats"):
            snapshot["fleet"]["supervisor"] = self.backend.supervisor_stats()
        return snapshot

    def close(self) -> None:
        """Shut the backend down (terminate/join forked workers); idempotent."""
        backend, self.backend = self.backend, None
        if backend is not None:
            backend.close()

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# factory
# --------------------------------------------------------------------------
def build_fleet(
    directory: str | Path,
    config: FleetConfig,
    n_shards: int,
    jobs: int = 1,
    resume: bool = False,
    plan: PartitionPlan | None = None,
    clock: int | None = None,
    supervise=None,
    chaos=None,
    on_event=None,
) -> FleetCoordinator:
    """Construct a fresh fleet (use :func:`~repro.fleet.recovery
    .recover_fleet` to resume one — it computes the plan and clock).

    ``supervise`` (a :class:`~repro.fleet.supervisor.SupervisorConfig`)
    selects the self-healing one-process-per-shard backend; ``chaos``
    (a :class:`~repro.resilience.chaos.ProcessChaos`) arms its
    deterministic process-fault schedule and ``on_event`` observes
    out-of-stream supervision events.  Otherwise ``jobs`` > 1 asks for
    the process backend.  Either way unavailability degrades to the
    serial backend with the identical merged stream.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if plan is None:
        if resume:
            plan = PartitionPlan.load(directory)
        else:
            plan = PartitionPlan.compute(config.n_sectors, n_shards)
            plan.save(directory)
    backend = None
    if supervise is not None:
        from repro.fleet.supervisor import FleetSupervisor

        try:
            backend = FleetSupervisor(
                directory, plan, config, resume,
                supervise=supervise, chaos=chaos, on_event=on_event,
            )
        except PoolUnavailable:
            backend = None
    elif effective_jobs(jobs, plan.n_shards) > 1:
        try:
            backend = ProcessBackend(
                directory, plan, config, resume, effective_jobs(jobs, plan.n_shards)
            )
        except (PoolUnavailable, SharedMemoryUnavailable):
            backend = None
    if backend is None:
        backend = SerialBackend.build(directory, plan, config, resume)
    if clock is None:
        clock = recovered_clock(directory, backend.shard_hours()) if resume else 0
    coordinator = FleetCoordinator(
        directory, plan, config, backend, clock=clock
    )
    if hasattr(backend, "bind"):
        backend.bind(coordinator)
    return coordinator


def recovered_clock(directory: str | Path, shard_hours: list[int]) -> int:
    """The resume clock implied by the watermark and the shard WALs.

    ``m = min(shard hours)`` bounds how far every shard verifiably got;
    the watermark ``w`` records the last acknowledged hour + 1.  The
    fleet resumes from ``w``: everything before it was released to the
    consumer, everything in ``[w, m)`` was journaled by (some or all)
    shards but never acknowledged — a per-hour crash leaves that window
    at most one hour wide, a mid-block crash up to a block wide — and
    re-driving it makes shards re-emit their persisted responses
    (at-most-once with respect to the watermark, exactly once with
    respect to the WALs).  ``w`` can never validly exceed ``m``;
    clamping guards against a hand-edited watermark.
    """
    m = min(shard_hours)
    path = Path(directory) / WATERMARK_NAME
    watermark = 0
    if path.exists():
        watermark = int(
            json.loads(path.read_text(encoding="utf-8"))["emitted_hours"]
        )
    return max(0, min(watermark, m))
