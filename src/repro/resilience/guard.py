"""The fault-tolerant serving front: validate → ingest → journal → mask.

:class:`ResilientHotSpotService` wraps a plain
:class:`~repro.serve.service.HotSpotService` with the full resilience
pipeline.  Every incoming tick passes through:

1. **validation** (:class:`~repro.resilience.validate.TickValidator`) —
   malformed ticks land in the bounded dead-letter queue with a
   structured reason; idempotent duplicates are reconciled (dropped,
   counted); forward clock gaps within budget are filled with synthetic
   all-missing hours so lost hours read as darkness, not corruption;
2. **ingest + alerting** — the wrapped service runs as usual (with a
   :class:`~repro.resilience.degrade.ResilientPredictionEngine` the
   forecast path degrades instead of raising);
3. **journaling** (:class:`~repro.resilience.checkpoint
   .CheckpointManager`, optional) — accepted ticks (gap fills included)
   hit the write-ahead log after they are applied but *before* their
   events are released to the caller, and periodic atomic snapshots
   bound replay time after a crash; a tick interrupted mid-apply is
   absent from the journal and re-processed (events re-emitted) on
   resume, never acknowledged-then-lost;
4. **dark-sector masking** — sectors whose fully-missing run exceeds
   the Sec. II-C threshold are stripped from alert events until they
   report again; an alert emptied this way is replaced by an
   ``alert_suppressed`` event.

Resilience events (quarantine, gap_fill, duplicate, sector_dark,
alert_suppressed, degraded, recovered) flow through the shared
:class:`~repro.serve.telemetry.ServeTelemetry` event log and are also
returned inline with the tick's events, so drivers can stream them.
"""

from __future__ import annotations

import numpy as np

from repro.data.tensor import HOURS_PER_DAY
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.validate import (
    ACCEPT,
    QUARANTINE,
    RECONCILE,
    DarkSectorTracker,
    DeadLetterQueue,
    TickValidator,
)
from repro.serve.service import HotSpotService
from repro.serve.telemetry import ServeTelemetry

__all__ = ["ResilientHotSpotService"]


class ResilientHotSpotService:
    """Fault-tolerant wrapper around a :class:`HotSpotService`.

    Parameters
    ----------
    service:
        The wrapped alerting service (its engine supplies the ingestor,
        telemetry, and forecast path).
    validator:
        Tick validator; defaults to one shaped for the ingestor.
    dead_letters:
        Quarantine queue; defaults to a 256-record ring.
    dark_tracker:
        Dark-sector run tracker; defaults to the half-week threshold.
    checkpoint:
        Optional checkpoint manager.  When given, every accepted tick is
        journaled before ingest and snapshots are taken on its cadence.
    """

    def __init__(
        self,
        service: HotSpotService,
        validator: TickValidator | None = None,
        dead_letters: DeadLetterQueue | None = None,
        dark_tracker: DarkSectorTracker | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> None:
        self.service = service
        self.engine = service.engine
        ingestor = self.engine.ingestor
        self.validator = validator or TickValidator.for_ingestor(ingestor)
        if (self.validator.n_sectors, self.validator.n_kpis) != (
            ingestor.n_sectors, ingestor.n_kpis
        ):
            raise ValueError(
                f"validator is shaped ({self.validator.n_sectors}, "
                f"{self.validator.n_kpis}), ingestor ({ingestor.n_sectors}, "
                f"{ingestor.n_kpis})"
            )
        self.dead_letters = dead_letters or DeadLetterQueue()
        self.dark = dark_tracker or DarkSectorTracker(ingestor.n_sectors)
        self.checkpoint = checkpoint
        #: Optional per-hour event tap: ``tap(hour, events)`` is called
        #: with the hour's *final* (dark-masked, gap-prefixed) event
        #: list after the tick is applied but **before** the WAL append.
        #: The gateway points this at its durable event journal: any
        #: hour the WAL acknowledges therefore already has its events
        #: persisted for SSE delivery, so a crash between journal and
        #: delivery re-emits instead of losing them.  The tap must be
        #: idempotent per hour — a crash before the WAL append makes
        #: the re-sent tick recompute the identical event list.
        self.event_tap = None

    @property
    def telemetry(self) -> ServeTelemetry:
        return self.service.telemetry

    @property
    def ingestor(self):
        return self.engine.ingestor

    # -------------------------------------------------------------- ticks
    def submit_tick(
        self,
        values,
        missing=None,
        calendar_row=None,
        hour: int | None = None,
    ) -> list[dict]:
        """Validate and (maybe) ingest one tick; returns all events.

        Never raises on bad input: malformed/late/conflicting ticks are
        quarantined, idempotent duplicates reconciled, short forward
        gaps filled with all-missing hours.  Returned events mix the
        wrapped service's day/alert events with resilience events.
        """
        verdict = self.validator.validate(
            values,
            missing,
            calendar_row,
            hour=hour,
            clock=self.ingestor.hours_seen,
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
        if self.checkpoint is not None:
            # Snapshot at tick *entry*, before the new tick is applied:
            # the state covered is identical to snapshotting right
            # after the previous tick, but the slow npz write never
            # sits between a journaled tick and the release of its
            # events — a kill during the snapshot leaves this tick
            # unjournaled and it is re-processed on resume.
            self.checkpoint.maybe_snapshot(self.ingestor)
        events: list[dict] = []
        for _ in range(verdict.gap_hours):
            events.extend(self._ingest_gap_hour())
        events.extend(
            self._ingest(verdict.values, verdict.missing, verdict.calendar_row)
        )
        return events

    def submit_block(
        self,
        values,
        missing=None,
        calendar_rows=None,
        first_hour: int | None = None,
    ) -> list[dict]:
        """Validate and ingest a micro-batch of consecutive hours.

        The whole block is probed at once
        (:meth:`~repro.resilience.validate.TickValidator.validate_block`)
        against the clocks its columns would meet in per-hour order.
        When every column is a plain accept — no quarantines,
        duplicates, or gaps — the block takes the fast path: columnar
        ingest, one batched WAL flush, and vectorized dark-run tracking
        and masking per day chunk, producing the same event stream as
        the per-hour driver.  Otherwise the whole block falls back to
        per-hour :meth:`submit_tick`, whose quarantine/reconcile/gap
        handling is unchanged.

        *first_hour* is the declared hour of column 0 (``None`` trusts
        arrival order); column *j* declares ``first_hour + j``.
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
        clock = self.ingestor.hours_seen

        # The validator is stateless, so a rejected probe costs nothing:
        # the per-hour path re-validates every column and renders each
        # one's real verdict.
        block = self.validator.validate_block(
            values, missing, calendar_rows, first_hour, clock
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

        if self.checkpoint is not None:
            # Snapshot once at block entry (see submit_tick); within a
            # block the cadence check is deferred to the next block,
            # which only bounds recovery replay length, never parity.
            self.checkpoint.maybe_snapshot(self.ingestor)
        block_values, block_missing, calendar_block = block
        if calendar_block is None:
            # Defaulted calendar rows are exactly what the ingestor would
            # synthesise itself, so filling them in keeps bitwise parity
            # while giving the journal concrete rows to record.
            calendar_block = np.stack(
                [self.ingestor._default_calendar_row(clock + j) for j in range(n_hours)]
            )

        events = []
        start = 0
        while start < n_hours:
            to_boundary = HOURS_PER_DAY - (clock + start) % HOURS_PER_DAY
            stop = min(start + to_boundary, n_hours)
            chunk_events = self.service.ingest_block(
                block_values[:, start:stop, :],
                block_missing[:, start:stop, :],
                calendar_block[start:stop],
            )
            # Apply → journal → acknowledge, at chunk granularity: day
            # events release only after every hour feeding them is in
            # the WAL, so a crash mid-journal re-processes the chunk and
            # re-emits its events rather than losing them.
            if self.checkpoint is not None:
                self.checkpoint.record_block(
                    clock + start,
                    block_values[:, start:stop, :],
                    block_missing[:, start:stop, :],
                    calendar_block[start:stop],
                )
            offsets, sectors, runs = self.dark.observe_block(
                block_missing[:, start:stop, :]
            )
            dark_events = [
                self.telemetry.event(
                    "sector_dark", sector=int(sector), hour=clock + start + int(offset),
                    missing_run=int(run),
                )
                for offset, sector, run in zip(offsets, sectors, runs)
            ]
            events.extend(dark_events + self._mask_dark_alerts(chunk_events))
            start = stop
        return events

    def run_jsonl(self, lines, out) -> int:
        """JSONL driver with the resilience pipeline in front.

        Same stream protocol as :meth:`HotSpotService.run_jsonl`, but
        every ``tick`` operation goes through :meth:`submit_tick` —
        validated, quarantined/reconciled/gap-filled as needed, and
        journaled/snapshotted when a checkpoint manager is attached —
        instead of hitting the ingestor directly.  A tick may declare
        its ``"hour"`` for duplicate/gap detection.
        """
        return self.service.run_jsonl(lines, out, tick_handler=self.submit_tick)

    def _ingest_gap_hour(self) -> list[dict]:
        """Synthesise one all-missing hour for a lost tick."""
        ingestor = self.ingestor
        hour = ingestor.hours_seen
        values = np.full((ingestor.n_sectors, ingestor.n_kpis), np.nan)
        missing = np.ones_like(values, dtype=bool)
        calendar = ingestor._default_calendar_row(hour)
        self.telemetry.inc("ticks_gap_filled")
        return self._ingest(
            values,
            missing,
            calendar,
            prefix=[self.telemetry.event("gap_fill", hour=hour)],
        )

    def _ingest(
        self,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_row,
        prefix: list[dict] | None = None,
    ) -> list[dict]:
        ingestor = self.ingestor
        hour = ingestor.hours_seen
        journal_calendar = (
            ingestor._default_calendar_row(hour)
            if calendar_row is None
            else calendar_row
        )
        events = self.service.ingest_hour(values, missing, calendar_row)
        newly_dark = self.dark.observe(missing)
        dark_events = [
            self.telemetry.event(
                "sector_dark", sector=int(sector), hour=hour,
                missing_run=self.dark.missing_run(int(sector)),
            )
            for sector in newly_dark
        ]
        released = (prefix or []) + dark_events + self._mask_dark_alerts(events)
        # Apply → (tap) → journal → acknowledge.  The WAL append sits
        # between the (potentially slow) ingest/forecast step and the
        # return of the tick's events: a crash mid-apply leaves the hour
        # out of the journal, so recovery re-processes it and its events
        # are re-emitted rather than silently lost — journaling *before*
        # apply would acknowledge hours whose alerts nobody ever saw.
        # The event tap fires with the final released list just before
        # the WAL append, so any journaled hour has its events durably
        # captured first (see :attr:`event_tap`).
        if self.event_tap is not None:
            self.event_tap(hour, released)
        if self.checkpoint is not None:
            self.checkpoint.record_tick(hour, values, missing, journal_calendar)
        return released

    def _ring_payload(self, hour: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Ring contents for *hour*, for duplicate reconciliation."""
        ingestor = self.ingestor
        if not 0 <= hour < ingestor.hours_seen:
            return None
        if hour < ingestor.hours_seen - ingestor.capacity:
            return None  # evicted: cannot prove idempotency
        slot = hour % ingestor.capacity
        return ingestor.values[:, slot, :], ingestor.missing[:, slot, :]

    # ----------------------------------------------------------- alerting
    def _mask_dark_alerts(self, events: list[dict]) -> list[dict]:
        """Strip dark sectors out of alert events (never alert on them)."""
        dark = self.dark.dark_mask
        if not dark.any():
            return events
        out: list[dict] = []
        for event in events:
            if event.get("type") != "alert":
                out.append(event)
                continue
            keep = [i for i, s in enumerate(event["sectors"]) if not dark[s]]
            removed = len(event["sectors"]) - len(keep)
            if removed:
                self.telemetry.inc("alert_sectors_suppressed_dark", removed)
            if not keep:
                out.append(
                    self.telemetry.event(
                        "alert_suppressed",
                        t_day=event["t_day"],
                        horizon=event["horizon"],
                        reason="all alerted sectors are dark",
                    )
                )
                continue
            if removed:
                event = {
                    **event,
                    "sectors": [event["sectors"][i] for i in keep],
                    "scores": [event["scores"][i] for i in keep],
                }
            out.append(event)
        return out

    # -------------------------------------------------------------- stats
    def stats(self) -> dict:
        snapshot = self.service.stats()
        snapshot["resilience"] = {
            "dead_letters": self.dead_letters.stats(),
            "dark_sectors": self.dark.stats(),
        }
        if self.checkpoint is not None:
            snapshot["resilience"]["checkpoint"] = self.checkpoint.stats()
        return snapshot
