"""Tick validation, quarantine, and dark-sector tracking.

The serving layer's parity contract (:mod:`repro.serve.ingest`) only
holds for well-formed input: correctly shaped float64 KPI matrices, a
consistent calendar row, and one tick per hour in order.  Real O&M feeds
violate all of that — sectors go dark, hours are lost, payloads arrive
late, duplicated, or corrupted (paper Sec. II-C motivates its filtering
step with exactly this).  This module is the contract's gatekeeper:

* :class:`TickValidator` checks every incoming tick against the
  ingestor's contract (shape, dtype, NaN/inf budget, calendar
  consistency, hour monotonicity via the ring-buffer clock) and renders
  a :class:`TickVerdict` — accept, reconcile (idempotent duplicate), or
  quarantine with a structured reason; :meth:`TickValidator.validate_block`
  probes a whole micro-batch at once for the all-accept fast path;
* :class:`DeadLetterQueue` holds quarantined ticks in a bounded ring so
  operators can inspect failures without the queue growing without
  bound;
* :class:`DarkSectorTracker` counts per-sector runs of fully-missing
  hours (one hour at a time or a block at once) and flags sectors whose
  run exceeds the Sec. II-C threshold (half a week by default,
  mirroring the 50 %-missing-per-week sector filter) so downstream
  forecasts and alerts can mask them.

Validation never mutates ingestor state; the resilient service
(:mod:`repro.resilience.guard`) acts on the verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.tensor import HOURS_PER_DAY, HOURS_PER_WEEK
from repro.serve.ingest import StreamIngestor

__all__ = [
    "ACCEPT",
    "QUARANTINE",
    "RECONCILE",
    "TickVerdict",
    "TickValidator",
    "DeadLetterQueue",
    "DarkSectorTracker",
]

#: Verdict actions.
ACCEPT = "accept"
RECONCILE = "reconcile"
QUARANTINE = "quarantine"

#: Calendar rows are 5-element vectors (hour, weekday, day-of-month,
#: weekend flag, holiday flag) — see repro.synth.calendar_info.
_CALENDAR_WIDTH = 5


@dataclass
class TickVerdict:
    """Outcome of validating one incoming tick.

    Attributes
    ----------
    action:
        One of :data:`ACCEPT`, :data:`RECONCILE` (idempotent duplicate —
        drop silently, already ingested), :data:`QUARANTINE`.
    reason:
        Machine-readable quarantine/reconcile reason (``None`` on plain
        accept).
    detail:
        Human-readable elaboration for the dead-letter record.
    values, missing, calendar_row:
        The normalised payload (float64 values, boolean mask with
        non-finite entries folded in, float64 calendar).  Only populated
        on accept/reconcile; a quarantined payload is left as received.
    gap_hours:
        Number of missing hours to synthesise *before* ingesting this
        tick (declared hour ran ahead of the ring clock).
    declared_hour:
        The hour the tick claimed to be for (the ring clock when the
        tick carried no hour stamp).
    """

    action: str
    reason: str | None = None
    detail: str | None = None
    values: np.ndarray | None = None
    missing: np.ndarray | None = None
    calendar_row: np.ndarray | None = None
    gap_hours: int = 0
    declared_hour: int | None = None


@dataclass
class TickValidator:
    """Check incoming hourly ticks against the ingestor's contract.

    Parameters
    ----------
    n_sectors, n_kpis:
        Expected payload shape.
    max_bad_fraction:
        NaN/inf budget: the tick is quarantined when more than this
        fraction of its entries is missing or non-finite.  The default
        of 0.5 mirrors the Sec. II-C per-week filtering threshold
        applied at tick granularity.
    max_gap_hours:
        Largest forward clock jump that is reconciled by synthesising
        all-missing gap hours; larger jumps are quarantined (they point
        at a clock fault rather than lost hours).
    check_calendar:
        When True, a supplied calendar row must be a finite 5-vector
        whose hour-of-day field matches the ring clock.
    start_hour:
        Hour-of-day of global hour 0 (the time axis anchor the ingestor
        derives its default calendar rows from): hour *h* is expected to
        carry hour-of-day ``(h + start_hour) % 24``.
    """

    n_sectors: int
    n_kpis: int
    max_bad_fraction: float = 0.5
    max_gap_hours: int = HOURS_PER_DAY
    check_calendar: bool = True
    start_hour: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.max_bad_fraction <= 1.0:
            raise ValueError(
                f"max_bad_fraction must be in (0, 1], got {self.max_bad_fraction}"
            )
        if self.max_gap_hours < 0:
            raise ValueError(f"max_gap_hours must be >= 0, got {self.max_gap_hours}")

    @classmethod
    def for_ingestor(cls, ingestor: StreamIngestor, **overrides) -> "TickValidator":
        """A validator shaped and time-anchored for *ingestor*."""
        overrides.setdefault("start_hour", ingestor.start_hour)
        return cls(
            n_sectors=ingestor.n_sectors, n_kpis=ingestor.n_kpis, **overrides
        )

    # ------------------------------------------------------- shared rules
    # The NaN/inf, budget and calendar rules run on an hours axis, once:
    # validate() applies them to a one-hour block, validate_block() to a
    # whole micro-batch.
    def _fold_bad(
        self, values: np.ndarray, missing: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold NaN/inf into the mask of an ``(n_sectors, n_hours, n_kpis)``
        block; returns the folded mask and each hour's bad-entry fraction.

        The fraction is an integer count divided by ``n_sectors *
        n_kpis`` — bitwise the ``bad.mean()`` of the hour's matrix.
        """
        bad = ~np.isfinite(values)
        if missing is not None:
            bad |= missing
        counts = bad.sum(axis=0).sum(axis=1)  # sectors first: a contiguous reduce
        return bad, counts / (self.n_sectors * self.n_kpis)

    def _calendar_checks(
        self, rows: np.ndarray, first_declared: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-hour checks of ``(n_hours, 5)`` calendar rows declared for
        consecutive hours from *first_declared*.

        Returns ``(finite, expected_hod, hod_ok)``: whether each row is
        finite, the hour-of-day each row must carry, and whether its
        (truncated) hour-of-day field equals it.
        """
        finite = np.isfinite(rows).all(axis=1)
        base = (first_declared + self.start_hour) % HOURS_PER_DAY
        expected = (base + np.arange(rows.shape[0])) % HOURS_PER_DAY
        return finite, expected, np.trunc(rows[:, 0]) == expected

    # ------------------------------------------------------------ validate
    def validate(
        self,
        values,
        missing=None,
        calendar_row=None,
        hour: int | None = None,
        clock: int = 0,
        ring_payload: Callable[[int], tuple[np.ndarray, np.ndarray] | None] | None = None,
    ) -> TickVerdict:
        """Render a verdict for one incoming tick.

        Parameters
        ----------
        values, missing, calendar_row:
            The payload as received (any types — coercion failures are a
            quarantine reason, not an exception).
        hour:
            The hour the tick claims to be for; ``None`` trusts arrival
            order (treated as the current clock).
        clock:
            The ring-buffer clock (``ingestor.hours_seen``): the next
            hour the ingestor expects.
        ring_payload:
            Optional lookup ``hour -> (values, missing)`` into the ring
            for duplicate reconciliation; ``None`` disables it (all
            stale ticks quarantine).
        """
        declared = clock if hour is None else int(hour)

        # --- payload shape and dtype -----------------------------------
        try:
            values = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError) as error:
            return TickVerdict(
                QUARANTINE, "dtype", f"values not numeric: {error}",
                declared_hour=declared,
            )
        expected = (self.n_sectors, self.n_kpis)
        if values.shape != expected:
            return TickVerdict(
                QUARANTINE, "shape",
                f"values shape {values.shape} != expected {expected}",
                declared_hour=declared,
            )
        if missing is not None:
            try:
                missing = np.asarray(missing, dtype=bool)
            except (TypeError, ValueError) as error:
                return TickVerdict(
                    QUARANTINE, "dtype", f"missing mask not boolean: {error}",
                    declared_hour=declared,
                )
            if missing.shape != expected:
                return TickVerdict(
                    QUARANTINE, "shape",
                    f"missing mask shape {missing.shape} != expected {expected}",
                    declared_hour=declared,
                )

        # --- NaN/inf budget --------------------------------------------
        # Non-finite entries (NaN, inf sentinel garbage) are folded into
        # the missing mask; the tick as a whole must stay under the
        # bad-entry budget or it carries no usable signal.
        bad, fractions = self._fold_bad(
            values[:, None, :], None if missing is None else missing[:, None, :]
        )
        bad_fraction = float(fractions[0])
        if bad_fraction > self.max_bad_fraction:
            return TickVerdict(
                QUARANTINE, "bad_value_budget",
                f"{bad_fraction:.1%} of entries missing/non-finite "
                f"(budget {self.max_bad_fraction:.1%})",
                declared_hour=declared,
            )
        missing = bad[:, 0, :]

        # --- calendar consistency --------------------------------------
        if calendar_row is not None:
            try:
                calendar_row = np.asarray(calendar_row, dtype=np.float64).reshape(-1)
            except (TypeError, ValueError) as error:
                return TickVerdict(
                    QUARANTINE, "calendar", f"calendar row not numeric: {error}",
                    declared_hour=declared,
                )
            if calendar_row.shape != (_CALENDAR_WIDTH,):
                return TickVerdict(
                    QUARANTINE, "calendar",
                    f"calendar row has {calendar_row.size} elements, "
                    f"expected {_CALENDAR_WIDTH}",
                    declared_hour=declared,
                )
            if self.check_calendar:
                finite, expected_hod, hod_ok = self._calendar_checks(
                    calendar_row[None, :], declared
                )
                if not finite[0]:
                    return TickVerdict(
                        QUARANTINE, "calendar", "calendar row has non-finite entries",
                        declared_hour=declared,
                    )
                if not hod_ok[0]:
                    return TickVerdict(
                        QUARANTINE, "calendar",
                        f"calendar hour-of-day {calendar_row[0]:.0f} != "
                        f"{int(expected_hod[0])} for hour {declared}",
                        declared_hour=declared,
                    )

        # --- hour monotonicity via the ring clock ----------------------
        if declared < clock:
            payload = ring_payload(declared) if ring_payload is not None else None
            if payload is not None:
                ring_values, ring_missing = payload
                if np.array_equal(
                    ring_values, values, equal_nan=True
                ) and np.array_equal(ring_missing, missing):
                    return TickVerdict(
                        RECONCILE, "duplicate",
                        f"idempotent duplicate of hour {declared}",
                        values=values, missing=missing, calendar_row=calendar_row,
                        declared_hour=declared,
                    )
                return TickVerdict(
                    QUARANTINE, "conflicting_duplicate",
                    f"hour {declared} already ingested with different payload",
                    declared_hour=declared,
                )
            return TickVerdict(
                QUARANTINE, "late",
                f"hour {declared} is behind the ring clock {clock} "
                "(late/out-of-order tick)",
                declared_hour=declared,
            )
        gap = declared - clock
        if gap > self.max_gap_hours:
            return TickVerdict(
                QUARANTINE, "gap_too_large",
                f"hour {declared} jumps {gap} h past the ring clock {clock} "
                f"(max reconcilable gap {self.max_gap_hours} h)",
                declared_hour=declared,
            )
        return TickVerdict(
            ACCEPT,
            values=values, missing=missing, calendar_row=calendar_row,
            gap_hours=gap, declared_hour=declared,
        )

    def validate_block(
        self,
        values: np.ndarray,
        missing: np.ndarray | None,
        calendar_rows: np.ndarray | None,
        first_hour: int | None,
        clock: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
        """Probe a whole ``(n_sectors, n_hours, n_kpis)`` block at once.

        Column *j* declares ``first_hour + j`` (``None`` trusts arrival
        order) and meets the clock ``clock + j``, as in per-hour order.
        Returns the normalised ``(values, missing, calendar_rows)`` —
        bitwise the per-column :meth:`validate` payloads stacked on the
        hours axis — when every column is a plain accept with no gap,
        else ``None``.

        The probe may be stricter than :meth:`validate`, never looser:
        ``None`` only sends the block down the per-hour path, which
        renders each column's real verdict, so an odd-but-acceptable
        block (a misshaped calendar array, a non-integral hour stamp)
        costs speed, never a different outcome.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 3 or values.shape[::2] != (self.n_sectors, self.n_kpis):
            return None
        if first_hour is not None and first_hour != clock:
            return None
        if missing is not None:
            missing = np.asarray(missing, dtype=bool)
            if missing.shape != values.shape:
                return None
        missing, fractions = self._fold_bad(values, missing)
        if (fractions > self.max_bad_fraction).any():
            return None
        if calendar_rows is not None:
            calendar_rows = np.asarray(calendar_rows, dtype=np.float64)
            if calendar_rows.shape != (values.shape[1], _CALENDAR_WIDTH):
                return None
            if self.check_calendar:
                finite, _, hod_ok = self._calendar_checks(calendar_rows, clock)
                if not (finite & hod_ok).all():
                    return None
        return values, missing, calendar_rows


class DeadLetterQueue:
    """Bounded ring of quarantined-tick records.

    Each record is a JSON-able dict (``hour``, ``reason``, ``detail``
    plus whatever context the caller adds).  When the ring is full the
    oldest record is dropped and counted, so totals stay exact while
    memory stays constant.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque[dict] = deque(maxlen=capacity)
        self.total = 0
        self.dropped = 0

    def push(
        self, reason: str, hour: int | None = None, detail: str | None = None, **extra
    ) -> dict:
        """Quarantine one record; returns the stored dict."""
        record = {"hour": hour, "reason": reason, "detail": detail, **extra}
        if len(self._items) == self.capacity:
            self.dropped += 1
        self._items.append(record)
        self.total += 1
        return record

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> list[dict]:
        """Buffered records, oldest first."""
        return list(self._items)

    def counts_by_reason(self) -> dict[str, int]:
        """Histogram of the *buffered* records' reasons."""
        counts: dict[str, int] = {}
        for record in self._items:
            counts[record["reason"]] = counts.get(record["reason"], 0) + 1
        return counts

    def stats(self) -> dict:
        return {
            "buffered": len(self._items),
            "capacity": self.capacity,
            "total": self.total,
            "dropped": self.dropped,
        }


@dataclass
class DarkSectorTracker:
    """Track per-sector runs of fully-missing hours.

    A sector is *dark* once its current run of hours with every KPI
    missing reaches ``threshold_hours``.  The default threshold is half
    a week — the tick-granular analogue of the paper's Sec. II-C rule
    that discards sectors with more than 50 % of a week missing.  Dark
    sectors carry no signal, so the resilient service masks them out of
    alerts until they report again (one non-missing hour resets the
    run).
    """

    n_sectors: int
    threshold_hours: int = HOURS_PER_WEEK // 2
    _run: np.ndarray = field(init=False, repr=False)
    went_dark_total: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.n_sectors < 1:
            raise ValueError(f"n_sectors must be >= 1, got {self.n_sectors}")
        if self.threshold_hours < 1:
            raise ValueError(
                f"threshold_hours must be >= 1, got {self.threshold_hours}"
            )
        self._run = np.zeros(self.n_sectors, dtype=np.int64)

    def observe(self, missing: np.ndarray) -> np.ndarray:
        """Update runs with one hour's ``(n_sectors, n_kpis)`` mask.

        Returns the indices of sectors that crossed into darkness on
        this observation (for event emission).
        """
        missing = np.asarray(missing, dtype=bool)
        if missing.shape[0] != self.n_sectors:
            raise ValueError(
                f"mask covers {missing.shape[0]} sectors, tracker has {self.n_sectors}"
            )
        fully_missing = missing.all(axis=1)
        was_dark = self.dark_mask
        self._run = np.where(fully_missing, self._run + 1, 0)
        newly_dark = np.nonzero(~was_dark & self.dark_mask)[0]
        self.went_dark_total += int(newly_dark.size)
        return newly_dark

    def observe_block(
        self, missing: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Update runs with an ``(n_sectors, n_hours, n_kpis)`` mask block.

        Equal to :meth:`observe` once per hour, without the per-hour
        loop: a run at hour *t* is ``t - b`` where *b* is the last hour
        at or before *t* that was not fully missing (a running
        ``maximum.accumulate`` of break indices), or the carried-in run
        plus ``t + 1`` when the block has no break yet.  Because a run
        grows by exactly one per hour, a sector crosses into darkness
        exactly where its run equals the threshold.

        Returns ``(hour_offset, sector, run)`` of every crossing, in
        hour-then-sector order.
        """
        missing = np.asarray(missing, dtype=bool)
        if missing.ndim != 3 or missing.shape[0] != self.n_sectors:
            raise ValueError(
                f"mask block {missing.shape} does not cover the tracker's "
                f"{self.n_sectors} sectors on (n_sectors, n_hours, n_kpis)"
            )
        n_hours = missing.shape[1]
        fully_missing = missing.all(axis=2)
        offsets = np.arange(n_hours)
        breaks = np.maximum.accumulate(
            np.where(fully_missing, -1, offsets), axis=1
        )
        runs = np.where(
            breaks >= 0, offsets - breaks, self._run[:, None] + offsets + 1
        )
        hours, sectors = np.nonzero(runs.T == self.threshold_hours)
        if n_hours:
            self._run = runs[:, -1].astype(np.int64)
        self.went_dark_total += int(sectors.size)
        return hours, sectors, runs[sectors, hours]

    @property
    def dark_mask(self) -> np.ndarray:
        """Boolean ``(n_sectors,)`` mask; True = currently dark."""
        return self._run >= self.threshold_hours

    @property
    def dark_sectors(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.dark_mask)[0]]

    def missing_run(self, sector: int) -> int:
        """Current consecutive fully-missing-hour run for *sector*."""
        return int(self._run[sector])

    def backfill_from_ring(self, ingestor: StreamIngestor) -> None:
        """Rebuild the runs from *ingestor*'s ring-buffer missing mask.

        After a crash the tracker's in-memory runs are gone; the ring
        buffer, restored from snapshot+WAL, still holds the last
        ``capacity`` hours of per-KPI missing masks.  The trailing
        fully-missing run per sector is recomputed from it exactly:
        because ``threshold_hours`` (84 by default) is far below the
        ring capacity (>= 192 h), any run long enough to matter fits
        entirely inside the ring, so the rebuilt state is equal to the
        uninterrupted tracker's (asserted in the fleet parity tests).
        ``went_dark_total`` is a lifetime counter with no ring
        representation; it is left untouched (zero on a fresh tracker).
        """
        if ingestor.n_sectors != self.n_sectors:
            raise ValueError(
                f"ingestor has {ingestor.n_sectors} sectors, "
                f"tracker has {self.n_sectors}"
            )
        hours = min(ingestor.hours_seen, ingestor.capacity)
        if hours == 0:
            self._run = np.zeros(self.n_sectors, dtype=np.int64)
            return
        slots = [
            (ingestor.hours_seen - hours + i) % ingestor.capacity
            for i in range(hours)
        ]
        fully = ingestor.missing[:, slots, :].all(axis=2)  # (n_sectors, hours)
        rev = fully[:, ::-1]
        broke = ~rev  # True where the trailing run stops
        first_false = np.argmax(broke, axis=1)
        run = np.where(broke.any(axis=1), first_false, hours)
        self._run = run.astype(np.int64)

    def stats(self) -> dict:
        return {
            "dark_now": int(self.dark_mask.sum()),
            "went_dark_total": self.went_dark_total,
            "threshold_hours": self.threshold_hours,
            "longest_run": int(self._run.max()) if self.n_sectors else 0,
        }
