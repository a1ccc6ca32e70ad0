"""Shard worker: one engine, one WAL, one slice of the sector space.

A :class:`ShardWorker` owns the rows of the KPI tensor assigned to it by
the :class:`~repro.fleet.partition.PartitionPlan` and wraps the same
primitives the single-engine serve path composes — a
:class:`~repro.serve.ingest.StreamIngestor` over its local sectors, a
:class:`~repro.resilience.degrade.ResilientPredictionEngine`, its own
:class:`~repro.resilience.checkpoint.CheckpointManager` (WAL + atomic
snapshots) and :class:`~repro.resilience.validate.DarkSectorTracker`,
and optionally a per-shard
:class:`~repro.lifecycle.controller.LifecycleController`.

Deliberate deviation from a naive "worker wraps
``ResilientHotSpotService``" layering: tick *validation* and dark-alert
*masking* are global decisions (a tick is quarantined for the whole
network or not at all, and top-k alert selection must see every
sector's score before dark sectors are stripped), so they live in the
coordinator.  The worker's job is the per-row part: apply the tick,
answer with *fragments* — local hot sectors, the full local score
vector per horizon, newly-dark sectors — that the coordinator merges
into the same event stream the single engine would emit.

Crash consistency per tick (apply → journal → acknowledge):

1. ``maybe_snapshot`` — snapshot boundaries land *between* ticks;
2. apply — engine ingest, fragment computation, lifecycle day hook
   (which commits its own ``lifecycle.json`` first, see DESIGN.md 3e),
   dark-tracker update;
3. persist the response into ``last_events.json`` (atomic, only when
   the response is non-trivial — the empty ⇔ not-persisted invariant;
   the file holds every non-trivial response since the coordinator's
   acknowledged boundary, so mid-block crashes re-emit faithfully);
4. journal the tick into the WAL (the commit point).  Workers open
   their :class:`~repro.resilience.checkpoint.CheckpointManager` with
   ``sync=False``, so the append is flushed to the OS, not fsynced:
   it survives a worker crash, not a power loss.

A worker killed anywhere in that sequence recovers to a state from
which re-driving the same hour yields the identical response: before
step 4 the hour is simply re-applied; after step 4 the worker re-emits
the persisted response (or reconstructs the trivial one) without
touching state.  :attr:`ShardWorker.kill_at` injects
:class:`SimulatedKill` at the three seams for the kill-point suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.store import write_json_atomic
from repro.data.tensor import HOURS_PER_DAY, HOURS_PER_WEEK
from repro.fleet.partition import PartitionPlan
from repro.lifecycle.controller import LifecycleController
from repro.lifecycle.drift import DriftConfig
from repro.lifecycle.promote import PromotionConfig
from repro.lifecycle.retrain import RetrainConfig
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.degrade import ResilientPredictionEngine
from repro.resilience.validate import DarkSectorTracker
from repro.serve.ingest import StreamIngestor
from repro.serve.registry import ModelKey, ModelRegistry

__all__ = [
    "EVENTS_NAME",
    "FleetConfig",
    "FleetLifecycleSpec",
    "FleetProtocolError",
    "ShardWorker",
    "SimulatedKill",
    "build_worker",
]

#: Per-shard file holding the non-trivial responses of the current
#: unacknowledged window, keyed by hour (``{"hours": {hour: response}}``).
EVENTS_NAME = "last_events.json"

#: Hours a sector must be fully missing before it is considered dark
#: (mirrors :class:`DarkSectorTracker`'s default; overridable per fleet
#: so tests can exercise masking without replaying half a week).
DEFAULT_DARK_THRESHOLD = HOURS_PER_WEEK // 2


class SimulatedKill(RuntimeError):
    """Injected crash for the kill-point suite — never raised in prod."""


class FleetProtocolError(RuntimeError):
    """A shard was driven out of protocol (wrong hour, wrong shape)."""


@dataclass(frozen=True)
class FleetLifecycleSpec:
    """Per-shard lifecycle wiring (drift monitor, retrainer, promoter).

    When present each shard runs its own
    :class:`~repro.lifecycle.controller.LifecycleController` against a
    private versioned registry under its checkpoint directory, seeded
    with the global champion.  Retraining then happens on shard-local
    rings, so different shards may legitimately promote different
    versions — the fleet stream is still deterministic and
    crash-consistent for a fixed shard count, but no longer comparable
    to a single-engine run (and resharding is refused, because shard
    lifecycle state cannot be re-partitioned).
    """

    retrain: RetrainConfig
    drift: DriftConfig | None = None
    promotion: PromotionConfig | None = None
    start_day: int | None = None


@dataclass(frozen=True)
class FleetConfig:
    """Everything a worker or coordinator needs to rebuild the fleet.

    Plain picklable data — it crosses the fork boundary into process
    workers and is reconstructed from CLI flags on resume.  Anchors
    (``start_weekday`` etc.) pin every shard's calendar derivation to
    the dataset's time axis so gap synthesis is identical across shards
    and identical to the single-engine path.
    """

    n_sectors: int
    n_kpis: int
    registry_root: str
    model: str = "RF-F1"
    target: str = "hot"
    window: int = 7
    horizons: tuple = (1,)
    start_day: int = 0
    top_k: int = 5
    alert_threshold: float | None = None
    w_max: int = 21
    start_weekday: int = 0
    start_hour: int = 0
    start_day_of_month: int = 1
    snapshot_every: int = 168
    dark_threshold_hours: int = DEFAULT_DARK_THRESHOLD
    lifecycle: FleetLifecycleSpec | None = None

    @classmethod
    def for_dataset(cls, dataset, registry_root: str | Path, **overrides) -> "FleetConfig":
        """Config anchored to *dataset*'s shape and time axis.

        Mirrors :meth:`StreamIngestor.for_dataset` exactly (anchors from
        the time axis, ``start_day_of_month`` left at its default) so a
        fleet over *dataset* synthesises the same gap calendar rows as a
        single engine built the usual way.
        """
        axis = dataset.time_axis
        overrides.setdefault("start_weekday", axis.start_weekday)
        overrides.setdefault("start_hour", axis.start_hour)
        return cls(
            n_sectors=dataset.n_sectors,
            n_kpis=dataset.kpis.n_kpis,
            registry_root=str(registry_root),
            **overrides,
        )


class ShardWorker:
    """One shard's engine, checkpoint, and dark tracker."""

    def __init__(
        self,
        shard_id: int,
        sector_ids: np.ndarray,
        config: FleetConfig,
        ingestor: StreamIngestor,
        engine: ResilientPredictionEngine,
        checkpoint: CheckpointManager,
        dark: DarkSectorTracker,
        controller: LifecycleController | None = None,
        events_path: Path | None = None,
        responses: dict | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.sector_ids = np.asarray(sector_ids, dtype=np.int64)
        self.config = config
        self.ingestor = ingestor
        self.engine = engine
        self.checkpoint = checkpoint
        self.dark = dark
        self.controller = controller
        self._events_path = events_path
        self._responses: dict[int, dict] = dict(responses or {})
        #: ``(point, hour)`` → raise :class:`SimulatedKill` at that seam.
        self.kill_at: tuple | None = None
        #: Optional ``hook(point, hour)`` invoked at every crash seam
        #: before the in-process kill check.  The process-level chaos
        #: harness installs one that SIGKILLs or hangs the hosting
        #: process (:func:`repro.resilience.chaos.install_process_faults`)
        #: so the supervisor sees a real worker death, not an exception.
        self.seam_hook = None

    # ------------------------------------------------------------ driving
    def submit(
        self,
        hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_row: np.ndarray | None,
    ) -> dict:
        """Apply one validated (or gap-synthesised) tick to this shard.

        *values*/*missing* are already sliced to the shard's local rows.
        Hours strictly below the shard clock are re-emitted from the
        persisted response (the post-journal crash window); the hour at
        the clock is applied; anything else is a protocol error.
        """
        hour = int(hour)
        clock = self.ingestor.hours_seen
        if hour < clock:
            return self._reemit(hour)
        if hour != clock:
            raise FleetProtocolError(
                f"shard {self.shard_id} at hour {clock} was driven with "
                f"hour {hour}"
            )
        self.checkpoint.maybe_snapshot(self.ingestor)
        self._maybe_kill("mid_apply", hour)
        tick = self.engine.ingest_hour(values, missing, calendar_row)
        response = self._trivial_response(hour)
        response["day_completed"] = bool(tick.day_completed)
        response["t_day"] = int(tick.t_day)
        if tick.day_completed:
            labels = self.ingestor.labels_daily
            hot_local = np.flatnonzero(labels[:, tick.t_day] == 1)
            response["hot"] = [int(self.sector_ids[i]) for i in hot_local]
            if tick.t_day >= self.config.start_day:
                for horizon in self.config.horizons:
                    scores = self.engine.predict(int(horizon))
                    response["scores"][str(int(horizon))] = [
                        float(s) for s in scores
                    ]
            if self.controller is not None:
                response["lifecycle"] = self.controller.on_day(tick)
        newly_dark = self.dark.observe(missing)
        for local in newly_dark:
            response["dark_new"].append(
                [int(self.sector_ids[int(local)]), int(self.dark.missing_run(int(local)))]
            )
        if tick.day_completed:
            response["dark_mask"] = [bool(x) for x in self.dark.dark_mask]
        if self._nontrivial(response):
            self._persist_responses({hour: response})
        self._maybe_kill("mid_journal", hour)
        if calendar_row is None:
            calendar_row = self.ingestor._default_calendar_row(hour)
        self.checkpoint.record_tick(hour, values, missing, calendar_row)
        self._maybe_kill("post_journal", hour)
        return response

    def submit_block(
        self,
        first_hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_rows: np.ndarray | None,
        released_before: int | None = None,
    ) -> list[dict]:
        """Apply a micro-batch of validated consecutive hours.

        Returns one response dict per block column, identical to what
        per-hour :meth:`submit` calls would produce.  Hours below the
        shard clock re-emit (the post-journal crash window covers whole
        journaled chunks after a mid-block crash); the remainder is
        applied in day-aligned chunks via the columnar engine ingest,
        with the per-hour crash contract at chunk granularity: persist
        every non-trivial response of the chunk, then journal the whole
        chunk with one batched WAL flush.  A crash mid-chunk leaves
        every hour of that chunk out of the journal, so the coordinator
        re-drives the chunk from its first hour on resume.

        *released_before* is the coordinator's acknowledged boundary
        (its watermark at block entry): persisted responses at or past
        it must survive this call's persists, because a crash anywhere
        in the block re-drives from that boundary and every non-trivial
        hour since then must re-emit faithfully — not collapse to the
        trivial response.  When ``None`` (direct single-call use) the
        block's own first hour is the boundary.

        Kill seams fire when the armed hour falls anywhere inside the
        chunk being processed — ``mid_apply`` before the chunk is
        applied, ``mid_journal``/``post_journal`` around its WAL append.
        """
        keep_from = int(first_hour if released_before is None else released_before)
        first_hour = int(first_hour)
        n_hours = int(values.shape[1])
        clock = self.ingestor.hours_seen
        responses: list[dict] = []
        start = 0
        while start < n_hours and first_hour + start < clock:
            responses.append(self._reemit(first_hour + start))
            start += 1
        if start == n_hours:
            return responses
        if first_hour + start != clock:
            raise FleetProtocolError(
                f"shard {self.shard_id} at hour {clock} was driven with "
                f"hour {first_hour + start}"
            )
        while start < n_hours:
            hour0 = first_hour + start
            to_boundary = HOURS_PER_DAY - hour0 % HOURS_PER_DAY
            stop = min(start + to_boundary, n_hours)
            self.checkpoint.maybe_snapshot(self.ingestor)
            self._maybe_kill_range("mid_apply", hour0, first_hour + stop)
            ticks = self.engine.ingest_block(
                values[:, start:stop, :],
                missing[:, start:stop, :],
                None if calendar_rows is None else calendar_rows[start:stop],
            )
            chunk: list[dict] = []
            for j, tick in enumerate(ticks):
                hour = hour0 + j
                response = self._trivial_response(hour)
                response["day_completed"] = bool(tick.day_completed)
                response["t_day"] = int(tick.t_day)
                if tick.day_completed:
                    labels = self.ingestor.labels_daily
                    hot_local = np.flatnonzero(labels[:, tick.t_day] == 1)
                    response["hot"] = [int(self.sector_ids[i]) for i in hot_local]
                    if tick.t_day >= self.config.start_day:
                        for horizon in self.config.horizons:
                            scores = self.engine.predict(int(horizon))
                            response["scores"][str(int(horizon))] = [
                                float(s) for s in scores
                            ]
                    if self.controller is not None:
                        response["lifecycle"] = self.controller.on_day(tick)
                newly_dark = self.dark.observe(missing[:, start + j, :])
                for local in newly_dark:
                    response["dark_new"].append(
                        [
                            int(self.sector_ids[int(local)]),
                            int(self.dark.missing_run(int(local))),
                        ]
                    )
                if tick.day_completed:
                    response["dark_mask"] = [bool(x) for x in self.dark.dark_mask]
                chunk.append(response)
            fresh = {
                hour0 + j: response
                for j, response in enumerate(chunk)
                if self._nontrivial(response)
            }
            if fresh:
                self._persist_responses(fresh, keep_from=keep_from)
            self._maybe_kill_range("mid_journal", hour0, first_hour + stop)
            if calendar_rows is None:
                calendar_block = np.stack(
                    [
                        self.ingestor._default_calendar_row(h)
                        for h in range(hour0, first_hour + stop)
                    ]
                )
            else:
                calendar_block = calendar_rows[start:stop]
            self.checkpoint.record_block(
                hour0,
                values[:, start:stop, :],
                missing[:, start:stop, :],
                calendar_block,
            )
            self._maybe_kill_range("post_journal", hour0, first_hour + stop)
            responses.extend(chunk)
            start = stop
        return responses

    def _reemit(self, hour: int) -> dict:
        """Response for an hour already journaled by this shard.

        Non-trivial responses were persisted *before* the journal append
        (the empty ⇔ not-persisted invariant), so a journaled hour with
        no persisted record was trivial — reconstruct it.  The store
        covers every hour since the coordinator's acknowledged boundary;
        hours older than that only occur when the coordinator replays a
        window the consumer already saw (at-most-once delivery,
        DESIGN.md 3f), and re-emit as trivial.
        """
        persisted = self._responses.get(int(hour))
        if persisted is not None:
            return persisted
        return self._trivial_response(hour)

    def _persist_responses(self, fresh: dict, keep_from: int | None = None) -> None:
        """Atomically persist non-trivial responses for the re-emit path.

        Per-hour ticks are acknowledged every call, so only the current
        hour is retained (*keep_from* ``None``).  Block submissions
        acknowledge nothing until the whole coordinator block returns,
        so entries at or past *keep_from* — the acknowledged boundary —
        survive later chunks' persists.
        """
        if keep_from is None:
            store = {int(h): r for h, r in fresh.items()}
        else:
            store = {
                h: r for h, r in self._responses.items() if h >= int(keep_from)
            }
            store.update({int(h): r for h, r in fresh.items()})
        self._responses = store
        if self._events_path is not None:
            write_json_atomic(
                self._events_path,
                {"hours": {str(h): store[h] for h in sorted(store)}},
            )

    @staticmethod
    def _trivial_response(hour: int) -> dict:
        return {
            "hour": int(hour),
            "day_completed": (hour + 1) % HOURS_PER_DAY == 0,
            "t_day": (hour + 1) // HOURS_PER_DAY - 1,
            "hot": [],
            "scores": {},
            "dark_new": [],
            "dark_mask": [],
            "lifecycle": [],
        }

    @staticmethod
    def _nontrivial(response: dict) -> bool:
        return bool(
            response["day_completed"]
            or response["dark_new"]
            or response["lifecycle"]
        )

    def _maybe_kill(self, point: str, hour: int) -> None:
        if self.seam_hook is not None:
            self.seam_hook(point, hour)
        if self.kill_at == (point, hour):
            self.kill_at = None
            raise SimulatedKill(
                f"simulated crash: shard {self.shard_id} at {point} of hour {hour}"
            )

    def _maybe_kill_range(self, point: str, lo: int, hi: int) -> None:
        """Block-path kill seam: fire when the armed hour is in [lo, hi)."""
        if self.seam_hook is not None:
            for hour in range(lo, hi):
                self.seam_hook(point, hour)
        if self.kill_at is not None and self.kill_at[0] == point:
            hour = self.kill_at[1]
            if lo <= hour < hi:
                self.kill_at = None
                raise SimulatedKill(
                    f"simulated crash: shard {self.shard_id} at {point} of "
                    f"hour {hour} (block chunk [{lo}, {hi}))"
                )

    # ------------------------------------------------------------ queries
    def ring_payload(self, hour: int):
        """Local ring rows for *hour*, or None if outside the window."""
        clock = self.ingestor.hours_seen
        if not 0 <= hour < clock or hour < clock - self.ingestor.capacity:
            return None
        slot = hour % self.ingestor.capacity
        return (
            self.ingestor.values[:, slot, :].copy(),
            self.ingestor.missing[:, slot, :].copy(),
        )

    def predict_fragment(
        self, horizon: int, model: str | None = None, window: int | None = None
    ) -> np.ndarray:
        """Local score vector for *horizon* (full slice, no top-k)."""
        return np.asarray(
            self.engine.predict(int(horizon), model=model, window=window),
            dtype=np.float64,
        )

    def stats(self) -> dict:
        snapshot = self.engine.stats()
        snapshot["shard"] = {
            "shard_id": self.shard_id,
            "n_sectors": int(self.sector_ids.size),
            "hours_seen": self.ingestor.hours_seen,
            "dark_sectors": int(self.dark.dark_mask.sum()),
        }
        if self.controller is not None:
            snapshot["lifecycle"] = self.controller.stats()
        return snapshot

    def close(self) -> None:
        self.checkpoint.close()


def build_worker(
    directory: str | Path,
    plan: PartitionPlan,
    shard_id: int,
    config: FleetConfig,
    resume: bool = False,
) -> ShardWorker:
    """Construct (or recover) the worker for *shard_id*.

    With ``resume`` the shard's checkpoint directory is replayed
    (snapshot + WAL), the dark tracker is rebuilt from the recovered
    ring (:meth:`DarkSectorTracker.backfill_from_ring`), and the last
    persisted response is reloaded for the re-emit path.
    """
    shard_dir = Path(directory) / plan.shard_dir(shard_id)
    sector_ids = plan.sectors_of(shard_id)
    n_local = int(sector_ids.size)
    ingestor: StreamIngestor | None = None
    if resume:
        recovered = CheckpointManager.recover(shard_dir)
        ingestor = recovered.ingestor
    if ingestor is None:
        ingestor = StreamIngestor(
            n_sectors=n_local,
            n_kpis=config.n_kpis,
            w_max=config.w_max,
            start_weekday=config.start_weekday,
            start_hour=config.start_hour,
            start_day_of_month=config.start_day_of_month,
        )
    checkpoint = CheckpointManager.for_ingestor(
        shard_dir, ingestor, snapshot_every=config.snapshot_every
    )
    registry = _shard_registry(shard_dir, config)
    engine = ResilientPredictionEngine(
        ingestor,
        registry,
        target=config.target,
        model=config.model,
        window=config.window,
    )
    dark = DarkSectorTracker(
        n_local, threshold_hours=config.dark_threshold_hours
    )
    if resume:
        dark.backfill_from_ring(ingestor)
    controller = None
    if config.lifecycle is not None:
        spec = config.lifecycle
        controller = LifecycleController(
            engine,
            drift=spec.drift,
            retrain=spec.retrain,
            promotion=spec.promotion,
            state_path=checkpoint.state_path("lifecycle.json"),
            start_day=config.start_day if spec.start_day is None else spec.start_day,
            n_jobs=1,
        )
    events_path = shard_dir / EVENTS_NAME
    responses: dict[int, dict] = {}
    if resume and events_path.exists():
        payload = json.loads(events_path.read_text(encoding="utf-8"))
        if "hours" in payload:
            responses = {int(h): r for h, r in payload["hours"].items()}
        elif "hour" in payload:  # pre-block single-response layout
            responses = {int(payload["hour"]): payload}
    return ShardWorker(
        shard_id=shard_id,
        sector_ids=sector_ids,
        config=config,
        ingestor=ingestor,
        engine=engine,
        checkpoint=checkpoint,
        dark=dark,
        controller=controller,
        events_path=events_path,
        responses=responses,
    )


def _shard_registry(shard_dir: Path, config: FleetConfig) -> ModelRegistry:
    """The registry a shard's engine reads models from.

    Static-champion fleets share the global registry read-only — every
    shard sees the same trained artifacts, which is what single-engine
    parity requires.  Lifecycle fleets get a private registry under the
    shard directory, seeded with the global champion for each serving
    horizon, so per-shard retrains version independently.
    """
    if config.lifecycle is None:
        return ModelRegistry(config.registry_root)
    global_registry = ModelRegistry(config.registry_root)
    shard_registry = ModelRegistry(shard_dir / "registry")
    for horizon in config.horizons:
        key = ModelKey(
            target=config.target,
            model=config.model,
            horizon=int(horizon),
            window=config.window,
        )
        if key not in shard_registry:
            shard_registry.save(key, global_registry.get(key))
    return shard_registry
