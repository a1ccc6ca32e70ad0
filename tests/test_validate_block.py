"""The columnar block probe against the per-tick rules it stands in for.

``TickValidator.validate_block`` lets a whole micro-batch skip per-hour
validation, so it must never accept a block that per-column
``validate()`` would treat differently: whenever it accepts, every
column is a plain ACCEPT with no gap and the returned arrays are the
stacked per-tick payloads, bit for bit.  ``DarkSectorTracker
.observe_block`` must replay ``observe`` once per hour exactly.  Both
are checked by derandomized Hypothesis properties on small blocks; the
time-axis anchor (``start_hour``) is checked end to end on the guarded
engine and the serial fleet.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetConfig, build_fleet
from repro.resilience import DarkSectorTracker, ResilientHotSpotService, TickValidator
from repro.resilience.validate import ACCEPT
from repro.serve import HotSpotService, ModelRegistry, ServeConfig, StreamIngestor
from repro.serve.engine import PredictionEngine
from repro.serve.ingest import default_calendar_row

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


@st.composite
def blocks(draw):
    """A small block with bad entries near the budget, calendar faults,
    and hour stamps off the clock by a little."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    n_hours = draw(st.integers(1, 6))
    budget = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    start_hour = draw(st.integers(0, 23))
    clock = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    values = rng.normal(size=(n, n_hours, k)) * 10.0
    flagged = np.zeros((n, n_hours, k), dtype=bool)
    edge = int(budget * n * k)
    for j in range(n_hours):
        # Bad entries per hour sit on, just under or just over the budget.
        count = min(max(edge + draw(st.integers(-1, 1)), 0), n * k)
        cells = rng.choice(n * k, size=count, replace=False)
        for cell in cells:
            kind = draw(st.sampled_from(["nan", "inf", "-inf", "flag"]))
            i, c = divmod(int(cell), k)
            if kind == "flag":
                flagged[i, j, c] = True
            else:
                values[i, j, c] = float(kind)
    missing = flagged if draw(st.booleans()) else None

    first_hour = draw(st.sampled_from([None, 0, 0, 0, -1, 1, 2]))
    if first_hour is not None:
        first_hour += clock
    rows = None
    if draw(st.booleans()):
        rows = np.stack(
            [default_calendar_row(clock + j, start_hour=start_hour) for j in range(n_hours)]
        )
        fault = draw(st.sampled_from(["none", "none", "hod", "nan", "frac", "neg_frac"]))
        j = draw(st.integers(0, n_hours - 1))
        if fault == "hod":
            rows[j, 0] = (rows[j, 0] + draw(st.integers(1, 23))) % 24
        elif fault == "nan":
            rows[j, draw(st.integers(0, 4))] = np.nan
        elif fault == "frac":
            rows[j, 0] += 0.5  # int() truncates: still the right hour
        elif fault == "neg_frac" and rows[j, 0] == 0:
            rows[j, 0] = -0.5  # truncates to 0 as well
    validator = TickValidator(
        n_sectors=n, n_kpis=k, max_bad_fraction=budget, start_hour=start_hour
    )
    return validator, values, missing, rows, first_hour, clock


@PROPERTY
@given(blocks())
def test_block_probe_accepts_only_what_every_column_accepts(case):
    validator, values, missing, rows, first_hour, clock = case
    n_hours = values.shape[1]
    block = validator.validate_block(values, missing, rows, first_hour, clock)
    verdicts = [
        validator.validate(
            values[:, j, :],
            None if missing is None else missing[:, j, :],
            None if rows is None else rows[j],
            hour=None if first_hour is None else first_hour + j,
            clock=clock + j,
        )
        for j in range(n_hours)
    ]
    plain = [v.action == ACCEPT and v.gap_hours == 0 for v in verdicts]
    # On well-shaped input the probe is exact, not merely safe, so the
    # fast path cannot silently go dead.
    assert (block is not None) == all(plain)
    if block is None:
        return
    block_values, block_missing, block_rows = block
    assert _bits(block_values) == _bits(np.stack([v.values for v in verdicts], axis=1))
    assert _bits(block_missing) == _bits(np.stack([v.missing for v in verdicts], axis=1))
    if rows is None:
        assert block_rows is None
        assert all(v.calendar_row is None for v in verdicts)
    else:
        assert _bits(block_rows) == _bits(np.stack([v.calendar_row for v in verdicts]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_hours=st.integers(1, 4),
    reshape=st.sampled_from(["missing", "rows", "ndim"]),
)
def test_block_probe_rejects_misshaped_input(n_hours, reshape):
    """Misshaped masks and calendars only ever cost the fast path."""
    validator = TickValidator(n_sectors=2, n_kpis=3)
    values = np.ones((2, n_hours, 3))
    missing, rows = None, None
    if reshape == "missing":
        missing = np.zeros((2, n_hours + 1, 3), dtype=bool)
    elif reshape == "rows":
        rows = np.zeros((n_hours, 4))
    else:
        values = values[:, :, 0]
    assert validator.validate_block(values, missing, rows, None, 0) is None


@st.composite
def dark_runs(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    threshold = draw(st.integers(1, 6))
    before = draw(st.integers(0, 10))
    n_hours = draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dark_rate = draw(st.sampled_from([0.3, 0.7, 0.95]))

    def masks(hours):
        fully = rng.random((n, hours)) < dark_rate
        partial = rng.random((n, hours, k)) < 0.5
        partial[..., 0] = False  # a partly-missing hour is not dark
        return np.where(fully[:, :, None], True, partial)

    return threshold, masks(before), masks(n_hours)


@PROPERTY
@given(dark_runs())
def test_observe_block_replays_observe(case):
    threshold, warmup, block = case
    n = block.shape[0]
    hourly = DarkSectorTracker(n, threshold_hours=threshold)
    blocked = DarkSectorTracker(n, threshold_hours=threshold)
    # Runs that start before the block carry into it.
    for j in range(warmup.shape[1]):
        hourly.observe(warmup[:, j, :])
        blocked.observe(warmup[:, j, :])
    expected = []
    for j in range(block.shape[1]):
        for sector in hourly.observe(block[:, j, :]):
            expected.append((j, int(sector), hourly.missing_run(int(sector))))
    offsets, sectors, runs = blocked.observe_block(block)
    assert list(zip(offsets.tolist(), sectors.tolist(), runs.tolist())) == expected
    assert [blocked.missing_run(s) for s in range(n)] == [
        hourly.missing_run(s) for s in range(n)
    ]
    assert blocked.went_dark_total == hourly.went_dark_total
    assert blocked.stats() == hourly.stats()


def test_observe_block_crosses_threshold_inside_block():
    tracker = DarkSectorTracker(2, threshold_hours=3)
    tracker.observe(np.array([[True, True], [False, True]]))  # sector 0 at run 1
    block = np.ones((2, 4, 2), dtype=bool)
    offsets, sectors, runs = tracker.observe_block(block)
    assert list(zip(offsets.tolist(), sectors.tolist(), runs.tolist())) == [
        (1, 0, 3),
        (2, 1, 3),
    ]
    assert tracker.missing_run(0) == 5 and tracker.missing_run(1) == 4


# --------------------------------------------------------------------------
# time-axis anchor: start_hour reaches the calendar check
# --------------------------------------------------------------------------
START_HOUR = 6
N_SECTORS, N_KPIS = 6, 21


def _ticks(n_hours, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.random((N_SECTORS, n_hours, N_KPIS))
    rows = np.stack(
        [default_calendar_row(h, start_hour=START_HOUR) for h in range(n_hours)]
    )
    return values, rows


def test_for_ingestor_carries_start_hour():
    ingestor = StreamIngestor(N_SECTORS, start_hour=START_HOUR)
    validator = TickValidator.for_ingestor(ingestor)
    assert validator.start_hour == START_HOUR
    verdict = validator.validate(
        np.ones((N_SECTORS, N_KPIS)), calendar_row=ingestor._default_calendar_row(0),
        hour=0, clock=0,
    )
    assert verdict.action == ACCEPT, verdict.detail
    assert TickValidator.for_ingestor(ingestor, start_hour=0).start_hour == 0


@pytest.mark.parametrize("blocked", [False, True])
def test_guarded_engine_accepts_its_own_calendar_rows(tmp_path, blocked):
    ingestor = StreamIngestor(N_SECTORS, w_max=7, start_hour=START_HOUR)
    engine = PredictionEngine(ingestor, ModelRegistry(tmp_path / "registry"), window=3)
    guarded = ResilientHotSpotService(
        HotSpotService(engine, ServeConfig(horizons=(1,), start_day=100))
    )
    values, rows = _ticks(48)
    if blocked:
        events = guarded.submit_block(values[:, :24], None, rows[:24], first_hour=0)
        events += guarded.submit_block(values[:, 24:], None, rows[24:], first_hour=24)
    else:
        events = []
        for h in range(48):
            events += guarded.submit_tick(values[:, h], None, rows[h], hour=h)
    assert not [e for e in events if e.get("event") == "quarantine"]
    assert guarded.dead_letters.total == 0
    assert guarded.ingestor.hours_seen == 48
    np.testing.assert_array_equal(guarded.ingestor.calendar[:48], rows)


@pytest.mark.parametrize("blocked", [False, True])
def test_serial_fleet_accepts_anchored_calendar_rows(tmp_path, blocked):
    config = FleetConfig(
        n_sectors=N_SECTORS, n_kpis=N_KPIS, registry_root=str(tmp_path / "registry"),
        window=3, start_day=100, w_max=7, start_hour=START_HOUR,
    )
    values, rows = _ticks(48, seed=1)
    with build_fleet(tmp_path / "fleet", config, n_shards=2) as fleet:
        if blocked:
            events = fleet.submit_block(values, None, rows, first_hour=0)
        else:
            events = []
            for h in range(48):
                events += fleet.submit_tick(values[:, h], None, rows[h], hour=h)
        assert not [e for e in events if e.get("event") == "quarantine"]
        assert fleet.dead_letters.total == 0
        assert fleet.clock == 48
        assert fleet.validator.start_hour == START_HOUR
