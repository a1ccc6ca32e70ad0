"""Ring-seam parity: slice-addressed ring writes and window reads.

A day-aligned block never wraps the ring, but a stream that starts off
a day boundary does: with a first block of 5 hours and 24-hour blocks
after it, block writes and ``feature_window`` reads straddle slot 0.
Each write is split at the seam into slices and each window is copied
from one slice or two; the state and every window must stay bitwise
equal to per-hour ingest and to the concatenating reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tensor import HOURS_PER_DAY
from repro.serve.ingest import StreamIngestor

N, L = 5, 21
WINDOW = 7


def _stream(rng, hours):
    values = rng.random((N, hours, L)) * 10.0
    missing = np.zeros(values.shape, dtype=bool)
    rows = np.stack([StreamIngestor(N)._default_calendar_row(h) for h in range(hours)])
    rows[:, 4] = rng.random(hours) < 0.1  # holidays: rows differ from defaults
    return values, missing, rows


def _assert_state_equal(a: StreamIngestor, b: StreamIngestor) -> None:
    sa, sb = a.state_dict(), b.state_dict()
    assert sa["meta"] == sb["meta"]
    for key in sa["arrays"]:
        assert sa["arrays"][key].tobytes() == sb["arrays"][key].tobytes(), key
    assert a._features.tobytes() == b._features.tobytes()


@pytest.mark.parametrize("first_block", [5, 13, 23])
def test_seam_straddling_blocks_match_hourly_bitwise(rng, first_block):
    hourly = StreamIngestor(N, w_max=WINDOW)
    blocked = StreamIngestor(N, w_max=WINDOW)
    capacity = blocked.capacity
    hours = 3 * capacity + first_block
    values, missing, rows = _stream(rng, hours)

    bounds = [0, *range(first_block, hours, HOURS_PER_DAY), hours]
    straddled_write = straddled_read = 0
    for lo, hi in zip(bounds, bounds[1:]):
        straddled_write += lo // capacity != (hi - 1) // capacity
        for h in range(lo, hi):
            hourly.ingest_hour(values[:, h, :], missing[:, h, :], rows[h])
        blocked.ingest_block(values[:, lo:hi, :], missing[:, lo:hi, :], rows[lo:hi])
        _assert_state_equal(hourly, blocked)
        t_day = blocked.last_complete_day
        if t_day < WINDOW - 1:
            continue
        w_lo, w_hi = HOURS_PER_DAY * (t_day - WINDOW + 1), HOURS_PER_DAY * (t_day + 1)
        straddled_read += w_lo // capacity != (w_hi - 1) // capacity
        window = blocked.feature_window(t_day, WINDOW)
        assert window.tobytes() == hourly.assembled_window(w_lo, w_hi).tobytes()
        assert window.tobytes() == hourly.feature_window(t_day, WINDOW).tobytes()
        gathered = hourly._features[:, np.arange(w_lo, w_hi) % capacity, :]
        assert window.tobytes() == np.ascontiguousarray(gathered).tobytes()
        assert not np.shares_memory(window, blocked._features)

    assert straddled_write and straddled_read, "the stream never crossed slot 0"


def test_ring_spans_split_at_slot_zero():
    ingestor = StreamIngestor(N, w_max=WINDOW)
    capacity = ingestor.capacity
    ingestor.hours_seen = 2 * capacity + 10  # spans only read the clock
    assert ingestor._ring_spans(capacity + 20, capacity + 60) == [slice(20, 60)]
    assert ingestor._ring_spans(2 * capacity - 4, 2 * capacity + 6) == [
        slice(capacity - 4, capacity),
        slice(0, 6),
    ]
    assert ingestor._ring_spans(capacity + 10, 2 * capacity + 10) == [
        slice(10, capacity),
        slice(0, 10),
    ]
    slots = ingestor._ring_slots(2 * capacity - 4, 2 * capacity + 6)
    np.testing.assert_array_equal(slots, np.arange(2 * capacity - 4, 2 * capacity + 6) % capacity)
