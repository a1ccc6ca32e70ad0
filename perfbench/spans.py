"""In-memory spans around the public calls of each layer, and their analysis.

The benchmark measures every layer from outside: :func:`install` replaces
the public functions named in ``DESIGN.md`` with wrappers that record a
span (name, start, end, parent, request id, count) into a :class:`Tracer`
and then call the original.  Nothing under ``src/`` is edited.

Spans use ``time.perf_counter_ns``, which on Linux reads
``CLOCK_MONOTONIC``: one system-wide clock, so spans written by the load
generator, the launched gateway and its forked shard workers can be laid
on one time line.  A forked worker inherits the patched classes; the
tracer notices the new pid, drops the spans copied from its parent, and
the worker writes its own spans when ``ShardWorker.close`` runs.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Layers a span name can start with; everything else is a bug.
LAYERS = ("gateway", "fleet", "resilience", "serve", "core", "ml")


class Tracer:
    """Span store for one process.  Spans stay in memory until :meth:`dump`."""

    def __init__(self, out_dir: str | Path | None = None) -> None:
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = 0
        self._lock = threading.Lock()

    def _own(self) -> None:
        # A forked child starts with a copy of its parent's spans.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self._local = threading.local()
            self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request=None) -> list:
        """Start a span; returns the frame :meth:`close` finishes."""
        self._own()
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._ids += 1
            span_id = self._ids
        if request is None and parent is not None:
            request = parent[3]
        frame = [name, span_id, None if parent is None else parent[1], request, 0,
                 time.perf_counter_ns()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        name, span_id, parent, request, count, start = frame
        with self._lock:
            self.spans.append((name, start, end, span_id, parent, request, count))

    def add(self, name: str, start_ns: int, end_ns: int, request=None, count=0) -> None:
        """Record a span measured by the caller (client-side timings)."""
        self._own()
        with self._lock:
            self._ids += 1
            self.spans.append((name, start_ns, end_ns, self._ids, None, request, count))

    def records(self) -> list[tuple]:
        """This process's spans in the :func:`load_spans` layout."""
        self._own()
        with self._lock:
            return [(self.pid, *span) for span in self.spans]

    def dump(self) -> Path | None:
        """Write this process's spans as JSON lines; returns the file."""
        if self.out_dir is None:
            return None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        records = self.records()
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return path


def load_spans(directory: str | Path) -> list[tuple]:
    """Every span written under *directory*: ``(pid, name, start, end, id, parent, request, count)``."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(tuple(json.loads(line)) for line in handle if line.strip())
    return spans


# ------------------------------------------------------------------ wrappers
def _wrap(tracer, owner, attr, name, request=None, count=None, before=None, after=None):
    """Replace ``owner.attr`` by a span-recording wrapper; returns the undo.

    ``request(args, kwargs)`` names the request the span serves (else it
    inherits its parent's); ``count(args, kwargs, result, state)`` is the
    span's work count, where ``state`` is what ``before(args, kwargs)``
    returned; ``after()`` runs once the span is closed.
    """
    if isinstance(owner, dict):
        original = owner[attr]
        put = owner.__setitem__
    else:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        put = functools.partial(setattr, owner)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name, None if request is None else request(args, kwargs))
        state = None if before is None else before(args, kwargs)
        try:
            result = original(*args, **kwargs)
            if count is not None:
                frame[4] = count(args, kwargs, result, state)
            return result
        finally:
            tracer.close(frame)
            if after is not None:
                after()

    put(attr, wrapper)
    return lambda: put(attr, original)


def _arg(position: int, keyword: str):
    """Request id taken from a call argument (``self`` is position 0)."""

    def get(args, kwargs):
        value = kwargs.get(keyword, args[position] if len(args) > position else None)
        return None if value is None else int(value)

    return get


def _size(path) -> int:
    return 0 if path is None else os.stat(path).st_size


def _file_before(args, kwargs) -> int:
    return _size(args[0].path)


def _file_growth(args, kwargs, result, before) -> int:
    """Bytes the journal file of ``args[0]`` grew by during the call."""
    return _size(args[0].path) - before


_HITS = ("cache_hits", "design_cache_hits")
_MISSES = ("cache_misses", "design_cache_misses")


def _cache_counts(args, kwargs) -> tuple[int, int]:
    telemetry = args[0].telemetry
    hits = sum(telemetry.counter(name) for name in _HITS)
    return hits, hits + sum(telemetry.counter(name) for name in _MISSES)


def _cache_delta(args, kwargs, result, before) -> list[int]:
    """``[hits, lookups]`` of the forecast and design caches during predict."""
    after = _cache_counts(args, kwargs)
    return [after[0] - before[0], after[1] - before[1]]


def install(tracer: Tracer):
    """Wrap every measured public call; returns a function undoing it all."""
    import repro.core.experiment as experiment
    import repro.core.forecaster as forecaster
    import repro.fleet.coordinator as coordinator
    import repro.fleet.supervisor as supervisor
    import repro.fleet.worker as worker
    import repro.serve.engine as engine
    from repro.gateway.journal import EventJournal
    from repro.gateway.sse import SseHub
    from repro.ml.forest import RandomForestClassifier
    from repro.resilience.checkpoint import CheckpointManager, TickJournal
    from repro.resilience.guard import ResilientHotSpotService
    from repro.resilience.validate import DeadLetterQueue, TickValidator
    from repro.serve.engine import PredictionEngine
    from repro.serve.ingest import StreamIngestor
    from repro.serve.service import HotSpotService

    hour1 = _arg(1, "hour")
    one = lambda a, k, r, s: 1  # noqa: E731
    rows = lambda a, k, r, s: r.shape[0]  # noqa: E731
    undo = []

    def wrap(*args, **kwargs):
        undo.append(_wrap(tracer, *args, **kwargs))

    # serve
    wrap(StreamIngestor, "ingest_hour", "serve.ingest", count=one)
    wrap(StreamIngestor, "ingest_block", "serve.ingest",
         count=lambda a, k, r, s: a[1].shape[1])
    wrap(HotSpotService, "ingest_hour", "serve.service")
    wrap(HotSpotService, "ingest_block", "serve.service")
    wrap(PredictionEngine, "predict", "serve.predict",
         before=_cache_counts, count=_cache_delta)
    # core: the serving engine reduces days through the module-level
    # percentile function; forecasters hold the same function in their
    # view table and call it from build_design.
    wrap(engine, "percentile_features", "core.design", count=rows)
    wrap(forecaster.HotSpotForecaster, "build_design", "core.design", count=rows)
    wrap(forecaster._FEATURE_VIEWS, "percentiles", "core.design", count=rows)
    wrap(experiment, "build_feature_tensor", "core.feature_tensor")
    wrap(experiment, "evaluate_ranking", "core.evaluate", count=one)
    wrap(experiment.SweepRunner, "run", "core.sweep")
    wrap(experiment.SweepRunner, "run_cell", "core.cell")
    # ml
    wrap(RandomForestClassifier, "predict_proba", "ml.forest_predict", count=rows)
    wrap(RandomForestClassifier, "fit", "ml.forest_fit",
         count=lambda a, k, r, s: a[0].n_estimators)
    # resilience
    wrap(ResilientHotSpotService, "submit_block", "resilience.guard",
         request=_arg(4, "first_hour"))
    wrap(ResilientHotSpotService, "submit_tick", "resilience.guard",
         request=_arg(4, "hour"))
    wrap(TickValidator, "validate", "resilience.validate")
    wrap(TickJournal, "append", "resilience.wal_append", request=hour1,
         before=_file_before, count=_file_growth)
    wrap(TickJournal, "append_block", "resilience.wal_append",
         request=_arg(1, "first_hour"), before=_file_before, count=_file_growth)
    wrap(CheckpointManager, "snapshot", "resilience.snapshot",
         count=lambda a, k, r, s: os.stat(r).st_size)
    wrap(DeadLetterQueue, "push", "resilience.quarantine", count=one)
    # fleet
    wrap(coordinator.FleetCoordinator, "submit_tick", "fleet.coordinator",
         request=_arg(4, "hour"))
    wrap(supervisor.FleetSupervisor, "submit_hour", "fleet.roundtrip", request=hour1)
    wrap(worker.ShardWorker, "submit", "fleet.worker", request=hour1)
    for module in (coordinator, supervisor, worker):
        wrap(module, "write_json_atomic", "fleet.commit", count=one)
    # gateway
    wrap(EventJournal, "record_hour", "gateway.journal", request=hour1,
         before=_file_before, count=_file_growth)
    wrap(SseHub, "publish", "gateway.publish", count=lambda a, k, r, s: len(a[1]))
    # Forked shard workers write their spans when they close.
    wrap(worker.ShardWorker, "close", "fleet.close", after=tracer.dump)

    def uninstall():
        while undo:
            undo.pop()()

    return uninstall


# ------------------------------------------------------------------ analysis
def analyse(spans: list[tuple], windows: list[tuple[int, int]], root_pid: int) -> dict:
    """Durations, self times and the layer split of the measured windows.

    *spans* are ``load_spans`` tuples; only spans inside one of *windows*
    (``(start, end)`` in ``perf_counter_ns``) count.  A span with no parent in its own
    process is adopted by the innermost span of another process whose
    interval contains it, so a shard worker's ``fleet.worker`` span nests
    under the gateway's ``fleet.roundtrip`` and the gateway's top-level
    spans under the client's ``gateway.post``.  Self time is a span's
    duration minus the union of its children's intervals; the part of the
    window no root span of *root_pid* covers is the unattributed
    remainder.
    """
    spans = [s for s in spans if any(lo <= s[2] and s[3] <= hi for lo, hi in windows)]
    key = {(s[0], s[4]): i for i, s in enumerate(spans)}
    parent = [key.get((s[0], s[5])) if s[5] is not None else None for s in spans]

    # Cross-process adoption, scanning back from each orphan's start.
    by_pid = defaultdict(list)
    for i, s in enumerate(spans):
        by_pid[s[0]].append(i)
    starts = {}
    for pid, members in by_pid.items():
        members.sort(key=lambda i: spans[i][2])
        starts[pid] = [spans[i][2] for i in members]
    orphans = 0
    for i, s in enumerate(spans):
        if parent[i] is not None or s[0] == root_pid:
            continue
        best = None
        for pid, members in by_pid.items():
            if pid == s[0]:
                continue
            pos = bisect.bisect_right(starts[pid], s[2]) - 1
            for j in range(pos, max(pos - 64, -1), -1):
                c = spans[members[j]]
                if c[3] >= s[3]:
                    if best is None or c[2] > spans[best][2]:
                        best = members[j]
                    break
        if best is None:
            orphans += 1
        parent[i] = best

    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)

    # Keep only spans reachable from a root of the client process.
    reachable = set()
    stack = [i for i, s in enumerate(spans) if s[0] == root_pid and parent[i] is None]
    roots = list(stack)
    while stack:
        i = stack.pop()
        reachable.add(i)
        stack.extend(children[i])

    self_ns = {}
    for i in reachable:
        s = spans[i]
        covered = _union([(spans[c][2], spans[c][3]) for c in children[i]], s[2], s[3])
        self_ns[i] = (s[3] - s[2]) - covered

    # Inclusive time per name counts only the outermost span of a name,
    # so a nested call of the same layer function is not counted twice.
    total_ns = defaultdict(int)
    count = {}
    calls = defaultdict(int)
    for i in reachable:
        s = spans[i]
        name = s[1]
        value = s[7]
        if isinstance(value, list):  # several counts, summed one by one
            held = count.setdefault(name, [0] * len(value))
            count[name] = [a + b for a, b in zip(held, value)]
        else:
            count[name] = count.get(name, 0) + int(value)
        calls[name] += 1
        p = parent[i]
        nested = False
        while p is not None:
            if spans[p][1] == name:
                nested = True
                break
            p = parent[p]
        if not nested:
            total_ns[name] += s[3] - s[2]

    layer_ns = defaultdict(int)
    self_by_name = defaultdict(int)
    for i, value in self_ns.items():
        name = spans[i][1]
        layer_ns[name.split(".", 1)[0]] += value
        self_by_name[name] += value
    root_intervals = [(spans[i][2], spans[i][3]) for i in roots]
    wall_ns = sum(hi - lo for lo, hi in windows)
    covered_roots = sum(_union(root_intervals, lo, hi) for lo, hi in windows)
    return {
        "wall_s": wall_ns / 1e9,
        "unattributed_s": (wall_ns - covered_roots) / 1e9,
        "layer_s": {layer: layer_ns.get(layer, 0) / 1e9 for layer in LAYERS},
        "total_s": {name: value / 1e9 for name, value in total_ns.items()},
        "self_s": {name: value / 1e9 for name, value in self_by_name.items()},
        "count": count,
        "calls": dict(calls),
        "spans": len(reachable),
        "orphans": orphans,
        "per_hour": _per_hour(spans, reachable, parent),
    }


def _per_hour(spans, reachable, parent) -> dict:
    """``{hour: [(pid, seconds), ...]}`` of the shard workers' ``fleet.worker`` spans.

    An hour is the ``fleet.coordinator`` span the worker spans nest under,
    not the request id, so hours sent to more than one live system stay
    apart.
    """
    out = defaultdict(list)
    for i in reachable:
        s = spans[i]
        if s[1] != "fleet.worker":
            continue
        hour = parent[i]
        while hour is not None and spans[hour][1] != "fleet.coordinator":
            hour = parent[hour]
        out[hour].append((s[0], (s[3] - s[2]) / 1e9))
    return out


def _union(intervals, lo, hi) -> int:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total
