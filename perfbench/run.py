"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload backfill-block --seed 1 --seconds 18 --trace 0

Builds the pinned world and model (``fixture.py``) from the checkout's
``src/``, runs the workload (``workloads.py``) for about ``--seconds``,
checks its output against ``reference.json`` and prints a readable report
followed, as the last line, by one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and then
sets up and runs it again with spans around every layer's public calls, and
reports the per-layer metrics, the wall time split by layer and the tracing
overhead.  A mismatch with the reference prints the difference and exits
with 1.

The world, model and grid are pinned so every run hashes to one reference;
``--seed`` is recorded with the result and does not change the inputs.

``python3 perfbench/run.py --pin`` recomputes ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fixture as fx  # noqa: E402

WORKLOADS = ("backfill-block", "live-fleet-http", "paper-sweep")
#: Set-ups per timed run; their median is ``setup_s``.
SETUP_REPEATS = 3
WORK_ROOT = fx.ROOT / ".perfbench-work"


def _percentile_ms(windows_ns: list[list[int]], q: float) -> float:
    """The median over measured windows of each window's *q*-th percentile.

    A burst of machine noise slows the windows it falls in, and the median
    leaves those out.
    """
    return statistics.median(float(np.percentile(samples, q))
                             for samples in windows_ns if samples) / 1e6


class Run:
    """The set-ups of one run, each measured for one segment on what it built."""

    def __init__(self, workload: str, reference: dict, work: Path) -> None:
        self.workload, self.reference, self.work = workload, reference, work
        self.live = workload == "live-fleet-http"
        self.bodies, self.encode_s = None, 0.0

    def leg(self, name: str, out, seconds: float, tracer=None) -> dict:
        """Set up, warm up and measure one segment into *out*; returns set-up timings.

        With a *tracer*, the spans are installed for the set-up too, so the
        model training's forest fits are traced.  Everything the set-up
        built is released before this returns.
        """
        import workloads
        from spans import install

        trace_dir = None if tracer is None else tracer.out_dir
        uninstall = install(tracer) if tracer is not None else None
        start = time.perf_counter_ns()
        try:
            fixture = fx.build_fixture(self.work / f"registry-{name}")
            started = time.perf_counter_ns()
            system = (workloads.LiveSystem(fixture, self.work / f"live-{name}", trace_dir)
                      if self.live else None)
        finally:
            if uninstall is not None:
                uninstall()
        end = time.perf_counter_ns()
        timings = {
            "setup_s": (end - start) / 1e9,
            "generate_s": fixture.generate_s,
            "train_s": fixture.train_s,
            "start_s": (end - started) / 1e9,
            "window": (start, end),
        }
        driver = None
        try:
            fx.check_world(fixture, self.reference)
            if self.live:
                if self.bodies is None:
                    self.bodies, self.encode_s = workloads.encode_bodies(fixture)
                driver = workloads.LiveFleetHttp(fixture, self.reference, out, system,
                                                 self.bodies, tracer)
                system = None  # the driver owns it now
            elif self.workload == "backfill-block":
                driver = workloads.BackfillBlock(fixture, self.reference, out, tracer)
            else:
                driver = workloads.PaperSweep(fixture, self.reference, out, tracer)
            driver.segment(seconds)
            driver.finish()
        finally:
            if driver is not None:
                driver.close()
            if system is not None:
                try:
                    system.stop()
                except RuntimeError:
                    pass
        return timings


def end_to_end(out, setups: list[dict]) -> dict:
    # Each percentile is taken per measured window (a replay pass, a live
    # system's segment, a segment's grids) and the median over windows is
    # reported.  The percentiles sit inside a group of like samples, never
    # on the edge between two groups, where a run's value would jump with
    # the share of samples each group happens to get.  On live-fleet-http
    # about 95 % of hours are plain, 1 in 24 completes a day and forecasts
    # and 1 in 168 writes a snapshot: the 97th percentile falls among the
    # day-completing hours.  On backfill-block 15 of every 98 day blocks
    # carry no forecast and one, the first serving day, is the slowest: the
    # 97th percentile falls among the forecasting blocks.  Alert samples,
    # one per day with alerts, are all alike.
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "throughput_per_s": (out.per_s, "1/s"),
        "ack_p50_ms": (_percentile_ms(out.ack_ns, 50), "ms"),
        "ack_p97_ms": (_percentile_ms(out.ack_ns, 97), "ms"),
        "alert_p50_ms": (_percentile_ms(out.alert_ns, 50), "ms"),
        "alert_p75_ms": (_percentile_ms(out.alert_ns, 75), "ms"),
        "peak_rss_mb": (out.peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(out, untraced, setup: dict, traced_setup: dict, encode_s: float) -> dict:
    """Per-layer metrics of the traced measured windows.

    Forest fits also count in the traced set-up, whose model training is
    the only fitting that the serving workloads do.  The ``setup.*`` times
    are the untraced set-up's.
    """
    from spans import LAYERS, analyse

    a = analyse(out.spans, out.windows, out.root_pid)
    total, own, count, calls = a["total_s"], a["self_s"], a["count"], a["calls"]
    trained = analyse(out.spans, [traced_setup["window"]], out.root_pid)
    fit_s = total.get("ml.forest_fit", 0.0) + trained["total_s"].get("ml.forest_fit", 0.0)
    trees = count.get("ml.forest_fit", 0) + trained["count"].get("ml.forest_fit", 0)
    counters = out.counters
    hits, lookups = count.get("serve.predict", [0, 0])
    skew = _shard_skew(a["per_hour"])
    metrics = {
        "serve.ingest_s": (total.get("serve.ingest", 0.0), "s"),
        "serve.predict_s": (total.get("serve.predict", 0.0), "s"),
        "serve.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "ml.forest_predict_s": (total.get("ml.forest_predict", 0.0), "s"),
        "ml.forest_predict_rows": (count.get("ml.forest_predict", 0), "count"),
        "ml.forest_fit_s": (fit_s, "s"),
        "ml.trees_fit": (trees, "count"),
        "core.feature_tensor_s": (total.get("core.feature_tensor", 0.0), "s"),
        "core.evaluate_s": (total.get("core.evaluate", 0.0), "s"),
        "core.design_s": (total.get("core.design", 0.0), "s"),
        "resilience.validate_s": (total.get("resilience.validate", 0.0), "s"),
        "resilience.wal_append_s": (total.get("resilience.wal_append", 0.0), "s"),
        "resilience.wal_bytes": (count.get("resilience.wal_append", 0), "bytes"),
        "resilience.snapshot_s": (total.get("resilience.snapshot", 0.0), "s"),
        "resilience.snapshots": (calls.get("resilience.snapshot", 0), "count"),
        "resilience.snapshot_bytes": (count.get("resilience.snapshot", 0), "bytes"),
        "resilience.quarantined": (counters.get("quarantined", 0), "count"),
        "fleet.coordinator_s": (own.get("fleet.coordinator", 0.0), "s"),
        "fleet.roundtrip_s": (total.get("fleet.roundtrip", 0.0), "s"),
        "fleet.worker_busy_s": (total.get("fleet.worker", 0.0), "s"),
        "fleet.shard_skew": (skew, "ratio"),
        "fleet.commit_s": (total.get("fleet.commit", 0.0), "s"),
        "fleet.commit_renames": (count.get("fleet.commit", 0), "count"),
        "fleet.restarts": (counters.get("restarts", 0), "count"),
        "gateway.handle_s": (own.get("gateway.post", 0.0), "s"),
        "gateway.journal_s": (total.get("gateway.journal", 0.0), "s"),
        "gateway.journal_bytes": (count.get("gateway.journal", 0), "bytes"),
        "gateway.publish_s": (total.get("gateway.publish", 0.0), "s"),
        "gateway.sse_dropped": (counters.get("sse_dropped", 0), "count"),
        "gateway.rejected": (counters.get("rejected", 0), "count"),
        "gateway.request_bytes": (counters.get("request_bytes", 0), "bytes"),
        "client.encode_s": (encode_s, "s"),
        "setup.generate_s": (setup["generate_s"], "s"),
        "setup.train_s": (setup["train_s"], "s"),
        "setup.start_s": (setup["start_s"], "s"),
        "wall.total_s": (a["wall_s"], "s"),
    }
    for layer in LAYERS:
        metrics[f"wall.{layer}_s"] = (a["layer_s"][layer], "s")
    metrics["wall.unattributed_s"] = (a["unattributed_s"], "s")
    metrics["wall.unattributed_share"] = (a["unattributed_s"] / a["wall_s"], "ratio")
    metrics["trace.untraced_per_s"] = (untraced.per_s, "1/s")
    metrics["trace.traced_per_s"] = (out.per_s, "1/s")
    metrics["trace.overhead_ratio"] = (untraced.per_s / out.per_s, "ratio")
    metrics["trace.spans"] = (a["spans"], "count")
    metrics["trace.orphans"] = (a["orphans"], "count")
    return metrics


def _shard_skew(by_hour: dict) -> float:
    """Sum over hours of the slowest shard's busy time over the shards' mean.

    1.0 means the shards are balanced; on the serial 2-shard fleet each hour
    waits for the slower shard, so this is the time lost to imbalance.
    """
    slowest = mean = 0.0
    for shards in by_hour.values():
        if len(shards) < 2:
            continue
        busy = [seconds for _, seconds in shards]
        slowest += max(busy)
        mean += sum(busy) / len(busy)
    return slowest / mean if mean else 0.0


def report(workload: str, metrics: dict, env: dict, out) -> None:
    """Readable lines before the final JSON line."""
    aliases = {"backfill-block": "ticks_per_s", "live-fleet-http": "ticks_per_s",
               "paper-sweep": "cells_per_s"}
    print(f"# workload {workload}: {out.work} units in {out.wall_s:.3f} s over "
          f"{len(out.windows)} windows, {out.attempted} attempted, {out.failed} failed, "
          f"{sum(map(len, out.ack_ns))} ack and {sum(map(len, out.alert_ns))} alert samples")
    if out.counters.get("ran_out"):
        print(f"# {out.counters['ran_out']} live segment(s) sent every hour of the world "
              f"before their share of time had passed")
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[workload]})" if name == "throughput_per_s" else ""
        print(f"{name:32s} {value:16.6f} {unit}{alias}")
    if out.attempted:
        print(f"{'error_rate':32s} {out.failed / out.attempted:16.6f} ratio")
    print(json.dumps({"environment": env}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute reference.json and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    fx.require_sources()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        if args.pin:
            reference = fx.pin(work / "registry")
            print(json.dumps({k: v for k, v in reference.items() if k != "day_sha256"}))
            return 0
        reference = fx.load_reference()
        return _measure(args, reference, work)
    except fx.Mismatch as error:
        print(f"MISMATCH: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, reference: dict, work: Path) -> int:
    """Set up, measure and check one run; returns the exit code.

    An untraced run sets up ``SETUP_REPEATS`` times and measures one
    segment on each set-up, releasing it before the next, so the measured
    time is spread over the whole run.  A traced run measures half its time
    untraced and half, after a set-up of its own, traced.
    """
    from spans import Tracer
    from workloads import Outcome

    run = Run(args.workload, reference, work)
    env = {**fx.environment(reference), "seed": args.seed, "workload": args.workload,
           "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        untraced = Outcome()
        setup = run.leg("untraced", untraced, args.seconds / 2)
        out = Outcome()
        traced_setup = run.leg("traced", out, args.seconds / 2, Tracer(work / "spans"))
        metrics = per_layer(out, untraced, setup, traced_setup, run.encode_s)
    else:
        out = Outcome()
        setups = [run.leg(str(rep), out, args.seconds / SETUP_REPEATS)
                  for rep in range(SETUP_REPEATS)]
        metrics = end_to_end(out, setups)
    report(args.workload, metrics, env, out)
    print(json.dumps({
        "correct": True,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
