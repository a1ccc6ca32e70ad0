"""The pinned world, model and sweep grid every workload shares, and its oracle.

One world (100 towers, fixed generator seed, forward-fill imputation) and one
model (RF-F1, 32 trees, horizons 1/3/7, ``w = 7``) serve all three workloads,
so their numbers can be compared with each other.  ``reference.json`` pins:

* the world's content hash, so a changed generator shows up as a mismatch
  instead of as a speed change;
* the offline single-engine replay (``ResilientHotSpotService.submit_tick``
  once per hour), as one SHA-256 per day over the canonical JSON lines of
  every event up to and including that day.  A stream that covers days
  ``0..d`` must hash to entry ``d``;
* the rows of a serial ``SweepRunner.run`` over each sweep day's slice of the
  grid.

``python3 perfbench/run.py --pin`` recomputes and rewrites the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

N_TOWERS = 100
#: Fourteen weeks leave the live workload 1,968 timed hours after its
#: untimed catch-up and warm-up day.
N_WEEKS = 14
WORLD_SEED = 5
MODEL = "RF-F1"
N_ESTIMATORS = 32
#: Three Eq. 7 training days (the CLI default is six) keep one set-up near
#: 4 s on two cores, so a run can afford three of them.
N_TRAINING_DAYS = 3
MODEL_SEED = 3
HORIZONS = (1, 3, 7)
WINDOW = 7
TOP_K = 5
#: Training and serving day.  Day 15 is the first at which every training
#: day fits for h = 7, w = 7, so alerts start as early as the model allows
#: and 83 of the world's 98 days carry them.
START_DAY = 15
#: Sweep grid: RF-F1 (tree fitting, feature windows) beside Average (the
#: cheap baseline), two horizons, the paper's one-week window.  The sweep
#: days are ones whose rows cost about the same (t = 72 costs a third
#: more), so the row-latency percentiles sit inside one group of rows.
GRID_MODELS = ("RF-F1", "Average")
GRID_T_DAYS = (24, 40, 56, 64)
GRID_HORIZONS = (1, 7)
GRID_WINDOWS = (WINDOW,)


def require_sources() -> None:
    """Fail fast when the checkout holds no ``src/repro`` to measure."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"error: no src/repro under {ROOT}; nothing to benchmark")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


@dataclass
class Fixture:
    dataset: object
    registry_root: Path
    generate_s: float
    train_s: float

    @property
    def n_hours(self) -> int:
        return self.dataset.kpis.n_hours

    @property
    def n_days(self) -> int:
        return self.n_hours // 24


def build_world():
    """Generate, filter, impute and score the pinned world."""
    from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
    from repro.imputation import ForwardFillImputer

    config = GeneratorConfig(n_towers=N_TOWERS, n_weeks=N_WEEKS, seed=WORLD_SEED)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    return attach_scores(dataset)


def model_keys():
    from repro.serve.registry import ModelKey

    return [ModelKey("hot", MODEL, horizon, WINDOW) for horizon in HORIZONS]


def sweep_runner(dataset):
    """A serial runner with the pinned model parameters."""
    from repro.core.experiment import SweepRunner

    return SweepRunner(dataset, target="hot", n_estimators=N_ESTIMATORS,
                       n_training_days=N_TRAINING_DAYS, seed=MODEL_SEED)


def build_fixture(registry_root: Path) -> Fixture:
    """One set-up: world, scores, trained and persisted models, warm registry."""
    from repro.serve import ModelRegistry, train_and_register

    start = time.perf_counter()
    dataset = build_world()
    generated = time.perf_counter()
    train_and_register(
        sweep_runner(dataset), ModelRegistry(registry_root), (MODEL,), START_DAY,
        HORIZONS, (WINDOW,), overwrite=True,
    )
    registry = ModelRegistry(registry_root)
    for key in model_keys():
        registry.get(key)
    trained = time.perf_counter()
    return Fixture(dataset, registry_root, generated - start, trained - generated)


def world_hash(dataset) -> str:
    digest = hashlib.sha256()
    for array in (dataset.kpis.values, dataset.kpis.missing, dataset.calendar,
                  dataset.score_daily, dataset.labels_daily):
        digest.update(memoryview(array.tobytes()))
    return digest.hexdigest()


def canonical(event: dict) -> bytes:
    return json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"


def day_hashes(events: list[dict]) -> dict[int, str]:
    """``{day: sha256 of every event up to the last one of that day}``."""
    digest = hashlib.sha256()
    out = {}
    for event in events:
        digest.update(canonical(event))
        if "t_day" in event:
            out[int(event["t_day"])] = digest.hexdigest()
    return out


def stream_hash(events: list[dict]) -> str:
    digest = hashlib.sha256()
    for event in events:
        digest.update(canonical(event))
    return digest.hexdigest()


def rows_hash(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(json.dumps(result.as_row(), sort_keys=True).encode("utf-8") + b"\n")
    return digest.hexdigest()


def grid_slices():
    """``[(t, grid)]``: the sweep grid cut into one grid per sweep day ``t``."""
    from repro.core.experiment import SweepGrid

    return [
        (t_day, SweepGrid(models=GRID_MODELS, t_days=(t_day,),
                          horizons=GRID_HORIZONS, windows=GRID_WINDOWS))
        for t_day in GRID_T_DAYS
    ]


def guarded_service(fixture: Fixture, registry=None):
    """A fresh single guarded engine over the pinned model."""
    from repro.resilience import ResilientHotSpotService, ResilientPredictionEngine
    from repro.serve import HotSpotService, ModelRegistry, ServeConfig, StreamIngestor

    ingestor = StreamIngestor.for_dataset(fixture.dataset, w_max=WINDOW)
    engine = ResilientPredictionEngine(
        ingestor, registry or ModelRegistry(fixture.registry_root), target="hot",
        model=MODEL, window=WINDOW,
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=HORIZONS, start_day=START_DAY, top_k=TOP_K)
    )
    return ResilientHotSpotService(service)


def offline_replay(fixture: Fixture) -> list[dict]:
    """The oracle: one single engine, one ``submit_tick`` per hour."""
    service = guarded_service(fixture)
    kpis, calendar = fixture.dataset.kpis, fixture.dataset.calendar
    events = []
    for hour in range(fixture.n_hours):
        events.extend(service.submit_tick(
            kpis.values[:, hour, :], kpis.missing[:, hour, :], calendar[hour], hour=hour,
        ))
    return events


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Mismatch(Exception):
    """An output differs from the pinned reference."""


def check_world(fixture: Fixture, reference: dict) -> None:
    found = world_hash(fixture.dataset)
    if found != reference["world_sha256"]:
        raise Mismatch(f"world hash {found} != pinned {reference['world_sha256']}")


def check_events(events: list[dict], through_day: int, reference: dict, what: str) -> None:
    """The events must equal the oracle's events for days ``0..through_day``."""
    expected = reference["day_sha256"][through_day]
    found = stream_hash(events)
    if found != expected:
        raise Mismatch(
            f"{what}: event stream through day {through_day} hashes to {found}, "
            f"the offline single-engine replay to {expected}"
        )


def check_rows(results, t_day: int, reference: dict) -> None:
    expected = reference["sweep_rows_sha256"][str(t_day)]
    found = rows_hash(results)
    if found != expected:
        raise Mismatch(f"sweep rows for t = {t_day} hash to {found}, pinned {expected}")


def pin(registry_root: Path, path: Path = REFERENCE) -> dict:
    """Recompute every reference hash and write ``reference.json``."""
    fixture = build_fixture(registry_root)
    events = offline_replay(fixture)
    hashes = day_hashes(events)
    runner = sweep_runner(fixture.dataset)
    reference = {
        "world_sha256": world_hash(fixture.dataset),
        "n_sectors": int(fixture.dataset.n_sectors),
        "n_hours": int(fixture.n_hours),
        "events": len(events),
        "alerts": sum(1 for event in events if event.get("type") == "alert"),
        "day_sha256": [hashes[day] for day in range(fixture.n_days)],
        "sweep_rows_sha256": {
            str(t_day): rows_hash(runner.run(grid, n_jobs=1))
            for t_day, grid in grid_slices()
        },
    }
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return reference


def peak_rss_kb(pid: int | str = "self") -> int:
    """High-water resident set of a process, from ``/proc``.

    ``getrusage`` is not used: Linux carries ``ru_maxrss`` across ``exec``,
    so a process started by a large parent would report the parent's peak.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Lower this process's ``VmHWM`` to its current resident set.

    Called before each measured segment, so the peak covers the measured
    work and not the set-up before it.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def environment(reference: dict) -> dict:
    """What produced a result: machine, interpreter, libraries, code, world."""
    import numpy

    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        lines = out.stdout.split()
        # Only the checkout's own repository, not one that encloses it.
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "world_sha256": reference["world_sha256"],
    }
