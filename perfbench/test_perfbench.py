"""Tests for the benchmark itself.

    python3 -m pytest perfbench -q

Smoke-sized runs (a short window) of every workload check that each metric
``BENCHMARK.json`` names is printed with its unit and that the output checks
pass; a perturbed reference and a checkout without ``src/`` must make the
command fail without printing a result.  A live segment that sends every
hour of the world must end there and say so.  All working files live under
the checkout's ``.perfbench-work/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import fixture as fx  # noqa: E402
from spans import analyse  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.fixture
def workdir():
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".perfbench-work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _copy_checkout(workdir: Path, with_sources: bool) -> Path:
    """The benchmark's files, and optionally ``src/``, in a checkout of its own."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    shutil.copytree(HERE, workdir / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", workdir / "src", ignore=ignore)
    return workdir / "perfbench"


def _perturbed(workdir: Path, change) -> Path:
    """A checkout whose ``reference.json`` went through *change*; returns its run.py."""
    bench = _copy_checkout(workdir, with_sources=True)
    reference = json.loads((bench / "reference.json").read_text(encoding="utf-8"))
    change(reference)
    (bench / "reference.json").write_text(json.dumps(reference), encoding="utf-8")
    return bench / "run.py"


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = metrics[metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    result = _result(_run("--workload", workload, "--seed", "1", "--seconds", "1",
                          "--trace", "0"))
    _assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    result = _result(_run("--workload", workload, "--seed", "2", "--seconds", "0.5",
                          "--trace", "1"))
    _assert_metrics(result, BENCHMARK["per_layer"])
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    assert metrics["trace.orphans"] == 0
    assert metrics["trace.spans"] > 0
    assert 0 <= metrics["wall.unattributed_share"] < 0.5
    # The traced set-up trains the model, so every workload fits trees.
    assert metrics["ml.trees_fit"] > 0 and metrics["ml.forest_fit_s"] > 0
    if workload == "live-fleet-http":
        assert metrics["fleet.worker_busy_s"] > 0 and metrics["gateway.handle_s"] > 0
        assert metrics["fleet.commit_renames"] > 0
    elif workload == "paper-sweep":
        assert metrics["ml.trees_fit"] > 0 and metrics["core.feature_tensor_s"] > 0
    else:
        assert metrics["serve.ingest_s"] > 0 and metrics["ml.forest_predict_rows"] > 0


def _zero_days(reference):
    reference["day_sha256"] = ["0" * 64] * len(reference["day_sha256"])


def _zero_rows(reference):
    reference["sweep_rows_sha256"] = {t: "0" * 64 for t in reference["sweep_rows_sha256"]}


@pytest.mark.parametrize("workload", ["backfill-block", "live-fleet-http"])
def test_perturbed_event_reference_fails(workload, workdir):
    script = _perturbed(workdir, _zero_days)
    proc = _run("--workload", workload, "--seconds", "0.5", cwd=workdir, script=script)
    assert proc.returncode == 1
    assert "MISMATCH" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_perturbed_sweep_reference_fails(workdir):
    script = _perturbed(workdir, _zero_rows)
    proc = _run("--workload", "paper-sweep", "--seconds", "0.5", cwd=workdir, script=script)
    assert proc.returncode == 1
    assert "sweep rows" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_fails_without_sources(workdir):
    script = _copy_checkout(workdir, with_sources=False) / "run.py"
    proc = _run("--workload", "backfill-block", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=workdir, script=script)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_live_segment_stops_at_the_end_of_the_world(workdir):
    # A world cut to two timed days runs out after 48 hours, long before
    # the segment's share of time has passed.
    fx.require_sources()
    import workloads

    fixture = fx.build_fixture(workdir / "registry")
    bodies, _ = workloads.encode_bodies(fixture)
    bodies = bodies[:(fx.START_DAY + 3) * 24]
    system = workloads.LiveSystem(fixture, workdir / "live", None)
    out = workloads.Outcome()
    driver = workloads.LiveFleetHttp(fixture, fx.load_reference(), out, system, bodies)
    try:
        driver.segment(60.0)
        driver.finish()
    finally:
        driver.close()
    assert out.counters["ran_out"] == 1 and out.failed == 0
    assert out.work == 48 and len(out.windows) == 1
    assert [len(acks) for acks in out.ack_ns] == [48] and [len(a) for a in out.alert_ns] == [2]
    assert system.process.returncode == 0


def test_analyse_nests_spans_across_processes():
    ms = 1_000_000
    client, gateway, worker = 1, 2, 3
    spans = [
        # (pid, name, start, end, id, parent, request, count)
        (client, "gateway.post", 0, 10 * ms, 1, None, 7, 0),
        (gateway, "fleet.coordinator", 1 * ms, 9 * ms, 1, None, 7, 0),
        (gateway, "fleet.roundtrip", 2 * ms, 8 * ms, 2, 1, 7, 0),
        (worker, "fleet.worker", 3 * ms, 7 * ms, 1, None, 7, 0),
        (worker, "serve.ingest", 4 * ms, 5 * ms, 2, 1, 7, 1),
    ]
    result = analyse(spans, [(0, 12 * ms)], client)
    assert result["orphans"] == 0
    assert result["spans"] == 5
    assert result["self_s"]["gateway.post"] == pytest.approx(0.002)
    assert result["self_s"]["fleet.coordinator"] == pytest.approx(0.002)
    assert result["self_s"]["fleet.roundtrip"] == pytest.approx(0.002)
    assert result["self_s"]["fleet.worker"] == pytest.approx(0.003)
    assert result["layer_s"]["serve"] == pytest.approx(0.001)
    assert result["unattributed_s"] == pytest.approx(0.002)
    assert sum(result["layer_s"].values()) + result["unattributed_s"] == pytest.approx(0.012)
