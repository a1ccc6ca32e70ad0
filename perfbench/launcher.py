"""Start the live system under test in its own process.

Usage (the load generator in ``workloads.py`` does this)::

    python3 perfbench/launcher.py CONFIG.json

``CONFIG.json`` holds the fleet parameters, the pre-trained registry path,
the checkpoint directory, where to write the final statistics and, in the
traced run only, a span directory.  The launcher builds the supervised
2-shard fleet behind the HTTP/SSE gateway, prints one JSON line
``{"type": "listening", "port": ...}`` and serves until its standard input
closes or it receives SIGTERM.  It then drains the gateway, closes the
fleet (every shard worker exits and is joined), writes its statistics,
including the peak RSS of itself and of its shard workers, and exits.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fixture import peak_rss_kb, require_sources  # noqa: E402

require_sources()

from spans import Tracer, install  # noqa: E402


async def _serve(gateway, stop: asyncio.Event) -> None:
    await gateway.start()
    print(json.dumps({"type": "listening", "host": gateway.host, "port": gateway.port}),
          flush=True)
    await stop.wait()
    await gateway.stop()


def _watch_stdin(loop, stop: asyncio.Event) -> None:
    # Closing the pipe (or the load generator dying) stops the launcher.
    sys.stdin.read()
    loop.call_soon_threadsafe(stop.set)


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    tracer = None
    if config.get("trace_dir"):
        # Installed before the fleet forks, so shard workers inherit it.
        tracer = Tracer(config["trace_dir"])
        install(tracer)

    from repro.fleet import FleetConfig, build_fleet
    from repro.fleet.supervisor import SupervisorConfig
    from repro.gateway import EventJournal, FleetBackend, GatewayConfig, HotSpotGateway

    fleet_config = FleetConfig(**{**config["fleet"], "horizons": tuple(config["fleet"]["horizons"])})
    directory = Path(config["checkpoint_dir"])
    fleet = build_fleet(directory, fleet_config, config["shards"], supervise=SupervisorConfig())
    backend = FleetBackend(fleet)
    if fleet.backend.name != "supervised":
        backend.close()
        raise RuntimeError(f"no supervised fleet on this platform: {fleet.backend.name}")
    stats = {}
    try:
        gateway = HotSpotGateway(
            backend,
            EventJournal(directory / "gateway_events.jsonl"),
            GatewayConfig(port=0),
        )

        async def run() -> None:
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            threading.Thread(target=_watch_stdin, args=(loop, stop), daemon=True).start()
            await _serve(gateway, stop)

        asyncio.run(run())
        status = gateway.status()
        stats = {
            "backend": fleet.backend.name,
            "clock": fleet.clock,
            "rejected": status["ingest"]["rejected"],
            "sse_dropped": status["sse"]["dropped_events"],
            "quarantined": status["quarantine"]["total"],
            "restarts": status["fleet"]["supervisor"]["worker_restarts"],
            "journal_next_id": gateway.journal.next_id,
            "peak_rss_kb": max(
                [peak_rss_kb()]
                + [peak_rss_kb(host.process.pid) for host in fleet.backend.hosts]
            ),
        }
    finally:
        backend.close()
    if tracer is not None:
        tracer.dump()
    Path(config["stats_path"]).write_text(json.dumps(stats) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
