"""E32 — the cyclic collector on the served spine world, in process.

Builds the spine world of ``benchmarks/spine`` for one workload, warms
it the way the spine's server bootstrap does, starts an
:class:`AppServer` (which freezes the world and sets the serving
collector thresholds), then replays requests of the workload through
``App.handle`` with ``gc.callbacks`` timing every collector pass. The
background jobs run as they do in the server: each request yields to
the event loop once.

One line of output per run, the columns of EXPERIMENTS.md E27's
ledger: wall seconds of the replay, full (generation 2) passes, their
seconds and reclaimed objects, every pass by generation, all collector
seconds and reclaimed objects, and the objects the collector still
tracks (the unfrozen heap) at the end.

    python benchmarks/bench_e32_collector.py --workload write_mix \\
        --seed 1 --requests 4000 [--thresholds 700,10,10]

``--thresholds`` replaces the serving thresholds after ``start()``,
for a sweep; without it the run measures what the server uses.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPINE_DIR = os.path.join(REPO_ROOT, "benchmarks", "spine")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, SPINE_DIR)

from repro.serve import AppServer, create_app  # noqa: E402

from bootstrap import fill_recorder, warm_up  # noqa: E402
from staged import parse_request  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Population,
    interleaved,
    warmup_requests,
)
from world import USERS, build_world  # noqa: E402


class PassLedger:
    """Every collector pass while installed: generation, seconds and
    objects reclaimed."""

    def __init__(self) -> None:
        self.passes: List[Dict[str, float]] = []
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        now = time.perf_counter()  # gupcheck: ignore[determinism] -- a collector pass is timed on the wall clock
        if phase == "start":
            self._started = now
        else:
            self.passes.append({
                "generation": info["generation"],
                "seconds": now - self._started,
                "collected": info["collected"],
            })


async def replay(workload: str, seed: int, requests: int,
                 thresholds: Optional[List[int]]) -> Dict[str, object]:
    world = build_world(seed, USERS)
    app = create_app(world)
    population = Population(seed, USERS)
    await warm_up(
        app, interleaved(workload, seed, "warmup", population),
        warmup_requests(workload, False), [],
    )
    fill_recorder(app)
    server = AppServer(app, port=0)
    await server.start()
    if thresholds is not None:
        gc.set_threshold(*thresholds)
    in_force = gc.get_threshold()
    stream = interleaved(workload, seed, "ledger", population)
    raw_requests = [next(stream) for _ in range(requests)]
    ledger = PassLedger()
    gc.callbacks.append(ledger)
    failed = 0
    started = time.perf_counter()  # gupcheck: ignore[determinism] -- the replay's wall time is the measurement
    try:
        for raw, expect in raw_requests:
            response = await app.handle(await parse_request(raw))
            failed += response.status != expect.status
            await asyncio.sleep(0)
        wall_s = time.perf_counter() - started  # gupcheck: ignore[determinism] -- the replay's wall time is the measurement
    finally:
        gc.callbacks.remove(ledger)
    tracked = len(gc.get_objects())
    await server.stop()
    full = [p for p in ledger.passes if p["generation"] == 2]
    return {
        "workload": workload,
        "seed": seed,
        "requests": requests,
        "thresholds": list(in_force),
        "wall_s": round(wall_s, 3),
        "full_passes": len(full),
        "full_s": round(sum(p["seconds"] for p in full), 3),
        "full_reclaimed": sum(int(p["collected"]) for p in full),
        "passes_by_generation": [
            sum(1 for p in ledger.passes if p["generation"] == g)
            for g in range(3)
        ],
        "all_s": round(sum(p["seconds"] for p in ledger.passes), 3),
        "all_reclaimed": sum(int(p["collected"]) for p in ledger.passes),
        "gc_ms_per_req": round(
            1e3 * sum(p["seconds"] for p in ledger.passes) / requests, 3
        ),
        "tracked_at_end": tracked,
        "failed": failed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="write_mix",
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=4_000)
    parser.add_argument(
        "--thresholds", default=None,
        help="young,middle,full collector thresholds for the replay",
    )
    args = parser.parse_args(argv)
    thresholds = (
        [int(part) for part in args.thresholds.split(",")]
        if args.thresholds else None
    )
    row = asyncio.run(
        replay(args.workload, args.seed, args.requests, thresholds)
    )
    print(json.dumps(row))
    return 1 if row["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
