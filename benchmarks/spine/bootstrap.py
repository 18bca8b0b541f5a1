"""The server side of a spine run: build the world, bring it to steady
state, serve it on a loopback port, and on request replay a traced
sample in process.

Started by ``run.py`` as a subprocess. Protocol, one JSON object per
line: this process prints ``{"event": "ready", "port": ...}`` once it
listens; the harness later writes ``{"cmd": "stop"}`` or
``{"cmd": "trace", "requests": N, "out": FILE}`` on stdin; this
process stops listening, does what was asked, prints
``{"event": "done", ...}`` and exits. EOF on stdin means stop.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

SPINE_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(SPINE_DIR)), "src")
)

from repro.serve import App, AppServer, create_app  # noqa: E402

from staged import StagedReplay, parse_request  # noqa: E402
from stats import median, reference_loop_us  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Expect,
    Population,
    interleaved,
    warmup_requests,
)
from world import QUICK_USERS, USERS, build_world  # noqa: E402

#: Warm-up requests between two reference-loop samples.
WARMUP_REFERENCE_EVERY = 50


async def warm_up(
    app: App, requests: Iterator[Tuple[bytes, Expect]], count: int,
    reference: List[float],
) -> None:
    for index in range(count):
        if index % WARMUP_REFERENCE_EVERY == 0:
            reference.append(reference_loop_us())
        raw, expect = next(requests)
        response = await app.handle(await parse_request(raw))
        if response.status != expect.status:
            raise SystemExit(
                "warm-up: %s answered %d, expected %d"
                % (expect.op, response.status, expect.status)
            )
    # Deliver the warm-up's own bus backlog before anyone measures.
    app.jobs.drain_bus_once()


def fill_recorder(app: App) -> float:
    """Top the span recorder up to its retention cap, which is where a
    long-lived server lives: real requests fill it within the first
    25-50k, and from then on every ``start()`` pays the eviction.
    Returns the fill ratio."""
    recorder = app.world.recorder
    now = app.world.now_ms()
    filler = 0
    while len(recorder) < recorder.max_spans:
        filler += 1
        recorder.leaf(
            "spine.prefill", now, now,
            attrs={"request_id": filler, "method": "GET",
                   "path": "/v1/query"},
        )
    return len(recorder) / float(recorder.max_spans)


#: Seconds between reference-loop samples while serving. Each costs
#: under a millisecond of the server's one thread.
REFERENCE_INTERVAL_S = 0.1


async def sample_reference(samples: List[Tuple[float, float]]) -> None:
    """Time the reference loop on the server's own thread for as long
    as it serves, so the harness can tell a slow server from a slow
    host: (clock, µs) pairs on the system-wide monotonic clock."""
    while True:
        await asyncio.sleep(REFERENCE_INTERVAL_S)
        samples.append((
            time.perf_counter(),  # gupcheck: ignore[determinism] -- host speed is sampled against wall-clock windows
            reference_loop_us(),
        ))


def spans_started(app: App) -> int:
    recorder = app.world.recorder
    return recorder.dropped + len(recorder)


async def serve(options: argparse.Namespace) -> None:
    started = time.perf_counter()  # gupcheck: ignore[determinism] -- set-up wall time is a reported metric
    setup_reference = [reference_loop_us() for _ in range(3)]
    users = QUICK_USERS if options.quick else USERS
    world = build_world(options.seed, users)
    app = create_app(world)
    built = time.perf_counter()  # gupcheck: ignore[determinism] -- set-up wall time is a reported metric
    setup_reference += [reference_loop_us() for _ in range(3)]
    population = Population(options.seed, users)
    await warm_up(
        app,
        interleaved(options.workload, options.seed, "warmup", population),
        warmup_requests(options.workload, options.quick),
        setup_reference,
    )
    fill = fill_recorder(app)
    server = AppServer(app, port=0)
    _host, port = await server.start()
    reference: List[Tuple[float, float]] = []
    sampler = asyncio.ensure_future(sample_reference(reference))
    spans_at_ready = spans_started(app)
    requests_at_ready = world.metrics.counter("serve.requests").value
    ready = time.perf_counter()  # gupcheck: ignore[determinism] -- set-up wall time is a reported metric
    emit({
        "event": "ready",
        "port": port,
        "pid": os.getpid(),
        "build_s": built - started,
        "warm_s": ready - built,
        "reference_loop_us": median(setup_reference),
        "recorder_fill": fill,
    })

    line = await asyncio.get_running_loop().run_in_executor(
        None, sys.stdin.readline
    )
    command: Dict[str, Any] = (
        json.loads(line) if line.strip() else {"cmd": "stop"}
    )
    sampler.cancel()
    await asyncio.gather(sampler, return_exceptions=True)
    await server.stop()
    served = (
        world.metrics.counter("serve.requests").value - requests_at_ready
    )
    done: Dict[str, Any] = {
        "event": "done",
        "reference": reference,
        "spans_per_req": (
            (spans_started(app) - spans_at_ready) / float(served)
            if served else 0.0
        ),
    }
    if command["cmd"] == "trace":
        replay = StagedReplay(app)
        layers, mismatched = await replay.replay(
            interleaved(
                options.workload, options.seed, "trace", population
            ),
            int(command["requests"]),
        )
        layers.update(await replay.probes())
        done["layers"] = layers
        done["replay_mismatches"] = mismatched
        write_trace(command["out"], options, replay.tracer.spans)
    emit(done)


def write_trace(
    path: str, options: argparse.Namespace, spans: List[Dict[str, Any]]
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": options.workload,
            "seed": options.seed,
            "unit": "ns since an arbitrary origin (perf_counter_ns)",
            "spans": spans,
        }, handle)
        handle.write("\n")


def emit(message: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    asyncio.run(serve(parser.parse_args(argv)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
