"""E21 — the wire: wall-clock serving vs virtual-time predictions.

E16–E20 measured GUPster entirely inside simnet virtual time. E21
boots the real asyncio serving layer (``repro.serve``) on loopback and
puts wall-clock latency percentiles **next to** the E19-style virtual
predictions for the same request mix — the sim-vs-real calibration
table that ROADMAP item 2 asked for.

Sections:

* **calibration** — per scenario (chaining, cached hit, provision):
  virtual p50/p99 from the sans-io engine under :class:`SimnetDriver`,
  wall p50/p99 from real HTTP requests against the asyncio server, and
  their ratio. Virtual numbers are seeded and deterministic; wall
  numbers vary by host (that variance is the point — the table shows
  how far the model sits from a real socket path).
* **open_loop** — chaining queries arriving on a fixed open-loop
  schedule (arrivals don't wait for completions), one sweep per
  offered rate; p99 under load is the headline wall number.
* **equivalence** — the gate: a fixed request trace with fault
  injection (a failed store, forced drops) is replayed through both
  drivers; the (value, shield-decision) sequences must be identical.
* **mdm_resolve_virtual** — referral resolution cost under the three
  Section 4.2 constellations, charged to one caller-owned trace per
  topology (the new ``resolve(trace=...)`` hook).

Run the full sweep::

    python benchmarks/bench_e21_wire.py

or the CI smoke gate (same assertions, small counts)::

    python benchmarks/bench_e21_wire.py --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":  # CLI use without an installed package
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.access import RequestContext  # noqa: E402
from repro.core import (  # noqa: E402
    CentralizedMdm,
    GupsterServer,
    HierarchicalMdm,
    RetryPolicy,
    UserDistributedMdm,
)
from repro.pxml import parse, parse_path  # noqa: E402
from repro.sansio import (  # noqa: E402
    SansIoQueryEngine,
    StandaloneQueryHost,
    decision_of,
)
from repro.serve import (  # noqa: E402
    AppServer,
    WallTransport,
    create_app,
)
from repro.simnet import Network  # noqa: E402
from repro.simnet.driver import SimnetDriver  # noqa: E402
from repro.workloads import SyntheticAdapter  # noqa: E402

BOOK = "/user[@id='u1']/address-book"
PERSONAL = BOOK + "/item[@type='personal']"
CORPORATE = BOOK + "/item[@type='corporate']"

PROVISION_FRAGMENT = (
    "<address-book><item type='personal'>"
    "<entry name='e21'><phone number='555-0199'/></entry>"
    "</item></address-book>"
)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the E19 convention)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    return {
        "p50_ms": round(percentile(samples, 0.50), 3),
        "p99_ms": round(percentile(samples, 0.99), 3),
        "samples": len(samples),
    }


# ---------------------------------------------------------------------------
# Virtual side: the sans-io engine under the simnet driver
# ---------------------------------------------------------------------------

def build_sim_world(retry_policy: Optional[RetryPolicy] = None):
    """Twin of ``repro.serve.build_demo_world`` driven by simnet."""
    from repro.core import ComponentCache

    network = Network(seed=16)
    network.add_node("gupster", region="core")
    network.add_node("http-client", region="internet")
    network.add_node("gup.alpha.com", region="internet")
    network.add_node("gup.beta.com", region="core")
    network.add_node("gup.corp.com", region="enterprise")
    server = GupsterServer(
        "gupster",
        cache=ComponentCache(
            capacity=256, default_ttl_ms=60_000.0,
            stale_grace_ms=120_000.0,
        ),
        enforce_policies=False,
    )
    for store_id, seed in (
        ("gup.alpha.com", 5), ("gup.beta.com", 5), ("gup.corp.com", 9),
    ):
        adapter = SyntheticAdapter(store_id, seed=seed)
        adapter.add_user("u1", ["address-book"])
        server.join(adapter, user_ids=[])
    server.register_component(PERSONAL, "gup.alpha.com")
    server.register_component(PERSONAL, "gup.beta.com")
    server.register_component(CORPORATE, "gup.corp.com")
    host = StandaloneQueryHost(
        server, server_node="gupster", retry_policy=retry_policy
    )
    return network, server, SansIoQueryEngine(host)


def virtual_scenarios(requests: int) -> Dict[str, Dict[str, float]]:
    """Virtual-time latency distributions per scenario."""
    network, server, engine = build_sim_world()
    driver = SimnetDriver(server.adapters)
    context = RequestContext("app")
    provision_context = RequestContext(
        "u1", relationship="self", purpose="provision"
    )
    path = parse_path(BOOK)

    chaining: List[float] = []
    for index in range(requests):
        trace = network.trace()
        driver.run(
            engine.chain("http-client", path, context, float(index)),
            trace,
        )
        chaining.append(trace.elapsed_ms)

    cached_hit: List[float] = []
    driver.run(  # warm the cache once; every timed run below hits
        engine.cached("http-client", path, context, 0.0),
        network.trace(),
    )
    for index in range(requests):
        trace = network.trace()
        outcome = driver.run(
            engine.cached(
                "http-client", path, context, float(index) + 1.0
            ),
            trace,
        )
        assert outcome.hit
        cached_hit.append(trace.elapsed_ms)

    provision: List[float] = []
    fragment = parse(PROVISION_FRAGMENT)
    for index in range(requests):
        trace = network.trace()
        driver.run(
            engine.provision(
                "http-client", path, fragment, provision_context,
                float(index),
            ),
            trace,
        )
        provision.append(trace.elapsed_ms)

    return {
        "chaining": summarize(chaining),
        "cached_hit": summarize(cached_hit),
        "provision": summarize(provision),
    }


# ---------------------------------------------------------------------------
# Wall side: real HTTP over loopback
# ---------------------------------------------------------------------------

async def http_request(
    host: str, port: int, raw: bytes
) -> Tuple[int, float]:
    """One request over a fresh connection; returns (status, wall ms)."""
    started = time.perf_counter()  # gupcheck: ignore[determinism] -- wall-clock measurement is the experiment
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await writer.drain()
        head = await reader.readline()
        await reader.read()  # drain to EOF (connection: close)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    elapsed_ms = (
        time.perf_counter() - started  # gupcheck: ignore[determinism] -- wall-clock measurement is the experiment
    ) * 1000.0
    status = int(head.split(b" ")[1]) if head else 0
    return status, elapsed_ms


def query_bytes(pattern: str = "chaining") -> bytes:
    from urllib.parse import quote
    return (
        "GET /v1/query?path=%s&pattern=%s HTTP/1.1\r\n"
        "Host: bench\r\n\r\n" % (quote(BOOK), pattern)
    ).encode()


def provision_bytes() -> bytes:
    body = json.dumps(
        {"path": BOOK, "fragment": PROVISION_FRAGMENT}
    ).encode()
    return (
        "POST /v1/provision HTTP/1.1\r\nHost: bench\r\n"
        "X-Requester: u1\r\nX-Relationship: self\r\n"
        "X-Purpose: provision\r\n"
        "Content-Length: %d\r\n\r\n" % len(body)
    ).encode() + body


async def closed_loop(
    host: str, port: int, raw: bytes, requests: int
) -> Tuple[List[float], int]:
    """Sequential requests (the per-scenario calibration column)."""
    latencies: List[float] = []
    errors = 0
    for _ in range(requests):
        status, elapsed_ms = await http_request(host, port, raw)
        if 200 <= status < 300:
            latencies.append(elapsed_ms)
        else:
            errors += 1
    return latencies, errors


async def open_loop(
    host: str, port: int, raw: bytes, requests: int, rate_rps: float
) -> Tuple[List[float], int]:
    """Arrivals on a fixed schedule — they do not wait for completions."""
    interval = 1.0 / rate_rps
    tasks = []
    for _ in range(requests):
        tasks.append(
            asyncio.ensure_future(http_request(host, port, raw))
        )
        await asyncio.sleep(interval)
    results = await asyncio.gather(*tasks, return_exceptions=True)
    latencies: List[float] = []
    errors = 0
    for result in results:
        if isinstance(result, BaseException):
            errors += 1
            continue
        status, elapsed_ms = result
        if 200 <= status < 300:
            latencies.append(elapsed_ms)
        else:
            errors += 1
    return latencies, errors


async def wall_measurements(
    requests: int, rates: Sequence[float]
) -> Tuple[Dict[str, Dict[str, float]], List[Dict[str, object]], int]:
    server = AppServer(create_app(), port=0)
    host, port = await server.start()
    errors_total = 0
    try:
        scenarios: Dict[str, Dict[str, float]] = {}
        chaining, errors = await closed_loop(
            host, port, query_bytes("chaining"), requests
        )
        errors_total += errors
        scenarios["chaining"] = summarize(chaining)

        # Warm the cache, then every timed request is a hit.
        await http_request(host, port, query_bytes("cached"))
        cached, errors = await closed_loop(
            host, port, query_bytes("cached"), requests
        )
        errors_total += errors
        scenarios["cached_hit"] = summarize(cached)

        provision, errors = await closed_loop(
            host, port, provision_bytes(), requests
        )
        errors_total += errors
        scenarios["provision"] = summarize(provision)

        sweeps: List[Dict[str, object]] = []
        for rate in rates:
            latencies, errors = await open_loop(
                host, port, query_bytes("chaining"), requests, rate
            )
            errors_total += errors
            row: Dict[str, object] = {"offered_rps": rate}
            row.update(summarize(latencies))
            row["errors"] = errors
            sweeps.append(row)
        return scenarios, sweeps, errors_total
    finally:
        await server.stop()


# ---------------------------------------------------------------------------
# The equivalence gate
# ---------------------------------------------------------------------------

#: The fixed replay trace: (pattern, path) pairs covering both query
#: patterns, a partial outage and forced drops on the way.
GATE_TRACE: Tuple[Tuple[str, str], ...] = (
    ("chaining", BOOK),
    ("cached", BOOK),
    ("cached", BOOK),
    ("chaining", PERSONAL),
    ("chaining", CORPORATE),
    ("cached", PERSONAL),
)
GATE_FAILED = ("gup.corp.com",)
GATE_DROPS = ((("gupster", "gup.alpha.com"), 2),)


def equivalence_gate() -> Dict[str, object]:
    retry_policy = RetryPolicy(max_attempts=2, base_backoff_ms=10.0)

    # Twin worlds, one fault description: each driver consults its own
    # Network (a FaultState), armed by the same loop.
    network, sim_server, sim_engine = build_sim_world(retry_policy)
    faults, wall_server, wall_engine = build_sim_world(retry_policy)
    for state in (network, faults):
        for node in GATE_FAILED:
            state.fail(node)
        for (a, b), count in GATE_DROPS:
            state.force_drops(a, b, count)
    transport = WallTransport(wall_server.adapters, faults=faults)

    def decide(runner, engine, pattern, path, now):
        method = engine.cached if pattern == "cached" else engine.chain
        program = method(
            "http-client", parse_path(path), RequestContext("app"), now
        )
        try:
            return decision_of(runner(program))
        except Exception as err:  # noqa: BLE001 - the decision IS the record
            return decision_of(err)

    sim_decisions = []
    wall_decisions = []
    for index, (pattern, path) in enumerate(GATE_TRACE):
        now = float(index) * 1000.0
        sim_decisions.append(decide(
            lambda p: SimnetDriver(sim_server.adapters).run(
                p, network.trace()
            ),
            sim_engine, pattern, path, now,
        ))
        wall_decisions.append(decide(
            lambda p: asyncio.run(transport.run(p)),
            wall_engine, pattern, path, now,
        ))

    mismatches = [
        {"index": index, "sim": sim, "wall": wall}
        for index, (sim, wall) in enumerate(
            zip(sim_decisions, wall_decisions)
        )
        if sim != wall
    ]
    return {
        "requests": len(GATE_TRACE),
        "failed_stores": list(GATE_FAILED),
        "forced_drops": [
            {"link": list(link), "count": count}
            for link, count in GATE_DROPS
        ],
        "decisions_match": not mismatches,
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# MDM resolve under a caller-owned trace
# ---------------------------------------------------------------------------

def mdm_resolve_virtual(resolves: int) -> Dict[str, float]:
    """Per-topology mean virtual resolve cost, every resolve of a
    topology charged to ONE shared caller trace (the E21 hook)."""

    def make_server(name: str) -> GupsterServer:
        server = GupsterServer(name, enforce_policies=False)
        store = SyntheticAdapter("store." + name)
        store.add_user("u1", ["address-book", "presence"])
        server.join(store)
        return server

    network = Network(seed=21)
    network.add_node("client", region="internet")
    for node in ("mdm.us", "mdm.eu", "whitepages", "mdm.carrier"):
        network.add_node(node, region="core")

    centralized = CentralizedMdm(
        network, make_server("central"), ["mdm.us", "mdm.eu"]
    )
    distributed = UserDistributedMdm(network, "whitepages")
    distributed.assign("u1", "mdm.carrier", make_server("carrier"))
    hierarchical = HierarchicalMdm(network)
    hierarchical.set_primary("u1", "mdm.carrier", make_server("primary"))

    context = RequestContext("app")
    report: Dict[str, float] = {}
    for label, topology in (
        ("centralized", centralized),
        ("user_distributed", distributed),
        ("hierarchical", hierarchical),
    ):
        shared = network.trace()
        for index in range(resolves):
            _, returned = topology.resolve(
                "client", BOOK, context, now=float(index),
                trace=shared,
            )
            assert returned is shared  # the hook: no fresh trace
        report[label + "_mean_ms"] = round(
            shared.elapsed_ms / resolves, 3
        )
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small counts, same assertions (CI gate)",
    )
    parser.add_argument(
        "--output", default=os.path.join(REPO_ROOT, "BENCH_e21.json"),
    )
    options = parser.parse_args(argv)

    if options.smoke:
        requests, rates, resolves = 30, (50.0,), 50
    else:
        requests, rates, resolves = 400, (50.0, 200.0, 500.0), 500

    started = time.perf_counter()  # gupcheck: ignore[determinism] -- host-side harness timing
    print("E21 %s: virtual predictions (%d requests/scenario)..."
          % ("smoke" if options.smoke else "full", requests))
    virtual = virtual_scenarios(requests)

    print("E21: wall measurements over loopback...")
    wall, open_loop_rows, wall_errors = asyncio.run(
        wall_measurements(requests, rates)
    )

    print("E21: sim-vs-real equivalence gate...")
    gate = equivalence_gate()

    print("E21: MDM resolves on a shared trace...")
    mdm = mdm_resolve_virtual(resolves)

    calibration = []
    for scenario in ("chaining", "cached_hit", "provision"):
        v, w = virtual[scenario], wall[scenario]
        calibration.append({
            "scenario": scenario,
            "virtual_p50_ms": v["p50_ms"],
            "virtual_p99_ms": v["p99_ms"],
            "wall_p50_ms": w["p50_ms"],
            "wall_p99_ms": w["p99_ms"],
            "wall_over_virtual_p50": round(
                w["p50_ms"] / v["p50_ms"], 3
            ) if v["p50_ms"] else None,
            "requests": requests,
        })

    report = {
        "experiment": "E21",
        "mode": "smoke" if options.smoke else "full",
        "calibration": calibration,
        "open_loop": open_loop_rows,
        "equivalence": gate,
        "mdm_resolve_virtual": mdm,
        "determinism_note": (
            "virtual percentiles, equivalence decisions and MDM costs "
            "are seeded and reproducible; wall percentiles vary by "
            "host — the calibration ratio is the measurement, not a "
            "constant"
        ),
        "wall_seconds_total": round(
            time.perf_counter() - started, 1  # gupcheck: ignore[determinism] -- host-side harness timing
        ),
    }
    with open(options.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % options.output)

    failures: List[str] = []
    if not gate["decisions_match"]:
        failures.append(
            "equivalence gate: %d/%d decisions diverge between "
            "SimnetDriver and WallTransport"
            % (len(gate["mismatches"]), gate["requests"])
        )
    if wall_errors:
        failures.append(
            "wall sweep: %d non-2xx/errored request(s)" % wall_errors
        )
    for row in calibration:
        if row["wall_p50_ms"] <= 0.0:
            failures.append(
                "scenario %s produced no wall samples" % row["scenario"]
            )

    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    headline = next(
        row for row in calibration if row["scenario"] == "chaining"
    )
    print(
        "ok: decisions identical across drivers; chaining virtual "
        "p99 %.1fms vs wall p99 %.1fms"
        % (headline["virtual_p99_ms"], headline["wall_p99_ms"])
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
