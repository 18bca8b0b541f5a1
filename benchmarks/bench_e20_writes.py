"""E20 — write-path at scale: coalescing change bus vs per-update push.

The read path scaled in E19 by batching sub-fetches per endpoint; E20
applies the same wave cost model to the **write path**. Every profile
mutation lands in an append-only per-shard change log; a notifier
coalesces everything logged since each listener's cursor into one
batched delivery per (listener, wave) — one simulated round trip —
while the privacy shield still runs **per delta, never per batch**.
Cursors make the fan-out resumable: a crashed subscriber replays its
whole backlog on recovery, losing nothing and repeating nothing.

Probes (all virtual-time numbers seeded and deterministic):

* **celebrity fan-out** — the Zipf hot head as its own experiment: one
  hot profile, a sweep of subscriber counts up to 10^5, a burst of
  changes. Per-update push pays ``2 × changes × subscribers``
  messages; the bus pays ``2 × waves × subscribers`` — sub-linear in
  the change rate. The push baseline is *measured* head-to-head up to
  a cap and follows the exact closed form beyond it.
* **provisioning burst** — enter-once storms ride the bus: cache
  invalidation collapses to one sweep per wave over distinct paths.
* **sustained updates** — Zipf-distributed writes over a sharded
  population of (by default) **one million subscribers**, bus bound to
  the shard ring; gates: every update delivered, logs compacted to
  zero after the drain.
* **crash/resume** — a subscriber fails mid-stream and recovers;
  gate: the received sequence is exactly 1..N, in order.
* **revocation** — the E20 headline bugfix at bench scale: a policy
  revoked mid-stream stops the bus push stream at the next wave.

Run the full experiment (~1M-user setup, a few minutes)::

    python benchmarks/bench_e20_writes.py

or the CI smoke gate (small sweeps, same assertions)::

    python benchmarks/bench_e20_writes.py --smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":  # CLI use without an installed package
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.access import (  # noqa: E402
    PolicyEnforcementPoint, PolicyRepository, PolicyRule, RequestContext,
)
from repro.bus import (  # noqa: E402
    CacheInvalidationListener, ChangeBus, RecordingListener,
    SubscriberListener,
)
from repro.core import SubscriptionHub  # noqa: E402
from repro.core.cache import ComponentCache  # noqa: E402
from repro.provisioning import Provisioner  # noqa: E402
from repro.simnet import Network, Simulator  # noqa: E402
from repro.stores import ShardedStore  # noqa: E402
from repro.workloads import (  # noqa: E402
    SyntheticAdapter, ZipfSampler, build_converged_world,
)

CELEBRITY = "celebrity"
HOT_PATH = "/user[@id='celebrity']/presence"
ZIPF_EXPONENT = 1.1


# ---------------------------------------------------------------------------
# Celebrity fan-out: one hot profile, many subscribers
# ---------------------------------------------------------------------------

def _change_burst(count: int, start_ms: float = 1_000.0,
                  gap_ms: float = 5.0) -> List[float]:
    """*count* change instants in tight bursts: ten land inside one
    50 ms wave window, so waves coalesce ~10 changes each."""
    return [start_ms + index * gap_ms for index in range(count)]


def run_celebrity_bus(
    subscribers: int, changes: int, seed: int
) -> Dict[str, object]:
    """The bus side: every subscriber is a shield-checked
    SubscriberListener on the hot profile's presence path."""
    sim = Simulator()
    network = Network(seed=seed)
    network.add_node("gupster", region="core")
    repository = PolicyRepository()
    repository.store(
        PolicyRule(CELEBRITY, HOT_PATH, "permit",
                   rule_id="celebrity-public-presence")
    )
    pep = PolicyEnforcementPoint(repository)
    bus = ChangeBus(sim, network, "gupster")
    listeners: List[SubscriberListener] = []
    sink = lambda record, now: None  # noqa: E731
    for index in range(subscribers):
        node = "fan-%06d" % index
        network.add_node(node, region="internet")
        listener = SubscriberListener(
            "fan-%06d" % index, node, pep, HOT_PATH, HOT_PATH,
            RequestContext("fan-%06d" % index), sink,
        )
        bus.attach(listener)
        listeners.append(listener)
    wall_start = time.perf_counter()  # gupcheck: ignore[determinism] -- host-side harness timing
    for at in _change_burst(changes):
        sim.schedule_at(
            at,
            lambda at=at: bus.append(
                HOT_PATH, "status@%.0f" % at, user_id=CELEBRITY
            ),
        )
    sim.run()
    wall = time.perf_counter() - wall_start  # gupcheck: ignore[determinism] -- host-side harness timing
    delivered = sum(listener.delivered for listener in listeners)
    return {
        "subscribers": subscribers,
        "changes": changes,
        "waves": bus.waves,
        "messages": bus.messages,
        "records_delivered": bus.records_delivered,
        "deliveries_batched": bus.deliveries,
        "deliveries": delivered,
        "shield_checks": pep.enforced,
        "lost": subscribers * changes - delivered,
        "wall_seconds": round(wall, 3),
    }


def run_celebrity_push(
    subscribers: int, changes: int, seed: int
) -> Dict[str, object]:
    """The per-update push baseline on the same harness: each change
    is forwarded to each subscriber individually — two hops and one
    shield check per (change, subscriber)."""
    network = Network(seed=seed)
    network.add_node("gupster", region="core")
    repository = PolicyRepository()
    repository.store(
        PolicyRule(CELEBRITY, HOT_PATH, "permit",
                   rule_id="celebrity-public-presence")
    )
    pep = PolicyEnforcementPoint(repository)
    nodes = []
    for index in range(subscribers):
        node = "fan-%06d" % index
        network.add_node(node, region="internet")
        nodes.append(node)
    contexts = [
        RequestContext("fan-%06d" % index)
        for index in range(subscribers)
    ]
    messages = 0
    delivered = 0
    wall_start = time.perf_counter()  # gupcheck: ignore[determinism] -- host-side harness timing
    for _at in _change_burst(changes):
        for node, context in zip(nodes, contexts):
            network.sample_hop("gupster", node, 128)
            messages += 2  # notification + ack, per update
            if pep.enforce(HOT_PATH, context).permit:
                delivered += 1
    wall = time.perf_counter() - wall_start  # gupcheck: ignore[determinism] -- host-side harness timing
    return {
        "subscribers": subscribers,
        "changes": changes,
        "messages": messages,
        "deliveries": delivered,
        "shield_checks": pep.enforced,
        "wall_seconds": round(wall, 3),
    }


def run_celebrity_sweep(
    subscriber_counts: Sequence[int],
    changes: int,
    push_cap: int,
    seed: int,
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for subscribers in subscriber_counts:
        bus = run_celebrity_bus(subscribers, changes, seed)
        row: Dict[str, object] = {"bus": bus}
        if subscribers <= push_cap:
            push = run_celebrity_push(subscribers, changes, seed)
            row["push"] = push
            row["push_measured"] = True
        else:
            # Beyond the cap the baseline follows its exact closed
            # form (verified head-to-head at every measured size).
            row["push"] = {
                "subscribers": subscribers,
                "changes": changes,
                "messages": 2 * changes * subscribers,
                "deliveries": changes * subscribers,
                "shield_checks": changes * subscribers,
            }
            row["push_measured"] = False
        row["message_ratio"] = round(
            bus["messages"] / row["push"]["messages"], 4
        )
        rows.append(row)
        gc.collect()
    return rows


# ---------------------------------------------------------------------------
# Provisioning burst: enter-once storms ride the bus
# ---------------------------------------------------------------------------

def run_provisioning_burst(
    provisions: int, seed: int
) -> Dict[str, object]:
    world = build_converged_world()
    bus = ChangeBus(world.sim, world.network, "gupster")
    provisioner = Provisioner(world.server, world.executor, bus=bus)
    cache = ComponentCache(registry=world.network.metrics)
    sweeper = CacheInvalidationListener("cache-sweep", cache)
    bus.attach(sweeper)
    rng = random.Random(seed)
    statuses = ("available", "busy", "away", "offline")
    users = ("arnaud", "alice")
    at = 0.0
    for index in range(provisions):
        at += rng.expovariate(1.0 / 10.0)  # mean 10 ms apart
        user = users[index % len(users)]
        status = statuses[rng.randrange(len(statuses))]
        world.sim.schedule_at(
            at,
            lambda u=user, s=status: provisioner.enter_once(
                "client-app", u, "presence", [{"status": s}],
                now=world.sim.now,
            ),
        )
    wall_start = time.perf_counter()  # gupcheck: ignore[determinism] -- host-side harness timing
    world.sim.run()
    wall = time.perf_counter() - wall_start  # gupcheck: ignore[determinism] -- host-side harness timing
    return {
        "provisions": provisions,
        "appends": bus.appends,
        "waves": bus.waves,
        "sweeps": sweeper.sweeps,
        "invalidated_paths": sweeper.invalidated_paths,
        "coalesced": sweeper.coalesced,
        "per_update_invalidations": bus.appends,
        "coalescing_factor": round(
            bus.appends / sweeper.sweeps, 2
        ) if sweeper.sweeps else 0.0,
        "wall_seconds": round(wall, 3),
    }


# ---------------------------------------------------------------------------
# Sustained updates over a sharded million-subscriber population
# ---------------------------------------------------------------------------

def run_sustained_updates(
    users: int, updates: int, shards: int, seed: int
) -> Dict[str, object]:
    sim = Simulator()
    network = Network(seed=seed)
    network.add_node("gupster", region="core")
    network.add_node("analytics", region="core")
    fleet = ShardedStore(
        "gup.shard",
        shards,
        network=network,
        region="core",
        adapter_factory=lambda sid, region: SyntheticAdapter(
            sid, region=region, memoize_exports=True
        ),
    )
    user_ids = ["u%07d" % index for index in range(users)]
    setup_start = time.perf_counter()  # gupcheck: ignore[determinism] -- host-side harness timing
    for user_id in user_ids:
        fleet.add_user(user_id, ["presence"])
    setup_wall = time.perf_counter() - setup_start  # gupcheck: ignore[determinism] -- host-side harness timing
    bus = ChangeBus(sim, network, "gupster")
    fleet.bind_bus(bus)
    recorder = RecordingListener("analytics", node="analytics")
    bus.attach(recorder)
    cache = ComponentCache(registry=network.metrics)
    sweeper = CacheInvalidationListener("cache-sweep", cache)
    bus.attach(sweeper)
    # Zipf-popular targets: the hot head hammers a few profiles, the
    # tail brushes the rest — placement spreads both over the ring.
    sampler = ZipfSampler(user_ids, alpha=ZIPF_EXPONENT, seed=seed)
    targets = sampler.sequence(updates)
    rng = random.Random(seed + 1)
    at = 0.0
    arrivals: List[Tuple[float, str]] = []
    for user_id in targets:
        at += rng.expovariate(1.0 / 2.0)  # mean 2 ms between updates
        arrivals.append((at, user_id))
    wall_start = time.perf_counter()  # gupcheck: ignore[determinism] -- host-side harness timing
    for arrived_at, user_id in arrivals:
        sim.schedule_at(
            arrived_at,
            lambda u=user_id, t=arrived_at: bus.append(
                "/user[@id='%s']/presence" % u,
                "status@%.1f" % t,
                user_id=u,
            ),
        )
    sim.run()
    wall = time.perf_counter() - wall_start  # gupcheck: ignore[determinism] -- host-side harness timing
    retained = sum(
        len(bus.log_for(shard_id)) for shard_id in fleet.shards
    )
    virtual_ms = arrivals[-1][0] if arrivals else 0.0
    result = {
        "users": users,
        "shards": shards,
        "updates": updates,
        "appends": bus.appends,
        "waves": bus.waves,
        "messages": bus.messages,
        "delivered_to_analytics": len(recorder.received),
        "lost": updates - len(recorder.received),
        "sweeps": sweeper.sweeps,
        "invalidated_paths": sweeper.invalidated_paths,
        "retained_after_drain": retained,
        "records_compacted": bus.records_compacted,
        "virtual_updates_per_sec": round(
            1000.0 * updates / virtual_ms, 1
        ) if virtual_ms else 0.0,
        "wall_setup_seconds": round(setup_wall, 3),
        "wall_seconds": round(wall, 3),
        "wall_updates_per_sec": round(updates / wall, 1) if wall else 0.0,
    }
    del sim, network, fleet, bus, recorder, sweeper, user_ids, targets
    gc.collect()
    return result


# ---------------------------------------------------------------------------
# Crash/resume: cursors lose nothing across a failure window
# ---------------------------------------------------------------------------

def run_crash_resume(appends: int, seed: int) -> Dict[str, object]:
    sim = Simulator()
    network = Network(seed=seed)
    network.add_node("gupster", region="core")
    network.add_node("subscriber", region="internet")
    bus = ChangeBus(sim, network, "gupster")
    recorder = RecordingListener("subscriber", node="subscriber")
    bus.attach(recorder)
    for index in range(appends):
        sim.schedule_at(
            float(index + 1),
            lambda i=index: bus.append(
                "/p", "v%d" % (i + 1), user_id="u"
            ),
        )
    # Fail 40% in, restore (and kick) at 80%: everything appended in
    # the window piles up behind the cursor, then replays in one wave.
    sim.schedule_at(0.4 * appends, lambda: network.fail("subscriber"))

    def recover() -> None:
        network.restore("subscriber")
        bus.kick()

    sim.schedule_at(0.8 * appends, recover)
    sim.run()
    bus.kick()
    sim.run()
    seqs = [record.seq for record in recorder.received]
    return {
        "appends": appends,
        "received": len(seqs),
        "delivery_failures": bus.delivery_failures,
        "in_order_exactly_once": seqs == list(range(1, appends + 1)),
        "records_delivered": bus.records_delivered,
    }


# ---------------------------------------------------------------------------
# Revocation: the headline bugfix, measured
# ---------------------------------------------------------------------------

def run_revocation_probe() -> Dict[str, object]:
    world = build_converged_world()
    hub = SubscriptionHub(
        world.sim, world.network, world.server, world.executor
    )
    hub.start_push(
        "client-app",
        "/user[@id='arnaud']/presence",
        "/user/presence/status",
        RequestContext("mom", relationship="family"),
    )
    world.presence.watch(
        "arnaud",
        lambda u, s, n: hub.note_change(
            "/user/presence/status", s, user_id=u
        ),
    )
    statuses = ("busy", "away", "offline", "busy", "available", "away")
    for index, status in enumerate(statuses):
        world.sim.schedule(
            1_000 * (index + 1),
            lambda s=status: world.presence.set_status("arnaud", s),
        )
    world.sim.schedule(
        3_500,
        lambda: world.server.revoke_policy(
            "arnaud", "arnaud-boss-family-presence"
        ),
    )
    world.sim.run(until=30_000)
    delivered = [d.value for d in hub.deliveries_for("push")]
    return {
        "changes": len(statuses),
        "delivered_before_revocation": len(delivered),
        "withheld_after_revocation": hub.push_withheld,
        "stream_stopped": delivered == list(statuses[:3]),
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: small sweeps, same assertions",
    )
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--updates", type=int, default=None)
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument(
        "--output", default=os.path.join(REPO_ROOT, "BENCH_e20.json")
    )
    options = parser.parse_args(argv)

    if options.smoke:
        subscriber_counts: Tuple[int, ...] = (200, 2_000)
        push_cap = 2_000
        changes = 24
        provisions = 60
        users = options.users or 10_000
        updates = options.updates or 2_000
        crash_appends = 1_000
    else:
        subscriber_counts = (1_000, 10_000, 100_000)
        push_cap = 10_000
        changes = 24
        provisions = 240
        users = options.users or 1_000_000
        updates = options.updates or 20_000
        crash_appends = 5_000

    started = time.perf_counter()  # gupcheck: ignore[determinism] -- host-side harness timing
    print(
        "E20: celebrity sweep %s (%d changes), %d provisions, "
        "%d users x %d updates"
        % (list(subscriber_counts), changes, provisions, users, updates)
    )

    celebrity = run_celebrity_sweep(
        subscriber_counts, changes, push_cap, options.seed
    )
    for row in celebrity:
        bus, push = row["bus"], row["push"]
        print(
            "  fans=%-7d bus: %2d waves %9d msgs | push%s: %9d msgs "
            "| ratio %.3f"
            % (
                bus["subscribers"], bus["waves"], bus["messages"],
                "" if row["push_measured"] else " (closed form)",
                push["messages"], row["message_ratio"],
            )
        )

    burst = run_provisioning_burst(provisions, options.seed)
    print(
        "  provisioning: %d enter-once -> %d waves, %d cache sweeps "
        "(%.0fx coalescing)"
        % (
            burst["provisions"], burst["waves"], burst["sweeps"],
            burst["coalescing_factor"],
        )
    )

    sustained = run_sustained_updates(users, updates, 16, options.seed)
    print(
        "  sustained: %d updates over %d users/16 shards -> "
        "%d waves, %d lost, %d retained, %.0f wall updates/s"
        % (
            sustained["updates"], sustained["users"],
            sustained["waves"], sustained["lost"],
            sustained["retained_after_drain"],
            sustained["wall_updates_per_sec"],
        )
    )

    crash = run_crash_resume(crash_appends, options.seed)
    print(
        "  crash/resume: %d appends, %d failures, exactly-once=%s"
        % (
            crash["appends"], crash["delivery_failures"],
            crash["in_order_exactly_once"],
        )
    )

    revocation = run_revocation_probe()
    print(
        "  revocation: %d delivered then %d withheld, stopped=%s"
        % (
            revocation["delivered_before_revocation"],
            revocation["withheld_after_revocation"],
            revocation["stream_stopped"],
        )
    )

    report = {
        "experiment": "E20",
        "title": "write-path at scale: change-notification bus with "
                 "cursor-resumable fan-out",
        "mode": "smoke" if options.smoke else "full",
        "seed": options.seed,
        "zipf_exponent": ZIPF_EXPONENT,
        "celebrity_fanout": celebrity,
        "provisioning_burst": burst,
        "sustained_updates": sustained,
        "crash_resume": crash,
        "revocation": revocation,
        "determinism_note": (
            "virtual-time numbers (waves, messages, deliveries, "
            "shield checks) are seeded and reproducible; wall_seconds "
            "and wall_updates_per_sec vary by host"
        ),
        "wall_seconds_total": round(
            time.perf_counter() - started, 1  # gupcheck: ignore[determinism] -- host-side harness timing
        ),
    }
    with open(options.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % options.output)

    # Acceptance gates (ISSUE E20).
    failures: List[str] = []
    for row in celebrity:
        bus = row["bus"]
        if bus["lost"]:
            failures.append(
                "celebrity fans=%d lost %d deliveries"
                % (bus["subscribers"], bus["lost"])
            )
        if row["message_ratio"] >= 0.5:
            failures.append(
                "celebrity fans=%d bus/push message ratio %.3f >= 0.5 "
                "(fan-out cost must be sub-linear in the change rate)"
                % (bus["subscribers"], row["message_ratio"])
            )
        # Per-delivery shield floor: the wave memo may collapse
        # identical (path, requester) pairs *within* one wave, but
        # every (listener, wave) delivery must run at least one fresh
        # check — a decision never outlives its wave.
        if bus["shield_checks"] < bus["deliveries_batched"]:
            failures.append(
                "celebrity fans=%d ran %d shield checks for %d "
                "batched deliveries (a shield decision outlived "
                "its wave)"
                % (
                    bus["subscribers"], bus["shield_checks"],
                    bus["deliveries_batched"],
                )
            )
    if burst["sweeps"] >= burst["provisions"]:
        failures.append(
            "provisioning burst did not coalesce: %d sweeps for %d "
            "provisions" % (burst["sweeps"], burst["provisions"])
        )
    if sustained["lost"]:
        failures.append(
            "sustained run lost %d update(s)" % sustained["lost"]
        )
    if sustained["retained_after_drain"]:
        failures.append(
            "sustained run retained %d record(s) after drain "
            "(compaction failed)" % sustained["retained_after_drain"]
        )
    if not crash["in_order_exactly_once"]:
        failures.append(
            "crash/resume delivered %d/%d records or broke ordering"
            % (crash["received"], crash["appends"])
        )
    if not revocation["stream_stopped"]:
        failures.append("revocation did not stop the bus push stream")

    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    print(
        "ok: zero lost deliveries; bus/push message ratio %.3f at "
        "%d subscribers (gate: < 0.5)"
        % (
            celebrity[-1]["message_ratio"],
            celebrity[-1]["bus"]["subscribers"],
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
