"""E12 — polling vs GUPster-internal push subscriptions (Section 5.2:
"every polling request needs to be checked to enforce the end-user's
privacy shield. Having the subscription handled by GUPster internally
would save this extra work").

Runs a 60-second simulation with presence changes every ~8 seconds and
compares: delivery latency, messages on the wire, and privacy-shield
policy checks, for polling at several intervals vs push over the
change bus (one wave plus one hop per change).
"""

from repro.access import RequestContext
from repro.core import SubscriptionHub
from repro.workloads import build_converged_world


PRESENCE = "/user[@id='arnaud']/presence"
STATUS = "/user/presence/status"
RUN_MS = 60_000.0
CHANGE_TIMES = [4_200, 12_800, 21_300, 33_700, 47_100, 55_600]
STATUSES = ["busy", "away", "available", "busy", "available", "away"]


def run_mode(mode, interval_ms=None):
    world = build_converged_world()
    hub = SubscriptionHub(
        world.sim, world.network, world.server, world.executor
    )
    ctx = RequestContext("mom", relationship="family")
    checks_before = world.server.pep.enforced
    if mode == "poll":
        hub.start_polling(
            "client-app", PRESENCE, STATUS, ctx,
            interval_ms=interval_ms, until=RUN_MS,
        )
    else:
        hub.start_push("client-app", PRESENCE, STATUS, ctx)
    for when, status in zip(CHANGE_TIMES, STATUSES):
        def change(status=status):
            hub.note_change(STATUS, status)
            world.presence.set_status("arnaud", status)
        world.sim.schedule(when, change)
    world.sim.run(until=RUN_MS)
    label = (
        "poll @%ds" % (interval_ms / 1000) if mode == "poll" else "push"
    )
    deliveries = hub.deliveries_for(mode)
    messages = hub.poll_messages if mode == "poll" else hub.bus.messages
    checks = world.server.pep.enforced - checks_before
    return (
        label,
        len(deliveries),
        hub.mean_latency(mode),
        max((d.latency_ms for d in deliveries), default=float("nan")),
        messages,
        checks,
    )


def test_e12_poll_vs_push(benchmark, report):
    def run():
        rows = [
            run_mode("poll", 1_000.0),
            run_mode("poll", 5_000.0),
            run_mode("poll", 15_000.0),
            run_mode("push"),
        ]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "e12_subscriptions",
        "E12 — change delivery: polling vs GUPster-internal push "
        "(%d changes over %ds)" % (len(CHANGE_TIMES), RUN_MS / 1000),
        ["mode", "delivered", "mean latency ms", "max latency ms",
         "messages", "policy checks"],
        rows,
        notes=(
            "Polling trades latency against message volume and pays "
            "one policy check per poll; push rides the change bus and "
            "delivers every change one wave (50 ms) plus one hop "
            "after it happened, re-checking the shield per delivery "
            "(one check at subscribe time plus one per delivered "
            "change)."
        ),
    )
    by_mode = {row[0]: row for row in rows}
    push = by_mode["push"]
    poll_fast = by_mode["poll @1s"]
    poll_slow = by_mode["poll @15s"]
    # Push delivers every change, fastest, with one subscribe-time
    # check plus one per-delivery re-check (the E20 revocation fix) —
    # still far below polling's one check per tick. The changes are
    # seconds apart, so each rides its own wave: one round trip each.
    assert push[1] == len(CHANGE_TIMES)
    assert push[4] == 2 * len(CHANGE_TIMES)
    assert push[5] == 1 + len(CHANGE_TIMES)
    assert push[5] < poll_fast[5]
    assert push[2] < poll_fast[2]
    # Fast polling costs the most messages and checks.
    assert poll_fast[4] > poll_slow[4]
    assert poll_fast[5] > poll_slow[5]
    # Slow polling has the worst latency (and may coalesce changes).
    assert poll_slow[2] > poll_fast[2]
    assert poll_slow[1] <= len(CHANGE_TIMES)
