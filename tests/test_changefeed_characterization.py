"""Characterization of every sequence-numbered change feed in
``src/repro`` — driven through each owner's *public* API only.

One scripted scenario per holder (bus ``ChangeLog``, ``CoverageMap``,
``PolicyRepository``, ``SyncEndpoint``, ``MobilePhone``, ``Pda``,
``ForeignDirectory``) plus the three audit windows: append, trim,
replay at **every** cursor from 0 to ``last + 1`` (so 0, floor − 1,
floor, last and last + 1 are all in there), compact, and
``apply_changes`` with gapped revisions. Each probe records the
returned sequence numbers or the raised error class, and each
scenario the owner's head / last / dropped counters.

``tests/data/golden_changefeeds.json`` was captured from the seven
hand-rolled logs; the port onto one primitive has to replay it
unchanged except where the issue changes behaviour on purpose.
Regenerate with ``PYTHONPATH=src python
tests/test_changefeed_characterization.py`` and review the diff.
"""

import json
import os

import pytest

from repro.access import PolicyRepository, PolicyRule, RequestContext
from repro.bus import ChangeLog, RecordingListener
from repro.core import SubscriptionHub
from repro.core.coverage import CoverageMap
from repro.core.provenance import ProvenanceTracker
from repro.core.subscription import Delivery
from repro.errors import ReproError
from repro.federation.foreign import ForeignDirectory
from repro.pxml import PNode, parse_path
from repro.simnet import Simulator
from repro.stores import MobilePhone, Pda, PhoneBookEntry, SimCard
from repro.sync.endpoint import Change, SyncEndpoint
from repro.workloads import build_converged_world

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_changefeeds.json"
)


def probe(replay, cursor, seq_of):
    """One replay at *cursor*: the sequence numbers it returned, or
    the class of the error it raised."""
    try:
        return {
            "cursor": cursor,
            "seqs": [seq_of(entry) for entry in replay(cursor)],
        }
    except ReproError as error:
        return {"cursor": cursor, "error": type(error).__name__}


def sweep(replay, last, seq_of):
    """Replay at every cursor in ``0 .. last + 1``."""
    return [probe(replay, c, seq_of) for c in range(last + 2)]


def by_seq(entry):
    return entry.seq


def first(entry):
    return entry[0]


# -- the bus log: contiguous, compacted by cursor ---------------------------

def bus_log_scenario():
    log = ChangeLog("s0")
    steps = []

    def state(label):
        steps.append({
            "after": label,
            "head_seq": log.head_seq, "last_seq": log.last_seq,
            "len": len(log), "compacted_total": log.compacted_total,
            "since": sweep(log.since, log.last_seq, by_seq),
            "backlog": [
                probe(lambda c: [log.backlog(c)], c, lambda n: n)
                for c in range(log.last_seq + 2)
            ],
        })

    state("empty")
    for i in range(6):
        log.append(float(i), "/p%d" % (i % 2), "v%d" % i, "u")
    state("6 appends")
    steps.append({"compact(4)": log.compact(4)})
    state("compact(4)")
    steps.append({"compact(2) again": log.compact(2)})
    log.append(6.0, "/p0", "v6", "u")
    state("append after compaction")
    steps.append({"compact(99)": log.compact(99)})
    state("compacted past the end")
    steps.append({
        "changed_at": [
            log.changed_at("/p0", "v6"), log.changed_at("/p1", "v5"),
            log.changed_at("/p1", "v3"), log.changed_at("/nope", "x"),
        ],
    })
    return steps


# -- coverage: windowed, caller-supplied (gapped) revisions -----------------

def feed_rows(feed):
    return [[rev, op, str(path), store] for rev, op, path, store in feed]


def coverage_scenario():
    coverage = CoverageMap(max_changelog=4)
    steps = []
    for i in range(6):
        coverage.register("/user[@id='u%d']/im" % i, "store-a")
    coverage.register("/user[@id='u0']/im", "store-a")  # idempotent
    coverage.unregister("/user[@id='u1']/im", "store-a")
    steps.append({
        "after": "6 registers + 1 unregister, window 4",
        "revision": coverage.revision,
        "since": sweep(coverage.changes_since, coverage.revision, first),
        "feed(3)": feed_rows(coverage.changes_since(3)),
    })
    steps.append({
        "unregister_store": coverage.unregister_store("store-a"),
        "revision": coverage.revision,
        "since": sweep(coverage.changes_since, coverage.revision, first),
    })

    # A replica applying a peer's feed keeps the peer's revisions,
    # gaps included; stale revisions are skipped.
    mirror = CoverageMap(max_changelog=4)
    mirror.register("/user[@id='m']/im", "store-m")
    path = parse_path("/user[@id='g']/im")
    gapped = [
        (1, "register", path, "stale"),
        (3, "register", path, "s3"),
        (7, "register", path, "s7"),
        (8, "unregister", path, "s3"),
        (12, "register", path, "s12"),
        (20, "register", path, "s20"),
        (21, "unregister", path, "never-there"),
    ]
    steps.append({
        "apply_changes(gapped)": mirror.apply_changes(gapped),
        "replay again": mirror.apply_changes(gapped),
        "revision": mirror.revision,
        "stores": mirror.stores_for(path),
        "since": sweep(mirror.changes_since, mirror.revision, first),
        "feed(8)": feed_rows(mirror.changes_since(8)),
    })
    mirror.register("/user[@id='m2']/im", "store-m")
    steps.append({
        "after": "local register on top of the applied feed",
        "revision": mirror.revision,
        "since": sweep(mirror.changes_since, mirror.revision, first),
    })

    silent = CoverageMap(track_changes=False)
    silent.register("/user[@id='u']/im", "s")
    steps.append({
        "track_changes=False": probe(silent.changes_since, 0, first),
        "revision": silent.revision,
    })
    return steps


# -- the policy repository: per-store replicas ------------------------------

def policy_rows(feed):
    return [
        [rev, op, owner, rule.rule_id, rule.version]
        for rev, op, owner, rule in feed
    ]


def policy_scenario():
    prp = PolicyRepository()
    steps = []
    for i in range(4):
        prp.store(PolicyRule(
            "alice", "/user[@id='alice']/presence", "permit",
            rule_id="r%d" % i,
        ))
    prp.store(PolicyRule(
        "alice", "/user[@id='alice']/presence", "deny", rule_id="r1",
    ))
    prp.remove("alice", "r0")
    steps.append({
        "after": "4 stores, 1 overwrite, 1 remove",
        "revision": prp.revision,
        "since": sweep(prp.changes_since, prp.revision, first),
        "feed(3)": policy_rows(prp.changes_since(3)),
    })

    replica = PolicyRepository("replica")
    steps.append({
        "apply_changes(full feed)": replica.apply_changes(
            prp.changes_since(0)
        ),
        "replay again": replica.apply_changes(prp.changes_since(0)),
        "revision": replica.revision,
        "rules": sorted(r.rule_id for r in replica.rules_for("alice")),
    })
    rule = PolicyRule(
        "bob", "/user[@id='bob']/presence", "permit", rule_id="g",
    )
    gapped = [
        (2, "store", "bob", rule), (9, "store", "bob", rule),
        (15, "remove", "bob", rule), (16, "store", "bob", rule),
    ]
    steps.append({
        "apply_changes(gapped)": replica.apply_changes(gapped),
        "revision": replica.revision,
        "since": sweep(replica.changes_since, replica.revision, first),
    })
    replica.store(rule)
    steps.append({
        "after": "local store on top of the applied feed",
        "revision": replica.revision,
        "feed(15)": policy_rows(replica.changes_since(15)),
    })

    # Sustained provisioning: 65 536 + 4 changes to one rule.
    busy = PolicyRepository("busy")
    for _ in range(65536 + 4):
        busy.store(rule)
    try:
        replayed = len(busy.changes_since(0))
    except ReproError as error:
        replayed = type(error).__name__
    steps.append({
        "after": "65540 stores",
        "revision": busy.revision,
        "changes_since(0)": replayed,
        "changes_since(4)": len(busy.changes_since(4)),
        "changes_since(65530)": [
            c[0] for c in busy.changes_since(65530)
        ],
    })
    return steps


# -- SyncML endpoints and the devices they sync -----------------------------

def item(item_id, name):
    node = PNode("item", {"id": item_id})
    node.append(PNode("name", text=name))
    return node


def sync_endpoint_scenario():
    ep = SyncEndpoint("phone")
    ep.put_item(item("1", "Bob"), now=1.0)
    ep.put_item(item("2", "Carol"), now=2.0)
    ep.put_item(item("1", "Bob"), now=3.0)  # no-op write: not logged
    ep.put_item(item("1", "Robert"), now=4.0)
    ep.delete_item("2", now=5.0)
    ep.apply_change(Change(77, "put", "3", item("3", "Dan"), 0.5), 6.0)
    ep.apply_change(Change(78, "delete", "absent", None, 0.6), 7.0)
    ep.apply_change(Change(79, "delete", "3", None, 0.7), 8.0)

    def rows(cursor):
        return [
            [c.seq, c.op, c.item_id, c.at]
            for c in ep.changes_since(cursor)
        ]

    return [{
        "seq": ep.seq,
        "items": ep.item_ids(),
        "since": sweep(ep.changes_since, ep.seq, by_seq),
        "net(0)": rows(0),
        "net(2)": rows(2),
    }]


def device_scenario():
    phone = MobilePhone(
        "cell", "alice", "sprintpcs", sim=SimCard("imsi", "908", 4)
    )
    phone.store_entry(PhoneBookEntry("1", "Bob", "908-1"))
    phone.store_entry(PhoneBookEntry("2", "Maman", "+33"), on_sim=True)
    phone.set_preference("ring", "loud")
    phone.add_wap_bookmark("m1", "wap://x")
    phone.delete_entry("1")
    pda = Pda("pda", "alice")
    pda.store_contact(PhoneBookEntry("1", "Bob", "908-1"))
    pda.store_appointment("a1", "9", "10", "standup")
    pda.store_contact(PhoneBookEntry("1", "Bobby", "908-1"))
    return [
        {
            "device": type(device).__name__,
            "change_counter": device.change_counter,
            "since": sweep(
                device.changes_since, device.change_counter, first
            ),
            "feed(1)": [list(c) for c in device.changes_since(1)],
        }
        for device in (phone, pda)
    ]


# -- the foreign directory's USN journal ------------------------------------

def foreign_scenario():
    foreign = ForeignDirectory("ad", Simulator(), max_journal=4)
    steps = []

    def state(label):
        steps.append({
            "after": label,
            "head_usn": foreign.head_usn, "last_usn": foreign.last_usn,
            "dropped": foreign.dropped,
            "journal_len": foreign.journal_len(),
            "since": sweep(
                foreign.changes_since, foreign.last_usn,
                lambda change: change.usn,
            ),
        })

    state("empty")
    for i in range(3):
        foreign.write("u%d" % i, "mail", "m%d" % i)
    state("3 writes, inside the window")
    for i in range(3, 7):
        foreign.write("u%d" % i, "mail", "m%d" % i, origin="sync", at=9.0)
    state("7 writes, window 4")
    foreign.reject_writes_for("u9")
    try:
        foreign.write("u9", "mail", "poison")
    except ReproError as error:
        steps.append({"rejected write": type(error).__name__})
    state("a rejected write is not journaled")
    return steps


# -- the three audit windows -------------------------------------------------

def audit_window_scenario():
    listener = RecordingListener("tap", max_records=3)
    log = ChangeLog("s")
    waves = []
    for wave in range(3):
        records = [
            log.append(float(wave), "/p", "v", "u") for _ in range(2)
        ]
        listener.deliver(records, float(wave))
        waves.append({
            "received": [r.seq for r in listener.received],
            "delivered_at": list(listener.delivered_at),
            "dropped": listener.dropped,
        })

    tracker = ProvenanceTracker(max_records=3)
    context = RequestContext("app", relationship="third-party")
    for i in range(5):
        tracker.record(
            float(i), context, "/user[@id='u']/presence", ["s"],
        )
    world = build_converged_world()
    hub = SubscriptionHub(
        world.sim, world.network, world.server, world.executor,
        max_deliveries=3,
    )
    for i in range(5):
        hub._record_delivery(Delivery("poll", "v%d" % i, None, float(i)))
    return [
        {"RecordingListener": waves},
        {
            "ProvenanceTracker": {
                "len": len(tracker), "dropped": tracker.dropped,
                "at": [
                    r.at for r in tracker.disclosures_for("u")
                ],
            },
        },
        {
            "SubscriptionHub": {
                "values": [d.value for d in hub.deliveries],
                "dropped_deliveries": hub.dropped_deliveries,
            },
        },
    ]


SCENARIOS = {
    "bus_log": bus_log_scenario,
    "coverage": coverage_scenario,
    "policy_repository": policy_scenario,
    "sync_endpoint": sync_endpoint_scenario,
    "devices": device_scenario,
    "foreign_directory": foreign_scenario,
    "audit_windows": audit_window_scenario,
}


def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_scenario():
    assert set(golden()) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_feed_replays_the_golden(name):
    # Round-trip through JSON so tuples/lists compare alike.
    live = json.loads(json.dumps(SCENARIOS[name]()))
    assert live == golden()[name]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {name: run() for name, run in sorted(SCENARIOS.items())},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
    print("wrote", GOLDEN_PATH)
