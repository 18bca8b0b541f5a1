"""E13 (extension) — data provenance (paper Section 7, third core
challenge): the access ledger, the per-element origin map, and the
cross-source redistribution check, exercised over a day of accesses.
"""

from repro.access import (
    PolicyRule,
    RequestContext,
    relationship_in,
)
from repro.core import ProvenanceTracker, SourceAnnotator
from repro.errors import AccessDeniedError
from repro.workloads import build_converged_world


BOOK = "/user[@id='arnaud']/address-book"
PRESENCE = "/user[@id='arnaud']/presence"


def test_e13_access_ledger(benchmark, report):
    def run():
        world = build_converged_world(split_address_book=True)
        tracker = ProvenanceTracker()
        world.executor.provenance = tracker
        accesses = [
            ("arnaud", "self", BOOK, 8 * 3600e3),
            ("mom", "family", BOOK, 9 * 3600e3),
            ("mom", "family", PRESENCE, 9.5 * 3600e3),
            ("bob", "co-worker", PRESENCE, 11 * 3600e3),
            ("telemarketer", "third-party", PRESENCE, 12 * 3600e3),
            ("telemarketer", "third-party", BOOK, 12.1 * 3600e3),
            ("rick", "boss", PRESENCE, 14 * 3600e3),
        ]
        for requester, relationship, path, at in accesses:
            hour = int(at / 3600e3) % 24
            ctx = RequestContext(
                requester, relationship=relationship,
                hour=hour, weekday=1,
            )
            try:
                world.executor.referral("client-app", path, ctx, now=at)
            except AccessDeniedError:
                pass
        rows = []
        for record in tracker.disclosures_for("arnaud"):
            rows.append(
                (
                    "%02d:00" % (record.at / 3600e3 % 24),
                    record.requester,
                    record.relationship,
                    record.path.steps[1].name,
                    "granted" if record.granted else "DENIED",
                    ", ".join(record.stores) or "-",
                )
            )
        counts = tracker.requesters_of("arnaud")
        denied = len(tracker.denied_attempts("arnaud"))
        return rows, counts, denied

    rows, counts, denied = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "e13_ledger",
        "E13 — Arnaud's disclosure ledger for one day",
        ["when", "requester", "relationship", "component", "outcome",
         "stores touched"],
        rows,
        notes="Granted accesses per requester: %s; denied attempts: %d"
              % (counts, denied),
    )
    assert denied == 2                       # both telemarketer tries
    assert counts["mom"] == 2
    assert len(rows) == 7                    # every attempt is in the ledger


def test_e13_origin_and_redistribution(benchmark, report):
    def run():
        world = build_converged_world(split_address_book=True)
        annotator = SourceAnnotator()
        world.executor.annotator = annotator
        ctx = RequestContext("arnaud", relationship="self")
        fragment, _trace = world.executor.referral(
            "client-app", BOOK, ctx
        )
        book = fragment.child("address-book")
        origin_rows = [
            (item.attrs["id"], item.attrs.get("type", "?"),
             annotator.origin_of(fragment, item) or "?")
            for item in book.children
        ]
        # Redistribution: the corporate source only permits
        # co-workers/boss; shipping the merged book to family must
        # flag the Lucent-sourced elements.
        policies = {
            "gup.lucent.com": [
                PolicyRule(
                    "arnaud", BOOK + "/item[@type='corporate']",
                    "permit", relationship_in("co-worker", "boss"),
                ),
            ],
            "gup.yahoo.com": [
                PolicyRule(
                    "arnaud", BOOK + "/item[@type='personal']",
                    "permit",
                    relationship_in("family", "buddy", "co-worker"),
                ),
            ],
        }
        conflict_rows = []
        for requester, relationship in (
            ("mom", "family"), ("bob", "co-worker"),
        ):
            ctx2 = RequestContext(
                requester, relationship=relationship,
                hour=11, weekday=1,
            )
            conflicts = annotator.redistribution_conflicts(
                fragment, policies, ctx2
            )
            conflict_rows.append(
                (requester, relationship, len(conflicts),
                 ", ".join(sorted({s for _l, s in conflicts})) or "-")
            )
        return origin_rows, conflict_rows

    origin_rows, conflict_rows = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report(
        "e13_origins",
        "E13 — per-item origins of the merged address book",
        ["item", "type", "source store"],
        origin_rows,
    )
    report(
        "e13_redistribution",
        "E13 — cross-source redistribution check (Section 7: 'avoid "
        "distribution of data from one source that violates access "
        "controls given for another')",
        ["would-be recipient", "relationship", "conflicting elements",
         "offended source"],
        conflict_rows,
    )
    by_requester = {row[0]: row for row in conflict_rows}
    assert by_requester["mom"][2] > 0
    assert "gup.lucent.com" in by_requester["mom"][3]
    assert by_requester["bob"][2] == 0
