#!/usr/bin/env python
"""Data provenance (paper Section 7, third core challenge).

"In e-commerce, when a user buys something, she gives her credit card
number ... The user trusts that the merchant won't use the credit card
number beyond the purchases that the user authorizes."

This example attaches the provenance machinery to GUPster and shows:

1. the access ledger — Arnaud audits who touched his profile today,
   including denied attempts;
2. per-element origins of a merged (split) address book;
3. the cross-source redistribution check: handing the merged book to
   a family member would leak the corporate half against Lucent's
   rules — detected before it happens.

Run:  python examples/provenance_audit.py
"""

from repro.access import PolicyRule, RequestContext, relationship_in
from repro.core import ProvenanceTracker, SourceAnnotator
from repro.errors import AccessDeniedError
from repro.workloads import build_converged_world

BOOK = "/user[@id='arnaud']/address-book"
PRESENCE = "/user[@id='arnaud']/presence"


def main() -> None:
    world = build_converged_world(split_address_book=True)
    tracker = ProvenanceTracker()
    annotator = SourceAnnotator()
    world.executor.provenance = tracker
    world.executor.annotator = annotator

    # ---- a day of accesses ---------------------------------------------
    day = [
        ("arnaud", "self", BOOK, 8),
        ("mom", "family", BOOK, 9),
        ("bob", "co-worker", PRESENCE, 11),
        ("telemarketer", "third-party", PRESENCE, 12),
        ("rick", "boss", PRESENCE, 14),
    ]
    for requester, relationship, path, hour in day:
        ctx = RequestContext(requester, relationship=relationship,
                             hour=hour, weekday=1)
        try:
            world.executor.referral(
                "client-app", path, ctx, now=hour * 3_600_000.0
            )
        except AccessDeniedError:
            pass

    print("1. Arnaud's disclosure ledger:")
    for record in tracker.disclosures_for("arnaud"):
        print("   %02d:00  %-13s %-11s %-13s %-7s via %s"
              % (record.at / 3_600_000.0 % 24, record.requester,
                 record.relationship, record.path.steps[1].name,
                 "granted" if record.granted else "DENIED",
                 ", ".join(record.stores) or "-"))
    print("   access counts: %s" % tracker.requesters_of("arnaud"))
    print("   denied attempts: %d"
          % len(tracker.denied_attempts("arnaud")))

    # ---- element origins -------------------------------------------------
    ctx = RequestContext("arnaud", relationship="self")
    fragment, _trace = world.executor.referral("client-app", BOOK, ctx)
    book = fragment.child("address-book")
    print("\n2. Where each merged item came from:")
    for item in book.children:
        print("   item %-3s (%-9s) <- %s"
              % (item.attrs["id"], item.attrs.get("type", "?"),
                 annotator.origin_of(fragment, item)))

    # ---- redistribution check -----------------------------------------------
    print("\n3. Redistribution check — may the merged book go to mom?")
    source_policies = {
        "gup.lucent.com": [
            PolicyRule("arnaud", BOOK + "/item[@type='corporate']",
                       "permit", relationship_in("co-worker", "boss")),
        ],
        "gup.yahoo.com": [
            PolicyRule("arnaud", BOOK + "/item[@type='personal']",
                       "permit", relationship_in("family", "buddy")),
        ],
    }
    mom = RequestContext("mom", relationship="family")
    conflicts = annotator.redistribution_conflicts(
        fragment, source_policies, mom
    )
    for location, source in conflicts:
        print("   BLOCKED: %s (source %s forbids family)"
              % (location, source))
    if not conflicts:
        print("   no conflicts")


if __name__ == "__main__":
    main()
