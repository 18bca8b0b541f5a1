"""Characterization of :class:`~repro.core.SourceAnnotator` on the
split-address-book world.

Arnaud's address book is split across two stores (personal items at
Yahoo, corporate at Lucent). The scenario fetches the merged book and
his presence with an annotator attached, then records what
``sources_of`` maps every element location to, and which
``(location, store)`` pairs ``redistribution_conflicts`` flags for a
family member, a co-worker and a third party.

``tests/data/golden_provenance.json`` was captured while nodes still
linked to their parent and locations were read bottom-up; the
top-down walker has to reproduce it exactly. Regenerate with
``PYTHONPATH=src python tests/test_provenance_golden.py`` and review
the diff.
"""

import json
import os

from repro.access import PolicyRule, RequestContext, relationship_in
from repro.core import SourceAnnotator
from repro.workloads import build_converged_world

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_provenance.json"
)

BOOK = "/user[@id='arnaud']/address-book"
PRESENCE = "/user[@id='arnaud']/presence"

SOURCE_POLICIES = {
    "gup.lucent.com": [
        PolicyRule(
            "arnaud", BOOK + "/item[@type='corporate']", "permit",
            relationship_in("co-worker", "boss"),
        ),
    ],
    "gup.yahoo.com": [
        PolicyRule(
            "arnaud", BOOK + "/item[@type='personal']", "permit",
            relationship_in("family", "buddy"),
        ),
        PolicyRule(
            "arnaud", PRESENCE, "deny", relationship_in("third-party"),
        ),
    ],
}

RECIPIENTS = (
    ("mom", "family"),
    ("bob", "co-worker"),
    ("telemarketer", "third-party"),
)


def scenario():
    world = build_converged_world(split_address_book=True)
    annotator = SourceAnnotator()
    world.executor.annotator = annotator
    me = RequestContext("arnaud", relationship="self")
    record = {}
    for label, path in (("book", BOOK), ("presence", PRESENCE)):
        fragment, _trace = world.executor.referral("client-app", path, me)
        record[label] = {
            "sources_of": sorted(annotator.sources_of(fragment).items()),
            "conflicts": {
                requester: annotator.redistribution_conflicts(
                    fragment, SOURCE_POLICIES,
                    RequestContext(
                        requester, relationship=relationship,
                        hour=11, weekday=1,
                    ),
                )
                for requester, relationship in RECIPIENTS
            },
        }
    return json.loads(json.dumps(record))


def test_annotator_output_matches_the_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert scenario() == golden


def test_golden_exercises_both_stores_and_a_conflict():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    stores = {store for _loc, store in golden["book"]["sources_of"]}
    assert stores == {"gup.lucent.com", "gup.yahoo.com"}
    flagged = {store for _loc, store in golden["book"]["conflicts"]["mom"]}
    assert flagged == {"gup.lucent.com"}


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(scenario(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote", GOLDEN_PATH)
