"""Served-surface golden for the demo world.

A scripted ``App.handle`` sequence on :func:`build_demo_world` —
chaining, a cached miss then hit, a subscription, a provision, the
read-back, the subscription poll and ``/healthz`` — runs on the
healthy world, with ``gup.alpha.com`` failed (the personal slice fails
over to beta) and with ``gup.corp.com`` failed (the corporate slice
degrades). Every step records its status, content type and body, and
the ``serve.*`` counters after it. The ``/metrics`` body is left out:
it carries wall latencies.

The fixture ``tests/data/golden_served_surface.json`` must be
reproduced exactly by any change to how the wall transport drives a
served program. Regenerate with
``PYTHONPATH=src python -m tests.test_serve_surface_golden`` and
review the diff.
"""

import asyncio
import json
import os
from typing import Any, Dict, List, Optional

import pytest

from repro.serve import Request, build_demo_world, create_app
from repro.simnet import FaultState

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_served_surface.json"
)

BOOK = "/user[@id='u1']/address-book"

#: The ``serve.*`` counters recorded after every step.
COUNTERS = (
    "serve.requests",
    "serve.errors",
    "serve.sends",
    "serve.send_failures",
    "serve.retries",
    "serve.failovers",
    "serve.stale_serves",
    "serve.degraded_responses",
)

#: World name -> the store failed in it (``None``: healthy).
WORLDS = {
    "healthy": None,
    "failover": "gup.alpha.com",
    "degraded": "gup.corp.com",
}

OWNER = {
    "x-requester": "u1",
    "x-relationship": "self",
    "x-purpose": "provision",
}

FRAGMENT = (
    "<address-book><item type='personal'><entry name='golden'>"
    "<phone number='555-0100'/></entry></item></address-book>"
)


def _query(pattern: str) -> Request:
    return Request(
        "GET", "/v1/query", params={"path": BOOK, "pattern": pattern},
    )


def served_surface(failed: Optional[str]) -> List[Dict[str, Any]]:
    """The scripted sequence on a fresh demo world, one row per step."""
    faults = FaultState()
    if failed is not None:
        faults.fail(failed)
    app = create_app(build_demo_world(faults=faults))
    metrics = app.world.metrics
    rows: List[Dict[str, Any]] = []

    def step(label: str, request: Request) -> Dict[str, Any]:
        response = asyncio.run(app.handle(request))
        row = {
            "step": label,
            "status": response.status,
            "content_type": response.headers.get("content-type"),
            "body": response.body.decode("utf-8"),
            "counters": {
                name: metrics.counter(name).value for name in COUNTERS
            },
        }
        rows.append(row)
        return row

    step("chaining", _query("chaining"))
    step("cached miss", _query("cached"))
    step("cached hit", _query("cached"))
    created = step("subscribe", Request(
        "POST", "/v1/subscriptions", headers=OWNER,
        body=json.dumps({"watch_path": BOOK}).encode(),
    ))
    step("provision", Request(
        "POST", "/v1/provision", headers=OWNER,
        body=json.dumps({"path": BOOK, "fragment": FRAGMENT}).encode(),
    ))
    step("read-back", _query("chaining"))
    app.jobs.drain_bus_once()
    sub_id = json.loads(created["body"])["id"]
    step("poll", Request("GET", "/v1/subscriptions/%d" % sub_id))
    step("healthz", Request("GET", "/healthz"))
    return rows


def build_golden() -> Dict[str, List[Dict[str, Any]]]:
    return {name: served_surface(failed) for name, failed in WORLDS.items()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, List[Dict[str, Any]]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_world(golden):
    assert sorted(golden) == sorted(WORLDS)


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_served_surface_matches_golden(world, golden):
    assert served_surface(WORLDS[world]) == golden[world]


def test_golden_exercises_failover_and_degradation(golden):
    """The fixture pins the resilience paths it claims to."""
    last = {name: rows[-1]["counters"] for name, rows in golden.items()}
    assert last["healthy"]["serve.send_failures"] == 0
    assert last["failover"]["serve.failovers"] > 0
    assert last["degraded"]["serve.degraded_responses"] > 0


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as out:
        json.dump(build_golden(), out, indent=1, sort_keys=True)
        out.write("\n")
    print("wrote %s" % GOLDEN_PATH)
