"""Garbage on the served path.

Profile trees are acyclic, so every fragment a request builds and
drops is freed by reference counting: none reaches the cyclic
collector. And the server freezes the world it starts with, so the
collections that still run skip the long-lived stores, cache and span
recorder, and it raises the young collector threshold while it
listens (``stop()`` restores the thresholds it found).
"""

import asyncio
import gc
import json

import pytest

from repro.pxml import PNode
from repro.serve import AppServer, Request, create_app
from repro.serve.app import SERVING_GC_THRESHOLDS

BOOK = "/user[@id='u1']/address-book"

PROVISION_HEADERS = {
    "x-requester": "u1",
    "x-relationship": "self",
    "x-purpose": "provision",
}


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def saved_garbage():
    """Collector off, and every unreachable object a collection finds
    kept in ``gc.garbage`` instead of freed."""
    flags, enabled, kept = gc.get_debug(), gc.isenabled(), list(gc.garbage)
    gc.disable()
    gc.collect()
    del gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = kept
        if enabled:
            gc.enable()


def provision(serial):
    fragment = (
        "<address-book><item type='personal'>"
        "<entry name='gc-%d'><phone number='%d'/></entry>"
        "</item></address-book>" % (serial, serial)
    )
    return Request(
        "POST", "/v1/provision", headers=PROVISION_HEADERS,
        body=json.dumps({"path": BOOK, "fragment": fragment}).encode(),
    )


def mixed_requests(count):
    """Chaining reads, cached reads and provisions, interleaved."""
    for index in range(count):
        kind = index % 4
        if kind == 3:
            yield provision(index)
        else:
            pattern = "chaining" if kind == 0 else "cached"
            yield Request(
                "GET", "/v1/query",
                params={"path": BOOK, "pattern": pattern},
            )


def test_requests_leave_no_profile_tree_to_the_cyclic_collector(
    saved_garbage,
):
    app = create_app()

    async def go():
        statuses = set()
        for request in mixed_requests(200):
            response = await app.handle(request)
            statuses.add(response.status)
            app.jobs.drain_bus_once()
        return statuses

    gc.collect()
    del saved_garbage[:]
    assert run(go()) == {200, 201}
    gc.collect()
    cyclic_trees = [
        obj for obj in saved_garbage if isinstance(obj, PNode)
    ]
    assert cyclic_trees == []


def test_server_freezes_the_world_while_it_listens():
    # Not CPython's defaults, so a restore cannot pass by resetting.
    found, before = (500, 5, 5), gc.get_threshold()

    async def go():
        server = AppServer(create_app(), port=0)
        await server.start()
        listening = gc.get_freeze_count(), gc.get_threshold()
        await server.stop()
        return listening, (gc.get_freeze_count(), gc.get_threshold())

    gc.set_threshold(*found)
    try:
        (frozen, raised), (after_stop, restored) = run(go())
    finally:
        gc.set_threshold(*before)
    assert frozen > 0
    assert after_stop == 0
    assert raised == SERVING_GC_THRESHOLDS
    assert restored == found
