"""Soak: an always-on world must not grow with its traffic.

A GUP is entered once and then served, cached, pushed and mirrored
with no end, so a container that grows with traffic is an outage in
slow motion. These tests drive two worlds through a deterministic,
repeating mix of operations and walk every container reachable from
them:

* the **served world** (``create_app`` over ``build_demo_world`` with
  a :class:`~repro.simnet.FaultState`), through ``App.handle``: reads
  (chaining and cached), provisioning, subscribe / poll / cancel,
  ``/metrics`` and ``/healthz``, 4xx requests, bus drains, cache
  sweeps and fault set/clear cycles;
* a **federated world** (a :class:`~repro.federation.Reconciler`
  between GUP and a foreign directory), with writes on both sides and
  sync rounds.

After W warm-up operations (long enough to fill every cap), the walk
is taken at N and again at 4N operations: no container may be larger
at 4N, and the ``tracemalloc`` net between the two must stay below a
constant that does not depend on N. A final quiesce step (cancel every
subscription, clear every fault) must put the fault model, the bus
cursors and the subscription table back at their size at boot.

The walk keys each ``dict`` / ``list`` / ``set`` / ``deque`` attribute
(``__slots__`` included) of every ``repro.*`` object by
``Owner.attr``. Its size counts the items of nested plain containers
too; over several instances of one owner class it takes the largest.
Profile trees (``PNode``) are the dataset, not state, and are not
entered.
"""

import asyncio
import gc
import json
import tracemalloc
from collections import deque
from typing import Dict, Iterator, List, Tuple

from repro.access import (
    PolicyEnforcementPoint,
    PolicyRepository,
    PolicyRule,
)
from repro.bus import ChangeBus
from repro.core.provenance import ProvenanceTracker
from repro.federation import (
    FederationListener,
    ForeignDirectory,
    GupAttributeStore,
    MappingEntry,
    MappingTable,
    Reconciler,
    policy_named,
)
from repro.pxml import PNode
from repro.serve import Request, build_demo_world, create_app
from repro.simnet import FaultState, Network, Simulator

#: Warm-up, then N; the second walk is taken after 3N more.
W, N = 200, 500

#: The tracemalloc net allowed between the walk at N and at 4N. The
#: served world reads 8-13 KB at N = 500 and 14-17 KB at N = 1 000,
#: twice the operations: the residue of caches and allocator pools,
#: not a per-operation cost. A cursor leaked per subscribe/cancel
#: reads 54 KB at N = 500.
NET_BYTES = 32 * 1024

BOOK = "/user[@id='u1']/address-book"
PERSONAL = BOOK + "/item[@type='personal']"
ENTRIES = 37

SELF = {"x-requester": "u1", "x-relationship": "self"}
PROVISION = dict(SELF, **{"x-purpose": "provision"})
SUBSCRIBE = dict(SELF, **{"x-purpose": "subscribe"})

PLAIN = (dict, list, set, deque)

# -- the walk -----------------------------------------------------------------


def _fields(obj) -> Iterator[Tuple[str, object]]:
    """Every instance attribute of *obj*, ``__slots__`` included."""
    yield from getattr(obj, "__dict__", {}).items()
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__") and hasattr(
                obj, name
            ):
                yield name, getattr(obj, name)


def _is_state(value) -> bool:
    module = type(value).__module__ or ""
    return module.startswith("repro.") and not isinstance(value, PNode)


def _items(value, found: List[object]) -> int:
    """Items in *value*, nested plain containers included; the
    ``repro`` objects met on the way go to *found*."""
    if isinstance(value, PLAIN):
        members = (
            [m for pair in value.items() for m in pair]
            if isinstance(value, dict) else list(value)
        )
        return len(value) + sum(_items(m, found) for m in members)
    if isinstance(value, (tuple, frozenset)):
        return sum(_items(m, found) for m in value)
    owner = getattr(value, "__self__", None)  # a bound method
    if owner is not None:
        value = owner
    if _is_state(value):
        found.append(value)
    return 0


def container_sizes(*roots) -> Dict[str, int]:
    """``Owner.attr`` -> items, over everything reachable from *roots*."""
    sizes: Dict[str, int] = {}
    seen = set()
    stack: List[object] = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for name, value in _fields(obj):
            count = _items(value, stack)
            if isinstance(value, PLAIN):
                key = "%s.%s" % (type(obj).__name__, name)
                sizes[key] = max(sizes.get(key, 0), count)
    return sizes


def grown(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, str]:
    return {
        key: "%d -> %d" % (before.get(key, 0), size)
        for key, size in sorted(after.items())
        if size > before.get(key, 0)
    }


def soak_between(soak, mark_a: int, mark_b: int):
    """Run *soak* to operation *mark_a*, walk, run on to *mark_b*,
    walk; returns both walks and the tracemalloc net between the two
    marks (collector run before each reading)."""
    soak(W)
    tracemalloc.start()
    try:
        soak(mark_a)
        before = soak.walk()
        gc.collect()
        before_bytes = tracemalloc.get_traced_memory()[0]
        soak(mark_b)
        gc.collect()
        after_bytes = tracemalloc.get_traced_memory()[0]
        after = soak.walk()
    finally:
        tracemalloc.stop()
    return before, after, after_bytes - before_bytes


# -- the served world ---------------------------------------------------------


def _provision(step: int) -> Request:
    fragment = (
        "<address-book><item type='personal'>"
        "<entry name='soak-%d'><phone number='%d'/></entry>"
        "</item></address-book>" % (step % ENTRIES, step)
    )
    return Request(
        "POST", "/v1/provision", headers=PROVISION,
        body=json.dumps({"path": BOOK, "fragment": fragment}).encode(),
    )


class ServedSoak:
    """The served world plus the operation cycle that drives it."""

    #: Fault set/clear cadence, in operations.
    FAULT_EVERY, FAULT_FOR = 25, 12

    def __init__(self) -> None:
        self.faults = FaultState()
        world = build_demo_world(faults=self.faults)
        world.recorder.max_spans = 256
        self.world = world
        self.app = create_app(world)
        self.step = 0
        self.open: List[int] = []
        self.statuses: Dict[int, int] = {}

    def walk(self) -> Dict[str, int]:
        return container_sizes(self.app, self.faults)

    def released(self) -> Dict[str, int]:
        """Entry counts of what quiescing must hand back: the fault
        model's containers, the bus cursors, the subscription table."""
        sizes = {
            "FaultState." + name: len(value)
            for name, value in _fields(self.faults)
            if isinstance(value, PLAIN)
        }
        assert self.world.bus is not None
        sizes["ChangeBus._cursors"] = len(self.world.bus._cursors)
        sizes["SubscriptionRouter._table"] = len(
            self.app.subscriptions._table
        )
        return sizes

    def _request(self, step: int) -> Request:
        kind = step % 10
        if kind == 0:
            # The book and its personal slice, cycle by cycle.
            return Request("GET", "/v1/query", params={
                "path": PERSONAL if step // 10 % 2 else BOOK,
                "pattern": "chaining",
            })
        if kind in (1, 4):
            # 1 hits what 4 cached before the next write; 4 misses.
            return Request("GET", "/v1/query", params={
                "path": BOOK, "pattern": "cached",
            })
        if kind == 2:
            return _provision(step)
        if kind == 3:
            return Request(
                "POST", "/v1/subscriptions", headers=SUBSCRIBE,
                body=json.dumps({"watch_path": BOOK}).encode(),
            )
        if kind == 5:
            return Request("GET", "/v1/subscriptions/%d" % self.open[-1])
        if kind == 8 and len(self.open) > 1:
            # The previous cycle's subscription: one stays open across
            # every walk, holding deliveries.
            return Request(
                "DELETE", "/v1/subscriptions/%d" % self.open.pop(0)
            )
        return [
            Request("GET", "/metrics"),
            Request("GET", "/healthz"),
            Request("GET", "/v1/subscriptions/987654"),
            Request("GET", "/v1/query", params={"path": "not a path"}),
            Request("GET", "/v1/nowhere"),
        ][(step + step // 10) % 5]

    def _fault(self, step: int) -> None:
        phase = step % self.FAULT_EVERY
        faults = self.faults
        if phase == 0:
            faults.set_latency_factor("gup.corp.com", 4.0)
            faults.set_loss("gupster", "gup.alpha.com", 0.5)
            faults.fail("gup.beta.com")
            faults.force_drops("gupster", "gup.corp.com", 2)
        elif phase == self.FAULT_FOR:
            self._clear_faults()

    def _clear_faults(self) -> None:
        faults = self.faults
        faults.clear_latency_factor("gup.corp.com")
        faults.clear_loss("gupster", "gup.alpha.com")
        faults.restore("gup.beta.com")
        faults.force_drops("gupster", "gup.corp.com", 0)

    async def _run(self, until: int) -> None:
        jobs = self.app.jobs
        while self.step < until:
            step = self.step
            self._fault(step)
            response = await self.app.handle(self._request(step))
            self.statuses[response.status] = (
                self.statuses.get(response.status, 0) + 1
            )
            if response.status == 201 and step % 10 == 3:
                self.open.append(json.loads(response.body)["id"])
            jobs.drain_bus_once()
            if step % 50 == 49:
                jobs.sweep_cache_once()
            self.step += 1

    def __call__(self, until: int) -> None:
        asyncio.run(self._run(until))

    def quiesce(self) -> None:
        async def cancel_all() -> None:
            while self.open:
                await self.app.handle(Request(
                    "DELETE", "/v1/subscriptions/%d" % self.open.pop()
                ))
        asyncio.run(cancel_all())
        self._clear_faults()
        self.app.jobs.drain_bus_once()


def test_served_world_does_not_grow_with_traffic():
    soak = ServedSoak()
    boot_released = soak.released()
    before, after, net = soak_between(soak, W + N, W + 4 * N)
    for key in (
        "ChangeBus._cursors", "SubscriptionRouter._table",
        "_HttpSubscriber.pending", "ComponentCache._by_user",
        "SpanRecorder.spans", "FaultState._latency_factors",
    ):
        assert key in before, "the walk did not reach %s" % key
    assert grown(before, after) == {}
    assert net <= NET_BYTES, "tracemalloc net %d B from N to 4N" % net
    # Every kind of answer the mix asks for came back, and none was
    # an internal error.
    assert {200, 201, 400, 404} <= set(soak.statuses)
    assert 500 not in soak.statuses, soak.statuses

    soak.quiesce()
    assert soak.released() == boot_released


# -- the federated world ------------------------------------------------------

USERS = ["fed-%d" % i for i in range(5)]
SUFFIX, ATTR = "self/email", "mail"
VALUES = ["alpha", "beta", "gamma"]


class FederatedSoak:
    """GUP and a foreign directory, written on both sides and
    reconciled every other operation."""

    def __init__(self) -> None:
        sim = Simulator()
        network = Network()
        for node in ("gupster", "fed-conn", "corp-ad"):
            network.add_node(node)
        bus = ChangeBus(sim, network, "gupster")
        self.gup = GupAttributeStore(sim, bus=bus)
        self.foreign = ForeignDirectory("corp-ad", sim, max_journal=64)
        repo = PolicyRepository()
        for user in USERS:
            repo.store(PolicyRule(user, "/user[@id='%s']" % user, "permit"))
        self.reconciler = Reconciler(
            "fed-conn", self.gup, self.foreign,
            MappingTable([MappingEntry(SUFFIX, ATTR, "both")]),
            network, PolicyEnforcementPoint(repo),
            policy=policy_named("lww"),
            provenance=ProvenanceTracker(max_records=256),
            interval_ms=500.0,
        )
        bus.attach(FederationListener("fed", self.reconciler))
        self.reconciler.start()
        self.sim = sim
        self.step = 0

    def walk(self) -> Dict[str, int]:
        return container_sizes(self.reconciler)

    def __call__(self, until: int) -> None:
        while self.step < until:
            step = self.step
            user = USERS[step % len(USERS)]
            value = VALUES[step % len(VALUES)]
            if step % 4 == 0:
                self.gup.write(user, SUFFIX, value)
            elif step % 4 == 2:
                self.foreign.write(user, ATTR, value)
            self.sim.run(until=self.sim.now + 250.0)
            self.step += 1


def test_federated_world_does_not_grow_with_sync_rounds():
    soak = FederatedSoak()
    before, after, net = soak_between(soak, W + N, W + 4 * N)
    for key in (
        "Reconciler._tags", "Reconciler._base", "ForeignDirectory._state",
        "SeqLog._entries", "ChangeBus._cursors",
    ):
        assert key in before, "the walk did not reach %s" % key
    assert soak.reconciler.rounds >= 3 * N // 2
    assert grown(before, after) == {}
    assert net <= NET_BYTES, "tracemalloc net %d B from N to 4N" % net
