"""What the profile object model costs on the served path, and what
the simulator charges for it.

The wall transport never reads a message's size, so serving a request
sizes nothing: ``byte_size`` is never called, a response carrying a
fragment serializes it once, and a whole-profile read, whose parts are
distinct components, canonicalizes no subtree to look for value twins.
A published tree carries its text, so a warm cached hit renders no
node fresh, and a read-back renders only the spine over the tree its
write's bus record rendered.

``Trace.bytes_total`` pins every engine pattern's wire volume on the
simnet driver: the bytes a ``Send`` carries feed the virtual-time cost
model, so where and when a message is sized must not change what it
weighs.
"""

import asyncio
import collections
import json

import pytest

from repro.access import RequestContext
from repro.core.host import QueryHost
from repro.pxml import FrozenPNode, PNode, parse, parse_path
from repro.sansio import SansIoQueryEngine
from repro.serve import Request, create_app
from repro.simnet.driver import SimnetDriver
from tests.data.profile_world import PROFILE, build_profile_world
from tests.data.pxml_work import FRESH, counting_patches
from tests.data.reference import BOOK, CORPORATE, PERSONAL, build_split_world

STORES = ("gup.alpha.com", "gup.beta.com", "gup.corp.com")


def split_world():
    """The split address-book world, its cache given a stale grace."""
    network, server, _executor = build_split_world(
        ttl_ms=100.0, stale_grace_ms=1_000.0
    )
    engine = SansIoQueryEngine(QueryHost(server, server_node="gupster"))
    return network, server, engine


def bytes_of(network, server, program):
    trace = network.trace()
    SimnetDriver(server.adapters).run(program, trace)
    return trace.bytes_total


READER = RequestContext("app")
WRITER = RequestContext("u1", relationship="self", purpose="provision")
ENTRY = (
    "<address-book><item type='personal'><entry name='é&amp;&lt;'>"
    "<phone number='555'/></entry></item></address-book>"
)


def pattern_bytes(pattern):
    """Bytes on the wire for one run of *pattern* in a fresh world
    (the cached hit and stale serve after a filling miss)."""
    network, server, engine = split_world()
    book = parse_path(BOOK)
    if pattern == "referral":
        program = engine.referral("client", book, READER, 0.0)
    elif pattern == "recruiting":
        program = engine.recruiting("client", book, READER, 0.0)
    elif pattern == "chain":
        program = engine.chain("client", book, READER, 0.0)
    elif pattern == "direct":
        program = engine.direct(
            "client",
            [("gup.alpha.com", PERSONAL), ("gup.corp.com", CORPORATE)],
            0.0,
        )
    elif pattern in ("batch", "batch_cached"):
        program = engine.batch(
            "client", [BOOK, PERSONAL, BOOK, "/user[@id='u9']/calendar"],
            [READER] * 4, 0.0, use_cache=pattern == "batch_cached",
        )
    elif pattern == "provision":
        program = engine.provision(
            "client", book, parse(ENTRY), WRITER, 0.0
        )
    else:
        miss = bytes_of(
            network, server, engine.cached("client", book, READER, 0.0)
        )
        if pattern == "cached_miss":
            return miss
        if pattern == "cached_stale":
            for store_id in STORES:
                network.fail(store_id)
        now = 10.0 if pattern == "cached_hit" else 500.0
        program = engine.cached("client", book, READER, now)
    return bytes_of(network, server, program)


#: Captured on the tree where every ``Send`` was sized when it was
#: built; sizing a payload when the driver performs the send must
#: charge exactly the same bytes.
PINNED_BYTES = {
    "referral": 2562,
    "recruiting": 2872,
    "chain": 3175,
    "cached_miss": 3175,
    "cached_hit": 1431,
    "cached_stale": 1431,
    "direct": 1578,
    "batch": 7537,
    "batch_cached": 6113,
    "provision": 1518,
}


@pytest.mark.parametrize("pattern", sorted(PINNED_BYTES))
def test_bytes_on_the_wire_are_pinned(pattern):
    assert pattern_bytes(pattern) == PINNED_BYTES[pattern]


# ---------------------------------------------------------------------------
# pxml work per served request
# ---------------------------------------------------------------------------

#: (owner, method, key). A published tree overrides ``serialize``, so
#: both classes count as ``PNode.serialize``.
COUNTED = (
    (PNode, "byte_size", "PNode.byte_size"),
    (RequestContext, "byte_size", "RequestContext.byte_size"),
    (PNode, "serialize", "PNode.serialize"),
    (FrozenPNode, "serialize", "PNode.serialize"),
    (PNode, "canonical_key", "PNode.canonical_key"),
)


@pytest.fixture
def calls(monkeypatch):
    """``Owner.method`` -> calls so far (recursive calls included),
    and ``fresh_nodes`` -> nodes serialized fresh so far."""
    counts = collections.Counter()

    def record(key, amount):
        counts[key] += amount

    for target, name, replacement in counting_patches(COUNTED, record):
        monkeypatch.setattr(target, name, replacement)
    return counts


def handle(app, calls, request):
    """Serve *request*, drain the bus; returns (response, calls made)."""
    before = dict(calls)
    response = asyncio.run(app.handle(request))
    app.jobs.drain_bus_once()
    made = {
        key: count - before.get(key, 0)
        for key, count in calls.items()
        if count != before.get(key, 0)
    }
    return response, made


def query(path, pattern, headers=None):
    return Request(
        "GET", "/v1/query", headers=headers or {},
        params={"path": path, "pattern": pattern},
    )


SELF = {"x-requester": "u1", "x-relationship": "self"}


def test_demo_world_sizes_nothing_and_serializes_each_fragment_once(calls):
    app = create_app()
    provision = Request(
        "POST", "/v1/provision",
        headers=dict(SELF, **{"x-purpose": "provision"}),
        body=json.dumps({"path": BOOK, "fragment": ENTRY}).encode(),
    )
    subscribe = Request(
        "POST", "/v1/subscriptions",
        headers=dict(SELF, **{"x-purpose": "subscribe"}),
        body=json.dumps({"watch_path": BOOK}).encode(),
    )
    # (request, status, serialize calls): one per response carrying a
    # fragment, one for the change record a provision appends.
    steps = [
        (query(BOOK, "chaining"), 200, 1),
        (query(BOOK, "cached"), 200, 1),
        (query(BOOK, "cached"), 200, 1),
        (subscribe, 201, 0),
        (provision, 201, 1),
        (query(BOOK, "chaining"), 200, 1),
        (query(BOOK, "cached"), 200, 1),
        (Request("GET", "/v1/subscriptions/1"), 200, 0),
    ]
    bodies = []
    for request, status, serializations in steps:
        response, made = handle(app, calls, request)
        assert response.status == status
        assert made.get("PNode.byte_size", 0) == 0
        assert made.get("RequestContext.byte_size", 0) == 0
        assert made.get("PNode.serialize", 0) == serializations
        bodies.append(json.loads(response.body))
    assert [b.get("cache_hit") for b in bodies[1:3]] == [False, True]
    assert "555" in bodies[5]["fragment"]
    assert len(bodies[7]["deliveries"]) == 1


@pytest.mark.parametrize("pattern", ["chaining", "cached"])
def test_whole_profile_family_read_canonicalizes_nothing(calls, pattern):
    app = create_app(build_profile_world())
    family = {"x-requester": "u2", "x-relationship": "family"}
    for expect_hit in ([False] if pattern == "chaining" else [False, True]):
        response, made = handle(
            app, calls, query(PROFILE, pattern, family)
        )
        assert response.status == 200
        body = json.loads(response.body)
        assert body.get("cache_hit") is expect_hit
        fragment = parse(body["fragment"])
        assert sorted(c.tag for c in fragment.children) == [
            "address-book", "calendar", "presence",
        ]
        assert made.get("PNode.canonical_key", 0) == 0
        assert made.get("PNode.byte_size", 0) == 0
        assert made.get("PNode.serialize", 0) == 1


# ---------------------------------------------------------------------------
# Text a published tree carries
# ---------------------------------------------------------------------------

FAMILY = {"x-requester": "u2", "x-relationship": "family"}


def test_a_warm_cached_hit_serializes_no_node_fresh(calls):
    app = create_app(build_profile_world())
    fresh = []
    for _ in range(3):
        response, made = handle(app, calls, query(PROFILE, "cached", FAMILY))
        assert response.status == 200
        assert made.get("PNode.serialize", 0) == 1
        fresh.append(made.get(FRESH, 0))
    miss, first_hit, warm_hit = fresh
    # The miss renders the merged parts, which keep their text; the
    # cache keeps a frozen root over them, rendered once by the first
    # hit; every hit after that is the text the entry carries.
    assert miss > 3
    assert first_hit == 1
    assert warm_hit == 0


def test_a_read_back_splices_the_text_its_write_published(calls):
    world = build_profile_world(with_bus=True)
    app = create_app(world)
    book = PROFILE + "/address-book"
    fragment = (
        "<address-book><item id='w1'><name>Zoé &amp; 1</name></item>"
        "</address-book>"
    )
    provision = Request(
        "POST", "/v1/provision",
        headers=dict(SELF, **{"x-purpose": "provision"}),
        body=json.dumps({"path": book, "fragment": fragment}).encode(),
    )
    response, made = handle(app, calls, provision)
    assert response.status == 201
    # The bus record renders the parsed fragment, which the store keeps
    # as its override, as it is.
    assert made.get("PNode.serialize", 0) == 1
    assert made.get(FRESH, 0) == 3
    kept = world.server.adapters["gup.portal"]._written[
        ("u1", "address-book")
    ]
    assert isinstance(kept, FrozenPNode) and kept._wire is not None
    response, made = handle(app, calls, query(book, "chaining", SELF))
    assert response.status == 200
    assert "Zoé &amp; 1" in json.loads(response.body)["fragment"]
    assert made.get("PNode.serialize", 0) == 1
    # Only the <user> spine over the kept tree is rendered fresh.
    assert made.get(FRESH, 0) == 1
