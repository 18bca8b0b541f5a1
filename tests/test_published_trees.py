"""Trees a serving world keeps and serves from never change.

A world keeps profile trees in three places: a synthetic store's export
memo, its written component overrides, and GUPster's component cache.
Each of them is read again by later requests, possibly by another
requester, so a request that changed one would leak into every answer
served from it afterwards. The property below runs scripted flows of
served requests (chaining and cached reads, enter-once writes,
subscription polls) through ``App.handle`` on the demo world and on the
whole-profile world, snapshots the text of every kept tree before each
request, and requires every snapshotted tree to read the same after it,
and every kept tree to be frozen and to serialize to the text a fresh
copy of it renders.
"""

import asyncio
import json

from hypothesis import given, settings, strategies as st

from repro.pxml import FrozenPNode
from repro.serve import Request, create_app
from repro.serve.app import build_demo_world
from tests.data.profile_world import PROFILE, build_profile_world

BOOK = "/user[@id='u1']/address-book"
PERSONAL = BOOK + "/item[@type='personal']"
CORPORATE = BOOK + "/item[@type='corporate']"

SELF = {"x-requester": "u1", "x-relationship": "self"}
FAMILY = {"x-requester": "u2", "x-relationship": "family"}
BUDDY = {"x-requester": "u3", "x-relationship": "buddy"}
STRANGER = {"x-requester": "u9", "x-relationship": "third-party"}


def query(path, pattern, headers):
    return Request(
        "GET", "/v1/query", headers=headers,
        params={"path": path, "pattern": pattern},
    )


def provision(path, index):
    fragment = (
        "<address-book><item id='w%d' type='personal'>"
        "<name>Zoé &amp; %d</name></item></address-book>" % (index, index)
    )
    return Request(
        "POST", "/v1/provision",
        headers=dict(SELF, **{"x-purpose": "provision"}),
        body=json.dumps({"path": path, "fragment": fragment}).encode(),
    )


def subscribe(path, headers):
    return Request(
        "POST", "/v1/subscriptions",
        headers=dict(headers, **{"x-purpose": "subscribe"}),
        body=json.dumps({"watch_path": path}).encode(),
    )


#: step name -> request builder (given the step's index), per world.
DEMO_STEPS = {
    "chaining": lambda i: query(BOOK, "chaining", SELF),
    "cached": lambda i: query(BOOK, "cached", SELF),
    "cached-personal": lambda i: query(PERSONAL, "cached", SELF),
    "chaining-corporate": lambda i: query(CORPORATE, "chaining", SELF),
    "provision": lambda i: provision(BOOK, i),
    "subscribe": lambda i: subscribe(BOOK, SELF),
    "poll": None,
}
PROFILE_STEPS = {
    "family-chaining": lambda i: query(PROFILE, "chaining", FAMILY),
    "family-cached": lambda i: query(PROFILE, "cached", FAMILY),
    "buddy-cached": lambda i: query(PROFILE, "cached", BUDDY),
    "stranger-chaining": lambda i: query(PROFILE, "chaining", STRANGER),
    "presence-cached": lambda i: query(
        PROFILE + "/presence", "cached", FAMILY
    ),
    "provision": lambda i: provision(PROFILE + "/address-book", i),
    "subscribe": lambda i: subscribe(PROFILE + "/address-book", FAMILY),
    "poll": None,
}
WORLDS = {
    "demo": (build_demo_world, DEMO_STEPS),
    "profile": (build_profile_world, PROFILE_STEPS),
}


def kept_trees(world):
    """Every tree *world* keeps to serve from again."""
    trees = []
    for adapter in world.server.adapters.values():
        trees.extend((getattr(adapter, "_export_cache", None) or {}).values())
        trees.extend((getattr(adapter, "_written", None) or {}).values())
    cache = world.server.cache
    if cache is not None:
        trees.extend(entry.fragment for entry in cache._entries.values())
    return trees


def run_flow(world_name, memoize, steps):
    build, menu = WORLDS[world_name]
    world = build()
    if memoize:
        for adapter in world.server.adapters.values():
            adapter._export_cache = {}
    app = create_app(world)
    subscriptions = []
    for index, step in enumerate(steps):
        if step == "poll":
            if not subscriptions:
                continue
            request = Request(
                "GET", "/v1/subscriptions/%d" % subscriptions[-1]
            )
        else:
            request = menu[step](index)
        # Keyed by identity: holding the tree keeps its id unique.
        before = {
            id(tree): (tree, tree.serialize())
            for tree in kept_trees(world)
        }
        response = asyncio.run(app.handle(request))
        app.jobs.drain_bus_once()
        assert response.status < 500, (step, response.body)
        if step == "subscribe" and response.status == 201:
            subscriptions.append(json.loads(response.body)["id"])
        for tree, text in before.values():
            assert tree.serialize() == text, (steps[: index + 1], text)
        for tree in kept_trees(world):
            assert all(
                isinstance(node, FrozenPNode) for node in tree.walk()
            ), (steps[: index + 1], tree.serialize())
            # The text a kept tree serves is what a fresh, private
            # copy of it renders.
            assert tree.serialize() == tree.copy().serialize(), (
                steps[: index + 1]
            )
    return world


@st.composite
def flows(draw):
    world_name = draw(st.sampled_from(sorted(WORLDS)))
    steps = draw(st.lists(
        st.sampled_from(sorted(WORLDS[world_name][1])),
        min_size=1, max_size=10,
    ))
    return world_name, draw(st.booleans()), steps


@given(flows())
@settings(max_examples=60, deadline=None)
def test_served_requests_never_change_a_kept_tree(flow):
    run_flow(*flow)


def test_every_kind_of_kept_tree_is_exercised():
    """The scripted flows reach all three places a world keeps trees."""
    for world_name, steps in (
        ("demo", ["provision", "cached", "chaining"]),
        ("profile", ["provision", "family-cached", "family-chaining"]),
    ):
        world = run_flow(world_name, True, steps)
        adapters = world.server.adapters.values()
        assert any(getattr(a, "_export_cache", None) for a in adapters)
        assert any(getattr(a, "_written", None) for a in adapters)
        assert world.server.cache._entries
