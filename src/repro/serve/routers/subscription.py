"""``/v1/subscriptions`` — change-bus subscriptions over HTTP.

HTTP is pull-shaped, the bus is push-shaped; the bridge is a
server-side :class:`~repro.bus.SubscriberListener` per subscription,
which holds what the shield let through until the subscriber polls:

* ``POST /v1/subscriptions`` body ``{"watch_path": "..."}`` attaches a
  listener under the caller's identity headers (cursor starts at the
  log head — changes from now on) and returns its id; a requester the
  privacy shield denies gets 403 and no listener;
* ``GET /v1/subscriptions/<id>`` drains the records delivered since
  the last poll;
* ``DELETE /v1/subscriptions/<id>`` detaches it.

The shield holds per **delivery**: every delivery is re-checked under
the subscriber's context (the bus's one gate,
``SubscriberListener._deliver_records``), so a revocation stops the
stream by the next wave; what it withholds is counted, never kept.

The subscription count is bounded (``max_subscriptions``) — each one
holds a bus cursor and a retention window, and an HTTP client that
never comes back must not grow server state forever. 429 tells the
caller the table is full.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List

from repro.access import RequestContext
from repro.bus import ChangeRecord, SubscriberListener
from repro.bus.listeners import DEFAULT_MAX_RECORDS
from repro.core.server import GupsterServer
from repro.errors import (
    AccessDeniedError,
    UnsupportedPathError,
    ValidationError,
)
from repro.pxml import Path, parse_path
from repro.seqlog import trim_oldest
from repro.serve.http import Request, Response
from repro.serve.middleware import context_from_headers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.app import ServeWorld

__all__ = ["SubscriptionRouter"]


class _HttpSubscriber(SubscriberListener):
    """The subscriber behind one HTTP subscription: in-process (no
    wire), watching a path *prefix*, keeping each permitted record
    until the next poll (newest ``DEFAULT_MAX_RECORDS``; ``missed``
    counts what the window lost). The per-delta shield is the
    inherited one; a world that runs with the shield off
    (``enforce_policies=False``) skips it, as its query path does."""

    def __init__(
        self,
        sub_id: int,
        server: GupsterServer,
        request: Path,
        context: RequestContext,
    ) -> None:
        super().__init__(
            "http-sub-%d" % sub_id, None, server.pep, request,
            str(request), context, on_delivery=self._keep,
        )
        self.sub_id = sub_id
        self._server = server
        self.pending: List[ChangeRecord] = []
        self.missed = 0

    def wants(self, record: ChangeRecord) -> bool:
        return record.path.startswith(self.watch_path)

    def deliver(self, records: List[ChangeRecord], now: float) -> None:
        if self._server.enforce_policies:
            super().deliver(records, now)
        else:
            self.pending.extend(records)
        self.missed += trim_oldest(DEFAULT_MAX_RECORDS, self.pending)

    def _keep(self, record: ChangeRecord, now: float) -> None:
        self.pending.append(record)


class SubscriptionRouter:
    """CRUD for change-bus subscriptions plus delivery polling.

    Holds a bounded table of live subscriptions; each is a bus
    listener under one subscriber's identity, fed by the background
    bus drain and emptied by ``GET /v1/subscriptions/<id>``.
    """

    def __init__(
        self, world: "ServeWorld", max_subscriptions: int = 256
    ) -> None:
        self.world = world
        self.max_subscriptions = max_subscriptions
        self._ids = itertools.count(1)
        self._table: Dict[int, _HttpSubscriber] = {}

    # -- dispatch -----------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        tail = request.path[len("/v1/subscriptions"):].strip("/")
        if not tail:
            if request.method == "POST":
                return self._create(request)
            return Response.json(
                {"error": "method-not-allowed",
                 "detail": "use POST to subscribe"},
                status=405,
            )
        try:
            sub_id = int(tail)
        except ValueError as err:
            raise ValidationError(
                "subscription ids are integers, got %r" % tail
            ) from err
        sub = self._table.get(sub_id)
        if sub is None:
            return Response.json(
                {"error": "unknown-subscription", "detail": tail},
                status=404,
            )
        if request.method == "GET":
            return self._poll(sub)
        if request.method == "DELETE":
            return self._cancel(sub)
        return Response.json(
            {"error": "method-not-allowed",
             "detail": "use GET to poll or DELETE to cancel"},
            status=405,
        )

    # -- operations ---------------------------------------------------------

    def _create(self, request: Request) -> Response:
        if self.world.bus is None:
            raise UnsupportedPathError(
                "this world runs no change bus; subscriptions are "
                "unavailable"
            )
        payload = request.json()
        if not isinstance(payload, dict):
            raise ValidationError("subscribe body must be an object")
        watch_path = payload.get("watch_path", "")
        if not isinstance(watch_path, str) or not watch_path:
            raise ValidationError(
                "subscribe body needs a 'watch_path'"
            )
        path = parse_path(watch_path)
        context = context_from_headers(request)
        server = self.world.server
        if (
            server.enforce_policies
            and not server.pep.enforce(path, context).permit
        ):
            raise AccessDeniedError(
                "privacy shield denies a subscription to %s for %s"
                % (path, context.requester)
            )
        if len(self._table) >= self.max_subscriptions:
            return Response.json(
                {
                    "error": "too-many-subscriptions",
                    "detail": "subscription table is full (%d)"
                              % self.max_subscriptions,
                },
                status=429,
            )
        sub = _HttpSubscriber(next(self._ids), server, path, context)
        self.world.bus.attach(sub)
        self._table[sub.sub_id] = sub
        return Response.json(
            {"id": sub.sub_id, "watch_path": sub.watch_path},
            status=201,
        )

    def _poll(self, sub: _HttpSubscriber) -> Response:
        # All three are "since the last poll": what arrived, what the
        # retention window evicted unseen, what the shield withheld.
        fresh, sub.pending = sub.pending, []
        missed, sub.missed = sub.missed, 0
        withheld, sub.withheld = sub.withheld, 0
        return Response.json({
            "id": sub.sub_id,
            "watch_path": sub.watch_path,
            "missed": missed,
            "withheld": withheld,
            "deliveries": [
                {
                    "seq": record.seq,
                    "at": record.at,
                    "path": record.path,
                    "value": record.value,
                    "user_id": record.user_id,
                }
                for record in fresh
            ],
        })

    def _cancel(self, sub: _HttpSubscriber) -> Response:
        assert self.world.bus is not None
        self.world.bus.detach(sub)
        del self._table[sub.sub_id]
        return Response.json({"id": sub.sub_id, "cancelled": True})

    def active_count(self) -> int:
        return len(self._table)
