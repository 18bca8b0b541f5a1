"""Meta-data-manager topologies (paper Section 5.1).

The basic architecture assumes "a UDDI-like universally available,
mirrored meta-data store". Section 5.1 explores alternatives driven by
privacy and business-model pressure:

* :class:`CentralizedMdm` — one logical server implemented by a
  constellation of mirrors; clients fail over between mirrors.
* :class:`UserDistributedMdm` — each user picks the organization that
  manages their meta-data; a universal "white pages" maps user → MDM,
  with support for **unlisted** users who must hand out their pointer
  themselves.
* :class:`HierarchicalMdm` — a user's primary MDM delegates subtrees
  (e.g. banking meta-data to the bank): the primary "knows *that* the
  user has banking meta-data but knows essentially nothing about it".

Experiment E6 measures lookup latency, availability under failures, and
the meta-data privacy exposure of each topology.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import GupsterError, ReproError
from repro.pxml import Path, parse_path
from repro.pxml.containment import subtree_covers
from repro.access import RequestContext
from repro.core.host import QueryHost
from repro.core.referral import Referral
from repro.core.resilience import (
    TRANSIENT_ERRORS,
    EndpointHealth,
    RetryPolicy,
)
from repro.core.server import GupsterServer
from repro.simnet import Network, Trace

__all__ = ["CentralizedMdm", "UserDistributedMdm", "HierarchicalMdm"]

WHITEPAGES_COMPUTE_MS = 0.05

#: Per-item outcome of a batched meta-data resolution: exactly one of
#: (referral, error) is set; *error* is whatever the equivalent
#: sequential ``resolve`` would have raised for that item.
BatchOutcome = Tuple[Optional[Referral], Optional[Exception]]


def _batched_attempt(
    trace: Trace,
    client: str,
    node: str,
    server: GupsterServer,
    items: Sequence[Tuple[int, Path, RequestContext]],
    outcomes: List[BatchOutcome],
    now: float,
) -> None:
    """One batched referral round trip to one MDM node.

    The request hop carries every item's path+context behind a single
    protocol overhead; resolution compute stays per item (the server
    still filters/rewrites/signs each); per-item server errors (shield
    denials, spurious queries, no coverage) land in *outcomes* without
    disturbing batch-mates. A *transient* (network) failure of the
    shared round trip propagates to the caller — the whole group
    retries or fails over together, because they shared the wire."""
    request_bytes = QueryHost.REQUEST_OVERHEAD_BYTES + sum(
        len(str(path)) + context.byte_size()
        for _index, path, context in items
    )
    entries: List[
        Tuple[int, Optional[Referral], Optional[Exception]]
    ] = []
    with trace.span(
        "mdm.round_trip.batch", node=node, items=len(items),
    ):
        trace.hop(client, node, request_bytes,
                  "batched resolve at %s (%d items)"
                  % (node, len(items)))
        for index, path, context in items:
            trace.compute(QueryHost.RESOLVE_COMPUTE_MS, "resolve")
            try:
                entries.append(
                    (index, server.resolve(path, context, now), None)
                )
            except ReproError as err:
                entries.append((index, None, err))
        response_bytes = QueryHost.REQUEST_OVERHEAD_BYTES + sum(
            referral.byte_size() if referral is not None else 32
            for _index, referral, _err in entries
        )
        trace.hop(node, client, response_bytes, "batched referrals")
    # Outcomes commit only once the full round trip survived — a
    # transient failure above leaves them unset for the retry.
    for index, referral, err in entries:
        outcomes[index] = (referral, err)


def _batched_retry_round_trip(
    trace: Trace,
    policy: RetryPolicy,
    health: EndpointHealth,
    client: str,
    node: str,
    server: GupsterServer,
    items: Sequence[Tuple[int, Path, RequestContext]],
    outcomes: List[BatchOutcome],
    now: float,
) -> None:
    """Batched analogue of :func:`_retry_round_trip`: one node, bounded
    transient retry with backoff; exhaustion fails every item aboard
    with the same :class:`~repro.errors.GupsterError` the sequential
    path raises."""
    last_error: Optional[Exception] = None
    for attempt in range(policy.max_attempts):
        if attempt > 0:
            trace.wait(
                policy.backoff_ms(attempt),
                "backoff before batch retry %d at %s"
                % (attempt + 1, node),
            )
            for _item in items:
                trace.note_retry()
        try:
            _batched_attempt(
                trace, client, node, server, items, outcomes, now
            )
        except TRANSIENT_ERRORS as err:
            last_error = err
            health.failure(node)
            continue
        health.success(node)
        return
    failure = GupsterError(
        "MDM node %s unreachable: %s" % (node, last_error)
    )
    for index, _path, _context in items:
        outcomes[index] = (None, failure)


def _parse_batch(
    requests: Sequence[Union[str, Path]],
    contexts: Sequence[RequestContext],
    outcomes: List[BatchOutcome],
) -> List[Tuple[int, Path, RequestContext]]:
    """Parse every request, recording per-item parse failures."""
    if len(requests) != len(contexts):
        raise ValueError(
            "got %d requests but %d contexts"
            % (len(requests), len(contexts))
        )
    items: List[Tuple[int, Path, RequestContext]] = []
    for index, request in enumerate(requests):
        try:
            items.append((index, parse_path(request), contexts[index]))
        except ReproError as err:
            outcomes[index] = (None, err)
    return items


def _referral_round_trip(
    trace: Trace,
    client: str,
    node: str,
    server: GupsterServer,
    request: Path,
    context: RequestContext,
    now: float,
) -> Referral:
    request_bytes = (
        len(str(request))
        + context.byte_size()
        + QueryHost.REQUEST_OVERHEAD_BYTES
    )
    with trace.span("mdm.round_trip", node=node):
        trace.hop(client, node, request_bytes, "resolve at %s" % node)
        trace.compute(QueryHost.RESOLVE_COMPUTE_MS, "resolve")
        referral = server.resolve(request, context, now)
        trace.hop(node, client,
                  referral.byte_size() + QueryHost.REQUEST_OVERHEAD_BYTES,
                  "referral")
    return referral


def _retry_round_trip(
    trace: Trace,
    policy: RetryPolicy,
    health: EndpointHealth,
    client: str,
    node: str,
    server: GupsterServer,
    request: Path,
    context: RequestContext,
    now: float,
) -> Referral:
    """A single-node referral round trip with bounded transient retry
    (the topology has exactly one place to ask, so there is nothing to
    fail over to — only waiting and asking again helps)."""
    last_error: Optional[Exception] = None
    for attempt in range(policy.max_attempts):
        if attempt > 0:
            trace.wait(
                policy.backoff_ms(attempt),
                "backoff before retry %d at %s" % (attempt + 1, node),
            )
            trace.note_retry()
        try:
            referral = _referral_round_trip(
                trace, client, node, server, request, context, now
            )
            health.success(node)
            return referral
        except TRANSIENT_ERRORS as err:
            last_error = err
            health.failure(node)
    raise GupsterError(
        "MDM node %s unreachable: %s" % (node, last_error)
    )


class CentralizedMdm:
    """The UDDI-like mirrored constellation.

    All mirrors serve the same logical server state (the consortium
    keeps them synchronized out of band); a client walks its mirror
    list until one answers.
    """

    def __init__(
        self,
        network: Network,
        server: GupsterServer,
        mirror_nodes: List[str],
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[EndpointHealth] = None,
    ) -> None:
        if not mirror_nodes:
            raise ValueError("need at least one mirror")
        self.network = network
        self.server = server
        self.mirror_nodes = list(mirror_nodes)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.health = health if health is not None else EndpointHealth()
        self.health.bind_registry(network.metrics)
        server.bind_registry(network.metrics)

    def resolve(
        self,
        client: str,
        request: Union[str, Path],
        context: RequestContext,
        now: float = 0.0,
        trace: Optional[Trace] = None,
    ) -> Tuple[Referral, Trace]:
        """Walk the mirror constellation (healthy mirrors first), fail
        over between mirrors within a sweep, and retry full sweeps with
        exponential backoff for transient failures.

        Pass *trace* to charge the resolve to a caller-owned trace
        (e.g. one shared across an E21 calibration run) instead of a
        fresh one."""
        path = parse_path(request)
        trace = trace if trace is not None else self.network.trace()
        policy = self.retry_policy
        last_error: Optional[Exception] = None
        with trace.span(
            "mdm.centralized", path=str(path), client=client,
            mirrors=len(self.mirror_nodes),
        ):
            for sweep in range(policy.max_attempts):
                if sweep > 0:
                    trace.wait(
                        policy.backoff_ms(sweep),
                        "backoff before MDM sweep %d" % (sweep + 1),
                    )
                    trace.note_retry()
                mirrors = self.health.order(self.mirror_nodes)
                for index, mirror in enumerate(mirrors):
                    try:
                        referral = _referral_round_trip(
                            trace, client, mirror, self.server, path,
                            context, now,
                        )
                        self.health.success(mirror)
                        return referral, trace
                    except TRANSIENT_ERRORS as err:
                        last_error = err
                        self.health.failure(mirror)
                        if index + 1 < len(mirrors):
                            trace.note_failover()
                        continue
        raise GupsterError(
            "all MDM mirrors unreachable: %s" % last_error
        )

    def resolve_batch(
        self,
        client: str,
        requests: Sequence[Union[str, Path]],
        contexts: Sequence[RequestContext],
        now: float = 0.0,
    ) -> Tuple[List[BatchOutcome], Trace]:
        """Batched :meth:`resolve`: one round trip per mirror attempt
        carries the whole batch, with the same healthy-first mirror
        walk, intra-sweep failover and backed-off re-sweeps. Per-item
        server decisions (shield denials, spurious queries, missing
        coverage) are per-item outcomes; only *transient* mirror
        failures move the whole batch to the next mirror — the items
        shared the wire."""
        outcomes: List[BatchOutcome] = [(None, None)] * len(requests)
        items = _parse_batch(requests, contexts, outcomes)
        trace = self.network.trace()
        policy = self.retry_policy
        last_error: Optional[Exception] = None
        with trace.span(
            "mdm.centralized.batch", items=len(items), client=client,
            mirrors=len(self.mirror_nodes),
        ):
            if not items:
                return outcomes, trace
            for sweep in range(policy.max_attempts):
                if sweep > 0:
                    trace.wait(
                        policy.backoff_ms(sweep),
                        "backoff before MDM batch sweep %d" % (sweep + 1),
                    )
                    for _item in items:
                        trace.note_retry()
                mirrors = self.health.order(self.mirror_nodes)
                for index, mirror in enumerate(mirrors):
                    try:
                        _batched_attempt(
                            trace, client, mirror, self.server, items,
                            outcomes, now,
                        )
                    except TRANSIENT_ERRORS as err:
                        last_error = err
                        self.health.failure(mirror)
                        if index + 1 < len(mirrors):
                            for _item in items:
                                trace.note_failover()
                        continue
                    self.health.success(mirror)
                    return outcomes, trace
            failure = GupsterError(
                "all MDM mirrors unreachable: %s" % last_error
            )
            for item_index, _path, _context in items:
                outcomes[item_index] = (None, failure)
        return outcomes, trace

    def meta_data_exposure(self) -> Dict[str, int]:
        """Component paths visible per node: every mirror sees all."""
        total = self.server.coverage.entry_count()
        return {mirror: total for mirror in self.mirror_nodes}


class UserDistributedMdm:
    """Per-user choice of meta-data manager, found via white pages."""

    def __init__(
        self,
        network: Network,
        whitepages_node: str,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[EndpointHealth] = None,
    ) -> None:
        self.network = network
        self.whitepages_node = whitepages_node
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.health = health if health is not None else EndpointHealth()
        self.health.bind_registry(network.metrics)
        #: user id -> (mdm node name, server); None node means unlisted
        self._assignments: Dict[str, Tuple[str, GupsterServer]] = {}
        self._unlisted: Dict[str, Tuple[str, GupsterServer]] = {}

    def assign(
        self,
        user_id: str,
        node: str,
        server: GupsterServer,
        unlisted: bool = False,
    ) -> None:
        server.bind_registry(self.network.metrics)
        if unlisted:
            self._unlisted[user_id] = (node, server)
        else:
            self._assignments[user_id] = (node, server)

    def server_for(self, user_id: str) -> Optional[GupsterServer]:
        entry = self._assignments.get(user_id) or self._unlisted.get(
            user_id
        )
        return entry[1] if entry else None

    def resolve(
        self,
        client: str,
        request: Union[str, Path],
        context: RequestContext,
        now: float = 0.0,
        hint: Optional[str] = None,
        trace: Optional[Trace] = None,
    ) -> Tuple[Referral, Trace]:
        """Lookup via white pages, or via an explicit *hint* node name
        for unlisted users (who told the application where to look).
        *trace*, when given, is charged instead of a fresh one."""
        path = parse_path(request)
        user_id = path.user_id()
        if user_id is None:
            raise GupsterError("request must identify a user")
        trace = trace if trace is not None else self.network.trace()
        with trace.span(
            "mdm.user_distributed",
            path=str(path), client=client, hinted=hint is not None,
        ) as lookup:
            if hint is not None:
                entry = (
                    self._unlisted.get(user_id)
                    or self._assignments.get(user_id)
                )
                if entry is None or entry[0] != hint:
                    raise GupsterError(
                        "hint %r does not match any MDM for %r"
                        % (hint, user_id)
                    )
                node, server = entry
            else:
                # White-pages round trip.
                with trace.span("mdm.whitepages"):
                    trace.hop(client, self.whitepages_node,
                              len(user_id) + QueryHost.REQUEST_OVERHEAD_BYTES,
                              "white pages lookup")
                    trace.compute(WHITEPAGES_COMPUTE_MS, "white pages")
                    entry = self._assignments.get(user_id)
                    if entry is None:
                        listed = user_id in self._unlisted
                        trace.hop(self.whitepages_node, client, 32,
                                  "miss")
                        raise GupsterError(
                            "user %r is unlisted — a hint is required"
                            % user_id
                            if listed
                            else "user %r has no meta-data manager"
                            % user_id
                        )
                    node, server = entry
                    trace.hop(self.whitepages_node, client,
                              len(node) + QueryHost.REQUEST_OVERHEAD_BYTES,
                              "pointer")
            lookup.set("mdm_node", node)
            referral = _retry_round_trip(
                trace, self.retry_policy, self.health, client, node,
                server, path, context, now,
            )
        return referral, trace

    def resolve_batch(
        self,
        client: str,
        requests: Sequence[Union[str, Path]],
        contexts: Sequence[RequestContext],
        now: float = 0.0,
        hints: Optional[Dict[str, str]] = None,
    ) -> Tuple[List[BatchOutcome], Trace]:
        """Batched :meth:`resolve`: **one** white-pages round trip
        carries every lookup, then one batched referral round trip per
        distinct target MDM. *hints* maps user id → node for unlisted
        users whose pointer the application already holds; users with
        no (matching) manager fail item-wise with the same
        :class:`~repro.errors.GupsterError` as the sequential path."""
        outcomes: List[BatchOutcome] = [(None, None)] * len(requests)
        items = _parse_batch(requests, contexts, outcomes)
        trace = self.network.trace()
        hints = hints or {}
        with trace.span(
            "mdm.user_distributed.batch",
            items=len(items), client=client,
        ):
            if not items:
                return outcomes, trace
            hinted: List[Tuple[int, Path, RequestContext, str,
                               GupsterServer]] = []
            lookups: List[Tuple[int, Path, RequestContext, str]] = []
            for index, path, context in items:
                user_id = path.user_id()
                if user_id is None:
                    outcomes[index] = (
                        None,
                        GupsterError("request must identify a user"),
                    )
                    continue
                hint = hints.get(user_id)
                if hint is not None:
                    entry = (
                        self._unlisted.get(user_id)
                        or self._assignments.get(user_id)
                    )
                    if entry is None or entry[0] != hint:
                        outcomes[index] = (
                            None,
                            GupsterError(
                                "hint %r does not match any MDM for %r"
                                % (hint, user_id)
                            ),
                        )
                        continue
                    hinted.append((index, path, context) + entry)
                else:
                    lookups.append((index, path, context, user_id))
            routed: Dict[str, List[Tuple[int, Path, RequestContext]]] = {}
            servers: Dict[str, GupsterServer] = {}
            for index, path, context, node, server in hinted:
                routed.setdefault(node, []).append((index, path, context))
                servers[node] = server
            if lookups:
                # One batched white-pages round trip for every
                # un-hinted item.
                with trace.span(
                    "mdm.whitepages.batch", items=len(lookups),
                ):
                    trace.hop(
                        client, self.whitepages_node,
                        QueryHost.REQUEST_OVERHEAD_BYTES + sum(
                            len(user_id)
                            for _i, _p, _c, user_id in lookups
                        ),
                        "batched white pages lookup (%d users)"
                        % len(lookups),
                    )
                    pointer_bytes = 0
                    for index, path, context, user_id in lookups:
                        trace.compute(
                            WHITEPAGES_COMPUTE_MS, "white pages"
                        )
                        entry = self._assignments.get(user_id)
                        if entry is None:
                            listed = user_id in self._unlisted
                            pointer_bytes += 32
                            outcomes[index] = (
                                None,
                                GupsterError(
                                    "user %r is unlisted — a hint is "
                                    "required" % user_id
                                    if listed
                                    else "user %r has no meta-data "
                                    "manager" % user_id
                                ),
                            )
                            continue
                        node, server = entry
                        pointer_bytes += len(node)
                        routed.setdefault(node, []).append(
                            (index, path, context)
                        )
                        servers[node] = server
                    trace.hop(
                        self.whitepages_node, client,
                        QueryHost.REQUEST_OVERHEAD_BYTES + pointer_bytes,
                        "batched pointers",
                    )
            # One batched referral round trip per target MDM, in
            # parallel (distinct organizations answer independently).
            branches: List[Trace] = []
            for node, group in routed.items():
                branch = trace.fork()
                branches.append(branch)
                _batched_retry_round_trip(
                    branch, self.retry_policy, self.health, client,
                    node, servers[node], group, outcomes, now,
                )
            trace.join(branches)
        return outcomes, trace

    def meta_data_exposure(self) -> Dict[str, int]:
        """Component paths visible per MDM node."""
        exposure: Dict[str, int] = {}
        for node, server in list(self._assignments.values()) + list(
            self._unlisted.values()
        ):
            exposure[node] = server.coverage.entry_count()
        return exposure


class HierarchicalMdm:
    """Per-user primary MDM with delegated subtrees (Section 5.1.2)."""

    def __init__(
        self,
        network: Network,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[EndpointHealth] = None,
    ) -> None:
        self.network = network
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.health = health if health is not None else EndpointHealth()
        self.health.bind_registry(network.metrics)
        #: user -> (primary node, primary server)
        self._primaries: Dict[str, Tuple[str, GupsterServer]] = {}
        #: user -> list of (delegated path, node, server)
        self._delegations: Dict[
            str, List[Tuple[Path, str, GupsterServer]]
        ] = {}

    def set_primary(
        self, user_id: str, node: str, server: GupsterServer
    ) -> None:
        server.bind_registry(self.network.metrics)
        self._primaries[user_id] = (node, server)

    def delegate(
        self,
        user_id: str,
        path: Union[str, Path],
        node: str,
        server: GupsterServer,
    ) -> None:
        """The primary learns only (path prefix, node) — the delegate's
        server holds the actual coverage entries."""
        parsed = parse_path(path)
        if parsed.user_id() != user_id:
            raise GupsterError("delegation path must belong to the user")
        self._delegations.setdefault(user_id, []).append(
            (parsed, node, server)
        )

    def resolve(
        self,
        client: str,
        request: Union[str, Path],
        context: RequestContext,
        now: float = 0.0,
        trace: Optional[Trace] = None,
    ) -> Tuple[Referral, Trace]:
        path = parse_path(request)
        user_id = path.user_id()
        entry = self._primaries.get(user_id or "")
        if entry is None:
            raise GupsterError("no primary MDM for %r" % user_id)
        primary_node, primary_server = entry
        trace = trace if trace is not None else self.network.trace()
        # Ask the primary (retrying transient failures — there is only
        # one primary, nothing to fail over to).
        request_bytes = (
            len(str(path))
            + context.byte_size()
            + QueryHost.REQUEST_OVERHEAD_BYTES
        )
        policy = self.retry_policy
        last_error: Optional[Exception] = None
        with trace.span(
            "mdm.hierarchical",
            path=str(path), client=client, primary=primary_node,
        ) as lookup:
            for attempt in range(policy.max_attempts):
                if attempt > 0:
                    trace.wait(
                        policy.backoff_ms(attempt),
                        "backoff before primary retry %d"
                        % (attempt + 1),
                    )
                    trace.note_retry()
                try:
                    trace.hop(client, primary_node, request_bytes,
                              "ask primary")
                    self.health.success(primary_node)
                    break
                except TRANSIENT_ERRORS as err:
                    last_error = err
                    self.health.failure(primary_node)
            else:
                raise GupsterError(
                    "primary MDM %s unreachable: %s"
                    % (primary_node, last_error)
                )
            trace.compute(QueryHost.RESOLVE_COMPUTE_MS, "primary lookup")
            for delegated_path, node, server in self._delegations.get(
                user_id or "", []
            ):
                if subtree_covers(delegated_path, path):
                    # Primary only returns the delegation pointer.
                    lookup.set("delegated_to", node)
                    trace.hop(primary_node, client,
                              len(node) + QueryHost.REQUEST_OVERHEAD_BYTES,
                              "delegation pointer")
                    referral = _retry_round_trip(
                        trace, policy, self.health, client, node,
                        server, path, context, now,
                    )
                    return referral, trace
            referral = primary_server.resolve(path, context, now)
            trace.hop(primary_node, client,
                      referral.byte_size() + QueryHost.REQUEST_OVERHEAD_BYTES,
                      "referral")
        return referral, trace

    def resolve_batch(
        self,
        client: str,
        requests: Sequence[Union[str, Path]],
        contexts: Sequence[RequestContext],
        now: float = 0.0,
    ) -> Tuple[List[BatchOutcome], Trace]:
        """Batched :meth:`resolve`: items group by primary MDM — one
        batched ask per primary (parallel across primaries), one
        batched pointer frame for delegated subtrees, then one batched
        referral round trip per delegate node. Per-item server
        decisions stay item-wise; users with no primary fail item-wise
        with the sequential error."""
        outcomes: List[BatchOutcome] = [(None, None)] * len(requests)
        items = _parse_batch(requests, contexts, outcomes)
        trace = self.network.trace()
        with trace.span(
            "mdm.hierarchical.batch", items=len(items), client=client,
        ):
            by_primary: Dict[
                str,
                Tuple[GupsterServer, List[Tuple[int, Path, RequestContext]]],
            ] = {}
            for index, path, context in items:
                entry = self._primaries.get(path.user_id() or "")
                if entry is None:
                    outcomes[index] = (
                        None,
                        GupsterError(
                            "no primary MDM for %r" % path.user_id()
                        ),
                    )
                    continue
                node, server = entry
                by_primary.setdefault(node, (server, []))[1].append(
                    (index, path, context)
                )
            branches: List[Trace] = []
            for primary_node, (primary_server, group) in \
                    by_primary.items():
                branch = trace.fork()
                branches.append(branch)
                self._resolve_batch_at_primary(
                    branch, client, primary_node, primary_server,
                    group, outcomes, now,
                )
            trace.join(branches)
        return outcomes, trace

    def _resolve_batch_at_primary(
        self,
        trace: Trace,
        client: str,
        primary_node: str,
        primary_server: GupsterServer,
        group: List[Tuple[int, Path, RequestContext]],
        outcomes: List[BatchOutcome],
        now: float,
    ) -> None:
        """One primary's slice of a hierarchical batch."""
        request_bytes = QueryHost.REQUEST_OVERHEAD_BYTES + sum(
            len(str(path)) + context.byte_size()
            for _index, path, context in group
        )
        policy = self.retry_policy
        last_error: Optional[Exception] = None
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                trace.wait(
                    policy.backoff_ms(attempt),
                    "backoff before batched primary retry %d"
                    % (attempt + 1),
                )
                for _item in group:
                    trace.note_retry()
            try:
                trace.hop(client, primary_node, request_bytes,
                          "batched ask primary (%d items)" % len(group))
                self.health.success(primary_node)
                break
            except TRANSIENT_ERRORS as err:
                last_error = err
                self.health.failure(primary_node)
        else:
            failure = GupsterError(
                "primary MDM %s unreachable: %s"
                % (primary_node, last_error)
            )
            for index, _path, _context in group:
                outcomes[index] = (None, failure)
            return
        delegated: Dict[
            str,
            Tuple[GupsterServer, List[Tuple[int, Path, RequestContext]]],
        ] = {}
        local: List[Tuple[int, Path, RequestContext]] = []
        pointer_bytes = 0
        for index, path, context in group:
            trace.compute(QueryHost.RESOLVE_COMPUTE_MS, "primary lookup")
            target: Optional[Tuple[str, GupsterServer]] = None
            for delegated_path, node, server in self._delegations.get(
                path.user_id() or "", []
            ):
                if subtree_covers(delegated_path, path):
                    target = (node, server)
                    break
            if target is None:
                local.append((index, path, context))
            else:
                pointer_bytes += len(target[0])
                delegated.setdefault(target[0], (target[1], []))[1] \
                    .append((index, path, context))
        if delegated:
            trace.hop(primary_node, client,
                      QueryHost.REQUEST_OVERHEAD_BYTES + pointer_bytes,
                      "batched delegation pointers")
        local_referrals: List[Optional[Referral]] = []
        for index, path, context in local:
            try:
                referral = primary_server.resolve(path, context, now)
            except ReproError as err:
                local_referrals.append(None)
                outcomes[index] = (None, err)
            else:
                local_referrals.append(referral)
                outcomes[index] = (referral, None)
        if local:
            trace.hop(
                primary_node, client,
                QueryHost.REQUEST_OVERHEAD_BYTES + sum(
                    referral.byte_size() if referral is not None else 32
                    for referral in local_referrals
                ),
                "batched referrals",
            )
        for node, (server, sub_group) in delegated.items():
            _batched_retry_round_trip(
                trace, policy, self.health, client, node, server,
                sub_group, outcomes, now,
            )

    def meta_data_exposure(self) -> Dict[str, int]:
        """What each node can see: primaries count their own coverage
        entries plus one opaque pointer per delegation; delegates count
        their delegated entries."""
        exposure: Dict[str, int] = {}
        for user_id, (node, server) in self._primaries.items():
            exposure[node] = exposure.get(node, 0) + (
                server.coverage.entry_count()
            )
            exposure[node] += len(self._delegations.get(user_id, []))
        seen = set()
        for delegations in self._delegations.values():
            for _path, node, server in delegations:
                if (node, id(server)) in seen:
                    continue  # same delegate server counted once
                seen.add((node, id(server)))
                exposure[node] = exposure.get(node, 0) + (
                    server.coverage.entry_count()
                )
        return exposure
