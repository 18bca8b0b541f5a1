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

Each topology's lookup is written **once**, as a sans-io ``program``
(a generator over :mod:`repro.sansio.intents`) that takes a list of
``(index, path, context)`` items and fills per-item outcomes;
``resolve_batch`` drives it with the simnet driver and ``resolve`` is
that call with one item. The sub-programs they share — one round trip,
one retry/failover wrapper — are the methods of :class:`Lookup`.

Experiment E6 measures lookup latency, availability under failures, and
the meta-data privacy exposure of each topology.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple, Union,
)

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
from repro.sansio.intents import (
    Compute, Fork, Mark, Program, Send, Sleep, SpanClose, SpanOpen,
)
from repro.simnet import Network
from repro.simnet import driver as simnet_driver  # a module: see repro/sansio/__init__.py

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.simnet import Trace

__all__ = ["CentralizedMdm", "UserDistributedMdm", "HierarchicalMdm"]

WHITEPAGES_COMPUTE_MS = 0.05
OVERHEAD = QueryHost.REQUEST_OVERHEAD_BYTES
#: Reply-frame bytes of an item answered with an error or a miss.
ERROR_BYTES = 32

#: Per-item outcome of a meta-data resolution: exactly one of
#: (referral, error) is set; *error* is what ``resolve`` raises.
BatchOutcome = Tuple[Optional[Referral], Optional[Exception]]
#: One request aboard a lookup: (index into the outcomes, path, context).
Item = Tuple[int, Path, RequestContext]
#: Where meta-data lives: (MDM node, the server it runs).
Pointer = Tuple[str, GupsterServer]
#: The items routed to each MDM — one leg per pointer.
Routes = Dict[Pointer, List[Item]]


class Lookup(NamedTuple):
    """One meta-data lookup in flight — who asks, at what virtual
    instant, under which retry policy — and the sub-programs every
    topology builds its walk from. Each fills ``outcomes[index]`` for
    the items it settles. Without a *health* tracker, endpoints are
    tried in the order given and no failover is counted (E14)."""

    client: str
    now: float
    policy: RetryPolicy
    health: Optional[EndpointHealth]
    outcomes: List[BatchOutcome]
    #: user id -> MDM node, for users whose pointer the application
    #: already holds (unlisted users hand theirs out themselves).
    hints: Mapping[str, str] = {}

    def fail(self, items: Sequence[Item], error: Exception) -> None:
        for index, _path, _context in items:
            self.outcomes[index] = (None, error)

    def round_trip(
        self, node: str, items: Sequence[Item],
        resolve: Callable[
            [Path, RequestContext, float], Union[Referral, Pointer]
        ],
    ) -> Program[List[Tuple[Item, Pointer]]]:
        """One referral round trip to one MDM node.

        The request hop carries every item's path+context behind a
        single protocol overhead; resolution compute stays per item
        (the server still filters/rewrites/signs each); per-item server
        errors (shield denials, spurious queries, no coverage) become
        outcomes without disturbing batch-mates. A hierarchical
        primary's *resolve* answers a delegated subtree with a
        :data:`Pointer`; pointers travel in their own reply frame and
        are returned for the caller to chase. A *transient* failure of
        either hop propagates — the items shared the wire, so they
        retry or fail over together — and outcomes commit only once
        the whole trip survived."""
        pointers: List[Tuple[Item, Pointer]] = []
        replies: List[Tuple[int, BatchOutcome]] = []
        yield SpanOpen(
            "mdm.round_trip", {"node": node, "items": len(items)}
        )
        try:
            yield Send(
                self.client, node,
                OVERHEAD + sum(
                    len(str(path)) + context.byte_size()
                    for _index, path, context in items
                ),
                "resolve %d item(s) at %s" % (len(items), node),
            )
            for item in items:
                yield Compute(QueryHost.RESOLVE_COMPUTE_MS, "resolve")
                try:
                    answer = resolve(item[1], item[2], self.now)
                except ReproError as err:
                    replies.append((item[0], (None, err)))
                else:
                    if isinstance(answer, Referral):
                        replies.append((item[0], (answer, None)))
                    else:
                        pointers.append((item, answer))
            if pointers:
                yield Send(
                    node, self.client,
                    OVERHEAD + sum(len(to[0]) for _item, to in pointers),
                    "delegation pointers",
                )
            if replies:
                yield Send(
                    node, self.client,
                    OVERHEAD + sum(
                        ERROR_BYTES if referral is None
                        else referral.byte_size()
                        for _index, (referral, _err) in replies
                    ),
                    "referrals",
                )
        except TRANSIENT_ERRORS:
            yield SpanClose()
            raise
        yield SpanClose()
        for index, outcome in replies:
            self.outcomes[index] = outcome
        return pointers

    def with_retry(
        self, nodes: Sequence[str], items: Sequence[Item],
        trip: Callable[[str], Program[Any]],
    ) -> Program[Optional[Tuple[str, Any]]]:
        """Try ``trip(node)`` over *nodes* (healthy first) until one
        survives: fail over to the next node within a sweep, then back
        off and re-sweep as the policy allows — with a single node,
        plain bounded retry. Only transient failures move on; whatever
        a reachable node decides per item is the answer. Returns
        ``(node, trip result)``, or ``None`` after failing every item."""
        health = self.health
        last_error: Optional[Exception] = None
        for sweep in range(self.policy.max_attempts):
            if sweep:
                yield Sleep(
                    self.policy.backoff_ms(sweep),
                    "backoff before sweep %d of %s"
                    % (sweep + 1, "/".join(nodes)),
                )
                yield Mark("retry", len(items))
            order = health.order(nodes) if health is not None else nodes
            for position, node in enumerate(order):
                try:
                    result = yield from trip(node)
                except TRANSIENT_ERRORS as err:
                    last_error = err
                    if health is not None:
                        health.failure(node)
                        if position + 1 < len(order):
                            yield Mark("failover", len(items))
                    continue
                if health is not None:
                    health.success(node)
                return node, result
        self.fail(items, GupsterError(
            "no MDM reachable at %s: %s" % ("/".join(nodes), last_error)
        ))
        return None

    def ask(
        self, node: str, server: GupsterServer, items: Sequence[Item]
    ) -> Program[Any]:
        """Resolve *items* at the one MDM *node* that manages them."""
        return self.with_retry(
            [node], items,
            lambda at: self.round_trip(at, items, server.resolve),
        )


def _parallel(legs: List[Program[None]]) -> Program[None]:
    """Fork *legs* (distinct organizations answer independently). A
    lone leg runs inline, as ``SansIoQueryEngine.referral`` does for
    one part: forking a single branch re-associates the float sum of
    its charges, 1 ulp off the sequential total."""
    if len(legs) == 1:
        yield from legs[0]
    elif legs:
        yield Fork(legs)


class _MdmTopology:
    """What the three topologies share: the retry/health wiring and
    the simnet face of their one :meth:`program`."""

    def __init__(
        self, network: Network, retry_policy: Optional[RetryPolicy],
        health: Optional[EndpointHealth],
    ) -> None:
        self.network = network
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.health = health if health is not None else EndpointHealth()
        self.health.bind_registry(network.metrics)

    def program(
        self, lookup: Lookup, items: Sequence[Item]
    ) -> Program[None]:
        """The topology's lookup of *items* (at least one), as a
        sans-io program any driver can run."""
        raise NotImplementedError

    def _drive(
        self, client: str, requests: Sequence[Union[str, Path]],
        contexts: Sequence[RequestContext], now: float,
        trace: Optional[Trace] = None,
        hints: Optional[Mapping[str, str]] = None,
    ) -> Tuple[List[BatchOutcome], Trace]:
        """Parse (per-item failures land in the outcomes), then run
        the program on *trace* or a fresh one."""
        if len(requests) != len(contexts):
            raise ValueError(
                "got %d requests but %d contexts"
                % (len(requests), len(contexts))
            )
        outcomes: List[BatchOutcome] = [(None, None)] * len(requests)
        items: List[Item] = []
        for index, request in enumerate(requests):
            try:
                items.append((index, parse_path(request), contexts[index]))
            except ReproError as err:
                outcomes[index] = (None, err)
        trace = trace if trace is not None else self.network.trace()
        if items:
            lookup = Lookup(
                client, now, self.retry_policy, self.health, outcomes,
                hints or {},
            )
            simnet_driver.SimnetDriver({}).run(self.program(lookup, items), trace)
        return outcomes, trace

    def resolve(
        self, client: str, request: Union[str, Path],
        context: RequestContext, now: float = 0.0,
        trace: Optional[Trace] = None,
    ) -> Tuple[Referral, Trace]:
        """Resolve one request: a one-item :meth:`resolve_batch` that
        returns the referral or raises the item's error. Pass *trace*
        to charge a caller-owned trace (e.g. one shared across an E21
        calibration run) instead of a fresh one."""
        return single(self._drive(client, [request], [context], now, trace))

    def resolve_batch(
        self, client: str, requests: Sequence[Union[str, Path]],
        contexts: Sequence[RequestContext], now: float = 0.0,
    ) -> Tuple[List[BatchOutcome], Trace]:
        """Resolve many requests, one frame per round trip. Per-item
        server decisions (shield denials, spurious queries, missing
        coverage, unparsable paths) are per-item outcomes; only
        *transient* failures are shared, by the items that shared the
        wire."""
        return self._drive(client, requests, contexts, now)


def single(
    result: Tuple[List[BatchOutcome], Trace]
) -> Tuple[Referral, Trace]:
    """A one-item lookup's referral — or raise the item's error."""
    ((referral, error),), trace = result
    if error is not None:
        raise error
    assert referral is not None  # exactly one of the pair is set
    return referral, trace


class CentralizedMdm(_MdmTopology):
    """The UDDI-like mirrored constellation.

    All mirrors serve the same logical server state (the consortium
    keeps them synchronized out of band); a client walks its mirror
    list until one answers.
    """

    def __init__(
        self, network: Network, server: GupsterServer,
        mirror_nodes: List[str],
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[EndpointHealth] = None,
    ) -> None:
        if not mirror_nodes:
            raise ValueError("need at least one mirror")
        super().__init__(network, retry_policy, health)
        self.server = server
        self.mirror_nodes = list(mirror_nodes)
        server.bind_registry(network.metrics)

    def program(
        self, lookup: Lookup, items: Sequence[Item]
    ) -> Program[None]:
        yield SpanOpen("mdm.centralized", {"items": len(items)})
        yield from lookup.with_retry(
            self.mirror_nodes, items,
            lambda mirror: lookup.round_trip(
                mirror, items, self.server.resolve
            ),
        )
        yield SpanClose()

    def meta_data_exposure(self) -> Dict[str, int]:
        """Component paths visible per node: every mirror sees all."""
        total = self.server.coverage.entry_count()
        return {mirror: total for mirror in self.mirror_nodes}


class UserDistributedMdm(_MdmTopology):
    """Per-user choice of meta-data manager, found via white pages."""

    def __init__(
        self, network: Network, whitepages_node: str,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[EndpointHealth] = None,
    ) -> None:
        super().__init__(network, retry_policy, health)
        self.whitepages_node = whitepages_node
        #: user id -> (mdm node name, server), as the white pages list it
        self._assignments: Dict[str, Pointer] = {}
        #: unlisted users — the application must bring the node as a hint
        self._unlisted: Dict[str, Pointer] = {}

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

    def resolve(  # type: ignore[override]  # hint= precedes trace=
        self, client: str, request: Union[str, Path],
        context: RequestContext, now: float = 0.0,
        hint: Optional[str] = None, trace: Optional[Trace] = None,
    ) -> Tuple[Referral, Trace]:
        """Lookup via white pages, or via an explicit *hint* node name
        for unlisted users (who told the application where to look).
        *trace*, when given, is charged instead of a fresh one."""
        hints = None if hint is None else {
            parse_path(request).user_id() or "": hint
        }
        return single(self._drive(
            client, [request], [context], now, trace, hints
        ))

    def resolve_batch(
        self, client: str, requests: Sequence[Union[str, Path]],
        contexts: Sequence[RequestContext], now: float = 0.0,
        hints: Optional[Dict[str, str]] = None,
    ) -> Tuple[List[BatchOutcome], Trace]:
        """Batched :meth:`resolve`: **one** white-pages round trip
        carries every lookup, then one referral round trip per distinct
        target MDM. *hints* maps user id → node for unlisted users
        whose pointer the application already holds; users with no
        (matching) manager fail item-wise."""
        return self._drive(client, requests, contexts, now, None, hints)

    def program(
        self, lookup: Lookup, items: Sequence[Item]
    ) -> Program[None]:
        """Hinted items skip the white pages; the rest share one trip."""
        hints = lookup.hints
        routes: Routes = {}
        unhinted: List[Item] = []
        for item in items:
            user_id = item[1].user_id()
            if user_id is None:
                lookup.fail(
                    [item], GupsterError("request must identify a user")
                )
            elif user_id not in hints:
                unhinted.append(item)
            else:
                entry = (
                    self._unlisted.get(user_id)
                    or self._assignments.get(user_id)
                )
                if entry is None or entry[0] != hints[user_id]:
                    lookup.fail([item], GupsterError(
                        "hint %r does not match any MDM for %r"
                        % (hints[user_id], user_id)
                    ))
                else:
                    routes.setdefault(entry, []).append(item)
        yield SpanOpen("mdm.user_distributed", {"items": len(items)})
        if unhinted and (yield from lookup.with_retry(
            [self.whitepages_node], unhinted,
            lambda _node: self._whitepages_trip(lookup.client, unhinted),
        )):
            for item in unhinted:
                user_id = item[1].user_id() or ""
                if user_id in self._assignments:
                    entry = self._assignments[user_id]
                    routes.setdefault(entry, []).append(item)
                else:
                    lookup.fail([item], GupsterError(
                        "user %r is unlisted — a hint is required"
                        % user_id if user_id in self._unlisted
                        else "user %r has no meta-data manager" % user_id
                    ))
        yield from _parallel([
            lookup.ask(node, server, group)
            for (node, server), group in routes.items()
        ])
        yield SpanClose()

    def _whitepages_trip(
        self, client: str, items: Sequence[Item]
    ) -> Program[None]:
        """One white-pages round trip carrying every un-hinted lookup;
        the reply names a node per listed user."""
        users = [path.user_id() or "" for _index, path, _context in items]
        yield SpanOpen("mdm.whitepages", {"items": len(users)})
        try:
            yield Send(
                client, self.whitepages_node,
                OVERHEAD + sum(len(user_id) for user_id in users),
                "white pages lookup (%d users)" % len(users),
            )
            for _user_id in users:
                yield Compute(WHITEPAGES_COMPUTE_MS, "white pages")
            yield Send(
                self.whitepages_node, client,
                OVERHEAD + sum(
                    len(self._assignments[user_id][0])
                    if user_id in self._assignments else ERROR_BYTES
                    for user_id in users
                ),
                "pointers",
            )
        except TRANSIENT_ERRORS:
            yield SpanClose()
            raise
        yield SpanClose()

    def meta_data_exposure(self) -> Dict[str, int]:
        """Component paths visible per MDM node."""
        exposure: Dict[str, int] = {}
        for node, server in list(self._assignments.values()) + list(
            self._unlisted.values()
        ):
            exposure[node] = server.coverage.entry_count()
        return exposure


class HierarchicalMdm(_MdmTopology):
    """Per-user primary MDM with delegated subtrees (Section 5.1.2)."""

    def __init__(
        self, network: Network,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[EndpointHealth] = None,
    ) -> None:
        super().__init__(network, retry_policy, health)
        #: user -> (primary node, primary server)
        self._primaries: Dict[str, Pointer] = {}
        #: user -> list of (delegated path, (node, server))
        self._delegations: Dict[str, List[Tuple[Path, Pointer]]] = {}

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
            (parsed, (node, server))
        )

    def program(
        self, lookup: Lookup, items: Sequence[Item]
    ) -> Program[None]:
        """Items group by primary MDM — one ask per primary, parallel
        across primaries; users with no primary fail item-wise."""
        primaries: Routes = {}
        for item in items:
            user_id = item[1].user_id()
            entry = self._primaries.get(user_id or "")
            if entry is not None:
                primaries.setdefault(entry, []).append(item)
            else:
                lookup.fail(
                    [item], GupsterError("no primary MDM for %r" % user_id)
                )
        yield SpanOpen("mdm.hierarchical", {"items": len(items)})
        yield from _parallel([
            self._primary_leg(lookup, node, server, group)
            for (node, server), group in primaries.items()
        ])
        yield SpanClose()

    def _primary_leg(
        self, lookup: Lookup, node: str, server: GupsterServer,
        group: Sequence[Item],
    ) -> Program[None]:
        """One primary's slice: a round trip in which it answers what
        it manages itself and hands back only a pointer for delegated
        subtrees, then one round trip per delegate node, in turn."""

        def answer(
            path: Path, context: RequestContext, now: float
        ) -> Union[Referral, Pointer]:
            for subtree, delegate in self._delegations.get(
                path.user_id() or "", []
            ):
                if subtree_covers(subtree, path):
                    return delegate
            return server.resolve(path, context, now)

        answered = yield from lookup.with_retry(
            [node], group,
            lambda at: lookup.round_trip(at, group, answer),
        )
        delegated: Routes = {}
        for item, delegate in answered[1] if answered else ():
            delegated.setdefault(delegate, []).append(item)
        for (delegate_node, delegate_server), items in delegated.items():
            yield from lookup.ask(delegate_node, delegate_server, items)

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
            for _path, (node, server) in delegations:
                if (node, id(server)) in seen:
                    continue  # same delegate server counted once
                seen.add((node, id(server)))
                exposure[node] = exposure.get(node, 0) + (
                    server.coverage.entry_count()
                )
        return exposure
