"""Sans-io query engine: the Section 5.2 wire patterns as programs.

This module holds the *protocol logic* of every query pattern —
``referral``, ``chaining``, ``recruiting``, ``direct``, ``cached``,
the E19 wave ``batch`` and the enter-once ``provision`` fan-out — as
generator *programs* that yield typed :mod:`~repro.sansio.intents`
and never perform I/O themselves.

The same program is consumed by two drivers:

* :class:`repro.simnet.driver.SimnetDriver` charges every intent to a
  virtual-time :class:`~repro.simnet.Trace`; the golden latency
  fixtures pin the resulting cost model bit for bit.
  :class:`~repro.core.query.QueryExecutor` is this driver's face.
* :class:`repro.serve.transport.WallTransport` performs the intents
  under asyncio against the wall clock, giving the serving layer
  (:mod:`repro.serve`) real concurrency for fork/join fan-outs and
  real (capped) backoff sleeps — with the *same* shield decisions,
  values and degradation behaviour, which
  ``tests/test_sansio_equivalence.py`` pins property-style under fault
  injection.

Everything stateful the programs consult — coverage resolution, the
privacy shield, signing, endpoint health, provenance — and every cost
constant lives behind a :class:`~repro.core.host.QueryHost`, whose
members are all pure/virtual-time (the ``sans-io-purity`` gupcheck
rule enforces this package stays off the wire). A
:class:`~repro.core.query.QueryExecutor` *is* a host, so ablation
benchmarks that tune its per-step cost attributes reach the programs;
the serving layer constructs a plain one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    AccessDeniedError,
    NoCoverageError,
    PartialResultError,
    ReproError,
)
from repro.pxml import Path, PNode, extract, parse_path
from repro.pxml.merge import GUP_KEYSPEC, merge_all
from repro.access import RequestContext
from repro.core.host import QueryHost
from repro.core.referral import Referral, ReferralPart
from repro.core.resilience import TRANSIENT_ERRORS, PartStatus
from repro.sansio.intents import (
    Compute,
    Fork,
    LegOutcome,
    Mark,
    PartReport,
    Program,
    Send,
    Sleep,
    SpanClose,
    SpanOpen,
    SpanSet,
    StoreGet,
    StorePut,
)

__all__ = [
    "BatchItemResult",
    "QueryOutcome",
    "SansIoQueryEngine",
    "StandaloneQueryHost",
    "decision_of",
]

#: The host under the name drivers without an executor construct it by.
StandaloneQueryHost = QueryHost

#: The Fork capture set of degradable fan-outs: a dead store, a lost
#: message, or an uncovered part degrades that *part*; anything else
#: aborts the query.
_DEGRADABLE_CAPTURE = TRANSIENT_ERRORS + (NoCoverageError,)


class QueryOutcome:
    """What a query program returns: the merged fragment, cache
    disposition flags, and per-part statuses."""

    __slots__ = ("fragment", "hit", "stale", "statuses")

    def __init__(
        self,
        fragment: Optional[PNode],
        hit: bool = False,
        stale: bool = False,
        statuses: Optional[List[PartStatus]] = None,
    ) -> None:
        self.fragment = fragment
        self.hit = hit
        self.stale = stale
        self.statuses: List[PartStatus] = (
            statuses if statuses is not None else []
        )

    def __repr__(self) -> str:
        flags = "".join(
            flag for flag, on in (("H", self.hit), ("S", self.stale))
            if on
        )
        return "<QueryOutcome %s%s>" % (
            "ok" if self.fragment is not None else "empty",
            " " + flags if flags else "",
        )


class BatchItemResult(QueryOutcome):
    """Outcome of one query inside a batch.

    Mirrors what the equivalent *sequential* query would have produced:
    ``fragment`` is the merged answer (bit-identical to the sequential
    merge), ``error`` is the exception the sequential call would have
    raised (shield denial, spurious query, no coverage, total-failure
    :class:`~repro.errors.PartialResultError`), and ``statuses`` are
    the per-part :class:`~repro.core.resilience.PartStatus` reports in
    referral order."""

    __slots__ = ("path", "error")

    def __init__(
        self,
        path: Union[str, Path],
        fragment: Optional[PNode] = None,
        hit: bool = False,
        stale: bool = False,
        statuses: Optional[List[PartStatus]] = None,
        error: Optional[Exception] = None,
    ) -> None:
        super().__init__(fragment, hit, stale, statuses)
        self.path = path
        self.error = error

    @property
    def ok(self) -> bool:
        """True when the sequential equivalent would not have raised."""
        return self.error is None

    @property
    def degraded_parts(self) -> int:
        """Unreachable referral parts behind this (partial) answer."""
        return sum(1 for status in self.statuses if not status.ok)

    def __repr__(self) -> str:
        if self.error is not None:
            return "<BatchItemResult %s error=%s>" % (
                self.path, type(self.error).__name__,
            )
        flags = "".join(
            flag for flag, on in (
                ("H", self.hit), ("S", self.stale),
                ("D", self.degraded_parts > 0),
            ) if on
        )
        return "<BatchItemResult %s ok%s>" % (
            self.path, " " + flags if flags else "",
        )


class _BatchJob:
    """One (item, referral part) sub-fetch inside a batched fan-out."""

    __slots__ = (
        "item", "part_index", "part", "candidates", "next_index",
        "fragment", "store", "last_error",
    )

    def __init__(
        self, item: int, part_index: int, part: ReferralPart
    ) -> None:
        self.item = item
        self.part_index = part_index
        self.part = part
        self.candidates: List[str] = []
        self.next_index = 0
        self.fragment: Optional[PNode] = None
        #: The store that answered; None until the fetch succeeds.
        self.store: Optional[str] = None
        self.last_error: Optional[Exception] = None


class SansIoQueryEngine:
    """Generator programs for the Section 5.2 query patterns.

    *host* provides collaborators and cost constants (see module
    docstring); it is read at call time, so mutating
    ``host.retry_policy`` or the cost attributes between calls — as
    the ablation benchmarks do — affects the next program built."""

    def __init__(self, host: QueryHost) -> None:
        self.host = host

    # -- shared pieces ------------------------------------------------------

    def _request_bytes(
        self, path: Path, context: RequestContext
    ) -> int:
        return (
            len(str(path))
            + context.byte_size()
            + self.host.REQUEST_OVERHEAD_BYTES
        )

    def _resolve_tracked(
        self, path: Path, context: RequestContext, now: float
    ) -> Referral:
        """Resolve at the server, recording grants and denials in the
        provenance ledger when one is attached."""
        host = self.host
        try:
            referral = host.server.resolve(path, context, now)
        except AccessDeniedError:
            if host.provenance is not None:
                host.provenance.record(
                    now, context, path, [], "resolve", granted=False
                )
            raise
        if host.provenance is not None:
            stores = sorted(
                {s for part in referral.parts for s in part.store_ids}
            )
            host.provenance.record(
                now, context, path, stores, "resolve", granted=True
            )
        return referral

    def fetch_part(
        self,
        origin: str,
        part: ReferralPart,
        now: float,
    ) -> Program[Tuple[Optional[PNode], str]]:
        """Fetch one referral part, surviving dead stores and lost
        messages when alternatives (or retry budget) remain.

        Returns (fragment, store used). Within one sweep the ``||``
        choices are tried in health-then-referral order; a failed
        store charges the detection timeout (the driver throws the
        transport error in) and the next choice is tried (failover).
        When a sweep ends with nothing, the retry policy may wait an
        exponential backoff and sweep again — a flapping store can
        come back. Raises the last transient error once the budget is
        exhausted."""
        host = self.host
        last_error: Optional[Exception] = None
        policy = host.retry_policy
        for sweep in range(policy.max_attempts):
            if sweep:
                yield Sleep(
                    policy.backoff_ms(sweep),
                    "backoff before retry sweep %d" % (sweep + 1),
                )
                yield Mark("retry")
            candidates = [
                store_id
                for store_id in host.health.order(part.store_ids)
                if store_id in host.server.adapters
            ]
            if not candidates:
                break
            for index, store_id in enumerate(candidates):
                query_bytes = (
                    part.signed_query.byte_size()
                    + host.REQUEST_OVERHEAD_BYTES
                    if part.signed_query is not None
                    else len(str(part.path)) + host.REQUEST_OVERHEAD_BYTES
                )
                try:
                    yield SpanOpen("fetch.store", {
                        "store": store_id, "path": str(part.path),
                        "sweep": sweep,
                    })
                    yield Send(origin, store_id, query_bytes,
                               "query %s" % part.path)
                    if part.signed_query is not None:
                        host.verifier.verify(part.signed_query, now)
                        yield Compute(
                            host.VERIFY_COMPUTE_MS, "verify signature"
                        )
                    yield Compute(
                        host.STORE_QUERY_COMPUTE_MS, "evaluate path"
                    )
                    fragment = yield StoreGet(store_id, part.path)
                    if (
                        fragment is not None
                        and host.annotator is not None
                    ):
                        host.annotator.annotate(fragment, store_id)
                    response_bytes = (
                        fragment.byte_size()
                        if fragment is not None else 32
                    ) + host.REQUEST_OVERHEAD_BYTES
                    yield Send(store_id, origin, response_bytes,
                               "fragment")
                    yield SpanSet("status", "ok")
                    yield SpanClose()
                except TRANSIENT_ERRORS as err:
                    yield SpanClose()
                    last_error = err
                    host.health.failure(store_id)
                    if index + 1 < len(candidates):
                        yield Mark("failover")
                    continue
                host.health.success(store_id)
                return fragment, store_id
        if last_error is not None:
            raise last_error
        raise NoCoverageError(
            "no adapter registered for any of %s" % part.store_ids
        )

    def fetch_parts_degradable(
        self,
        origin: str,
        referral: Referral,
        now: float,
    ) -> Program[Tuple[List[Optional[PNode]], List[PartStatus]]]:
        """Parallel part fan-out that records failures instead of
        raising: the caller decides whether a partial answer is
        acceptable."""
        outcomes: List[LegOutcome] = yield Fork(
            [
                self.fetch_part(origin, part, now)
                for part in referral.parts
            ],
            capture=_DEGRADABLE_CAPTURE,
        )
        fragments: List[Optional[PNode]] = []
        statuses: List[PartStatus] = []
        for part, outcome in zip(referral.parts, outcomes):
            if outcome.error is not None:
                statuses.append(
                    PartStatus(part.path, ok=False, error=outcome.error)
                )
            else:
                fragment, store = outcome.value
                fragments.append(fragment)
                statuses.append(PartStatus(part.path, store=store))
        yield PartReport(statuses)
        return fragments, statuses

    def merge_at(
        self,
        fragments: List[Optional[PNode]],
        where: str,
    ) -> Program[Optional[PNode]]:
        present = [f for f in fragments if f is not None]
        if not present:
            return None
        if len(present) == 1:
            return present[0]
        yield Compute(
            self.host.MERGE_COMPUTE_MS_PER_PART * len(present),
            "merge %d fragments at %s" % (len(present), where),
        )
        return merge_all(present, GUP_KEYSPEC)

    # -- patterns -----------------------------------------------------------

    def referral(
        self,
        client: str,
        path: Path,
        context: RequestContext,
        now: float,
        parallel: bool = True,
    ) -> Program[QueryOutcome]:
        """The default GUPster pattern: a signed referral, then the
        client fetches every part itself and merges locally (see
        ``QueryExecutor.referral``). Any part failing fails the
        query."""
        host = self.host
        server_node = host.server_node
        yield SpanOpen("query.referral", {
            "path": str(path), "scope": context.cache_scope(),
            "client": client,
        })
        yield Send(client, server_node,
                   self._request_bytes(path, context),
                   "resolve request")
        yield Compute(host.RESOLVE_COMPUTE_MS, "rewrite+policy+sign")
        referral = self._resolve_tracked(path, context, now)
        yield Send(server_node, client,
                   referral.byte_size() + host.REQUEST_OVERHEAD_BYTES,
                   "referral")
        fragments: List[Optional[PNode]] = []
        if parallel and len(referral.parts) > 1:
            outcomes: List[LegOutcome] = yield Fork([
                self.fetch_part(client, part, now)
                for part in referral.parts
            ])
            fragments.extend(outcome.value[0] for outcome in outcomes)
        else:
            for part in referral.parts:
                fragment, _store = yield from self.fetch_part(
                    client, part, now
                )
                fragments.append(fragment)
        merged = yield from self.merge_at(fragments, client)
        yield SpanClose()
        return QueryOutcome(merged)

    def chain(
        self,
        client: str,
        path: Path,
        context: RequestContext,
        now: float,
    ) -> Program[QueryOutcome]:
        """GUPster fetches and merges on the client's behalf; degrades
        gracefully (see ``QueryExecutor.chaining``)."""
        host = self.host
        server_node = host.server_node
        yield SpanOpen("query.chaining", {
            "path": str(path), "scope": context.cache_scope(),
            "client": client,
        })
        yield Send(client, server_node,
                   self._request_bytes(path, context),
                   "chained request")
        yield Compute(host.RESOLVE_COMPUTE_MS, "rewrite+policy+sign")
        referral = self._resolve_tracked(path, context, now)
        fragments, statuses = yield from self.fetch_parts_degradable(
            server_node, referral, now
        )
        failed = [s for s in statuses if not s.ok]
        if failed and not any(s.ok for s in statuses):
            raise PartialResultError(
                "every part of %s is unreachable" % path, statuses
            )
        if failed:
            yield Mark("degraded", len(failed))
            yield SpanSet("degraded_parts", len(failed))
        merged = yield from self.merge_at(fragments, server_node)
        response_bytes = (
            merged.byte_size() if merged is not None else 32
        ) + host.REQUEST_OVERHEAD_BYTES
        yield Send(server_node, client, response_bytes,
                   "merged result")
        yield SpanClose()
        return QueryOutcome(merged, statuses=statuses)

    def recruiting(
        self,
        client: str,
        path: Path,
        context: RequestContext,
        now: float,
    ) -> Program[QueryOutcome]:
        """GUPster migrates the query to a data store, which gathers
        the remaining parts and answers the client directly (see
        ``QueryExecutor.recruiting``)."""
        host = self.host
        server_node = host.server_node
        yield SpanOpen("query.recruiting", {
            "path": str(path), "scope": context.cache_scope(),
            "client": client,
        })
        yield Send(client, server_node,
                   self._request_bytes(path, context),
                   "recruited request")
        yield Compute(host.RESOLVE_COMPUTE_MS, "rewrite+policy+sign")
        referral = self._resolve_tracked(path, context, now)
        # Prefer a healthy recruit among the first part's choices.
        recruit = host.health.order(referral.parts[0].store_ids)[0]
        yield SpanSet("recruit", recruit)
        yield Send(server_node, recruit,
                   referral.byte_size() + host.REQUEST_OVERHEAD_BYTES,
                   "migrate query plan")
        fragments: List[Optional[PNode]] = []
        # The recruit serves its own part locally...
        host.verifier.verify(referral.parts[0].signed_query, now)
        yield Compute(
            host.VERIFY_COMPUTE_MS + host.STORE_QUERY_COMPUTE_MS,
            "local part at recruit",
        )
        if recruit in host.server.adapters:
            local = yield StoreGet(recruit, referral.parts[0].path)
            fragments.append(local)
        # ...and fetches the remaining parts from their stores.
        outcomes: List[LegOutcome] = yield Fork([
            self.fetch_part(recruit, part, now)
            for part in referral.parts[1:]
        ])
        fragments.extend(outcome.value[0] for outcome in outcomes)
        merged = yield from self.merge_at(fragments, recruit)
        response_bytes = (
            merged.byte_size() if merged is not None else 32
        ) + host.REQUEST_OVERHEAD_BYTES
        yield Send(recruit, client, response_bytes, "result to client")
        yield SpanClose()
        return QueryOutcome(merged)

    def direct(
        self,
        client: str,
        targets: Sequence[Tuple[str, Union[str, Path]]],
        now: float,
    ) -> Program[QueryOutcome]:
        """Pre-GUPster baseline: the client already knows the stores
        and paths — no meta-data lookup, no access control, no
        signatures (see ``QueryExecutor.direct``)."""
        yield SpanOpen("query.direct", {
            "client": client, "targets": len(targets),
        })
        fragments: List[Optional[PNode]] = []
        for store_id, raw_path in targets:
            part = ReferralPart(parse_path(raw_path), [store_id])
            fragment, _store = yield from self.fetch_part(
                client, part, now
            )
            fragments.append(fragment)
        merged = yield from self.merge_at(fragments, client)
        yield SpanClose()
        return QueryOutcome(merged)

    def cached(
        self,
        client: str,
        path: Path,
        context: RequestContext,
        now: float,
    ) -> Program[QueryOutcome]:
        """Chaining through GUPster's component cache, shield
        re-checked on every hit (see ``QueryExecutor.cached``)."""
        host = self.host
        server_node = host.server_node
        yield SpanOpen("query.cached", {
            "path": str(path), "scope": context.cache_scope(),
            "client": client,
        })
        yield Send(client, server_node,
                   self._request_bytes(path, context),
                   "cached request")
        yield Compute(host.CACHE_COMPUTE_MS, "cache probe")
        cached = host.server.cache_lookup(path, context, now)
        if cached is not None:
            yield SpanSet("cache", "hit")
            yield Send(
                server_node, client,
                cached.byte_size() + host.REQUEST_OVERHEAD_BYTES,
                "cache hit",
            )
            yield SpanClose()
            return QueryOutcome(cached, hit=True)
        yield SpanSet("cache", "miss")
        yield Compute(host.RESOLVE_COMPUTE_MS, "rewrite+policy+sign")
        referral = self._resolve_tracked(path, context, now)
        fragments, statuses = yield from self.fetch_parts_degradable(
            server_node, referral, now
        )
        failed = [s for s in statuses if not s.ok]
        if failed and not any(s.ok for s in statuses):
            stale = host.server.cache_stale_lookup(path, context, now)
            if stale is not None:
                yield SpanSet("cache", "stale_serve")
                yield Mark("stale_serve")
                yield Mark("degraded", len(failed))
                yield Send(
                    server_node, client,
                    stale.byte_size() + host.REQUEST_OVERHEAD_BYTES,
                    "stale cache serve",
                )
                yield SpanClose()
                return QueryOutcome(
                    stale, hit=True, stale=True, statuses=statuses
                )
            raise PartialResultError(
                "every part of %s is unreachable and no stale cache "
                "entry survives" % path,
                statuses,
            )
        if failed:
            yield Mark("degraded", len(failed))
            yield SpanSet("degraded_parts", len(failed))
        merged = yield from self.merge_at(fragments, server_node)
        if merged is not None and not failed:
            # Partial merges are never cached — a degraded answer
            # must not masquerade as the component once stores
            # recover.
            if host.server.cache_store(path, merged, context, now):
                yield Compute(host.CACHE_COMPUTE_MS, "cache fill")
        response_bytes = (
            merged.byte_size() if merged is not None else 32
        ) + host.REQUEST_OVERHEAD_BYTES
        yield Send(server_node, client, response_bytes,
                   "filled result")
        yield SpanClose()
        return QueryOutcome(merged, statuses=statuses)

    # -- batched execution (E19) --------------------------------------------

    def batch(
        self,
        client: str,
        requests: Sequence[Union[str, Path]],
        contexts: Sequence[RequestContext],
        now: float,
        use_cache: bool,
    ) -> Program[List[BatchItemResult]]:
        """Many queries as one batched round-trip pipeline (see
        ``QueryExecutor.execute_batch``): items run in waves, each
        wave's sub-fetches grouped into one round trip per endpoint."""
        host = self.host
        server_node = host.server_node
        count = len(requests)
        results: List[Optional[BatchItemResult]] = [None] * count
        paths: List[Optional[Path]] = [None] * count
        for index, request in enumerate(requests):
            try:
                paths[index] = parse_path(request)
            except ReproError as err:
                results[index] = BatchItemResult(request, error=err)
        yield SpanOpen("query.batch", {
            "items": count, "client": client, "cached": use_cache,
        })
        request_bytes = host.REQUEST_OVERHEAD_BYTES + sum(
            len(str(paths[i])) + contexts[i].byte_size()
            for i in range(count)
            if paths[i] is not None
        )
        yield Send(client, server_node, request_bytes,
                   "batched request (%d items)" % count)
        pending = [i for i in range(count) if results[i] is None]
        while pending:
            pending = yield from self._batch_wave(
                pending, paths, contexts, now, results, use_cache
            )
        final = [r for r in results if r is not None]
        degraded_items = sum(
            1 for r in final if r.ok and r.degraded_parts
        )
        if degraded_items:
            yield SpanSet("degraded_items", degraded_items)
        response_bytes = host.REQUEST_OVERHEAD_BYTES + sum(
            (r.fragment.byte_size() if r.fragment is not None else 32)
            for r in final
        )
        yield Send(server_node, client, response_bytes,
                   "batched response (%d items)" % count)
        yield SpanClose()
        return final

    def _batch_wave(
        self,
        item_ids: List[int],
        paths: Sequence[Optional[Path]],
        contexts: Sequence[RequestContext],
        now: float,
        results: List[Optional[BatchItemResult]],
        use_cache: bool,
    ) -> Program[List[int]]:
        """One batch *wave*: all items except within-batch duplicates.

        A duplicate (same path, same requester scope) is deferred to
        the next wave so it observes the earlier item's cache fill —
        exactly as its sequential expansion would. Returns the deferred
        item ids (always empty when *use_cache* is off: items are then
        independent)."""
        host = self.host
        active: List[int] = []
        deferred: List[int] = []
        seen_keys: set = set()
        for item in item_ids:
            if use_cache:
                key = (str(paths[item]), contexts[item].cache_scope())
                if key in seen_keys:
                    deferred.append(item)
                    continue
                seen_keys.add(key)
            active.append(item)
        # Phase 1 — per-item shield + referral work at the server, in
        # item order (provenance and counter order match sequential).
        referrals: Dict[int, Referral] = {}
        for item in active:
            path = paths[item]
            assert path is not None  # filtered by batch()
            context = contexts[item]
            if use_cache:
                yield Compute(host.CACHE_COMPUTE_MS, "cache probe")
                try:
                    cached = host.server.cache_lookup(path, context, now)
                except AccessDeniedError as err:
                    results[item] = BatchItemResult(path, error=err)
                    continue
                if cached is not None:
                    results[item] = BatchItemResult(
                        path, fragment=cached, hit=True
                    )
                    continue
            yield Compute(host.RESOLVE_COMPUTE_MS, "rewrite+policy+sign")
            try:
                referrals[item] = self._resolve_tracked(path, context, now)
            except ReproError as err:
                results[item] = BatchItemResult(path, error=err)
        # Phase 2 — grouped sub-fetch fan-out.
        jobs: List[_BatchJob] = []
        for item in active:
            referral = referrals.get(item)
            if referral is None:
                continue
            jobs.extend(
                _BatchJob(item, part_index, part)
                for part_index, part in enumerate(referral.parts)
            )
        yield from self._fetch_jobs_batched(host.server_node, jobs, now)
        # Phase 3 — per-item status/merge/cache, in item order.
        jobs_by_item: Dict[int, List[_BatchJob]] = {}
        for job in jobs:
            jobs_by_item.setdefault(job.item, []).append(job)
        for item in active:
            if item not in referrals:
                continue
            path = paths[item]
            assert path is not None
            results[item] = yield from self._finish_batch_item(
                path, contexts[item], jobs_by_item.get(item, []),
                now, use_cache,
            )
        return deferred

    def _fetch_jobs_batched(
        self,
        origin: str,
        jobs: List[_BatchJob],
        now: float,
    ) -> Program[None]:
        """Grouped equivalent of :meth:`fetch_part` over many parts at
        once.

        Each sweep, every pending job targets the first untried store
        in its health-ordered choice list; jobs sharing a target form
        one (endpoint, group) round trip — a single request hop
        carrying every signed sub-query and a single response hop
        carrying every fragment. A dead endpoint fails the whole group
        (they shared the round trip), each member fails over to its
        next choice, and the loop re-groups until the sweep is
        exhausted; the retry policy then waits a backoff and sweeps
        again. Health bookkeeping is per job, mirroring the sequential
        path's per-part feedback."""
        host = self.host
        policy = host.retry_policy
        for sweep in range(policy.max_attempts):
            pending = [job for job in jobs if job.store is None]
            if not pending:
                return
            if sweep:
                yield Sleep(
                    policy.backoff_ms(sweep),
                    "backoff before batch retry sweep %d" % (sweep + 1),
                )
                yield Mark("retry", len(pending))
            active: List[_BatchJob] = []
            for job in pending:
                job.candidates = [
                    store_id
                    for store_id in host.health.order(job.part.store_ids)
                    if store_id in host.server.adapters
                ]
                job.next_index = 0
                if job.candidates:
                    active.append(job)
            while active:
                groups: Dict[str, List[_BatchJob]] = {}
                for job in active:
                    groups.setdefault(
                        job.candidates[job.next_index], []
                    ).append(job)
                yield Fork([
                    self._fetch_group(origin, store_id, group, now)
                    for store_id, group in groups.items()
                ])
                # Survivors group by group — the order the next
                # regroup (and so the next fork's legs) depends on.
                active = [
                    job
                    for group in groups.values()
                    for job in group
                    if job.store is None
                    and job.next_index < len(job.candidates)
                ]

    def _fetch_group(
        self,
        origin: str,
        store_id: str,
        group: List[_BatchJob],
        now: float,
    ) -> Program[None]:
        """One (endpoint, group) round trip of a batched fan-out."""
        host = self.host
        query_bytes = host.REQUEST_OVERHEAD_BYTES + sum(
            job.part.signed_query.byte_size()
            if job.part.signed_query is not None
            else len(str(job.part.path))
            for job in group
        )
        try:
            yield SpanOpen("fetch.store.batch", {
                "store": store_id, "parts": len(group),
            })
            yield Send(origin, store_id, query_bytes,
                       "batched query (%d parts)" % len(group))
            fragments: List[Optional[PNode]] = []
            for job in group:
                if job.part.signed_query is not None:
                    host.verifier.verify(job.part.signed_query, now)
                    yield Compute(
                        host.VERIFY_COMPUTE_MS, "verify signature"
                    )
                yield Compute(
                    host.STORE_QUERY_COMPUTE_MS, "evaluate path"
                )
                fragment = yield StoreGet(store_id, job.part.path)
                if fragment is not None and host.annotator is not None:
                    host.annotator.annotate(fragment, store_id)
                fragments.append(fragment)
            response_bytes = host.REQUEST_OVERHEAD_BYTES + sum(
                fragment.byte_size() if fragment is not None else 32
                for fragment in fragments
            )
            yield Send(store_id, origin, response_bytes,
                       "batched fragments (%d parts)" % len(group))
            yield SpanSet("status", "ok")
            yield SpanClose()
        except TRANSIENT_ERRORS as err:
            yield SpanClose()
            # The round trip failed for everyone aboard: per-job
            # health feedback (mirroring the sequential path, where
            # each part would have observed the failure itself) and
            # failover to each job's next choice.
            for job in group:
                job.last_error = err
                host.health.failure(store_id)
                job.next_index += 1
                if job.next_index < len(job.candidates):
                    yield Mark("failover")
            return
        for job, fragment in zip(group, fragments):
            host.health.success(store_id)
            job.fragment = fragment
            job.store = store_id

    def _finish_batch_item(
        self,
        path: Path,
        context: RequestContext,
        item_jobs: List[_BatchJob],
        now: float,
        use_cache: bool,
    ) -> Program[BatchItemResult]:
        """Statuses, merge, degradation and cache fill for one batched
        item — the tail of :meth:`chain`/:meth:`cached`, item-wise."""
        host = self.host
        statuses: List[PartStatus] = []
        fragments: List[Optional[PNode]] = []
        for job in sorted(item_jobs, key=lambda j: j.part_index):
            if job.store is not None:
                fragments.append(job.fragment)
                statuses.append(
                    PartStatus(job.part.path, store=job.store)
                )
            else:
                error: Exception = (
                    job.last_error
                    if job.last_error is not None
                    else NoCoverageError(
                        "no adapter registered for any of %s"
                        % (job.part.store_ids,)
                    )
                )
                statuses.append(
                    PartStatus(job.part.path, ok=False, error=error)
                )
        yield PartReport(statuses)
        failed = [status for status in statuses if not status.ok]
        if failed and not any(status.ok for status in statuses):
            if use_cache:
                stale = host.server.cache_stale_lookup(path, context, now)
                if stale is not None:
                    yield Mark("stale_serve")
                    yield Mark("degraded_item", len(failed))
                    return BatchItemResult(
                        path, fragment=stale, hit=True, stale=True,
                        statuses=statuses,
                    )
                return BatchItemResult(
                    path,
                    statuses=statuses,
                    error=PartialResultError(
                        "every part of %s is unreachable and no stale "
                        "cache entry survives" % path,
                        statuses,
                    ),
                )
            return BatchItemResult(
                path,
                statuses=statuses,
                error=PartialResultError(
                    "every part of %s is unreachable" % path, statuses
                ),
            )
        if failed:
            yield Mark("degraded_item", len(failed))
        merged = yield from self.merge_at(fragments, host.server_node)
        if use_cache and merged is not None and not failed:
            if host.server.cache_store(path, merged, context, now):
                yield Compute(host.CACHE_COMPUTE_MS, "cache fill")
        return BatchItemResult(path, fragment=merged, statuses=statuses)

    # -- writes -------------------------------------------------------------

    def _provision_part(
        self,
        client: str,
        part: ReferralPart,
        document: PNode,
        now: float,
    ) -> Program[None]:
        """One store leg of the enter-once write fan-out."""
        host = self.host
        store_id = part.store_ids[0]
        component = part.path.steps[1].name
        sliced = extract(document, part.path.element_path())
        content = (
            sliced.child(component) if sliced is not None else None
        )
        if content is None:
            content = PNode(component)
        yield Send(client, store_id,
                   content.byte_size() + host.REQUEST_OVERHEAD_BYTES,
                   "write %s" % part.path)
        if part.signed_query is not None:
            host.verifier.verify(part.signed_query, now)
            yield Compute(host.VERIFY_COMPUTE_MS, "verify")
        yield StorePut(store_id, part.path.prefix(2), content)
        yield Send(store_id, client, 32, "ack")

    def provision(
        self,
        client: str,
        path: Path,
        fragment: PNode,
        context: RequestContext,
        now: float,
    ) -> Program[None]:
        """Enter-once write: resolve for update, then fan the fragment
        out to every store holding the component (see
        ``QueryExecutor.provision``)."""
        host = self.host
        server_node = host.server_node
        yield SpanOpen("query.provision", {
            "path": str(path), "scope": context.cache_scope(),
            "client": client,
        })
        yield Send(client, server_node,
                   self._request_bytes(path, context), "update resolve")
        yield Compute(host.RESOLVE_COMPUTE_MS, "rewrite+policy+sign")
        referral = host.server.resolve_for_update(path, context, now)
        if host.provenance is not None:
            stores = sorted(
                {s for part in referral.parts for s in part.store_ids}
            )
            host.provenance.record(
                now, context, path, stores, "update", granted=True
            )
        yield Send(server_node, client,
                   referral.byte_size() + host.REQUEST_OVERHEAD_BYTES,
                   "update referral")
        # Wrap the new component state in a user document so each
        # store can be handed exactly its slice (a store registered
        # for item[@type='corporate'] must not receive — nor lose —
        # the personal half).
        if fragment.tag == "user":
            document = fragment.copy()
        else:
            document = PNode("user", {"id": path.user_id() or ""})
            document.append(fragment.copy())
        yield Fork([
            self._provision_part(client, part, document, now)
            for part in referral.parts
        ])
        yield SpanClose()
        return None


def decision_of(outcome_or_error: object) -> Dict[str, object]:
    """Canonical (value, shield-decision) record for the equivalence
    gate: serializes a :class:`QueryOutcome` or an exception into a
    driver-independent comparable dict."""
    if isinstance(outcome_or_error, QueryOutcome):
        fragment = outcome_or_error.fragment
        return {
            "ok": True,
            "denied": False,
            "value": (
                fragment.serialize() if fragment is not None else None
            ),
            "hit": outcome_or_error.hit,
            "stale": outcome_or_error.stale,
            "degraded": [
                str(s.path)
                for s in outcome_or_error.statuses if not s.ok
            ],
        }
    assert isinstance(outcome_or_error, BaseException)
    return {
        "ok": False,
        "denied": isinstance(outcome_or_error, AccessDeniedError),
        "error": type(outcome_or_error).__name__,
        "value": None,
    }
