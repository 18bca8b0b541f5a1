"""The GUPster server (paper Sections 4.2–4.6, 5.3).

The server is the Napster of profile components: data stores register
what they share; client applications send (path, context) requests; the
server filters spurious queries against the GUP schema, enforces the
privacy shield, rewrites the request to the permitted slice, signs the
rewritten queries, and returns a **referral** — never data.

Optional query-processing variations (Section 5.2) live in
:mod:`repro.core.query` (chaining/recruiting) and are supported here by
exposing the adapter registry; caching is a plug-in
(:class:`~repro.core.cache.ComponentCache`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import (
    AccessDeniedError,
    GupsterError,
    NoCoverageError,
)
from repro.pxml import GUP_SCHEMA, Path, PNode, parse_path
from repro.pxml.merge import ConflictPolicy
from repro.pxml.schema import Schema
from repro.pxml.adjunct import SchemaAdjunct
from repro.access import (
    PolicyAdministrationPoint,
    PolicyEnforcementPoint,
    PolicyRepository,
    PolicyRule,
    RequestContext,
)
from repro.adapters.base import GupAdapter
from repro.core.cache import ComponentCache
from repro.core.coverage import CoverageMap
from repro.core.referral import Referral, ReferralPart
from repro.core.signing import QuerySigner
from repro.obs.metrics import CounterView, MetricsRegistry

__all__ = ["GupsterServer"]


class GupsterServer:
    """A (logically centralized) GUPster meta-data server."""

    resolves = CounterView("server.resolves")
    denials = CounterView("server.denials")
    spurious_rejected = CounterView("server.spurious_rejected")

    #: (metric, help) for every server counter.
    COUNTER_FIELDS = (
        ("server.resolves", "Referral resolutions attempted."),
        ("server.denials", "Requests denied by the privacy shield."),
        ("server.spurious_rejected",
         "Queries rejected by the GUP schema filter."),
    )

    def __init__(
        self,
        name: str = "gupster",
        schema: Schema = GUP_SCHEMA,
        signer: Optional[QuerySigner] = None,
        cache: Optional[ComponentCache] = None,
        enforce_policies: bool = True,
        adjunct: Optional[SchemaAdjunct] = None,
        coverage: Optional[CoverageMap] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        #: Optional :class:`~repro.pxml.adjunct.SchemaAdjunct` carrying
        #: per-region metadata (cache TTLs, reconciliation policies,
        #: sensitivity labels) — the re-ified meta-data of
        #: requirement 8 / Section 7.
        self.adjunct = adjunct
        #: Injectable for scale runs: E19 passes
        #: ``CoverageMap(track_changes=False)`` so millions of
        #: registrations do not accrete a replication changelog.
        self.coverage = coverage if coverage is not None else CoverageMap()
        self.signer = signer if signer is not None else QuerySigner()
        self.cache = cache
        self.enforce_policies = enforce_policies
        # Figure 10 roles, co-located in the basic architecture.
        self.policy_repository = PolicyRepository(name + ".prp")
        self.pap = PolicyAdministrationPoint(self.policy_repository)
        self.pep = PolicyEnforcementPoint(self.policy_repository)
        #: store id -> adapter (needed for chaining/recruiting and for
        #: registration convenience; referral clients talk to stores
        #: directly and never touch this).
        # gupcheck: bounded[store-topology] -- one adapter per joined store; leave() pops it
        self.adapters: Dict[str, GupAdapter] = {}
        # Counters (E2/E3 read these) — registry views since E18; a
        # private registry until :meth:`bind_registry` re-homes the
        # server onto a network's shared world registry.
        self.metrics = MetricsRegistry()
        self._register_instruments()

    def _register_instruments(self) -> None:
        for metric, help_text in self.COUNTER_FIELDS:
            self.metrics.counter(metric, help=help_text)

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Re-home the server's (and its cache's) instruments onto a
        shared registry, migrating current counts — called by
        :class:`~repro.core.query.QueryExecutor` when the server is
        wired to a network."""
        registry.adopt(
            self, (metric for metric, _help in self.COUNTER_FIELDS)
        )
        if self.cache is not None:
            self.cache.bind_registry(registry)

    # -- community management ---------------------------------------------------

    def join(
        self,
        adapter: GupAdapter,
        user_ids: Optional[List[str]] = None,
    ) -> int:
        """A GUP-enabled data store joins: register its components for
        the given users (default: every user it knows). Returns the
        number of component registrations made."""
        self.adapters[adapter.store_id] = adapter
        count = 0
        for user_id in user_ids if user_ids is not None else adapter.users():
            for path in adapter.coverage_paths(user_id):
                self.coverage.register(path, adapter.store_id)
                count += 1
        return count

    def leave(self, store_id: str) -> int:
        """A store leaves the community; drops its registrations."""
        self.adapters.pop(store_id, None)
        return self.coverage.unregister_store(store_id)

    def register_component(
        self, path: Union[str, Path], store_id: str
    ) -> None:
        """Manual registration (placement decided by the end user,
        Section 5.3 data placement (i))."""
        problem = self.schema.validate_path(path)
        if problem is not None:
            raise GupsterError("bad coverage path: %s" % problem)
        self.coverage.register(path, store_id)

    def unregister_component(
        self, path: Union[str, Path], store_id: str
    ) -> None:
        self.coverage.unregister(path, store_id)

    # -- policy provisioning (PAP facade) ------------------------------------------

    def provision_policy(
        self, acting_user: str, rule: PolicyRule
    ) -> PolicyRule:
        return self.pap.provision_rule(acting_user, rule)

    def revoke_policy(self, acting_user: str, rule_id: str) -> None:
        self.pap.revoke_rule(acting_user, rule_id)

    # -- the resolve operation (the Napster lookup) ---------------------------------

    def resolve(
        self,
        request: Union[str, Path],
        context: RequestContext,
        now: float = 0.0,
        merge_policy: ConflictPolicy = ConflictPolicy.PREFER_FIRST,
    ) -> Referral:
        """Answer a client request with a signed referral.

        Raises
        ------
        GupsterError
            for spurious queries that do not fit the GUP schema.
        AccessDeniedError
            when the privacy shield denies the request.
        NoCoverageError
            when no registered store holds the (permitted) component.
        """
        self.resolves += 1
        parsed = parse_path(request)
        problem = self.schema.validate_path(parsed)
        if problem is not None:
            self.spurious_rejected += 1
            raise GupsterError("spurious query: %s" % problem)

        if self.enforce_policies:
            decision = self.pep.enforce(parsed, context)
            if not decision.permit:
                self.denials += 1
                raise AccessDeniedError(
                    "privacy shield denies %s for %s: %s"
                    % (parsed, context.requester,
                       "; ".join(decision.reasons))
                )
            permitted = decision.permitted_paths
        else:
            permitted = [parsed]

        parts: List[ReferralPart] = []
        for permitted_path in permitted:
            resolution = self.coverage.resolve(permitted_path)
            if resolution.full:
                # One part; any full coverer is a || choice.
                choices: List[str] = []
                for _path, stores in resolution.full:
                    for store in stores:
                        if store not in choices:
                            choices.append(store)
                parts.append(
                    ReferralPart(
                        permitted_path,
                        choices,
                        self.signer.sign(
                            permitted_path, context.requester, now
                        ),
                    )
                )
            elif resolution.partial:
                for partial_path, stores in resolution.partial:
                    parts.append(
                        ReferralPart(
                            partial_path,
                            stores,
                            self.signer.sign(
                                partial_path, context.requester, now
                            ),
                        )
                    )
        if not parts:
            raise NoCoverageError(
                "no data store covers %s" % parsed
            )
        return Referral(parsed, parts, merge_policy)

    # -- write path (provisioning fan-in) ----------------------------------------

    def resolve_for_update(
        self,
        request: Union[str, Path],
        context: RequestContext,
        now: float = 0.0,
    ) -> Referral:
        """Referral for a *provisioning* operation.

        Unlike a read referral (where any full coverer is a ``||``
        choice), an update must reach **every** store holding any part
        of the component, or replicas diverge — so each overlapping
        registration becomes its own mandatory part. The caller's
        context purpose must be ``provision``."""
        if context.purpose != "provision":
            raise AccessDeniedError(
                "updates require a provisioning context"
            )
        self.resolves += 1
        parsed = parse_path(request)
        problem = self.schema.validate_path(parsed)
        if problem is not None:
            self.spurious_rejected += 1
            raise GupsterError("spurious query: %s" % problem)
        if self.enforce_policies:
            decision = self.pep.enforce(parsed, context)
            if not decision.permit:
                self.denials += 1
                raise AccessDeniedError(
                    "privacy shield denies update of %s for %s"
                    % (parsed, context.requester)
                )
        resolution = self.coverage.resolve(parsed)
        parts: List[ReferralPart] = []
        for coverage_path, stores in resolution.full + resolution.partial:
            # For a full coverer the store should receive the request
            # path (it owns a superset); for a partial one, its own
            # registered slice.
            target = (
                parsed
                if any(coverage_path == f[0] for f in resolution.full)
                else coverage_path
            )
            for store in stores:
                parts.append(
                    ReferralPart(
                        target,
                        [store],
                        self.signer.sign(target, context.requester, now),
                    )
                )
        if not parts:
            raise NoCoverageError("no data store covers %s" % parsed)
        if self.cache is not None:
            self.cache.invalidate(parsed)
        return Referral(parsed, parts)

    def find_single_source(
        self, requests: List[Union[str, Path]]
    ) -> Optional[str]:
        """A store that alone covers *every* requested path, if one
        exists (paper Section 7: "identify a single data source that
        holds all the data needed for a specific application").

        Returns the store id, preferring the store covering the most
        registrations (an arbitrary-but-stable tiebreak), or None when
        no single store suffices.
        """
        candidates: Optional[set] = None
        for request in requests:
            resolution = self.coverage.resolve(request)
            covering = {
                store
                for _path, stores in resolution.full
                for store in stores
            }
            if candidates is None:
                candidates = covering
            else:
                candidates &= covering
            if not candidates:
                return None
        if not candidates:
            return None
        return sorted(candidates)[0]

    def cache_ttl_for(self, path: Union[str, Path]) -> Optional[float]:
        """Effective cache TTL for a component, from the adjunct when
        present (None = use the cache default; 0.0 = never cache)."""
        if self.adjunct is None:
            return None
        value = self.adjunct.property_for(
            parse_path(path).element_path(), "cache-ttl-ms"
        )
        return float(value) if value is not None else None

    # -- privacy-safe cache facade (the shield stays in front) ---------------

    def _shield_cached(
        self, parsed: Path, context: RequestContext
    ) -> None:
        """Re-enforce the privacy shield for a cache answer. Keying by
        scope already partitions requesters; this catches policy
        changes and time-window rules inside an entry's lifetime."""
        if not self.enforce_policies:
            return
        decision = self.pep.enforce(parsed, context)
        if not decision.permit:
            self.denials += 1
            raise AccessDeniedError(
                "privacy shield denies cached %s for %s: %s"
                % (parsed, context.requester,
                   "; ".join(decision.reasons))
            )

    def cache_lookup(
        self,
        request: Union[str, Path],
        context: RequestContext,
        now: float,
    ) -> Optional[PNode]:
        """Fresh cache answer for *request* within the requester's
        privacy scope, shield re-checked; None on miss / no cache.

        Raises :class:`AccessDeniedError` when a (scoped) entry exists
        but the shield no longer permits the request — a denied
        requester must not learn anything, not even cache warmth."""
        if self.cache is None:
            return None
        parsed = parse_path(request)
        cached = self.cache.get(
            parsed, now, scope=context.cache_scope()
        )
        if cached is None:
            return None
        self._shield_cached(parsed, context)
        return cached

    def cache_stale_lookup(
        self,
        request: Union[str, Path],
        context: RequestContext,
        now: float,
    ) -> Optional[PNode]:
        """Serve-stale-on-failure: the last known (scoped) answer
        within the cache's stale grace, shield re-checked."""
        if self.cache is None:
            return None
        parsed = parse_path(request)
        stale = self.cache.get_stale(
            parsed, now, scope=context.cache_scope()
        )
        if stale is None:
            return None
        self._shield_cached(parsed, context)
        return stale

    def cache_store(
        self,
        request: Union[str, Path],
        fragment: PNode,
        context: RequestContext,
        now: float,
    ) -> bool:
        """Cache *fragment* (the merge of the requester's permitted
        slices) under the requester's scope, honouring per-component
        TTLs from the adjunct. Returns True when stored."""
        if self.cache is None:
            return False
        parsed = parse_path(request)
        scope = context.cache_scope()
        ttl = self.cache_ttl_for(parsed)
        if ttl is None:
            self.cache.put(parsed, fragment, now, scope=scope)
            return True
        if ttl > 0.0:
            self.cache.put(parsed, fragment, now, ttl_ms=ttl, scope=scope)
            return True
        # ttl == 0.0 (e.g. /user/wallet): never cached.
        return False

    # -- introspection ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "resolves": self.resolves,
            "denials": self.denials,
            "spurious_rejected": self.spurious_rejected,
            "registrations": self.coverage.registrations,
            "users": self.coverage.user_count(),
            "coverage_entries": self.coverage.entry_count(),
            "stores": len(self.coverage.stores()),
            "queries_signed": self.signer.signed,
        }
