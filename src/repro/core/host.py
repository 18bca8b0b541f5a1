"""The query host: cost constants and collaborator wiring, once.

Every :mod:`repro.sansio.engine` program reads its per-step costs and
its collaborators from a *host*. The serving layer constructs a
:class:`QueryHost` directly, :class:`~repro.core.query.QueryExecutor`
extends it with a simulated network, and the MDM/constellation cost
code reads the two constants it shares from the same table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.resilience import EndpointHealth, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.provenance import ProvenanceTracker, SourceAnnotator
    from repro.core.server import GupsterServer
    from repro.core.signing import QueryVerifier

__all__ = ["QueryHost"]


class QueryHost:
    """Collaborators and cost constants of the query programs.

    Costs are class attributes so ablations can turn them up or down,
    on the class or on one instance — programs read them at call time."""

    #: Fixed protocol overhead per message (headers, framing).
    REQUEST_OVERHEAD_BYTES = 80
    #: GUPster-side compute: schema filter + policy + rewrite + sign.
    RESOLVE_COMPUTE_MS = 0.3
    #: Store-side compute: signature + timestamp verification.
    VERIFY_COMPUTE_MS = 0.1
    #: Store-side compute: evaluate the path over the native store.
    STORE_QUERY_COMPUTE_MS = 0.2
    #: Merge cost per fragment at whichever node merges.
    MERGE_COMPUTE_MS_PER_PART = 0.2
    #: Cache probe/store cost at GUPster (the probe includes the
    #: shield re-check on hits — both are in-memory lookups).
    CACHE_COMPUTE_MS = 0.05

    def __init__(
        self,
        server: GupsterServer,
        server_node: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[EndpointHealth] = None,
        provenance: Optional[ProvenanceTracker] = None,
        annotator: Optional[SourceAnnotator] = None,
    ) -> None:
        self.server = server
        self.server_node = server_node or server.name
        self.verifier: QueryVerifier = server.signer.verifier()
        #: Retry/backoff behaviour for store fetches. The default does
        #: one backed-off re-sweep; :meth:`RetryPolicy.none` restores
        #: strict first-error-wins.
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        #: Per-store health: recent failures sink a store to the back
        #: of its ``||`` choice list.
        self.health = health if health is not None else EndpointHealth()
        #: Optional :class:`~repro.core.provenance.ProvenanceTracker`;
        #: when set, every resolve/fetch/update lands in the ledger.
        self.provenance = provenance
        #: Optional :class:`~repro.core.provenance.SourceAnnotator`;
        #: when set, fetched fragments are stamped with their origin
        #: store before merging.
        self.annotator = annotator
