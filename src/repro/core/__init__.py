"""GUPster core: coverage map, referrals, signed queries, the server,
query-processing patterns, caching, subscriptions and MDM topologies."""

from repro.core.cache import ComponentCache
from repro.core.constellation import MirrorConstellation
from repro.core.coverage import CoverageMap, CoverageResolution
from repro.core.mdm import (
    CentralizedMdm,
    HierarchicalMdm,
    UserDistributedMdm,
)
from repro.core.query import QueryExecutor
from repro.core.referral import Referral, ReferralPart
from repro.core.resilience import (
    EndpointHealth,
    PartStatus,
    RetryPolicy,
)
from repro.core.server import GupsterServer
from repro.core.signing import QuerySigner, QueryVerifier, SignedQuery
from repro.core.provenance import (
    AccessRecord,
    ProvenanceTracker,
    SourceAnnotator,
)
from repro.core.subscription import Delivery, SubscriptionHub

__all__ = [
    "CoverageMap", "CoverageResolution",
    "Referral", "ReferralPart",
    "QuerySigner", "QueryVerifier", "SignedQuery",
    "ComponentCache",
    "GupsterServer",
    "QueryExecutor",
    "RetryPolicy", "EndpointHealth", "PartStatus",
    "CentralizedMdm", "UserDistributedMdm", "HierarchicalMdm",
    "SubscriptionHub", "Delivery",
    "ProvenanceTracker", "SourceAnnotator", "AccessRecord",
    "MirrorConstellation",
]
