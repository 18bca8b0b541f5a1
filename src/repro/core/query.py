"""Distributed query-processing patterns (paper Section 5.2).

"Offering a larger variety of distributed query patterns like chaining,
referral, recruiting (where the request is actually migrated to a
different node) will be needed."

:class:`QueryExecutor` runs one request end-to-end over the simulated
network under each pattern, charging every hop and compute step to a
:class:`~repro.simnet.Trace` so experiment E1 can compare them:

* **referral** (the default) — GUPster returns a signed referral; the
  client fetches fragments directly from stores and merges locally.
* **chaining** — GUPster fetches from the stores itself, merges, and
  returns data (for "a client application with very limited
  capabilities (e.g., a cell phone)").
* **recruiting** — GUPster migrates the query to one data store, which
  gathers the other parts, merges, and replies to the client directly.
* **direct** — the pre-GUPster baseline: the client must already know
  where everything is and speaks to stores without access control.
* **cached** — chaining through GUPster's component cache (E7).

Each pattern's protocol logic is a :mod:`repro.sansio.engine` program,
driven here by :class:`~repro.simnet.driver.SimnetDriver`. Per-message
sizes come from real serialized fragment/referral sizes; per-step
compute costs are :class:`~repro.core.host.QueryHost` class attributes
so ablations can turn them up or down.

Failure awareness (requirement 13 / E16): every store fetch runs under
a :class:`~repro.core.resilience.RetryPolicy` — failover across the
referral's ``||`` choices, then backed-off re-sweeps — with
per-endpoint health feeding the choice order. The server-mediated
patterns (``chaining``/``cached``) degrade gracefully: parts whose
stores are all unreachable are reported in ``trace.part_status`` and
the *reachable* parts still merge into a partial answer; ``cached``
additionally serves a bounded-staleness cache entry when every store
is down. Only when nothing at all can be produced does the query raise
(:class:`~repro.errors.PartialResultError`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple, Union

from repro.pxml import PNode, Path, parse_path
from repro.access import RequestContext
from repro.core.host import QueryHost
from repro.core.resilience import EndpointHealth, RetryPolicy
from repro.core.server import GupsterServer
from repro.sansio import engine as sansio_engine  # a module: see repro/sansio/__init__.py
from repro.sansio.intents import Program
from repro.simnet import Network, Trace
from repro.simnet import driver as simnet_driver  # a module: see repro/sansio/__init__.py

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.provenance import ProvenanceTracker, SourceAnnotator

__all__ = ["QueryExecutor"]


class QueryExecutor(QueryHost):
    """Runs requests under the Section 5.2 query patterns.

    Every pattern method parses its request, builds the matching
    :class:`~repro.sansio.SansIoQueryEngine` program with this
    executor as the host, and drives it over the simulated network on
    a fresh :class:`~repro.simnet.Trace`."""

    def __init__(
        self,
        network: Network,
        server: GupsterServer,
        server_node: Optional[str] = None,
        provenance: Optional[ProvenanceTracker] = None,
        annotator: Optional[SourceAnnotator] = None,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[EndpointHealth] = None,
    ) -> None:
        super().__init__(
            server, server_node, retry_policy, health, provenance,
            annotator,
        )
        self.network = network
        self._engine = sansio_engine.SansIoQueryEngine(self)
        # Re-home every instrument onto the network's world registry so
        # one snapshot/export covers net.*, cache.*, health.* and
        # server.* (E18).
        self.health.bind_registry(network.metrics)
        server.bind_registry(network.metrics)

    def _run(self, program: Program) -> Tuple[Any, Trace]:
        """Drive *program* over the simulated network on a fresh
        trace; returns (the program's outcome, the trace)."""
        trace = self.network.trace()
        driver = simnet_driver.SimnetDriver(self.server.adapters)
        return driver.run(program, trace), trace

    # -- patterns ------------------------------------------------------------------

    def referral(
        self,
        client: str,
        request: Union[str, Path],
        context: RequestContext,
        now: float = 0.0,
        parallel: bool = True,
    ) -> Tuple[Optional[PNode], Trace]:
        """The default GUPster pattern: referral, then direct fetches.

        The client is assumed to want every part (it asked for the
        component): a part whose stores are all unreachable raises
        after retries/failovers, as before."""
        path = parse_path(request)
        outcome, trace = self._run(self._engine.referral(
            client, path, context, now, parallel
        ))
        return outcome.fragment, trace

    def chaining(
        self,
        client: str,
        request: Union[str, Path],
        context: RequestContext,
        now: float = 0.0,
    ) -> Tuple[Optional[PNode], Trace]:
        """GUPster fetches and merges on the client's behalf.

        Degrades gracefully: unreachable parts are dropped from the
        merge and reported in ``trace.part_status`` /
        ``trace.degraded_parts``. Raises
        :class:`~repro.errors.PartialResultError` only when *every*
        part failed."""
        path = parse_path(request)
        outcome, trace = self._run(self._engine.chain(
            client, path, context, now
        ))
        return outcome.fragment, trace

    def recruiting(
        self,
        client: str,
        request: Union[str, Path],
        context: RequestContext,
        now: float = 0.0,
    ) -> Tuple[Optional[PNode], Trace]:
        """GUPster migrates the query to a data store, which gathers the
        remaining parts and answers the client directly."""
        path = parse_path(request)
        outcome, trace = self._run(self._engine.recruiting(
            client, path, context, now
        ))
        return outcome.fragment, trace

    def direct(
        self,
        client: str,
        targets: List[Tuple[str, Union[str, Path]]],
        now: float = 0.0,
    ) -> Tuple[Optional[PNode], Trace]:
        """Pre-GUPster baseline: the client already knows the stores and
        paths (no meta-data lookup, no access control, no signatures)."""
        outcome, trace = self._run(self._engine.direct(
            client, targets, now
        ))
        return outcome.fragment, trace

    def cached(
        self,
        client: str,
        request: Union[str, Path],
        context: RequestContext,
        now: float = 0.0,
    ) -> Tuple[Optional[PNode], Trace, bool]:
        """Chaining through GUPster's component cache.

        Returns (fragment, trace, was_hit).

        The cache sits *behind* the privacy shield: entries are keyed
        by the requester's privacy scope and the shield is re-checked
        on every hit, so requester A's permitted slice can never leak
        to requester B (the pre-fix behaviour). On total store failure
        the server may serve the requester's own last-known entry
        within the cache's stale grace (``was_hit`` is True and the
        trace records a stale serve); partial failures degrade like
        ``chaining`` and are never written back to the cache."""
        if self.server.cache is None:
            raise ValueError("server has no cache configured")
        path = parse_path(request)
        outcome, trace = self._run(self._engine.cached(
            client, path, context, now
        ))
        return outcome.fragment, trace, outcome.hit

    # -- batched execution (E19) -------------------------------------------------

    def execute_batch(
        self,
        client: str,
        requests: Sequence[Union[str, Path]],
        contexts: Sequence[RequestContext],
        now: float = 0.0,
        use_cache: bool = False,
    ) -> Tuple[List[sansio_engine.BatchItemResult], Trace]:
        """Run many queries as one batched round-trip pipeline.

        Semantics are pinned by ``tests/test_batch_equivalence.py``:
        every item's *fragment*, *shield decision* and *degradation
        status* is identical to running the same queries sequentially
        through :meth:`chaining` (or :meth:`cached` when *use_cache*)
        at the same virtual ``now`` — only the cost model changes.
        Sub-fetches are grouped by target endpoint and each
        (endpoint, group) pays **one** simulated round trip whose
        transfer cost is the summed per-part payload plus a single
        protocol overhead; protocol compute (verify / evaluate /
        merge / shield) stays per item, because the server still does
        that work for each query in the frame.

        The privacy-shield invariant holds item-wise: every item is
        resolved (or cache-probed, shield re-checked) under **its own**
        context — a denied item yields a per-item
        :class:`~repro.errors.AccessDeniedError` in its result and
        never taints its batch-mates. Cache entries are read and
        written under each item's own requester scope. An unparsable
        request likewise fails only its own item.

        Equivalence under fault injection holds for deterministic
        impairments (``Network.fail``/``restore``); probabilistic loss
        draws per-hop samples from the seeded stream, and a batch
        issues *fewer* hops than its sequential expansion, so the two
        runs consume the stream differently by construction."""
        if len(requests) != len(contexts):
            raise ValueError(
                "got %d requests but %d contexts"
                % (len(requests), len(contexts))
            )
        if use_cache and self.server.cache is None:
            raise ValueError("server has no cache configured")
        return self._run(self._engine.batch(
            client, requests, contexts, now, use_cache
        ))

    # -- writes ----------------------------------------------------------------

    def provision(
        self,
        client: str,
        request: Union[str, Path],
        fragment: PNode,
        context: RequestContext,
        now: float = 0.0,
    ) -> Trace:
        """Enter-once write: resolve for update, then fan the fragment
        out to every store holding the component."""
        path = parse_path(request)
        _outcome, trace = self._run(self._engine.provision(
            client, path, fragment, context, now
        ))
        return trace
