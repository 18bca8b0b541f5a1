"""The mirrored GUPster constellation (paper Section 4.2).

"'Central repository' has to be understood from a logical point of
view and may be implemented as a constellation of connected servers
... a family of mirrored servers hosted by a consortium of enterprises
and freely available to all users."

Unlike :class:`~repro.core.mdm.CentralizedMdm` (whose mirrors share one
server object — an idealized always-consistent constellation), a
:class:`MirrorConstellation` gives every mirror its **own** server
state, replicated asynchronously from wherever a registration arrived.
That makes the consistency question real: between a registration and
the next replication round, some mirrors return stale referrals. The
constellation experiment (E14) measures that window against the
replication traffic.

Reliability (requirement 12) follows from any-mirror reads; writes go
to the mirror the registrant reached and propagate via the coverage
changelog feed.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import GupsterError, ResyncRequiredError
from repro.pxml import Path, parse_path
from repro.access import RequestContext
from repro.core.coverage import CoverageMap
from repro.core.mdm import BatchOutcome, Lookup, single
from repro.core.referral import Referral
from repro.core.resilience import RetryPolicy
from repro.core.server import GupsterServer
from repro.sansio.intents import Program, Send
from repro.simnet import Network
from repro.simnet import driver as simnet_driver  # a module: see repro/sansio/__init__.py
from repro.adapters.base import GupAdapter

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.simnet import Trace

__all__ = ["MirrorConstellation"]

ENTRY_BYTES = 96  # serialized coverage-change estimate


def _held(coverage: CoverageMap) -> List[Tuple[str, Path]]:
    """Every (store, path) registration in *coverage*, stably ordered."""
    return sorted(
        (
            (store_id, path)
            for user in coverage.users()
            for path in coverage.paths_for_user(user)
            for store_id in coverage.stores_for(path)
        ),
        key=lambda held: (held[0], str(held[1])),
    )


class MirrorConstellation:
    """A set of peer GUPster mirrors with asynchronous replication."""

    def __init__(
        self,
        network: Network,
        mirror_nodes: List[str],
        make_server: Optional[Callable[[str], GupsterServer]] = None,
    ) -> None:
        if len(mirror_nodes) < 1:
            raise ValueError("need at least one mirror")
        self.network = network
        self.mirror_nodes = list(mirror_nodes)
        factory = make_server or (
            lambda name: GupsterServer(name, enforce_policies=False)
        )
        self.servers: Dict[str, GupsterServer] = {
            node: factory(node) for node in mirror_nodes
        }
        #: (source, target) -> last revision target has seen of source.
        self._sync_marks: Dict[Tuple[str, str], int] = {}
        #: store id -> the mirror it registered through (its home).
        self._home: Dict[str, str] = {}
        self.replication_messages = 0
        self.replication_bytes = 0

    # -- membership -----------------------------------------------------------

    def server_at(self, node: str) -> GupsterServer:
        return self.servers[node]

    def join_store(self, adapter: GupAdapter, via: str) -> int:
        """A data store registers at one mirror (the nearest one); the
        registration spreads on the next replication round. All
        mirrors need the adapter handle for chaining-mode fetches."""
        count = self.servers[via].join(adapter)
        self._home[adapter.store_id] = via
        for node, server in self.servers.items():
            if node != via:
                server.adapters[adapter.store_id] = adapter
        return count

    def register_component(
        self, path: Union[str, Path], store_id: str, via: str
    ) -> None:
        self.servers[via].register_component(path, store_id)
        self._home[store_id] = via

    # -- replication ------------------------------------------------------------

    def replicate(self, trace: Optional[Trace] = None) -> int:
        """One gossip round: every mirror ships its news to every
        other. Returns the number of change entries applied; charges
        messages/bytes to *trace* when given."""
        round_ = self._gossip_round()
        if trace is not None:
            return simnet_driver.SimnetDriver({}).run(round_, trace)
        try:  # uncharged (E14's background gossip): skip the Sends
            while True:
                next(round_)
        except StopIteration as done:
            return done.value

    def _gossip_round(self) -> Program[int]:
        applied_total = 0
        for source in self.mirror_nodes:
            source_cov = self.servers[source].coverage
            for target in self.mirror_nodes:
                if source == target:
                    continue
                mark = self._sync_marks.get((source, target), 0)
                try:
                    changes = source_cov.changes_since(mark)
                    shipped = len(changes)
                except ResyncRequiredError:
                    changes, shipped = self._full_state(source, target)
                if changes:
                    payload = ENTRY_BYTES * shipped
                    yield Send(source, target, payload,
                               "replicate %d entries" % shipped)
                    self.replication_messages += 1
                    self.replication_bytes += payload
                    applied_total += self._apply_foreign(
                        target, changes
                    )
                self._sync_marks[(source, target)] = (
                    source_cov.revision
                )
        return applied_total

    def _full_state(
        self, source: str, target: str
    ) -> Tuple[List[Tuple[int, str, Path, str]], int]:
        """The resync fallback for a target behind the source's feed
        window: the source ships every registration it holds, and the
        transfer replaces the target's view of the stores whose home
        is the source — the target drops what the source no longer
        lists, even a store the source has forgotten entirely (its
        last unregister may be in the lost gap). Stores homed
        elsewhere are merged, never dropped. Returns (feed,
        registrations shipped)."""
        theirs = _held(self.servers[source].coverage)
        listed = set(theirs)
        feed = [
            (0, "register", path, store_id) for store_id, path in theirs
        ] + [
            (0, "unregister", path, store_id)
            for store_id, path in _held(self.servers[target].coverage)
            if self._home.get(store_id) == source
            and (store_id, path) not in listed
        ]
        return feed, len(theirs)

    def _apply_foreign(
        self, target: str,
        changes: Sequence[Tuple[int, str, Path, str]],
    ) -> int:
        """Apply a peer's feed. Peer revisions live in a different
        sequence, so entries are re-played through the target's own
        register/unregister (idempotent for registers)."""
        target_cov = self.servers[target].coverage
        applied = 0
        for _revision, op, path, store_id in changes:
            if op == "register":
                before = target_cov.registrations
                target_cov.register(path, store_id)
                if target_cov.registrations != before:
                    applied += 1
            else:
                try:
                    target_cov.unregister(path, store_id)
                    applied += 1
                except GupsterError:
                    pass  # never had it — nothing to undo
        return applied

    # -- reads ------------------------------------------------------------------

    def resolve(
        self, client: str, request: Union[str, Path],
        context: RequestContext, now: float = 0.0,
        prefer: Optional[str] = None,
    ) -> Tuple[Referral, Trace, str]:
        """One sweep of the :class:`~repro.core.mdm.CentralizedMdm`
        walk over per-mirror servers, *prefer* first and the rest in
        mirror order. Returns (referral, trace, mirror used)."""
        outcomes: List[BatchOutcome] = [(None, None)]
        items = [(0, parse_path(request), context)]
        lookup = Lookup(client, now, RetryPolicy.none(), None, outcomes)
        order = sorted(self.mirror_nodes, key=lambda node: node != prefer)
        trace = self.network.trace()
        answered = simnet_driver.SimnetDriver({}).run(lookup.with_retry(
            order, items, lambda node: lookup.round_trip(
                node, items, self.servers[node].resolve
            ),
        ), trace)
        return single((outcomes, trace)) + (answered[0],)

    # -- consistency measurement ---------------------------------------------------

    def consistent(self) -> bool:
        """Do all mirrors hold identical coverage right now?"""
        views = [
            _held(self.servers[node].coverage)
            for node in self.mirror_nodes
        ]
        return all(view == views[0] for view in views)

    def stale_mirrors(
        self, request: Union[str, Path]
    ) -> List[str]:
        """Mirrors that currently cannot answer *request* although
        some mirror can."""
        path = parse_path(request)
        havers = []
        lackers = []
        for node in self.mirror_nodes:
            if self.servers[node].coverage.resolve(path).is_covered:
                havers.append(node)
            else:
                lackers.append(node)
        return lackers if havers else []
