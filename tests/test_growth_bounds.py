"""Runtime checks of the caps on long-lived containers.

Each capped container — the recording listener's record window, the
span recorder's retention cap, the provenance ledger window, the
coverage replication-log window, the subscription hub's delivery list
and poller state, the ``parse_path`` memo's clear-when-full cap and
the synthetic adapter's export memo — gets a test that fills past the
bound and asserts the container stays capped (and that the truncation
is *accounted*, never silent). The span recorder's eviction is also
priced: element visits per ``start()`` are counted, not timed.

These pin each cap alone; ``tests/test_soak.py`` checks that nothing
in a served world grows with traffic.
"""

import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.access import RequestContext
from repro.bus.listeners import RecordingListener
from repro.bus.log import ChangeRecord
from repro.core import GupsterServer, SubscriptionHub
from repro.core.coverage import CoverageError, CoverageMap
from repro.core.provenance import ProvenanceTracker
from repro.core.subscription import Delivery
from repro.obs.spans import SpanRecorder
from repro.pxml import PNode
from repro.pxml.path import (
    _PARSE_CACHE, _PARSE_CACHE_MAX, parse_path,
)
from repro.serve.app import SERVE_MAX_SPANS, ServeWorld
from repro.workloads import SyntheticAdapter, build_converged_world
from repro.workloads.synthetic import EXPORT_MEMO_USERS


def records(n, start=1):
    return [
        ChangeRecord(
            start + i, float(start + i),
            "/user[@id='u%d']/im" % (start + i), "v%d" % (start + i),
            "u%d" % (start + i), "main",
        )
        for i in range(n)
    ]


class TestRecordingListenerWindow:
    def test_sustained_load_stays_at_the_cap(self):
        listener = RecordingListener("tap", max_records=8)
        for wave in range(5):
            listener.deliver(records(4, start=1 + wave * 4), float(wave))
        assert len(listener.received) == 8
        assert len(listener.delivered_at) == 8
        assert listener.dropped == 12
        # The window keeps the *newest* records, in arrival order.
        assert [r.seq for r in listener.received] == list(
            range(13, 21)
        )

    def test_lists_stay_in_lockstep(self):
        listener = RecordingListener("tap", max_records=3)
        listener.deliver(records(5), 7.0)
        assert len(listener.received) == len(listener.delivered_at)
        assert listener.delivered_at == [7.0, 7.0, 7.0]

    def test_under_the_cap_nothing_is_dropped(self):
        listener = RecordingListener("tap")
        listener.deliver(records(10), 1.0)
        assert len(listener.received) == 10
        assert listener.dropped == 0

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            RecordingListener("tap", max_records=0)


class TestSpanRecorderRetention:
    def test_finished_spans_evict_oldest_first(self):
        recorder = SpanRecorder(max_spans=4)
        for i in range(10):
            recorder.leaf("hop%d" % i, float(i), float(i) + 0.5)
        assert len(recorder.spans) == 4
        assert recorder.dropped == 6
        assert [s.name for s in recorder.spans] == [
            "hop6", "hop7", "hop8", "hop9",
        ]

    def test_open_spans_are_never_evicted(self):
        recorder = SpanRecorder(max_spans=3)
        root = recorder.start("query", 0.0)
        for i in range(8):
            recorder.leaf(
                "hop%d" % i, float(i), float(i) + 0.5,
                parent_id=root.span_id,
            )
        assert root in recorder.spans
        assert root in recorder.open_spans()
        # The cap holds overall: the open root plus the newest leaves.
        assert len(recorder.spans) == 3

    def test_all_open_spans_may_exceed_the_cap(self):
        # Eviction never drops an open span, even over the cap —
        # `with` blocks and the simnet driver's refusal of a program
        # that returns with a span open make them finish in bounded
        # time.
        recorder = SpanRecorder(max_spans=2)
        spans = [recorder.start("s%d" % i, float(i)) for i in range(5)]
        assert len(recorder.spans) == 5
        assert recorder.dropped == 0
        for i, span in enumerate(spans):
            recorder.finish(span, 10.0 + i)

    def test_default_cap_is_finite(self):
        recorder = SpanRecorder()
        assert recorder.max_spans > 0
        assert math.isfinite(recorder.max_spans)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(max_spans=0)


class CountingDeque(deque):
    """Counts every element the recorder reads, by index or by
    iteration — the price of an eviction, independent of the host."""

    visits = 0

    def __getitem__(self, index):
        self.visits += 1
        return super().__getitem__(index)

    def __iter__(self):
        for item in super().__iter__():
            self.visits += 1
            yield item


def visits_per_call(recorder, calls, record):
    """Swap a counting deque in, call ``record(at_ms)`` *calls* times,
    return the distinct per-call visit counts. The recorder must keep
    the very deque it was given: a rebuild is a different object."""
    counted = recorder.spans = CountingDeque(recorder.spans)
    seen = set()
    for i in range(calls):
        before = counted.visits
        record(float(i))
        seen.add(counted.visits - before)
    assert recorder.spans is counted
    return seen


class TestSpanRecorderEvictionCost:
    @pytest.mark.parametrize("cap", [1_000, 100_000])
    def test_start_at_the_cap_does_not_depend_on_the_cap(self, cap):
        recorder = SpanRecorder(max_spans=cap)
        while len(recorder) < recorder.max_spans:
            recorder.leaf("fill", 0.0, 0.0)
        seen = visits_per_call(
            recorder, 10_000,
            lambda at: recorder.finish(
                recorder.start("req", at), at + 0.5
            ),
        )
        assert seen == {1}  # the finished head, nothing behind it
        assert len(recorder) == cap
        assert recorder.dropped == 10_000

    def test_open_head_costs_the_open_prefix_not_the_recorder(self):
        recorder = SpanRecorder(max_spans=100)
        root = recorder.start("query", 0.0)
        seen = visits_per_call(
            recorder, 10_000,
            lambda at: recorder.leaf(
                "hop", at, at + 0.5, parent_id=root.span_id
            ),
        )
        assert max(seen) <= 1 + 1  # the open prefix, plus the victim
        assert recorder.spans[0] is root
        assert root in recorder.open_spans()
        assert len(recorder) == 100
        assert recorder.dropped == 10_001 - 100


class RebuildingRecorder(SpanRecorder):
    """The oracle: the list-rebuilding eviction this recorder shipped
    with before the deque, kept verbatim."""

    __slots__ = ()

    def _evict(self):
        overflow = len(self.spans) - self.max_spans
        doomed = set()
        for span in self.spans:
            if len(doomed) >= overflow:
                break
            if span.finished:
                doomed.add(span.span_id)
        if not doomed:
            return
        self.spans = [
            s for s in self.spans if s.span_id not in doomed
        ]
        self.dropped += len(doomed)


class TestSpanRecorderMatchesTheRebuildingOracle:
    @given(
        cap=st.integers(min_value=1, max_value=6),
        ops=st.lists(
            st.one_of(
                st.just(("start", 0)),
                st.just(("leaf", 0)),
                st.tuples(st.just("finish"), st.integers(0, 7)),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=300)
    def test_same_survivors_same_order_same_dropped(self, cap, ops):
        recorders = (SpanRecorder(cap), RebuildingRecorder(cap))
        open_spans = ([], [])
        for step, (op, pick) in enumerate(ops):
            at = float(step)
            for recorder, opened in zip(recorders, open_spans):
                if op == "start":
                    opened.append(recorder.start("s", at))
                elif op == "leaf":
                    recorder.leaf("l", at, at)
                elif opened:
                    recorder.finish(
                        opened.pop(pick % len(opened)), at
                    )
            ours, oracle = recorders
            assert [s.span_id for s in ours] == [
                s.span_id for s in oracle
            ]
            assert ours.dropped == oracle.dropped


class TestServeRecorderBudget:
    def test_default_recorder_is_sized_for_a_server(self):
        assert ServeWorld(
            GupsterServer("gupster")
        ).recorder.max_spans == SERVE_MAX_SPANS
        mine = SpanRecorder(max_spans=7)
        assert ServeWorld(
            GupsterServer("gupster"), recorder=mine
        ).recorder is mine


def synthetic_store(n_users, memoize_exports=True):
    adapter = SyntheticAdapter(
        "gup.x", book_entries=4, memoize_exports=memoize_exports
    )
    users = ["u%03d" % i for i in range(n_users)]
    for user in users:
        adapter.add_user(user, ["address-book", "presence"])
    return adapter, users


class TestExportMemoBound:
    def test_cap_holds_and_the_hot_user_survives(self):
        memo, users = synthetic_store(EXPORT_MEMO_USERS * 3)
        hot = users[0]
        tree = memo.export_user(hot)
        for user in users[1:]:
            memo.export_user(user)
            assert memo.export_user(hot) is tree
            assert len(memo._export_cache) <= EXPORT_MEMO_USERS
        assert len(memo._export_cache) == EXPORT_MEMO_USERS
        # Least recently exported went first; the newest are held.
        assert users[1] not in memo._export_cache
        assert users[-1] in memo._export_cache

    def test_a_write_drops_the_entry(self):
        memo, users = synthetic_store(3)
        hot = users[0]
        stale = memo.export_user(hot)
        fragment = PNode("presence")
        fragment.append(PNode("status", text="written"))
        memo.apply_component(hot, "presence", fragment)
        assert hot not in memo._export_cache
        fresh = memo.export_user(hot)
        assert fresh is not stale
        assert "written" in fresh.serialize()
        memo.remove_user(hot)
        assert hot not in memo._export_cache

    def test_exports_equal_the_unmemoized_adapter(self):
        memo, users = synthetic_store(EXPORT_MEMO_USERS * 2)
        plain, _users = synthetic_store(
            EXPORT_MEMO_USERS * 2, memoize_exports=False
        )
        # There and back: the way back starts on hits and ends on
        # re-builds of users the way there evicted.
        for user in users + users[::-1]:
            assert memo.export_user(user).serialize() == (
                plain.export_user(user).serialize()
            )


class TestProvenanceLedgerWindow:
    def _fill(self, tracker, n):
        for i in range(n):
            tracker.record(
                float(i),
                RequestContext("app%d" % i, purpose="query"),
                "/user[@id='arnaud']/im", ["store-im"],
            )

    def test_window_holds_and_truncation_is_accounted(self):
        tracker = ProvenanceTracker(max_records=5)
        self._fill(tracker, 12)
        assert len(tracker) == 5
        assert tracker.dropped == 7

    def test_audit_still_works_over_the_window(self):
        tracker = ProvenanceTracker(max_records=5)
        self._fill(tracker, 12)
        disclosures = tracker.disclosures_for("arnaud")
        assert [r.requester for r in disclosures] == [
            "app7", "app8", "app9", "app10", "app11",
        ]

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            ProvenanceTracker(max_records=0)


class TestCoverageChangelogWindow:
    def test_log_stays_at_the_cap(self):
        coverage = CoverageMap(max_changelog=8)
        for i in range(20):
            coverage.register(
                "/user[@id='u%d']/im" % i, "store-im"
            )
        assert len(coverage._changelog) == 8
        assert coverage.revision == 20

    def test_fallen_behind_mirror_fails_loudly(self):
        coverage = CoverageMap(max_changelog=8)
        for i in range(20):
            coverage.register(
                "/user[@id='u%d']/im" % i, "store-im"
            )
        with pytest.raises(CoverageError, match="full resync"):
            coverage.changes_since(0)

    def test_mirror_inside_the_window_replicates(self):
        coverage = CoverageMap(max_changelog=8)
        for i in range(20):
            coverage.register(
                "/user[@id='u%d']/im" % i, "store-im"
            )
        feed = coverage.changes_since(15)
        assert [c[0] for c in feed] == [16, 17, 18, 19, 20]
        mirror = CoverageMap()
        mirror.revision = 15
        assert mirror.apply_changes(feed) == 5
        assert mirror.revision == 20

    def test_within_window_history_is_complete(self):
        coverage = CoverageMap(max_changelog=100)
        for i in range(20):
            coverage.register(
                "/user[@id='u%d']/im" % i, "store-im"
            )
        assert len(coverage.changes_since(0)) == 20


class TestSubscriptionHubBounds:
    def test_delivery_list_stays_at_the_cap(self):
        world = build_converged_world()
        hub = SubscriptionHub(
            world.sim, world.network, world.server, world.executor,
            max_deliveries=3,
        )
        for i in range(9):
            hub._record_delivery(
                Delivery("poll", "v%d" % i, None, float(i))
            )
        assert len(hub.deliveries) == 3
        assert hub.dropped_deliveries == 6
        assert [d.value for d in hub.deliveries] == [
            "v6", "v7", "v8",
        ]

    def test_poll_state_is_swept_after_until(self):
        world = build_converged_world()
        hub = SubscriptionHub(
            world.sim, world.network, world.server, world.executor
        )
        hub.start_polling(
            "client-app", "/user[@id='arnaud']/presence",
            "/user/presence/status",
            RequestContext("mom", relationship="family",
                           purpose="query"),
            interval_ms=1000, until=5_000,
        )
        world.sim.run(until=4_000)
        assert len(hub._poll_state) == 1
        world.sim.run(until=10_000)
        assert hub._poll_state == {}

    def test_denied_poller_state_is_dropped_immediately(self):
        world = build_converged_world()
        hub = SubscriptionHub(
            world.sim, world.network, world.server, world.executor
        )
        hub.start_polling(
            "client-app", "/user[@id='arnaud']/presence",
            "/user/presence/status",
            RequestContext("telemarketer"),
            interval_ms=1000, until=50_000,
        )
        assert len(hub._poll_state) == 1
        world.sim.run(until=2_000)
        assert hub._poll_state == {}


class TestParsePathMemo:
    def test_memo_clears_when_full(self):
        parse_path("/user[@id='warm']/im")  # ensure non-empty
        _PARSE_CACHE.clear()
        for i in range(_PARSE_CACHE_MAX):
            parse_path("/user[@id='u%d']/im" % i)
        assert len(_PARSE_CACHE) == _PARSE_CACHE_MAX
        # The next *distinct* parse crosses the cap: clear-when-full.
        parse_path("/user[@id='overflow']/im")
        assert len(_PARSE_CACHE) == 1
        # And it keeps serving parses correctly afterwards.
        parsed = parse_path("/user[@id='u1']/im")
        assert parsed.user_id() == "u1"
        assert len(_PARSE_CACHE) == 2

    def test_memo_never_exceeds_the_cap_under_churn(self):
        _PARSE_CACHE.clear()
        for i in range(_PARSE_CACHE_MAX * 2 + 17):
            parse_path("/user[@id='churn%d']/a" % i)
            assert len(_PARSE_CACHE) <= _PARSE_CACHE_MAX
