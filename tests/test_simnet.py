"""Unit tests for the discrete-event engine and the network model."""

import pytest

from repro.errors import NodeUnreachableError
from repro.simnet import Network, Simulator


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 30

    def test_same_time_fires_in_schedule_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5, order.append, 1)
        sim.schedule(5, order.append, 2)
        sim.schedule(5, order.append, 3)
        sim.run()
        assert order == [1, 2, 3]

    def test_schedule_at(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(42.0, fired.append, True)
        sim.run()
        assert fired and sim.now == 42.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(10, fired.append, "x")
        timer.cancel()
        sim.run()
        assert fired == []

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "early")
        sim.schedule(100, fired.append, "late")
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50
        sim.run()
        assert fired == ["early", "late"]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        order = []

        def chain(n):
            order.append(n)
            if n < 3:
                sim.schedule(1, chain, n + 1)

        sim.schedule(0, chain, 1)
        sim.run()
        assert order == [1, 2, 3]

    def test_every_repeats_until(self):
        sim = Simulator()
        ticks = []
        sim.every(10, lambda: ticks.append(sim.now), until=35)
        sim.run()
        assert ticks == [10, 20, 30]

    def test_every_cancel_stops_recurrence(self):
        sim = Simulator()
        ticks = []
        timer = sim.every(10, lambda: ticks.append(sim.now))

        def stop():
            timer.cancel()

        sim.schedule(25, stop)
        sim.run(until=100)
        assert ticks == [10, 20]

    def test_every_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            Simulator().every(0, lambda: None)

    def test_pending_and_processed_counts(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0
        assert sim.processed == 2

    def test_every_never_fires_past_until(self):
        # Regression: interval > until - now used to fire one tick
        # PAST the bound.
        sim = Simulator()
        ticks = []
        sim.every(10, lambda: ticks.append(sim.now), until=5)
        sim.run()
        assert ticks == []
        assert sim.pending == 0

    def test_every_until_boundary_is_inclusive(self):
        sim = Simulator()
        ticks = []
        sim.every(10, lambda: ticks.append(sim.now), until=10)
        sim.run()
        assert ticks == [10]

    def test_every_until_guard_mid_run(self):
        # The recurrence started late must respect the bound too.
        sim = Simulator()
        ticks = []

        def start():
            sim.every(10, lambda: ticks.append(sim.now), until=45)

        sim.schedule(40, start)
        sim.run()
        assert ticks == []

    def test_cancelled_timers_are_compacted(self):
        # Regression: cancelled timers used to linger in the heap
        # until their fire time, and `pending` scanned the whole heap.
        sim = Simulator()
        timers = [sim.schedule(1000 + i, lambda: None)
                  for i in range(100)]
        survivor = sim.schedule(5, lambda: None)
        for timer in timers:
            timer.cancel()
        assert sim.compactions >= 1
        assert len(sim._heap) < 50  # the corpses are actually gone
        assert sim.pending == 1
        sim.run()
        assert sim.processed == 1
        assert not survivor.cancelled

    def test_compaction_preserves_firing_order(self):
        def run(cancel_some):
            sim = Simulator()
            order = []
            timers = []
            for i in range(40):
                timers.append(
                    sim.schedule(100 - i, order.append, 100 - i)
                )
            if cancel_some:
                for timer in timers[:30]:  # enough to force compaction
                    timer.cancel()
            sim.run()
            return order

        kept = run(cancel_some=False)
        compacted = run(cancel_some=True)
        # Survivors fire in exactly the order they would have anyway.
        assert compacted == [w for w in kept if w in set(compacted)]
        assert compacted == sorted(compacted)

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        timer = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        timer.cancel()
        timer.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.processed == 1


class TestNoReentry:
    """A callback that drives the loop it runs in fails at the call,
    and the simulator carries on from where the raise left it."""

    REENTRIES = {
        "step": lambda sim: sim.step(),
        "run": lambda sim: sim.run(),
        "run_until_now": lambda sim: sim.run(until=sim.now),
    }

    @pytest.mark.parametrize("name", sorted(REENTRIES))
    def test_reentry_raises_and_the_loop_stays_usable(self, name):
        sim = Simulator()
        fired = []
        sim.schedule(5, fired.append, 5)
        sim.schedule(10, self.REENTRIES[name], sim)
        sim.schedule(20, fired.append, 20)
        with pytest.raises(RuntimeError, match="not re-entrant"):
            sim.run()
        assert (sim.now, sim.processed, fired) == (10, 1, [5])
        assert sim.pending == 1
        sim.run()
        assert (sim.now, sim.processed, fired) == (20, 2, [5, 20])

    def test_reentry_from_a_recurrence_raises(self):
        sim = Simulator()
        sim.every(10, lambda: sim.run(until=sim.now), until=30)
        with pytest.raises(RuntimeError):
            sim.run()
        assert (sim.now, sim.processed) == (10, 0)

    def test_a_failing_callback_releases_the_guard(self):
        sim = Simulator()
        sim.schedule(1, lambda: 1 / 0)
        sim.schedule(2, lambda: None)
        sim.schedule(3, sim.step)
        with pytest.raises(ZeroDivisionError):
            sim.step()
        assert sim.step() is True
        with pytest.raises(RuntimeError):
            sim.step()
        assert (sim.now, sim.processed, sim.pending) == (3, 1, 0)


def small_network():
    net = Network(seed=7)
    net.add_node("gupster", region="core")
    net.add_node("yahoo", region="internet")
    net.add_node("phone", region="wireless")
    return net


class TestNetwork:
    def test_duplicate_node_rejected(self):
        net = small_network()
        with pytest.raises(ValueError):
            net.add_node("yahoo")

    def test_unknown_node_raises(self):
        net = small_network()
        with pytest.raises(NodeUnreachableError):
            net.trace().hop("gupster", "mystery", 10)

    def test_hop_adds_latency_and_bytes(self):
        net = small_network()
        trace = net.trace()
        trace.hop("gupster", "yahoo", 1000)
        assert trace.elapsed_ms > 0
        assert trace.bytes_total == 1000
        assert trace.hops == 1

    def test_deterministic_given_seed(self):
        def run():
            net = small_network()
            trace = net.trace()
            trace.hop("gupster", "yahoo", 500)
            trace.hop("yahoo", "phone", 500)
            return trace.elapsed_ms

        assert run() == run()

    def test_wireless_slower_than_core(self):
        net = small_network()
        net.add_node("hlr", region="core")
        fast = net.trace()
        fast.hop("gupster", "hlr", 100)
        slow = net.trace()
        slow.hop("gupster", "phone", 100)
        assert slow.elapsed_ms > fast.elapsed_ms

    def test_explicit_link_overrides_region(self):
        net = small_network()
        net.link("gupster", "yahoo", base_ms=0.5, jitter_ms=0.0)
        trace = net.trace()
        trace.hop("gupster", "yahoo", 0)
        assert trace.elapsed_ms < 2.0

    def test_bandwidth_charges_transfer_time(self):
        net = Network(seed=1)
        net.add_node("a")
        net.add_node("b")
        net.link("a", "b", base_ms=1.0, jitter_ms=0.0, bandwidth_bpms=10.0)
        small = net.trace()
        small.hop("a", "b", 10)
        large = net.trace()
        large.hop("a", "b", 10000)
        assert large.elapsed_ms - small.elapsed_ms == pytest.approx(
            (10000 - 10) / 10.0
        )

    def test_failed_node_charges_timeout_then_raises(self):
        net = small_network()
        net.fail("yahoo")
        trace = net.trace()
        with pytest.raises(NodeUnreachableError):
            trace.hop("gupster", "yahoo", 10)
        assert trace.elapsed_ms == net.detect_timeout_ms

    def test_restore_heals_node(self):
        net = small_network()
        net.fail("yahoo")
        net.restore("yahoo")
        trace = net.trace()
        trace.hop("gupster", "yahoo", 10)
        assert trace.hops == 1

    def test_round_trip_is_two_hops(self):
        net = small_network()
        trace = net.trace()
        trace.round_trip("gupster", "yahoo", 100, 900)
        assert trace.hops == 2
        assert trace.bytes_total == 1000

    def test_compute_adds_time_no_bytes(self):
        net = small_network()
        trace = net.trace()
        trace.compute(3.5, "rewrite")
        assert trace.elapsed_ms == 3.5
        assert trace.bytes_total == 0
        with pytest.raises(ValueError):
            trace.compute(-1)

    def test_fork_join_parallel_semantics(self):
        net = Network(seed=1)
        net.add_node("hub")
        for name, base in (("s1", 10.0), ("s2", 50.0)):
            net.add_node(name)
            net.link("hub", name, base_ms=base, jitter_ms=0.0)
        trace = net.trace()
        branches = []
        for name in ("s1", "s2"):
            branch = trace.fork()
            branch.round_trip("hub", name, 100, 100)
            branches.append(branch)
        trace.join(branches)
        # Elapsed is the slowest branch, not the sum.
        assert trace.elapsed_ms == max(b.elapsed_ms for b in branches)
        assert trace.bytes_total == 400
        assert trace.hops == 4

    def test_join_empty_is_noop(self):
        net = small_network()
        trace = net.trace()
        trace.join([])
        assert trace.elapsed_ms == 0

    def test_trace_log_records_hops(self):
        net = small_network()
        trace = net.trace()
        trace.hop("gupster", "yahoo", 42, note="referral")
        assert any("referral" in line for line in trace.log)

    def test_snapshot(self):
        net = small_network()
        trace = net.trace()
        trace.hop("gupster", "yahoo", 10)
        snap = trace.snapshot()
        assert snap["bytes"] == 10.0 and snap["hops"] == 1.0
