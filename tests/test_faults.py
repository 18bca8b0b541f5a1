"""Tests for the fault-injection layer (simnet.faults + network
impairments), and the pins that keep it the only fault model."""

import ast
import asyncio
import inspect
import pathlib

import pytest

from repro.errors import NodeUnreachableError, PacketLossError
from repro.sansio import Send
from repro.serve import ServeWorld, WallTransport, build_demo_world
from repro.simnet import FaultSchedule, FaultState, Network, Simulator

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def topology(seed=11):
    net = Network(seed=seed)
    net.add_node("gupster", region="core")
    net.add_node("store", region="internet")
    net.add_node("other", region="internet")
    return net


class TestNetworkImpairments:
    def test_loss_rate_validation(self):
        net = topology()
        with pytest.raises(ValueError):
            net.set_loss("gupster", "store", 1.5)

    def test_certain_loss_drops_and_charges_timeout(self):
        net = topology()
        net.set_loss("gupster", "store", 1.0)
        trace = net.trace()
        with pytest.raises(PacketLossError):
            trace.hop("gupster", "store", 100)
        assert trace.elapsed_ms == net.detect_timeout_ms
        assert trace.timeouts_charged == 1
        assert net.counters.loss_drops == 1
        assert net.counters.timeouts == 1

    def test_loss_is_symmetric_and_clearable(self):
        net = topology()
        net.set_loss("gupster", "store", 1.0)
        with pytest.raises(PacketLossError):
            net.trace().hop("store", "gupster", 10)
        net.clear_loss("gupster", "store")
        trace = net.trace()
        trace.hop("gupster", "store", 10)
        assert trace.hops == 1

    def test_forced_drops_consume_exactly_count(self):
        net = topology()
        net.force_drops("gupster", "store", count=2)
        for _ in range(2):
            with pytest.raises(PacketLossError):
                net.trace().hop("gupster", "store", 10)
        trace = net.trace()
        trace.hop("gupster", "store", 10)  # third one goes through
        assert trace.hops == 1

    def test_latency_factor_multiplies_hops(self):
        reference = topology(seed=3)
        spiked = topology(seed=3)
        spiked.set_latency_factor("store", 3.0)
        base = reference.sample_hop("gupster", "store", 1000)
        slow = spiked.sample_hop("gupster", "store", 1000)
        processing = spiked.node("store").processing_ms
        assert slow - processing == pytest.approx(
            (base - processing) * 3.0
        )
        spiked.clear_latency_factor("store")
        # Same RNG position ⇒ next draws comparable again.
        assert spiked.sample_hop("gupster", "store", 1000) == (
            reference.sample_hop("gupster", "store", 1000)
        )

    def test_loss_on_one_link_does_not_perturb_jitter(self):
        """The loss RNG is separate: injecting loss on link A must not
        change the latencies sampled on link B (the no-fault cost model
        is preserved wherever faults are not injected)."""
        clean = topology(seed=9)
        stream_clean = [
            clean.sample_hop("gupster", "store", 100) for _ in range(5)
        ]
        # Loss armed on an unrelated link: identical stream.
        armed = topology(seed=9)
        armed.set_loss("gupster", "other", 0.5)
        stream_armed = [
            armed.sample_hop("gupster", "store", 100) for _ in range(5)
        ]
        assert stream_armed == stream_clean
        # Loss exercised on the unrelated link: the surviving hops on
        # it draw jitter (as any hop does), but the loss *decisions*
        # come from the dedicated RNG — so a loss-heavy link still
        # leaves an untouched link's future identical to a network
        # that hopped the same messages without loss configured.
        exercised = topology(seed=9)
        exercised.set_loss("gupster", "other", 0.0)  # no-op arm
        assert [
            exercised.sample_hop("gupster", "store", 100)
            for _ in range(5)
        ] == stream_clean

    def test_counters_reset(self):
        net = topology()
        net.fail("store")
        with pytest.raises(NodeUnreachableError):
            net.trace().hop("gupster", "store", 10)
        assert net.counters.timeouts == 1
        net.reset_counters()
        assert net.counters.total() == 0


class TestFaultSchedule:
    def test_flap_drives_node_state_through_virtual_time(self):
        net = topology()
        sim = Simulator()
        sched = FaultSchedule(sim, net)
        sched.flap("store", down_at=100.0, up_at=200.0)
        observed = []

        def probe():
            observed.append((sim.now, net.is_failed("store")))

        for when in (50.0, 150.0, 250.0):
            sim.schedule(when, probe)
        sim.run()
        assert observed == [
            (50.0, False), (150.0, True), (250.0, False),
        ]
        assert sched.applied() == 2
        assert [d for _t, d in sched.events] == [
            "down store", "up store",
        ]

    def test_flap_must_recover_after_failing(self):
        sched = FaultSchedule(Simulator(), topology())
        with pytest.raises(ValueError):
            sched.flap("store", down_at=10.0, up_at=10.0)

    def test_flap_every_is_bounded_and_validated(self):
        net = topology()
        sim = Simulator()
        sched = FaultSchedule(sim, net)
        cycles = sched.flap_every(
            "store", period=100.0, downtime=20.0, until=350.0
        )
        assert cycles == 3
        sim.run()
        assert sched.applied() == 6  # three down/up pairs
        assert not net.is_failed("store")
        with pytest.raises(ValueError):
            sched.flap_every("store", period=10.0, downtime=10.0)

    def test_random_flaps_deterministic_given_seed(self):
        def run():
            net = topology()
            sim = Simulator()
            sched = FaultSchedule(sim, net, seed=42)
            sched.random_flaps(
                ["store", "other"], mean_up_ms=500.0, down_ms=100.0,
                until=5_000.0,
            )
            sim.run()
            return sched.events

        first, second = run(), run()
        assert first == second
        assert len(first) > 0

    def test_link_loss_window(self):
        net = topology()
        sim = Simulator()
        sched = FaultSchedule(sim, net)
        sched.link_loss(
            "gupster", "store", rate=1.0, start=100.0, end=200.0
        )
        results = []

        def probe():
            try:
                net.trace().hop("gupster", "store", 10)
                results.append("ok")
            except PacketLossError:
                results.append("lost")

        for when in (50.0, 150.0, 250.0):
            sim.schedule(when, probe)
        sim.run()
        assert results == ["ok", "lost", "ok"]

    def test_drop_next_fires_at_time(self):
        net = topology()
        sim = Simulator()
        sched = FaultSchedule(sim, net)
        sched.drop_next("gupster", "store", count=1, at=100.0)
        sim.run()
        with pytest.raises(PacketLossError):
            net.trace().hop("gupster", "store", 10)
        trace = net.trace()
        trace.hop("gupster", "store", 10)
        assert trace.hops == 1

    def test_latency_spike_window(self):
        net = topology(seed=5)
        reference = topology(seed=5)
        sim = Simulator()
        sched = FaultSchedule(sim, net)
        sched.latency_spike("store", 4.0, start=0.0, end=100.0)
        sim.run(until=50.0)
        spiked = net.sample_hop("gupster", "store", 100)
        normal = reference.sample_hop("gupster", "store", 100)
        assert spiked > normal
        sim.run()
        assert net.sample_hop("gupster", "store", 100) == (
            reference.sample_hop("gupster", "store", 100)
        )
        with pytest.raises(ValueError):
            sched.latency_spike("store", 0.5)

    def test_schedule_in_the_past_fires_immediately(self):
        net = topology()
        sim = Simulator()
        sim.now = 500.0
        sched = FaultSchedule(sim, net)
        sched.down("store", at=100.0)  # already in the past
        sim.run()
        assert net.is_failed("store")


# ---------------------------------------------------------------------------
# one fault model, two drivers
# ---------------------------------------------------------------------------

def sim_driver():
    """(fault state, send) on the virtual-time side."""
    net = topology()
    return net, lambda src, dst: net.trace().hop(src, dst, 10)


def wall_send(transport):
    def send(src, dst):
        def program():
            yield Send(src, dst, 10, "probe")
        asyncio.run(transport.run(program()))

    return send


def wall_driver():
    """(fault state, send) on the asyncio side."""
    faults = FaultState()
    return faults, wall_send(WallTransport({}, faults=faults))


@pytest.mark.parametrize("driver", [sim_driver, wall_driver])
def test_both_drivers_decide_in_the_same_order(driver):
    """Source down wins over target down wins over a drop, and a send
    that never reaches the link leaves the drop budget alone."""
    faults, send = driver()
    faults.fail("gupster")
    faults.fail("store")
    faults.force_drops("gupster", "store", 1)
    with pytest.raises(NodeUnreachableError, match="source 'gupster'"):
        send("gupster", "store")
    faults.restore("gupster")
    with pytest.raises(NodeUnreachableError, match="node 'store'"):
        send("gupster", "store")
    faults.restore("store")
    with pytest.raises(PacketLossError):  # the budget is still whole
        send("gupster", "store")
    send("gupster", "store")


def test_wall_driver_honours_link_loss():
    faults = FaultState()
    transport = WallTransport({}, faults=faults)
    send = wall_send(transport)
    faults.set_loss("gupster", "store", 1.0)
    with pytest.raises(PacketLossError):
        send("store", "gupster")
    failures = transport.metrics.counter("serve.send_failures")
    assert failures.value == 1
    faults.clear_loss("gupster", "store")
    send("store", "gupster")
    assert failures.value == 1


def test_the_wall_driver_has_no_latency_knobs():
    assert list(inspect.signature(WallTransport.__init__).parameters) == [
        "self", "adapters", "faults", "recorder", "clock", "metrics",
    ]
    for factory in (ServeWorld.__init__, build_demo_world):
        assert "time_scale" not in inspect.signature(factory).parameters


def test_fault_state_is_the_only_fault_model():
    """One class defines ``force_drops``; the drop budget, the failed
    set and the down/lost verdicts are touched nowhere else."""
    definers = []
    for module in sorted(SRC.rglob("*.py")):
        tree = ast.parse(module.read_text())
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                isinstance(node, ast.FunctionDef)
                and node.name == "force_drops"
                for node in cls.body
            ):
                definers.append(cls.name)
        if module.name == "faults.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in (
                    "_forced_drops", "_failed", "_should_drop",
                ), "%s:%d reaches into the fault state (%s)" % (
                    module.name, node.lineno, node.attr,
                )
            if isinstance(node, ast.Constant):
                assert node.value not in (
                    "source %r is down", "node %r is down",
                ), "%s:%d words its own verdict" % (
                    module.name, node.lineno,
                )
    assert definers == ["FaultState"]
