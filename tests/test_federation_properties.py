"""Property battery for the E22 federation reconciler (DESIGN.md
§4.10): convergence under arbitrary interleavings of two-sided writes
and crashes, echo suppression as a trace property, and reject-queue
no-loss/no-dup across poison -> crash -> replay.
"""

import string

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.access import (
    PolicyEnforcementPoint,
    PolicyRepository,
    PolicyRule,
)
from repro.bus import ChangeBus
from repro.core.provenance import ProvenanceTracker
from repro.federation import (
    FederationListener,
    ForeignDirectory,
    GupAttributeStore,
    MappingEntry,
    MappingTable,
    POLICIES,
    Reconciler,
    RejectQueue,
    policy_named,
)
from repro.simnet import Network, Simulator

USERS = ("u1", "u2", "u3")
#: (gup suffix, foreign attr, direction) — one mapping per direction.
TABLE = (
    ("self/email", "mail", "both"),
    ("self/name", "displayName", "out"),
    ("work/phone", "telephoneNumber", "in"),
)
ATTR_OF = {suffix: attr for suffix, attr, _d in TABLE}
DIRECTION_OF = {suffix: d for suffix, _a, d in TABLE}

INTERVAL = 200.0


def make_world(policy="lww", queue=None):
    sim = Simulator()
    network = Network()
    network.add_node("gupster")
    network.add_node("fed-conn")
    network.add_node("corp-ad")
    bus = ChangeBus(sim, network, "gupster")
    gup = GupAttributeStore(sim, bus=bus)
    foreign = ForeignDirectory("corp-ad", sim)
    table = MappingTable(
        [MappingEntry(s, a, d) for s, a, d in TABLE]
    )
    repo = PolicyRepository()
    for user in USERS:
        repo.store(
            PolicyRule(user, "/user[@id='%s']" % user, "permit")
        )
    rec = Reconciler(
        "fed-conn", gup, foreign, table, network,
        PolicyEnforcementPoint(repo),
        policy=policy_named(policy),
        provenance=ProvenanceTracker(),
        interval_ms=INTERVAL,
        reject_queue=queue,
    )
    bus.attach(FederationListener("fed", rec))
    rec.start()
    return sim, bus, gup, foreign, rec


users_st = st.sampled_from(USERS)
suffixes_st = st.sampled_from([s for s, _a, _d in TABLE])
values_st = st.text(
    alphabet=string.ascii_lowercase, min_size=1, max_size=6
)


@st.composite
def op_sequences(draw, with_crashes=True):
    """Interleavings of GUP writes, foreign writes, and (optionally)
    reconciler crash/resume, each preceded by a virtual-time advance
    (strictly positive, so authored instants are distinct)."""
    kinds = ["gup", "foreign", "gup", "foreign"]
    if with_crashes:
        kinds += ["crash", "resume"]
    count = draw(st.integers(1, 20))
    ops = []
    for _ in range(count):
        kind = draw(st.sampled_from(kinds))
        delay = draw(st.integers(1, 350))
        if kind in ("gup", "foreign"):
            ops.append((
                kind, delay, draw(users_st), draw(suffixes_st),
                draw(values_st),
            ))
        else:
            ops.append((kind, delay))
    return ops


def apply_ops(sim, bus, gup, foreign, rec, ops):
    """Drive one interleaving; returns the per-side last-write maps
    used to compute the expected fixpoint."""
    last_gup, last_foreign, last_any = {}, {}, {}
    for op in ops:
        sim.run(until=sim.now + op[1])
        if op[0] == "gup":
            _kind, _delay, user, suffix, value = op
            gup.write(user, suffix, value)
            last_gup[(user, suffix)] = value
            last_any[(user, suffix)] = ("gup", value)
        elif op[0] == "foreign":
            _kind, _delay, user, suffix, value = op
            foreign.write(user, ATTR_OF[suffix], value)
            last_foreign[(user, suffix)] = value
            last_any[(user, suffix)] = ("foreign", value)
        elif op[0] == "crash":
            if not rec._down:
                rec.crash()
        elif op[0] == "resume":
            if rec._down:
                rec.resume(bus=bus)
    if rec._down:
        rec.resume(bus=bus)
    # Settle: plenty of rounds for resyncs, retries and bus waves.
    sim.run(until=sim.now + 6000)
    return last_gup, last_foreign, last_any


def read_value(store_read, *key):
    state = store_read(*key)
    return None if state is None else state[0]


def assert_converged(gup, foreign, last_gup, last_foreign, last_any,
                     check_lww_winner=False):
    """Both sides hold the direction-appropriate fixpoint for every
    pair that was ever written."""
    for user, suffix in sorted(last_any):
        attr = ATTR_OF[suffix]
        direction = DIRECTION_OF[suffix]
        g = read_value(gup.read, user, suffix)
        f = read_value(foreign.read, user, attr)
        key = (user, suffix)
        if direction == "both":
            assert g == f, (
                "pair %r diverged: gup=%r foreign=%r"
                % (key, g, f)
            )
            if check_lww_winner:
                # Authored instants are strictly increasing across
                # ops, so lww must pick the globally last write.
                assert g == last_any[key][1], (
                    "pair %r: expected last write %r, got %r"
                    % (key, last_any[key][1], g)
                )
        elif direction == "out":
            # GUP authoritative: its last write overwrites any
            # foreign drift; GUP never imports.
            if key in last_gup:
                assert g == last_gup[key]
                assert f == last_gup[key]
            else:
                assert g is None
                assert f == last_foreign.get(key)
        else:  # "in"
            # Foreign authoritative: its last write reasserts over
            # any GUP edit; GUP never exports.
            assert f == last_foreign.get(key)
            if key in last_foreign:
                assert g == last_foreign[key]
            else:
                assert g == last_gup.get(key)


class TestConvergenceProperties:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @given(ops=op_sequences())
    # A-B-A: the pair agrees on 'a', GUP writes 'aa', foreign re-writes
    # 'a' 1 ms later. lww must keep the later foreign write.
    @example(ops=[
        ("gup", 1, "u1", "self/email", "a"),
        ("gup", 300, "u1", "self/email", "aa"),
        ("foreign", 1, "u1", "self/email", "a"),
    ])
    @settings(max_examples=25, deadline=None)
    def test_interleavings_with_crashes_reach_a_fixpoint(
        self, policy, ops
    ):
        """Any interleaving of two-sided writes and reconciler
        crashes converges: both sides identical for every contested
        pair, authoritative side wins for directional pairs, and the
        fixpoint is write-free (zero oscillation)."""
        sim, bus, gup, foreign, rec = make_world(policy=policy)
        last_gup, last_foreign, last_any = apply_ops(
            sim, bus, gup, foreign, rec, ops
        )
        assert_converged(
            gup, foreign, last_gup, last_foreign, last_any,
            check_lww_winner=(policy == "lww"),
        )
        # Fixpoint stability: further rounds move nothing.
        before = (gup.writes, foreign.writes,
                  rec.synced_in, rec.synced_out)
        sim.run(until=sim.now + 10 * INTERVAL)
        after = (gup.writes, foreign.writes,
                 rec.synced_in, rec.synced_out)
        assert before == after, "fixpoint oscillated: %r -> %r" % (
            before, after,
        )
        # Nothing was parked: no failures were injected.
        assert len(rec.queue) == 0

    @given(ops=op_sequences(with_crashes=False))
    @settings(max_examples=25, deadline=None)
    def test_no_echo_is_a_trace_property(self, ops):
        """A synced write never produces a second sync of itself:
        every export the reconciler journaled on the foreign side is
        suppressed on re-import (origin tag), every import it wrote
        into GUP is absorbed off the bus (origin-tag table), and the
        converged system is quiescent."""
        sim, bus, gup, foreign, rec = make_world(policy="lww")
        apply_ops(sim, bus, gup, foreign, rec, ops)
        # Outbound echo accounting: each of our journal entries came
        # back through the poll exactly once, as a suppression.
        own_entries = sum(
            1 for change in foreign._journal
            if change.origin == rec.tag
        )
        assert own_entries == rec.synced_out
        assert rec.echo_suppressed_in == rec.synced_out
        # Inbound echo accounting: every pull's bus shadow was
        # absorbed, none re-dirtied its own pair.
        assert rec.echo_suppressed_gup == rec.synced_in
        # Trace formulation: from the fixpoint, rounds keep running
        # but no write on either side ever happens again.
        before = (gup.writes, foreign.writes)
        sim.run(until=sim.now + 10 * INTERVAL)
        assert (gup.writes, foreign.writes) == before


@pytest.mark.parametrize("rewriter", ("foreign", "gup"))
def test_rewriting_the_agreed_value_is_a_move(rewriter):
    """After both sides agree on 'a', one side writes 'aa' and the
    other re-authors 'a' 1 ms later. Holding the base value is not
    "did not move": the re-write is the later authored instant, so it
    is a conflict and lww keeps it on both sides."""
    sim, _bus, gup, foreign, rec = make_world(policy="lww")
    gup.write("u1", "self/email", "a")
    sim.run(until=300)
    assert read_value(foreign.read, "u1", "mail") == "a"
    writes = {
        "gup": lambda value: gup.write("u1", "self/email", value),
        "foreign": lambda value: foreign.write("u1", "mail", value),
    }
    mover = "gup" if rewriter == "foreign" else "foreign"
    writes[mover]("aa")
    sim.run(until=301)
    writes[rewriter]("a")
    sim.run(until=2000)
    assert read_value(gup.read, "u1", "self/email") == "a"
    assert read_value(foreign.read, "u1", "mail") == "a"
    assert rec.conflicts == 1
    won = (rec.conflict_gup_wins, rec.conflict_foreign_wins)
    assert won == ((0, 1) if rewriter == "foreign" else (1, 0))


class TestRejectQueueProperties:
    @given(values=st.lists(values_st, min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_replay_after_restore_loses_and_duplicates_nothing(
        self, values
    ):
        """A poisoned object's pending writes survive backoff,
        poisoning, and a reconciler crash/restore; one explicit
        replay applies exactly the newest value exactly once."""
        queue = RejectQueue(
            max_attempts=3, base_backoff_ms=100.0,
            max_backoff_ms=400.0,
        )
        sim, bus, gup, foreign, rec = make_world(
            policy="lww", queue=queue
        )
        foreign.reject_writes_for("u1")
        for value in values:
            sim.run(until=sim.now + 50)
            gup.write("u1", "self/email", value)
        # Enough rounds to strike out: 3 attempts with <=400ms gaps.
        sim.run(until=sim.now + 4000)
        parked = queue.get("u1")
        assert parked is not None and parked.poisoned
        assert rec.poisoned >= 1
        # The value never reached the foreign side (no partial write).
        assert foreign.read("u1", "mail") is None
        # Crash and restore: the queue is the connector's persistent
        # sync database, so the parked object survives.
        rec.crash()
        sim.run(until=sim.now + 500)
        rec.resume(bus=bus)
        foreign.clear_rejects()
        sim.run(until=sim.now + 2000)
        # Poisoned means held: even with the fault cleared, no
        # automatic retry happens without an explicit replay.
        assert foreign.read("u1", "mail") is None
        assert queue.get("u1") is not None
        assert rec.replay("u1")
        sim.run(until=sim.now + 2000)
        # No-loss: the newest value arrived; no-dup: applied once.
        assert read_value(foreign.read, "u1", "mail") == values[-1]
        applied = [
            change for change in foreign._journal
            if change.origin == rec.tag
            and (change.user_id, change.attr) == ("u1", "mail")
        ]
        assert len(applied) == 1
        assert queue.get("u1") is None
        # And the healed pair is a quiet fixpoint.
        before = (gup.writes, foreign.writes)
        sim.run(until=sim.now + 10 * INTERVAL)
        assert (gup.writes, foreign.writes) == before
