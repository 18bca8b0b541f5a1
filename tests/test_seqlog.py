"""The one change-feed primitive (``repro.seqlog``).

* a Hypothesis state machine drives :class:`SeqLog` — auto and
  explicit (gapped) appends, window trim, ``compact``, ``since`` /
  ``backlog`` at arbitrary cursors — against the model the repo
  trusted before the primitive existed: a plain list of
  ``(seq, entry)`` filtered by comprehension;
* an operation-count test shows replay never scans the log, through
  every holder's public ``changes_since``;
* AST tests keep it the *only* implementation: no holder scans or
  trims a log of its own.
"""

import ast
import math
import pathlib
import re

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

import repro
from repro.access import PolicyRepository, PolicyRule
from repro.bus import ChangeLog
from repro.core.coverage import CoverageMap
from repro.errors import ForeignResyncRequiredError, ResyncRequiredError
from repro.federation.foreign import ForeignDirectory
from repro.pxml import PNode, parse_path
from repro.seqlog import SeqLog, trim_oldest
from repro.simnet import Simulator
from repro.stores import MobilePhone, PhoneBookEntry
from repro.sync.endpoint import SyncEndpoint

SRC = pathlib.Path(repro.__file__).parent


# ---------------------------------------------------------------------------
# the state machine
# ---------------------------------------------------------------------------

class SeqLogMachine(RuleBasedStateMachine):
    """SeqLog vs. the O(n) list it replaced."""

    @initialize(window=st.none() | st.integers(1, 5))
    def build(self, window):
        self.window = window
        self.log = SeqLog(window)
        #: Everything ever appended, as (seq, entry).
        self.history = []
        self.floor = 0

    def retained(self):
        return [pair for pair in self.history if pair[0] > self.floor]

    def last(self):
        return self.history[-1][0] if self.history else 0

    def _appended(self, seq):
        self.history.append((seq, "e%d" % seq))
        held = self.retained()
        if self.window is not None and len(held) > self.window:
            self.floor = held[-self.window - 1][0]

    @rule()
    def append(self):
        seq = self.last() + 1
        assert self.log.append("e%d" % seq) == seq
        self._appended(seq)

    @rule(gap=st.integers(1, 4))
    def append_explicit(self, gap):
        seq = self.last() + gap
        assert self.log.append("e%d" % seq, seq) == seq
        self._appended(seq)

    @precondition(lambda self: self.history)
    @rule(back=st.integers(0, 3))
    def append_reused_seq_is_refused(self, back):
        with pytest.raises(ValueError):
            self.log.append("dup", max(self.last() - back, 0))

    @rule(data=st.data())
    def compact(self, data):
        upto = data.draw(st.integers(0, self.last() + 3))
        doomed = [seq for seq, _e in self.retained() if seq <= upto]
        assert self.log.compact(upto) == len(doomed)
        if doomed:
            self.floor = doomed[-1]

    @rule(data=st.data())
    def replay(self, data):
        cursor = data.draw(st.integers(0, self.last() + 3))
        if cursor < self.floor:
            with pytest.raises(ResyncRequiredError):
                self.log.since(cursor)
            with pytest.raises(ResyncRequiredError):
                self.log.backlog(cursor)
            return
        expected = [e for seq, e in self.history if seq > cursor]
        assert self.log.since(cursor) == expected
        assert self.log.backlog(cursor) == len(expected)

    @invariant()
    def agrees_with_the_model(self):
        held = self.retained()
        assert list(self.log) == [entry for _seq, entry in held]
        assert len(self.log) == len(held)
        assert self.log.floor == self.floor
        assert self.log.head_seq == self.floor + 1
        assert self.log.last_seq == self.last()
        assert self.log.dropped + len(self.log) == len(self.history)
        if self.window is not None:
            assert len(self.log) <= self.window
        seqs = [seq for seq, _entry in self.history]
        assert seqs == sorted(set(seqs))  # never reused


SeqLogMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
)
TestSeqLogMachine = SeqLogMachine.TestCase


class TestSeqLog:
    def test_raises_the_error_its_holder_names(self):
        log = SeqLog(2, ForeignResyncRequiredError)
        for _ in range(5):
            log.append("x")
        with pytest.raises(ForeignResyncRequiredError, match="resync"):
            log.since(2)
        assert log.since(3) == ["x", "x"]

    def test_since_returns_a_copy(self):
        log = SeqLog()
        log.append("a")
        log.since(0).append("scribble")
        assert list(log) == ["a"]

    def test_trim_oldest_keeps_lists_in_lockstep(self):
        items, stamps = list(range(7)), list("abcdefg")
        assert trim_oldest(3, items, stamps) == 4
        assert (items, stamps) == ([4, 5, 6], ["e", "f", "g"])
        assert trim_oldest(3, items, stamps) == 0


# ---------------------------------------------------------------------------
# replay never scans: operation counts, not wall time
# ---------------------------------------------------------------------------

class CountingCursor(int):
    """An int that counts every comparison made against it — the old
    ``[c for c in log if c[0] > cursor]`` costs one per entry."""

    compared = 0

    def _count(name):  # noqa: N805 - helper building the dunders
        def compare(self, other):
            type(self).compared += 1
            return getattr(int, name)(self, other)
        return compare

    __lt__, __le__ = _count("__lt__"), _count("__le__")
    __gt__, __ge__ = _count("__gt__"), _count("__ge__")
    __hash__ = int.__hash__


N = 4096
TAIL = 3


def _coverage(gapped):
    coverage = CoverageMap()
    step = 3 if gapped else 1
    path = parse_path("/user[@id='u']/im")
    coverage.apply_changes([
        (rev, "register", path, "s%d" % rev)
        for rev in range(step, step * N + 1, step)
    ])
    return coverage.changes_since, coverage.revision - TAIL * step


def _policy():
    prp = PolicyRepository()
    rule_ = PolicyRule("u", "/user[@id='u']/im", "permit", rule_id="r")
    for _ in range(N):
        prp.store(rule_)
    return prp.changes_since, prp.revision - TAIL


def _sync_endpoint():
    ep = SyncEndpoint("ep")
    for i in range(N):
        ep.put_item(PNode("item", {"id": "i%d" % i}))
    return ep.changes_since, ep.seq - TAIL


def _phone():
    phone = MobilePhone("cell", "u", "carrier")
    for i in range(N):
        phone.store_entry(PhoneBookEntry("e%d" % i, "n", "1"))
    return phone.changes_since, phone.change_counter - TAIL


def _foreign():
    foreign = ForeignDirectory("ad", Simulator())
    for i in range(N):
        foreign.write("u%d" % i, "mail", "m")
    return foreign.changes_since, foreign.last_usn - TAIL


def _bus_log():
    log = ChangeLog()
    for i in range(N):
        log.append(float(i), "/p", "v")
    log.compact(N // 2)
    return log.since, log.last_seq - TAIL


HOLDERS = {
    "coverage": lambda: _coverage(gapped=False),
    "coverage-gapped": lambda: _coverage(gapped=True),
    "policy-repository": _policy,
    "sync-endpoint": _sync_endpoint,
    "mobile-phone": _phone,
    "foreign-directory": _foreign,
    "bus-log": _bus_log,
}


@pytest.mark.parametrize("holder", sorted(HOLDERS))
def test_replay_cost_is_logarithmic_not_linear(holder):
    replay, cursor = HOLDERS[holder]()
    CountingCursor.compared = 0
    tail = replay(CountingCursor(cursor))
    assert len(tail) == TAIL
    # floor check + bisect (gapped) or slice arithmetic (contiguous);
    # the scans this replaced compared once per entry (N).
    assert CountingCursor.compared <= 2 * math.log2(N) + 4


# ---------------------------------------------------------------------------
# and it stays the only implementation
# ---------------------------------------------------------------------------

def service_modules():
    return sorted(
        path for path in SRC.rglob("*.py")
        if "analysis" not in path.parts and path.name != "seqlog.py"
    )


MODULES = service_modules()
IDS = [str(path.relative_to(SRC)) for path in MODULES]

#: The holders ported onto the primitive (and the device base).
MIGRATED = {
    "ChangeLog", "CoverageMap", "PolicyRepository", "SyncEndpoint",
    "_Device", "MobilePhone", "Pda", "ForeignDirectory",
    "SubscriptionHub", "ProvenanceTracker", "RecordingListener",
}


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_no_replay_method_scans_a_log(module):
    """``since`` / ``changes_since`` never loop over a log attribute:
    they ask a SeqLog (iterating *its answer* is fine)."""
    for fn in ast.walk(ast.parse(module.read_text())):
        if not isinstance(fn, ast.FunctionDef) or fn.name not in (
            "since", "changes_since",
        ):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.comprehension)):
                assert not isinstance(node.iter, ast.Attribute), (
                    "%s:%d %s() scans %s" % (
                        module.name, node.iter.lineno, fn.name,
                        ast.unparse(node.iter),
                    )
                )


def test_no_migrated_class_trims_a_list_of_its_own():
    seen = set()
    for module in MODULES:
        for cls in ast.walk(ast.parse(module.read_text())):
            if not isinstance(cls, ast.ClassDef) or (
                cls.name not in MIGRATED
            ):
                continue
            seen.add(cls.name)
            for node in ast.walk(cls):
                if not isinstance(node, ast.Delete):
                    continue
                for target in node.targets:
                    assert not (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Slice)
                    ), "%s.%s:%d trims with `del %s`" % (
                        module.name, cls.name, node.lineno,
                        ast.unparse(target),
                    )
    assert seen == MIGRATED


def test_no_private_sequence_bookkeeping_outside_the_primitive():
    """The acceptance grep: the old counters/floors are gone; a
    read-only ``change_counter`` property forwarding to the log is
    the one allowed survivor."""
    stale = re.compile(r"_head_usn|_log_floor|_head_seq|change_counter")
    for module in MODULES:
        for lineno, line in enumerate(
            module.read_text().splitlines(), 1
        ):
            if stale.search(line):
                assert line.strip().startswith(
                    "def change_counter(self)"
                ), "%s:%d %s" % (module.name, lineno, line.strip())
