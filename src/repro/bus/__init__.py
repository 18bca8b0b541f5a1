"""The change-notification bus (E20): write-path fan-out at scale.

The paper's push-enabled GUPster (Section 5.2) needs profile updates
to reach subscribers, caches and mirrors without a per-update callback
storm. This package is the directory-listener-style answer: an
append-only per-shard :class:`~repro.bus.log.ChangeLog` (monotonic
sequence numbers over virtual time), a :class:`~repro.bus.bus.
ChangeBus` notifier that coalesces pending deltas per listener into
batched deliveries — one simulated round trip per (listener, wave),
mirroring the E19 batch wave model — and per-listener replay cursors
so a listener that was down or slow resumes from where it stopped
instead of losing changes.

The privacy-shield invariant holds per **delivery**:
:class:`~repro.bus.listeners.SubscriberListener` re-checks
``pep.enforce`` under its own context on every delivery, and the
decision dies with the delivery. Listeners are handed records only —
cursors and compaction stay inside the bus.
"""

from repro.bus.log import ChangeLog, ChangeRecord
from repro.bus.bus import BusListener, ChangeBus, DEFAULT_WAVE_MS
from repro.bus.listeners import (
    CacheInvalidationListener,
    MirrorRefreshListener,
    RecordingListener,
    SubscriberListener,
)

__all__ = [
    "ChangeLog",
    "ChangeRecord",
    "ChangeBus",
    "BusListener",
    "DEFAULT_WAVE_MS",
    "SubscriberListener",
    "CacheInvalidationListener",
    "MirrorRefreshListener",
    "RecordingListener",
]
