"""Sans-io protocol core: the query patterns as generator programs
yielding typed I/O intents, driven either by the virtual-time simnet
harness or by the real asyncio transport.

The engine imports ``repro.core`` submodules, and ``repro.core``'s
query, MDM and constellation modules drive this package's programs.
Those three import the engine and ``repro.simnet.driver`` as
*modules* (``from repro.sansio import engine``), never by name, so
any of the three packages can be imported first: whichever is, the
other two are still loading when those lines run."""

from repro.sansio.intents import (
    MARK_KINDS,
    Compute,
    Fork,
    Intent,
    LegOutcome,
    Mark,
    PartReport,
    Program,
    Send,
    Sleep,
    SpanClose,
    SpanOpen,
    SpanSet,
    StoreGet,
    StorePut,
    leg_values,
)
from repro.sansio.engine import (
    QueryOutcome,
    SansIoQueryEngine,
    decision_of,
)

__all__ = [
    "Intent",
    "Send",
    "Compute",
    "Sleep",
    "StoreGet",
    "StorePut",
    "SpanOpen",
    "SpanSet",
    "SpanClose",
    "Mark",
    "PartReport",
    "Fork",
    "LegOutcome",
    "Program",
    "MARK_KINDS",
    "leg_values",
    "QueryOutcome",
    "SansIoQueryEngine",
    "decision_of",
]
