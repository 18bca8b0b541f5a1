"""Sans-io protocol core: the query patterns as generator programs
yielding typed I/O intents, driven either by the virtual-time simnet
harness or by the real asyncio transport."""

# Load order: importing any repro.core submodule runs the repro.core
# package, whose query module imports this package's engine — and the
# engine imports core submodules. Finishing repro.core first means the
# engine is never half-initialised when core.query asks for its names.
import repro.core  # noqa: F401

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
    StandaloneQueryHost,
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
    "StandaloneQueryHost",
    "decision_of",
]
