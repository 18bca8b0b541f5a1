"""The sans-io boundary, checked at runtime over the committed goldens.

One protocol core serves every network: the query engine and the
modules under it yield I/O intents and a driver performs them —
``repro.simnet`` in virtual time, ``repro.serve``'s transport on the
wall clock. That holds only while no frame in a boundary module
(:data:`BOUNDARY`) makes either kind of call itself:

* **wall I/O** — ``print``, ``open``, ``input``, a wall clock or
  ``sleep`` (:data:`WALL_IO`), or anything on a socket;
* **the simulated wire** — any function of ``repro.simnet.faults``
  (the fault surface ``Network`` inherits, ``FaultSchedule``) or
  ``Network.sample_hop``/``fail``/``restore``: exactly the code the
  wall transport replaces.

Only the *direct* caller counts. ``Trace.hop`` consulting
``FaultState.verdict`` is the driver at work: its caller is in
``simnet``, so it is allowed, and an engine that charges a hop to its
trace stays on the right side of the line.

The guard replays every committed golden — the reference streams of
``tests/test_obs_determinism.py``, the span trees of
``tests/test_span_tree_golden.py`` and the served surface of
``tests/test_serve_surface_golden.py`` — under a ``sys.setprofile``
hook, checks each replay still equals its golden, and fails on the
first boundary frame that made a forbidden call. It cannot see code
that no golden executes.
"""

import io
import json
import socket
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro.simnet import FaultState, Network, faults
from tests import test_serve_surface_golden as surface
from tests import test_span_tree_golden as span_trees
from tests.data.reference import reference_streams
from tests.test_obs_determinism import golden as golden_streams

#: Modules (and packages) whose frames must not touch the wire.
BOUNDARY = (
    "repro.core", "repro.pxml", "repro.sansio", "repro.seqlog",
    "repro.bus.log",
)

#: C functions that perform wall I/O wherever they are called from.
WALL_IO = frozenset({
    print, open, input, io.open,
    time.time, time.time_ns, time.monotonic, time.monotonic_ns,
    time.perf_counter, time.perf_counter_ns, time.process_time,
    time.sleep,
})

#: Python code on the wall or on the simulated wire.
_WALL_FILES = frozenset({socket.__file__})
_WIRE_FILES = frozenset({faults.__file__})
_WIRE_CODES = frozenset(
    getattr(Network, name).__code__
    for name in ("sample_hop", "fail", "restore")
)

Hit = Tuple[str, str, str]


def _qualname(code: Any) -> str:
    # ``co_qualname`` is new in Python 3.11; older interpreters only
    # carry the bare function name.
    return getattr(code, "co_qualname", code.co_name)


def _in_boundary(module: str) -> bool:
    return any(
        module == name or module.startswith(name + ".")
        for name in BOUNDARY
    )


class BoundaryGuard:
    """Records every forbidden call whose direct caller is a boundary
    frame, as ``(kind, caller, callee)``."""

    def __init__(self) -> None:
        self.hits: List[Hit] = []
        self._boundary: Dict[str, bool] = {}

    def _note(self, kind: str, caller: Any, callee: str) -> None:
        if caller is None:
            return
        module = caller.f_globals.get("__name__", "")
        inside = self._boundary.get(module)
        if inside is None:
            inside = self._boundary[module] = _in_boundary(module)
        if inside:
            self.hits.append((
                kind, "%s.%s" % (module, _qualname(caller.f_code)),
                callee,
            ))

    def _hook(self, frame: Any, event: str, arg: Any) -> None:
        if event == "c_call":
            if arg in WALL_IO or isinstance(
                getattr(arg, "__self__", None), socket.socket
            ):
                self._note("wall-io", frame, getattr(
                    arg, "__qualname__", repr(arg)
                ))
        elif event == "call":
            code = frame.f_code
            if code.co_filename in _WALL_FILES:
                self._note("wall-io", frame.f_back, _qualname(code))
            elif code.co_filename in _WIRE_FILES or code in _WIRE_CODES:
                self._note("wire", frame.f_back, _qualname(code))

    def run(self, replay: Callable[[], Any]) -> Any:
        """Run *replay* under the hook; returns what it returns."""
        previous = sys.getprofile()
        sys.setprofile(self._hook)
        try:
            return replay()
        finally:
            sys.setprofile(previous)


def assert_boundary_holds(replay: Callable[[], Any]) -> Any:
    guard = BoundaryGuard()
    result = guard.run(replay)
    assert not guard.hits, (
        "%d call(s) across the sans-io boundary, first: %s"
        % (len(guard.hits), guard.hits[0])
    )
    return result


# -- the goldens ---------------------------------------------------------------


def test_reference_streams_stay_inside_the_boundary():
    streams = assert_boundary_holds(reference_streams)
    assert streams == golden_streams()


@pytest.mark.parametrize("name", sorted(span_trees.SCENARIOS))
def test_span_trees_stay_inside_the_boundary(name):
    recorder = assert_boundary_holds(span_trees.SCENARIOS[name])
    rows = json.loads(json.dumps(span_trees.span_rows(recorder)))
    assert rows == span_trees.golden()["span_trees"][name]


@pytest.mark.parametrize("world", sorted(surface.WORLDS))
def test_served_surface_stays_inside_the_boundary(world):
    rows = assert_boundary_holds(
        lambda: surface.served_surface(surface.WORLDS[world])
    )
    with open(surface.GOLDEN_PATH, "r", encoding="utf-8") as handle:
        assert rows == json.load(handle)[world]


# -- the guard itself ----------------------------------------------------------


def _probe(module: str, body: str) -> Callable[..., Any]:
    """A function named ``probe`` whose frames belong to *module*."""
    namespace: Dict[str, Any] = {
        "__name__": module, "io": io, "time": time,
    }
    exec(compile(body, "<%s>" % module, "exec"), namespace)
    return namespace["probe"]


PRINTS = "def probe(arg=None):\n    print('x', file=io.StringIO())\n"
READS_CLOCK = "def probe(arg=None):\n    return time.monotonic()\n"
READS_FAULTS = "def probe(state):\n    return state.is_failed('n')\n"


@pytest.mark.parametrize("module", [
    "repro.core.query", "repro.pxml", "repro.sansio.engine",
    "repro.seqlog", "repro.bus.log",
])
@pytest.mark.parametrize("body,kind", [
    (PRINTS, "wall-io"), (READS_CLOCK, "wall-io"),
    (READS_FAULTS, "wire"),
])
def test_guard_catches_each_kind_in_each_boundary_module(
    module, body, kind
):
    guard = BoundaryGuard()
    guard.run(lambda: _probe(module, body)(FaultState()))
    assert [hit[0] for hit in guard.hits] == [kind]
    assert guard.hits[0][1] == module + ".probe"


@pytest.mark.parametrize("module", [
    "repro.simnet.network", "repro.bus.bus", "repro.serve.transport",
    "repro.corex", "tests.probe",
])
def test_guard_ignores_frames_outside_the_boundary(module):
    guard = BoundaryGuard()
    for body in (PRINTS, READS_CLOCK, READS_FAULTS):
        guard.run(lambda: _probe(module, body)(FaultState()))
    assert guard.hits == []


def test_only_the_direct_caller_counts():
    # The boundary frame calls into simnet, and simnet consults the
    # fault surface: the driver at work, not a boundary crossing.
    network = Network(seed=1)
    network.add_node("a")
    network.add_node("b")
    relay = _probe(
        "repro.sansio.probe",
        "def probe(trace):\n    return trace.hop('a', 'b', 10)\n",
    )
    guard = BoundaryGuard()
    guard.run(lambda: relay(network.trace()))
    assert guard.hits == []


def test_guard_restores_the_previous_profiler():
    def outer(frame: Any, event: str, arg: Optional[Any]) -> None:
        pass

    previous = sys.getprofile()
    sys.setprofile(outer)
    try:
        BoundaryGuard().run(lambda: None)
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(previous)
