"""spine — a steady-state, over-the-socket benchmark for ``repro.serve``.

One run boots the server in a subprocess (``bootstrap.py``), drives it
closed-loop over loopback from this process, checks every response and
prints every metric by name and unit; the last line of stdout is one
JSON object. See README.md in this directory for what is measured and
why.

    python3 benchmarks/spine/run.py --workload book_chain --seed 1 \\
        --seconds 10 --trace 0          # one run, end-to-end metrics
    python3 benchmarks/spine/run.py --workload book_chain --seed 1 \\
        --seconds 10 --trace 1          # one run, per-layer metrics
    python3 benchmarks/spine/run.py --seed 1 --out FILE
                                        # all four workloads, both kinds
    python3 benchmarks/spine/run.py compare A.json B.json
    python3 benchmarks/spine/run.py manifest   # BENCHMARK.json content
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

SPINE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SPINE_DIR))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

try:
    import repro  # noqa: F401
except ImportError:
    raise SystemExit(
        "spine: cannot import repro from %s — run from a full checkout"
        % os.path.join(REPO_ROOT, "src")
    ) from None

from oracle import Checker  # noqa: E402
from stats import (  # noqa: E402
    REFERENCE_LOOP_US,
    calibration_ops_per_s,
    mean,
    median,
    percentile,
)
from workloads import (  # noqa: E402
    CLIENTS,
    WORKLOADS,
    Population,
    interleaved,
    request_stream,
    warmup_requests,
)
from world import QUICK_USERS, USERS  # noqa: E402

BOOT_TIMEOUT_S = 120.0
#: One read in this many is compared byte for byte with the oracle.
ORACLE_EVERY = 50


class Scale(NamedTuple):
    """How big one run is."""

    users: int
    #: Measured seconds unless ``--seconds`` says otherwise.
    seconds: float
    #: The clients run this long before the first window opens. Their
    #: responses are checked and counted, not timed: the first second
    #: over a fresh socket path is slower than the rest.
    lead_in_s: float
    #: Measurement windows; rates and CPU are medians over them.
    windows: int
    #: Set-ups per end-to-end run; ``setup_s`` is their median.
    setups: int
    #: Requests of the traced in-process replay (half through
    #: ``App.handle``, half through the staged path).
    trace_requests: int
    #: Fewest correct responses a run may rest on (p95 needs ten
    #: samples beyond it).
    min_samples: int


FULL = Scale(USERS, 10.0, 1.5, 5, 3, 300, 200)
#: ``--quick``: self-tests only, never recorded as a result.
QUICK = Scale(QUICK_USERS, 2.0, 0.5, 1, 1, 60, 20)

#: (name, unit, better, bound): the share of the parent's median by
#: which the metric may worsen before a change counts as a regression.
#: Each bound is at least three times the widest run-to-run spread
#: (IQR / median over ten seeds) seen on any workload, capped at 0.25
#: (which is all ``latency_p95_ms`` gets); README.md has the spreads.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("server_cpu_ms_per_req", "ms", "lower", 0.25),
    ("server_rss_mb", "MB", "lower", 0.15),
    ("wire_bytes_per_req", "bytes", "lower", 0.05),
)

#: (name, unit, better). README.md says which end-to-end metric on
#: which workload each one should move.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("client.latency_p99_ms", "ms", "lower"),
    ("client.latency_max_ms", "ms", "lower"),
    ("client.read_p50_ms", "ms", "lower"),
    ("client.write_p50_ms", "ms", "lower"),
    ("client.connect_p50_us", "us", "lower"),
    ("client.connect_errors", "count", "lower"),
    ("client.samples", "count", "higher"),
    ("serve.http.read_request_us", "us", "lower"),
    ("serve.http.json_encode_us", "us", "lower"),
    ("serve.http.write_response_us", "us", "lower"),
    ("serve.http.response_bytes", "bytes", "lower"),
    ("serve.pipeline.overhead_us", "us", "lower"),
    ("serve.admission.rejected", "count", "lower"),
    ("obs.span_us", "us", "lower"),
    ("obs.spans_per_req", "count", "lower"),
    ("obs.recorder_fill", "ratio", "higher"),
    ("pxml.path.parse_us", "us", "lower"),
    ("core.server.resolve_us", "us", "lower"),
    ("core.server.resolve_self_us", "us", "lower"),
    ("core.referral.parts_per_req", "count", "lower"),
    ("access.enforce_us", "us", "lower"),
    ("access.denied_ratio", "ratio", "lower"),
    ("core.coverage.resolve_us", "us", "lower"),
    ("core.signing.sign_us", "us", "lower"),
    ("serve.transport.run_us", "us", "lower"),
    ("sansio.engine.self_us", "us", "lower"),
    ("sansio.engine.provision_us", "us", "lower"),
    ("serve.transport.sends_per_req", "count", "lower"),
    ("serve.transport.retries", "count", "lower"),
    ("serve.transport.failovers", "count", "lower"),
    ("adapters.get_us", "us", "lower"),
    ("adapters.put_us", "us", "lower"),
    ("pxml.node.copy_us", "us", "lower"),
    ("pxml.node.byte_size_us", "us", "lower"),
    ("pxml.node.serialize_us", "us", "lower"),
    ("pxml.node.nodes_per_response", "count", "lower"),
    ("pxml.merge.merge_us", "us", "lower"),
    ("pxml.parse.parse_us", "us", "lower"),
    ("core.cache.lookup_hit_us", "us", "lower"),
    ("core.cache.lookup_miss_us", "us", "lower"),
    ("core.cache.store_us", "us", "lower"),
    ("core.cache.invalidate_us", "us", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.cache.evictions", "count", "lower"),
    ("bus.append_us", "us", "lower"),
    ("bus.records_per_write", "count", "lower"),
    ("serve.app.handle_us", "us", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.socket_overhead_us", "us", "lower"),
    ("host.reference_loop_us", "us", "lower"),
)


END_TO_END_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}


def manifest() -> Dict[str, Any]:
    """The content of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": int(FULL.seconds),
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------

class Server:
    """One ``bootstrap.py`` subprocess, from spawn to exit."""

    def __init__(self, workload: str, seed: int, quick: bool) -> None:
        command = [
            sys.executable, os.path.join(SPINE_DIR, "bootstrap.py"),
            "--workload", workload, "--seed", str(seed),
        ]
        if quick:
            command.append("--quick")
        spawned = time.perf_counter()  # gupcheck: ignore[determinism] -- set-up wall time is a reported metric
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.ready = self._event("ready", BOOT_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        #: Spawn → READY (interpreter start, imports, build, warm-up)
        #: and the reference-loop time the host showed meanwhile.
        self.setup = (
            time.perf_counter() - spawned,  # gupcheck: ignore[determinism] -- set-up wall time is a reported metric
            float(self.ready["reference_loop_us"]),
        )
        self.port = int(self.ready["port"])
        self.pid = int(self.ready["pid"])

    def _event(self, name: str, timeout_s: float) -> Dict[str, Any]:
        """The next protocol line; a silent server is killed."""
        assert self.process.stdout is not None
        watchdog = threading.Timer(timeout_s, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise RuntimeError(
                "server exited (or hung %ds) before %r"
                % (timeout_s, name)
            )
        event = json.loads(line)
        if event.get("event") != name:
            raise RuntimeError("expected %r, got %r" % (name, event))
        return event

    def finish(
        self, command: Dict[str, Any], timeout_s: float = BOOT_TIMEOUT_S
    ) -> Dict[str, Any]:
        """Send the closing command, collect the report, reap."""
        assert self.process.stdin is not None
        try:
            self.process.stdin.write(json.dumps(command) + "\n")
            self.process.stdin.flush()
            done = self._event("done", timeout_s)
            self.process.stdin.close()
            self.process.wait(timeout=30)
            return done
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def cpu_seconds(pid: int) -> float:
    """utime + stime of *pid*, from ``/proc``."""
    with open("/proc/%d/stat" % pid, encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / float(
        os.sysconf("SC_CLK_TCK")
    )


def peak_rss_mb(pid: int) -> float:
    with open("/proc/%d/status" % pid, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def time_wait_sockets() -> int:
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as handle:
                count += sum(
                    1 for line in handle if line.split()[3:4] == ["06"]
                )
        except OSError:
            pass
    return count


# ---------------------------------------------------------------------------
# The closed-loop clients
# ---------------------------------------------------------------------------

class Sample(NamedTuple):
    done_at: float
    latency_ms: float
    think_ms: float
    connect_us: float
    nbytes: int
    op: str
    failure: Optional[str]


async def exchange(port: int, raw: bytes) -> Tuple[bytes, float]:
    """One request on a fresh connection, read to EOF; returns the
    response bytes and the connect time (s)."""
    started = time.perf_counter()  # gupcheck: ignore[determinism] -- client-side latency is the measurement
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    connect_s = time.perf_counter() - started  # gupcheck: ignore[determinism] -- client-side latency is the measurement
    try:
        writer.write(raw)
        await writer.drain()
        return await reader.read(), connect_s
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


def split_response(data: bytes) -> Tuple[int, bytes]:
    head, _sep, body = data.partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        return 0, body
    try:
        return int(parts[1]), body
    except ValueError:
        return 0, body


async def client(
    port: int, stream: Any, checker: Checker, deadline: float,
    samples: List[Sample],
) -> None:
    """Send the next request when the previous reply is fully read,
    until *deadline*."""
    reads = 0
    previous_done = time.perf_counter()  # gupcheck: ignore[determinism] -- client-side latency is the measurement
    while True:
        raw, expect = next(stream)
        started = time.perf_counter()  # gupcheck: ignore[determinism] -- client-side latency is the measurement
        if started >= deadline:
            return
        failure: Optional[str] = None
        data, connect_s = b"", 0.0
        try:
            data, connect_s = await exchange(port, raw)
        except OSError:
            failure = "connect"
        done = time.perf_counter()  # gupcheck: ignore[determinism] -- client-side latency is the measurement
        if failure is None:
            status, body = split_response(data)
            if expect.op == "read":
                reads += 1
            failure = checker.check(
                expect, status, body,
                deep=expect.op == "read" and reads % ORACLE_EVERY == 0,
            )
        samples.append(Sample(
            done, (done - started) * 1000.0,
            (started - previous_done) * 1000.0,
            connect_s * 1e6, len(data), expect.op, failure,
        ))
        previous_done = done


def scrape(text: str) -> Dict[str, float]:
    """Counters and gauges of a Prometheus text page."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _sep, value = line.rpartition(" ")
            try:
                values[name] = float(value)
            except ValueError:
                pass
    return values


async def server_metrics(port: int) -> Dict[str, float]:
    data, _connect = await exchange(
        port, b"GET /metrics HTTP/1.1\r\nHost: spine\r\n\r\n"
    )
    status, body = split_response(data)
    if status != 200:
        raise RuntimeError("/metrics answered %d" % status)
    return scrape(body.decode("utf-8"))


async def drive(
    server: Server, workload: str, seed: int, scale: Scale,
    seconds: float, checker: Checker, population: Population,
) -> Dict[str, Any]:
    """The measured phase: the lead-in untimed, then ``scale.windows``
    equal windows over *seconds*."""
    before = await server_metrics(server.port)
    samples: List[Sample] = []
    started = time.perf_counter() + scale.lead_in_s  # gupcheck: ignore[determinism] -- measurement windows are wall-clock
    deadline = started + seconds
    clients = [
        asyncio.ensure_future(client(
            server.port,
            request_stream(workload, seed, "client", population, lane),
            checker, deadline, samples,
        ))
        for lane in range(CLIENTS)
    ]
    ticks: List[Tuple[float, float]] = []
    try:
        for index in range(scale.windows + 1):
            boundary = started + seconds * index / scale.windows
            await asyncio.sleep(
                max(0.0, boundary - time.perf_counter())  # gupcheck: ignore[determinism] -- measurement windows are wall-clock
            )
            ticks.append((
                time.perf_counter(),  # gupcheck: ignore[determinism] -- measurement windows are wall-clock
                cpu_seconds(server.pid),
            ))
        await asyncio.gather(*clients)
    finally:
        for task in clients:
            task.cancel()
        await asyncio.gather(*clients, return_exceptions=True)
    after = await server_metrics(server.port)
    return {
        "samples": samples, "ticks": ticks,
        "metrics_before": before, "metrics_after": after,
        "rss_mb": peak_rss_mb(server.pid),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def warmup_writes(
    workload: str, seed: int, population: Population, quick: bool
) -> Dict[str, str]:
    """subscriber -> marker of the writes the server's warm-up made,
    regenerated from the seed (the server is never asked)."""
    written: Dict[str, str] = {}
    stream = interleaved(workload, seed, "warmup", population)
    for _ in range(warmup_requests(workload, quick)):
        _raw, expect = next(stream)
        if expect.op == "write" and expect.marker is not None:
            written[expect.user] = expect.marker
    return written


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, setups: int,
    quick: bool, results_dir: str,
) -> Dict[str, Any]:
    """Set up *setups* times, measure once, optionally trace; returns
    the run record (also appended to the trajectory)."""
    scale = QUICK if quick else FULL
    os.makedirs(results_dir, exist_ok=True)
    population = Population(seed, scale.users)
    checker = Checker(
        seed, warmup_writes(workload, seed, population, quick)
    )
    setup_samples: List[Tuple[float, float]] = []
    for _ in range(setups - 1):
        spare = Server(workload, seed, quick)
        setup_samples.append(spare.setup)
        spare.finish({"cmd": "stop"})
    server = Server(workload, seed, quick)
    setup_samples.append(server.setup)
    try:
        measured = asyncio.run(drive(
            server, workload, seed, scale, seconds, checker, population,
        ))
        if trace:
            done = server.finish({
                "cmd": "trace",
                "requests": scale.trace_requests,
                "out": os.path.join(
                    results_dir, "trace_%s.json" % workload
                ),
            })
        else:
            done = server.finish({"cmd": "stop"})
    finally:
        server.kill()

    record = summarize(
        measured, setup_samples, server.ready, done, checker,
        scale.min_samples,
    )
    record.update({
        "benchmark": "spine",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host.calibration_ops_per_s": calibration_ops_per_s(),
        "time_wait_sockets": time_wait_sockets(),
    })
    with open(
        os.path.join(results_dir, "trajectory.jsonl"), "a",
        encoding="utf-8",
    ) as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def summarize(
    measured: Dict[str, Any],
    setups: List[Tuple[float, float]], ready: Dict[str, Any],
    done: Dict[str, Any], checker: Checker, min_samples: int,
) -> Dict[str, Any]:
    samples: List[Sample] = measured["samples"]
    ticks: List[Tuple[float, float]] = measured["ticks"]
    failures: Dict[str, int] = {}
    for sample in samples:
        if sample.failure is not None:
            failures[sample.failure] = failures.get(sample.failure, 0) + 1
    problems: List[str] = [
        "%d x %s" % (count, kind) for kind, count in sorted(failures.items())
    ]

    # Per window: the correct responses completed in it, the server's
    # CPU, and how fast the host ran the reference loop meanwhile.
    # Timings come from these responses only; every response, lead-in
    # included, counts as attempted.
    reference: List[Tuple[float, float]] = done["reference"]
    whole_run = [
        us for at, us in reference if ticks[0][0] <= at < ticks[-1][0]
    ] or [us for _at, us in reference]
    good: List[Sample] = []
    throughput: List[float] = []
    cpu_ms: List[float] = []
    host: List[float] = []
    scaled_ms: List[float] = []
    for (t0, cpu0), (t1, cpu1) in zip(ticks, ticks[1:]):
        window = [
            s for s in samples
            if s.failure is None and t0 <= s.done_at < t1
        ]
        good.extend(window)
        # > 1 when the host ran slower than nominal in this window.
        slowdown = median(
            [us for at, us in reference if t0 <= at < t1] or whole_run
        ) / REFERENCE_LOOP_US
        host.append(slowdown)
        throughput.append(len(window) / (t1 - t0))
        if window:
            cpu_ms.append((cpu1 - cpu0) * 1000.0 / len(window))
        scaled_ms.extend(s.latency_ms / slowdown for s in window)
    if len(good) < min_samples:
        problems.append(
            "under-sampled: %d correct responses < %d"
            % (len(good), min_samples)
        )
    if ready["recorder_fill"] < 1.0:
        problems.append(
            "span recorder only %.2f full at READY" % ready["recorder_fill"]
        )
    if done.get("replay_mismatches"):
        problems.append(
            "%d traced replay status mismatches" % done["replay_mismatches"]
        )
    latencies = [s.latency_ms for s in good] or [0.0]
    raw = {
        "setup_s": median([seconds for seconds, _us in setups]),
        "throughput_rps": median(throughput),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "server_cpu_ms_per_req": median(cpu_ms),
    }
    end_to_end = {
        "setup_s": median([
            seconds * REFERENCE_LOOP_US / us for seconds, us in setups
        ]),
        "throughput_rps": median(
            [rate * slow for rate, slow in zip(throughput, host)]
        ),
        "latency_p50_ms": percentile(scaled_ms or [0.0], 0.50),
        "latency_p95_ms": percentile(scaled_ms or [0.0], 0.95),
        "server_cpu_ms_per_req": median(
            [cpu / slow for cpu, slow in zip(cpu_ms, host)]
        ),
        "server_rss_mb": measured["rss_mb"],
        "wire_bytes_per_req": mean([float(s.nbytes) for s in good]),
    }

    # Little's law for a closed loop: CLIENTS = throughput x (latency
    # + think). A ratio away from 1 means the harness lost time it did
    # not account for; a large think share means the harness, not the
    # server, paces the loop.
    elapsed = ticks[-1][0] - ticks[0][0]
    in_windows = [
        s for s in samples if ticks[0][0] <= s.done_at < ticks[-1][0]
    ]
    busy_ms = sum(s.latency_ms for s in in_windows)
    think_ms = sum(s.think_ms for s in in_windows)
    record: Dict[str, Any] = {
        "end_to_end": end_to_end,
        "end_to_end_raw": raw,
        "attempted": len(samples),
        "failed": sum(failures.values()),
        "problems": problems,
        "correct": not problems,
        "setup_samples_s": [seconds for seconds, _us in setups],
        "server_build_s": ready["build_s"],
        "server_warm_s": ready["warm_s"],
        "window_throughput_rps": throughput,
        "window_cpu_ms_per_req": cpu_ms,
        "window_host_slowdown": host,
        "little_ratio": busy_ms / (CLIENTS * elapsed * 1000.0),
        "think_share": think_ms / (busy_ms + think_ms) if busy_ms else 0.0,
        "oracle_checks": checker.oracle_checks,
        "shield_leaks": checker.shield_leaks,
    }
    if "layers" in done:
        record["per_layer"] = per_layer(
            measured, good, ready, done, raw["latency_p50_ms"],
            median(whole_run),
        )
    return record


def per_layer(
    measured: Dict[str, Any], good: List[Sample],
    ready: Dict[str, Any], done: Dict[str, Any],
    latency_p50_ms: float, reference_us: float,
) -> Dict[str, float]:
    """Raw (not host-scaled) values: the layers are read against each
    other and against ``host.reference_loop_us``, not across runs."""
    before, after = measured["metrics_before"], measured["metrics_after"]

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    attempted = float(len(measured["samples"])) or 1.0
    latencies = [s.latency_ms for s in good] or [0.0]
    gets = delta("cache_gets_total")
    layers: Dict[str, float] = dict(done["layers"])
    layers.update({
        "client.latency_p99_ms": percentile(latencies, 0.99),
        "client.latency_max_ms": max(latencies),
        "client.read_p50_ms": median(
            [s.latency_ms for s in good if s.op != "write"]
        ),
        "client.write_p50_ms": median(
            [s.latency_ms for s in good if s.op == "write"]
        ),
        "client.connect_p50_us": median([s.connect_us for s in good]),
        "client.connect_errors": float(sum(
            1 for s in measured["samples"] if s.failure == "connect"
        )),
        "client.samples": float(len(good)),
        "serve.admission.rejected": delta("serve_rejected_total"),
        "obs.spans_per_req": done["spans_per_req"],
        "obs.recorder_fill": ready["recorder_fill"],
        "access.denied_ratio": delta("server_denials_total") / attempted,
        "serve.transport.sends_per_req": (
            delta("serve_sends_total") / attempted
        ),
        "serve.transport.retries": delta("serve_retries_total"),
        "serve.transport.failovers": delta("serve_failovers_total"),
        "core.cache.hit_ratio": (
            delta("cache_hits_total") / gets if gets else 0.0
        ),
        "core.cache.evictions": delta("cache_evictions_total"),
        "trace.socket_overhead_us": (
            latency_p50_ms * 1000.0 - layers["serve.app.handle_us"]
        ),
        "host.reference_loop_us": reference_us,
    })
    missing = [name for name in PER_LAYER_UNITS if name not in layers]
    if missing:
        raise RuntimeError("per-layer metrics missing: %s" % missing)
    return {name: layers[name] for name in PER_LAYER_UNITS}


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_metrics(
    title: str, values: Dict[str, float], units: Dict[str, str]
) -> None:
    print(title)
    for name, unit in units.items():
        print("  %-32s %14.4f %s" % (name, values[name], unit))


def result_line(record: Dict[str, Any], trace: bool) -> str:
    """The one JSON object the driver reads off the last line."""
    values, units = (
        (record["per_layer"], PER_LAYER_UNITS) if trace
        else (record["end_to_end"], END_TO_END_UNITS)
    )
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    })


def report(record: Dict[str, Any]) -> None:
    print(
        "spine %s seed=%d %.0fs: %d attempted, %d failed, "
        "little=%.3f think=%.3f%s"
        % (
            record["workload"], record["seed"], record["seconds"],
            record["attempted"], record["failed"],
            record["little_ratio"], record["think_share"],
            " (quick)" if record["quick"] else "",
        )
    )
    for problem in record["problems"]:
        print("  PROBLEM: %s" % problem)
    print_metrics("end to end", record["end_to_end"], END_TO_END_UNITS)
    if "per_layer" in record:
        print_metrics("per layer", record["per_layer"], PER_LAYER_UNITS)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both values, the delta and
    the bound; non-zero when B is worse than A beyond a bound."""
    with open(path_a, encoding="utf-8") as handle:
        set_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        set_b = json.load(handle)
    same_seed = set_a["seed"] == set_b["seed"]
    outside = 0
    print("%-16s %-22s %12s %12s %8s %7s" % (
        "workload", "metric", "A", "B", "delta", "bound",
    ))
    for workload in WORKLOADS:
        run_a = set_a["workloads"].get(workload)
        run_b = set_b["workloads"].get(workload)
        if run_a is None or run_b is None:
            print("%-16s missing from %s" % (
                workload, path_a if run_a is None else path_b,
            ))
            outside += 1
            continue
        for name, _unit, better, bound in END_TO_END:
            a = run_a["end_to_end"][name]
            b = run_b["end_to_end"][name]
            delta = (b - a) / a
            worse = delta if better == "lower" else -delta
            verdict = ""
            if name == "wire_bytes_per_req" and not same_seed:
                verdict = "n/a (profile content differs by seed)"
            elif worse > bound:
                verdict = "OUTSIDE"
                outside += 1
            print("%-16s %-22s %12.4f %12.4f %+7.1f%% %6.0f%% %s" % (
                workload, name, a, b, delta * 100.0, bound * 100.0,
                verdict,
            ))
        for label, run in (("A", run_a), ("B", run_b)):
            if not run["correct"]:
                print("%-16s %s is not a correct run: %s" % (
                    workload, label, "; ".join(run["problems"]),
                ))
                outside += 1
    print("%d outside bounds" % outside)
    return 1 if outside else 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if arguments[:1] == ["compare"]:
        if len(arguments) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(arguments[1], arguments[2])
    if arguments[:1] == ["manifest"]:
        print(json.dumps(manifest(), indent=2))
        return 0

    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", choices=list(WORKLOADS),
        help="one workload; omit to run all four with tracing",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per run (default %d)" % FULL.seconds,
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: print the per-layer metrics instead of the "
             "end-to-end ones",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="self-test scale: 2000 users, one 2 s window, one set-up",
    )
    parser.add_argument(
        "--out", help="write the run set (all workloads) to this file",
    )
    parser.add_argument(
        "--results-dir", default=os.path.join(SPINE_DIR, "results"),
        help="where trajectory.jsonl and trace_<workload>.json go",
    )
    options = parser.parse_args(arguments)
    scale = QUICK if options.quick else FULL
    seconds = scale.seconds if options.seconds is None else options.seconds

    if options.workload is not None:
        trace = bool(options.trace)
        # A per-layer run does not report ``setup_s``: one set-up.
        record = run_workload(
            options.workload, options.seed, seconds, trace,
            1 if trace else scale.setups,
            options.quick, options.results_dir,
        )
        report(record)
        print(result_line(record, trace))
        return 0

    records = {}
    for workload in WORKLOADS:
        records[workload] = run_workload(
            workload, options.seed, seconds, True, scale.setups,
            options.quick, options.results_dir,
        )
        report(records[workload])
    if options.out:
        first = next(iter(records.values()))
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump({
                "benchmark": "spine",
                "seed": options.seed,
                "quick": options.quick,
                "git_sha": first["git_sha"],
                "workloads": records,
            }, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % options.out)
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
