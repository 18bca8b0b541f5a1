"""Self-tests of the spine benchmark.

    python -m pytest benchmarks/spine/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from itertools import islice

import pytest

import run as spine
from stats import median, percentile
from workloads import WORKLOADS, Population, request_stream
from world import QUICK_USERS

RUN_PY = os.path.join(spine.SPINE_DIR, "run.py")


# -- the request generator ---------------------------------------------------

def _first_requests(workload: str, seed: int, count: int = 200) -> list:
    population = Population(seed, QUICK_USERS)
    return [
        raw for raw, _expect in islice(
            request_stream(workload, seed, "client", population, 0), count
        )
    ]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_generator_is_a_pure_function_of_the_seed(workload):
    assert _first_requests(workload, 7) == _first_requests(workload, 7)
    assert _first_requests(workload, 7) != _first_requests(workload, 8)


def test_lanes_never_share_a_subscriber():
    population = Population(3, QUICK_USERS)
    assert not set(population.lane(0)) & set(population.lane(1))


def test_write_mix_reads_back_what_it_wrote():
    population = Population(5, QUICK_USERS)
    stream = request_stream("write_mix", 5, "client", population, 1)
    requests = list(islice(stream, 400))
    writes = [
        index for index, (_raw, expect) in enumerate(requests[:-1])
        if expect.op == "write"
    ]
    assert 0.2 < len(writes) / len(requests) < 0.4
    for index in writes:
        written, following = requests[index][1], requests[index + 1][1]
        assert following.op == "read"
        assert following.user == written.user
        assert following.marker == written.marker
        assert written.marker.encode() in requests[index][0]


# -- helpers -------------------------------------------------------------------

def test_percentile_and_median():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 0.5) == 3.0
    assert percentile(samples, 1.0) == 5.0
    assert percentile(list(range(1, 101)), 0.95) == 95
    assert median(samples) == 3.0
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5
    assert median([]) == 0.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_manifest_is_what_the_repo_commits():
    manifest = spine.manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in manifest["end_to_end"]]
    names += [m["name"] for m in manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in manifest["end_to_end"])
    committed = os.path.join(spine.REPO_ROOT, "BENCHMARK.json")
    with open(committed, encoding="utf-8") as handle:
        assert json.load(handle) == manifest


# -- compare -------------------------------------------------------------------

def _run_set(tmp_path, name: str, throughput: float, seed: int = 1) -> str:
    end_to_end = {
        metric: 10.0 for metric, _u, _b, _bound in spine.END_TO_END
    }
    end_to_end["throughput_rps"] = throughput
    path = tmp_path / name
    path.write_text(json.dumps({
        "seed": seed,
        "workloads": {
            workload: {
                "end_to_end": end_to_end, "correct": True, "problems": [],
            }
            for workload in WORKLOADS
        },
    }))
    return str(path)


def test_compare_fails_on_a_throughput_drop_beyond_the_bound(
    tmp_path, capsys
):
    bound = {
        name: bound for name, _u, _b, bound in spine.END_TO_END
    }["throughput_rps"]
    base = _run_set(tmp_path, "a.json", 100.0)
    assert spine.main(["compare", base, _run_set(
        tmp_path, "within.json", 100.0 * (1.0 - bound + 0.05)
    )]) == 0
    capsys.readouterr()
    assert spine.main(["compare", base, _run_set(
        tmp_path, "drop.json", 100.0 * (1.0 - bound - 0.05)
    )]) == 1
    assert "OUTSIDE" in capsys.readouterr().out
    # Faster is never a regression.
    assert spine.main(
        ["compare", base, _run_set(tmp_path, "gain.json", 150.0)]
    ) == 0


# -- the whole thing, small ----------------------------------------------------

@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    results = tmp_path_factory.mktemp("spine")
    out = results / "quick.json"
    started = time.perf_counter()  # gupcheck: ignore[determinism] -- the self-test bounds the quick run's wall time
    completed = subprocess.run(
        [sys.executable, RUN_PY, "--quick", "--seed", "11",
         "--out", str(out), "--results-dir", str(results)],
        capture_output=True, text=True, timeout=170,
    )
    elapsed = time.perf_counter() - started  # gupcheck: ignore[determinism] -- the self-test bounds the quick run's wall time
    assert completed.returncode == 0, completed.stdout + completed.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), elapsed, results


def test_quick_runs_all_four_workloads_in_30_s(quick_run):
    run_set, elapsed, _results = quick_run
    assert elapsed < 30.0
    assert list(run_set["workloads"]) == list(WORKLOADS)
    for workload, record in run_set["workloads"].items():
        assert record["correct"], (workload, record["problems"])
        assert record["failed"] == 0 and record["attempted"] > 0
        assert record["shield_leaks"] == 0
        assert all(value > 0 for value in record["end_to_end"].values())


def test_quick_starts_at_steady_state(quick_run):
    run_set, _elapsed, _results = quick_run
    for record in run_set["workloads"].values():
        layers = record["per_layer"]
        assert layers["obs.recorder_fill"] >= 1.0
        assert layers["serve.admission.rejected"] == 0
        assert layers["serve.transport.retries"] == 0
        assert layers["serve.transport.failovers"] == 0


def test_quick_trace_accounts_for_the_real_request(quick_run):
    run_set, _elapsed, results = quick_run
    for workload, record in run_set["workloads"].items():
        coverage = record["per_layer"]["trace.coverage"]
        assert 0.8 <= coverage <= 1.2, (workload, coverage)
        with open(
            results / ("trace_%s.json" % workload), encoding="utf-8"
        ) as handle:
            spans = json.load(handle)["spans"]
        assert spans and all(
            span["end_ns"] >= span["start_ns"] for span in spans
        )


def test_quick_layers_land_where_the_workloads_aim(quick_run):
    run_set, _elapsed, _results = quick_run
    layers = {
        workload: record["per_layer"]
        for workload, record in run_set["workloads"].items()
    }
    # (the full-size run warms 15x longer and hits >= 0.95)
    assert layers["presence_cached"]["core.cache.hit_ratio"] >= 0.5
    assert layers["book_chain"]["core.cache.hit_ratio"] == 0.0
    assert layers["profile_shield"]["pxml.merge.merge_us"] > 0
    assert 0.03 < layers["profile_shield"]["access.denied_ratio"] < 0.2
    assert layers["write_mix"]["adapters.put_us"] > 0
    assert layers["write_mix"]["bus.records_per_write"] == 1.0
    assert layers["write_mix"]["pxml.parse.parse_us"] > 0


def test_single_run_prints_the_contract_line(tmp_path):
    completed = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "presence_cached",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--quick",
         "--results-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        name for name, _u, _b, _bound in spine.END_TO_END
    }
    record = json.loads(
        (tmp_path / "trajectory.jsonl").read_text().splitlines()[-1]
    )
    for key in ("git_sha", "python", "nproc", "seed",
                "host.calibration_ops_per_s", "time_wait_sockets"):
        assert key in record
