"""Self-tests of the benchmark: its checker catches a corrupted boundary, and every metric is printed.

    python3 -m pytest perfbench/tests -q

Most of them run the benchmark itself at minimal length, so the file takes a
few minutes (each traced run times the acceptance suite once).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

from hostspeed import REFERENCE_S, HostClock, start_helper  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from worker import run_length, tail  # noqa: E402


def run_bench(workload: str, trace: int, *extra: str, seconds: int = 1, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=400)


@pytest.mark.parametrize("workload, seconds", [("deep-eval", 5), ("oracle-crosscheck", 1)])
def test_corrupted_boundary_fails_its_ops(workload, seconds):
    res = run_bench(workload, 0, "--corrupt", seconds=seconds)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed3-trace0-corrupt.json").read_text())
    assert result["failed"] > 0 and not result["correct"]
    assert result["failed"] == record["run"]["wrong"]
    # Every failure sits on the corrupted context; the healthy ones all pass.
    assert set(record["run"]["failed_by_context"]) == {"1,0.5,0.8/disordered/corrupted"}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_prints_every_metric(workload, trace, section):
    res = run_bench(workload, trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = run_bench("deep-eval", 0, cwd=tmp_path)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_same_seed_runs_and_fails_the_same_ops():
    # param-sweep is the workload with failures at the seed (low-temperature refusals).
    # Ten seconds is past count_ops, so the count comes from --seconds.
    first, second = (run_bench("param-sweep", 0, seconds=10) for _ in range(2))
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    a, b = (json.loads(res.stdout.strip().splitlines()[-1]) for res in (first, second))
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])


def test_run_length_is_whole_cycles_set_by_seconds_alone():
    wl = SimpleNamespace(nominal_rate=3.5, cycle=24, count_ops=40)
    assert run_length(wl, 25) == 96  # 87.5 ops rounded up to whole cycles
    assert run_length(wl, 1) == 48  # never fewer than count_ops
    assert run_length(wl, 60) == 216


def test_tail_keeps_its_percentile_or_refuses():
    samples = [float(k) for k in range(1, 201)]
    assert tail(samples, 95) == (190.0, 10)
    assert tail(samples[:40], 75) == (30.0, 10)
    with pytest.raises(ValueError):
        tail(samples, 99)


def test_host_clock_rescales_by_the_median_sample_around_an_interval():
    clock = HostClock(-1, -1)
    ref = REFERENCE_S
    clock.samples = [2 * ref, 3 * ref, 3 * ref, 30 * ref, 3 * ref]
    # The kernel took 3x its reference time around this op; the stray 30x sample does not count.
    assert clock.rescale(0.3, 2) == pytest.approx(0.1)
    # Sample 1 was taken inside this interval: its time is taken out first.
    assert clock.rescale(1.0 + 3 * ref, 1, 2) == pytest.approx(1 / 3)
    assert clock.slowdown() == pytest.approx(3)
    clock.applied = False  # a workload that is not rescaled keeps its times, less the kernel's
    assert clock.rescale(1.0 + 3 * ref, 1, 2) == pytest.approx(1.0)
    assert clock.factor() == 1.0


def test_host_speed_helper_samples_and_stops_at_end_of_input():
    helper, request_fd, reply_fd = start_helper()
    clock = HostClock(request_fd, reply_fd)
    clock.sample()
    clock.sample()
    os.close(request_fd)
    os.close(reply_fd)
    assert helper.wait(timeout=60) == 0
    assert len(clock.samples) == 2 and all(0 < x < 1 for x in clock.samples)


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.enabled = True
    with tr.op_span(0):
        tr.call("qmc_state.outer", lambda: tr.call("model_ops.inner", sum, range(10**5)))
    spans = tr.spans
    selfs = self_times(spans)
    total = spans[0][2] - spans[0][1]
    assert selfs["model_ops"] == pytest.approx(spans[2][2] - spans[2][1])
    assert sum(selfs.values()) == pytest.approx(total)
