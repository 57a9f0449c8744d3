"""One workload process: set-up, then the timed closed loop.

run.py starts it with the package on the path, for example

    PYTHONPATH=src python3 perfbench/worker.py --workload deep-eval --seed 1 --seconds 20 --trace 0

It prints ``READY`` when set-up is done (run.py times set-up from process
start to that line), then ``HOST <factor>``, the host slowdown from 20
kernel samples (hostspeed.py) or 1 if the workload is not rescaled, then nothing until one JSON line with the run's figures.
run.py passes the pipe ends of its host-speed helper with ``--host``.
One op is in flight at a time; the next starts when the previous one has been
checked.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

MIN_BEYOND = 10  # a tail percentile needs at least this many samples above it


def tail(latencies: list[float], q: float) -> tuple[float, int]:
    """(value, samples beyond) of the nearest-rank ``q``-th percentile.

    Raises if fewer than MIN_BEYOND samples lie beyond it; each workload's
    ``count_ops``, the least a run runs, is large enough that a run always has them.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} ops has {n - rank} samples beyond it, fewer than {MIN_BEYOND}")
    return ordered[rank - 1], n - rank


def run_length(wl, seconds: float) -> int:
    """The ops of one run: ``seconds`` at the workload's ``nominal_rate``, in whole cycles, at least ``count_ops``.

    The count depends only on the workload and ``seconds``, never on the
    clock, so runs with the same seed run the same ops and fail the same
    ones.  On a host or program slower than the nominal rate a run takes
    longer than ``seconds``.
    """
    cycles = max(math.ceil(seconds * wl.nominal_rate / wl.cycle), math.ceil(wl.count_ops / wl.cycle))
    return cycles * wl.cycle


def closed_loop(wl, tr, ck, clock, count: int, first: int = 0) -> dict:
    """Run ops ``first`` to ``first + count - 1`` back to back.

    Between ops the host clock samples its kernel; that time is not part of
    the loop's elapsed time.  Each op notes how many samples preceded it.
    """
    from cayley_qmc.errors import CayleyQmcError

    latencies, kinds, before, failures = [], [], [], []
    wrong = refused = 0
    failed_by_ctx: Counter = Counter()
    start, cpu_start = perf_counter(), process_time()
    sampling = 0.0
    for i in range(first, first + count):
        before.append(len(clock.samples))
        t0 = perf_counter()
        ck.start_op()
        with tr.op_span(i) as meta:
            try:
                wl.op(i, tr, ck, meta)
            except CayleyQmcError as exc:
                ck.refusal(f"op {i}", exc)
            except Exception as exc:  # a crashing op is a failed op, not an aborted run
                ck.wrong.append(f"op {i} raised {type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t0)
        kinds.append(meta.get("kind"))
        sampling += clock.tick()
        if ck.wrong or ck.refused:
            wrong += bool(ck.wrong)
            refused += not ck.wrong
            failed_by_ctx[meta.get("ctx", "?")] += 1
            if len(failures) < 20:
                failures.append({"op": i, **meta, "problems": ck.wrong + ck.refused})
    elapsed = perf_counter() - start - sampling
    cpu = process_time() - cpu_start  # the kernel runs in the helper, so sampling adds no CPU time here
    clock.sample()  # every op has a sample after it
    return {
        "next": first + count,
        "latencies": latencies,
        "rescaled": [clock.rescale(lat, b) for lat, b in zip(latencies, before)],
        "kinds": kinds,
        "wrong": wrong,
        "refused": refused,
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "failed_by_context": failed_by_ctx,
        "failures": failures,
    }


def summarize(wl, phases: list[dict]) -> dict:
    """End-to-end figures of one or more phases of the same mode.

    The times are modelled at the reference host speed: each op's latency
    divided by the host slowdown sampled around it (hostspeed.py).  ``raw``
    holds the figures as timed.
    """
    raw = [x for p in phases for x in p["latencies"]]
    latencies = [x for p in phases for x in p["rescaled"]]
    wrong = sum(p["wrong"] for p in phases)
    refused = sum(p["refused"] for p in phases)
    elapsed = sum(p["elapsed_s"] for p in phases)
    ok = len(latencies) - wrong - refused
    value, beyond = tail(latencies, wl.tail_percentile)
    return {
        "attempted": len(latencies),
        "wrong": wrong,
        "refused": refused,
        "ops_per_s": ok / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "tail_percentile": wl.tail_percentile,
        "tail_beyond": beyond,
        "raw": {
            "elapsed_s": elapsed,
            "cpu_s": sum(p["cpu_s"] for p in phases),
            "ops_per_s": ok / elapsed,
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": tail(raw, wl.tail_percentile)[0] * 1e3,
        },
        "failed_by_context": dict(sum((p["failed_by_context"] for p in phases), Counter())),
        "failures": [f for p in phases for f in p["failures"]][:20],
        "latencies_ms": [x * 1e3 for x in raw],
        "kinds": [k for p in phases for k in p["kinds"]],
    }


def layer_metrics(tr, probe_tr, import_s: float, untraced: dict, traced: dict, margin: float) -> tuple[dict, list]:
    """Per-layer figures from the traced phase's spans, with the probe's spans where a layer had none.

    Times are each span's own time at the reference host speed, rescaled by
    the host-speed samples around that span (``Tracer.seconds``; both tracers
    share one clock).  Shares are ratios of times as timed, and the
    ``bench.*`` rates and latencies are as timed.
    """
    from tracing import ERROR, META, NAME, OP, durations, self_times

    filled = []

    def pick(name: str, in_ops: bool | None = None) -> list[list]:
        spans = [s for s in tr.spans if s[NAME] == name and (in_ops is None or (s[OP] is not None) == in_ops)]
        if not spans:
            filled.append(name)
            spans = [s for s in probe_tr.spans if s[NAME] == name]
        return spans

    def median_of(name: str, scale: float, in_ops: bool | None = True) -> float:
        return statistics.median(map(tr.seconds, pick(name, in_ops))) * scale

    def counted(prefix: str) -> int:
        return sum(1 for s in tr.spans if s[NAME].startswith(prefix) and s[ERROR] is not None and s[OP] is not None)

    def per_vertex(family: str) -> float:
        spans = [s for s in pick("qmc_state.eval_recursive", True) if s[META]["family"] == family]
        if not spans:
            filled.append(f"qmc_state.eval_recursive[{family}]")
            spans = [s for s in probe_tr.spans if s[NAME] == "qmc_state.eval_recursive" and s[META]["family"] == family]
        return sum(map(tr.seconds, spans)) / sum(s[META]["vertices"] for s in spans) * 1e6

    op_time = sum(durations(tr.spans, "bench.op"))
    selfs = self_times(tr.spans)
    weights = pick("qmc_state.weight_matrix", None)  # two volumes per context
    scans = pick("analysis.phase_scan", None)
    channel = [s for s in probe_tr.spans if s[NAME] == "model_ops.vertex_channel"]
    oracle = sum(durations(tr.spans, "qmc_state.eval_sparse", True) + durations(tr.spans, "qmc_state.eval_bruteforce", True))
    acc = {s[NAME]: tr.seconds(s) for s in probe_tr.spans if s[NAME].startswith("acceptance.")}
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.main_ms": (median_of("cli.main", 1e3), "ms"),
        "boundary.solve_ms": (median_of("boundary.solve", 1e3), "ms"),
        "boundary.phase_region_us": (median_of("boundary.phase_region", 1e6), "us"),
        "boundary.refusals": (counted("boundary."), "count"),
        "model_ops.vertex_channel_us": (
            statistics.median(tr.seconds(s) / s[META]["calls"] for s in channel) * 1e6, "us"),
        "model_ops.vertex_operator_us": (median_of("model_ops.vertex_operator", 1e6), "us"),
        "model_ops.transfer_numeric_us": (median_of("model_ops.transfer_numeric", 1e6), "us"),
        "qmc_state.ctx_create_ms": (median_of("qmc_state.ctx_create", 1e3, None), "ms"),
        "qmc_state.ctx_refusals": (counted("qmc_state.ctx_create"), "count"),
        "qmc_state.recursive_ms": (median_of("qmc_state.eval_recursive", 1e3), "ms"),
        "qmc_state.active_vertices": (
            sum(s[META]["vertices"] for s in tr.spans
                if s[NAME] == "qmc_state.eval_recursive" and s[OP] is not None), "count"),
        "qmc_state.us_per_vertex.shared": (per_vertex("shared"), "us"),
        "qmc_state.us_per_vertex.unshared": (per_vertex("unshared"), "us"),
        "qmc_state.dense_build_ms": (2 * sum(map(tr.seconds, weights)) / len(weights) * 1e3, "ms"),
        "qmc_state.dense_eval_ms": (median_of("qmc_state.eval_bruteforce", 1e3), "ms"),
        "qmc_state.sparse_first_ms": (median_of("qmc_state.sparse_first", 1e3, None), "ms"),
        "qmc_state.sparse_eval_ms": (median_of("qmc_state.eval_sparse", 1e3), "ms"),
        "qmc_state.oracle_share": (oracle / op_time, "share"),
        "qmc_state.check_margin_log10": (margin, "log10"),
        "analysis.phase_scan_points_per_s": (
            sum(s[META]["points"] for s in scans) / sum(map(tr.seconds, scans)), "points/s"),
        "analysis.correlation_ms": (median_of("analysis.correlation", 1e3), "ms"),
        "analysis.closed_form_us": (median_of("analysis.closed_form", 1e6), "us"),
        "acceptance.criterion_04_s": (acc["acceptance.criterion_04"], "s"),
        "acceptance.criterion_05_s": (acc["acceptance.criterion_05"], "s"),
        "acceptance.run_all_s": (acc["acceptance.run_all"], "s"),
        "bench.self_share": (selfs.get("bench", 0.0) / op_time, "share"),
        # The overhead and its two bases are all raw elapsed throughputs of the
        # interleaved halves, which saw the same host on average.
        "bench.trace_overhead": (untraced["raw"]["ops_per_s"] / traced["raw"]["ops_per_s"] - 1, "share"),
        "bench.ops_per_s_untraced": (untraced["raw"]["ops_per_s"], "ops/s"),
        "bench.ops_per_s_traced": (traced["raw"]["ops_per_s"], "ops/s"),
        "bench.raw_op_p50_ms": (untraced["raw"]["op_p50_ms"], "ms"),
        "bench.raw_op_tail_ms": (untraced["raw"]["op_tail_ms"], "ms"),
    }
    for layer in ("cli", "boundary", "model_ops", "qmc_state", "analysis"):
        m[f"{layer}.self_share"] = (selfs.get(layer, 0.0) / op_time, "share")
    return m, filled


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="sets the op count (run_length)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help="exit after set-up (set-up timing runs)")
    parser.add_argument("--corrupt", action="store_true", help="swap in criterion 4's corrupted boundary")
    parser.add_argument("--host", nargs=2, type=int, metavar=("REQUEST_FD", "REPLY_FD"), required=True,
                        help="the pipe ends of the host-speed helper (hostspeed.py)")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    t0 = perf_counter()
    import cayley_qmc  # noqa: F401  (timed as cli.import_s)
    import_s = perf_counter() - t0

    import numpy
    import scipy

    import workloads
    from hostspeed import HostClock
    from tracing import Tracer

    clock = HostClock(int(args.host[0]), int(args.host[1]), workloads.WORKLOADS[args.workload].rescaled)
    tr = Tracer(clock)
    tr.enabled = bool(args.trace)  # set-up spans feed the set-up layer figures
    wl = workloads.WORKLOADS[args.workload](args.seed, tr, corrupt=args.corrupt)
    tr.enabled = False
    print("READY", flush=True)
    first = len(clock.samples)
    for _ in range(20):
        clock.sample()
    setup_factor = clock.factor(first)
    print(f"HOST {setup_factor!r}", flush=True)
    if args.setup_only:
        return 0

    ck = workloads.Checker()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "corrupt": args.corrupt,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "import_s": import_s,
    }
    loop_first = len(clock.samples)
    ops = run_length(wl, args.seconds)
    record["ops_per_mode"] = ops
    if not args.trace:
        record["run"] = summarize(wl, [closed_loop(wl, tr, ck, clock, ops)])
    else:
        # Each mode runs the same ops as an untraced run, in two parts of
        # whole cycles.  The parts alternate, untraced, traced, untraced,
        # traced, so drift during the run hits both modes alike; each mode
        # continues its own op sequence.
        cycles = ops // wl.cycle
        parts = ((cycles + 1) // 2 * wl.cycle, cycles // 2 * wl.cycle)
        phases = {False: [], True: []}
        for traced, count in ((False, parts[0]), (True, parts[0]), (False, parts[1]), (True, parts[1])):
            tr.enabled = traced
            done = phases[traced]
            done.append(closed_loop(wl, tr, ck if traced else workloads.Checker(), clock, count,
                                    done[-1]["next"] if done else 0))
        tr.enabled = False
        untraced, traced = summarize(wl, phases[False]), summarize(wl, phases[True])
        probe_tr = Tracer(clock)
        probe_tr.enabled = True
        workloads.vertex_channel_batch(probe_tr, wl.contexts or workloads.build_contexts(
            probe_tr, (workloads.ORDERED_POINT,), workloads.ORDERED, False))
        workloads.probe(probe_tr, args.seed)
        acceptance = workloads.time_acceptance(probe_tr)
        record["acceptance_failed"] = [r.name for r in acceptance if not r.passed]
        metrics, filled = layer_metrics(tr, probe_tr, import_s / setup_factor, untraced, traced, ck.worst_margin)
        record.update(run=traced, untraced=untraced, layers=metrics, filled_by_probe=filled)
        spans_path = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.json"
        tr.write(spans_path)
        probe_tr.write(spans_path.with_name(spans_path.stem + "-probe.json"))
        record["spans_file"] = str(spans_path)
    record["rescaled"] = clock.applied
    record["host_slowdown"] = clock.slowdown(loop_first)
    record["host_samples_s"] = clock.samples[loop_first:]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
