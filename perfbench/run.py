"""Benchmark driver: runs one workload against the in-tree package, checks every result, prints the metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload deep-eval --seed 1 --seconds 20 --trace 0

Each run starts fresh workload processes (``worker.py``) one after another,
never two at once, with ``PYTHONPATH=src`` and ``QMC_TREE_THREADS`` cleared.
With ``--trace 0`` it times set-up in SETUP_RUNS processes and reports the
median, then reports the end-to-end metrics of the last process's timed
loop.  ``--seconds`` sets how many ops the loop runs (``worker.run_length``):
about that many seconds' worth on the reference host, the same count on
every run, so a seed always gives the same ``attempted`` and ``failed``.  With ``--trace 1`` one process runs the loop untraced and traced by
turns and reports the per-layer metrics.  Before the first process it starts
the host-speed helper of ``hostspeed.py``, and it stops it at the end.  The
times it reports are modelled at the helper's reference host speed; the
figures as timed are in the record and in the ``bench.raw_*`` per-layer
metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the environment, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostClock, start_helper

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
RUN_TIMEOUT_S = 175  # the whole run, every process included
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_worker(cmd: list[str], env: dict, deadline: float, fds: tuple[int, ...]) -> tuple[float, str]:
    """Run one workload process to its end; return (seconds from start to READY, stdout)."""
    t0 = perf_counter()
    ready_at, chunks = None, []
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, pass_fds=fds) as proc:
        try:
            fd = proc.stdout.fileno()
            while True:
                left = deadline - perf_counter()
                if left <= 0:
                    raise TimeoutError(f"workload process exceeded the {RUN_TIMEOUT_S} s run limit")
                if not select.select([fd], [], [], left)[0]:
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                if ready_at is None and b"READY\n" in b"".join(chunks):
                    ready_at = perf_counter() - t0
            code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    out = b"".join(chunks).decode()
    if code != 0 or ready_at is None:
        raise RuntimeError(f"workload process exited with code {code}:\n{out[-2000:]}")
    return ready_at, out


def setup_factor(out: str) -> float:
    """What the worker's set-up time is divided by: the host slowdown right after it, or 1 (hostspeed.py)."""
    return float(next(line for line in out.splitlines() if line.startswith("HOST "))[5:])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("deep-eval", "oracle-crosscheck", "param-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="sets the op count (worker.run_length)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: swap criterion 4's corrupted boundary into one context")
    args = parser.parse_args()
    deadline = perf_counter() + RUN_TIMEOUT_S
    # On SIGTERM, unwind through run_worker, which kills and reaps the workload process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "cayley_qmc" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cayley_qmc'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    cleared = env.pop("QMC_TREE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    OUT.mkdir(exist_ok=True)
    helper, request_fd, reply_fd = start_helper()
    try:
        # The first samples wait out the helper's start, so it never runs beside a workload process.
        for _ in range(3):
            HostClock(request_fd, reply_fd).sample()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(OUT),
               "--host", str(request_fd), str(reply_fd)]
        if args.corrupt:
            cmd.append("--corrupt")
        fds = (request_fd, reply_fd)
        processes = [run_worker(cmd + ["--setup-only"], env, deadline, fds)
                     for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        processes.append(run_worker(cmd, env, deadline, fds))
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # End of input stops the helper; kill it if it does not stop.
        os.close(request_fd)
        os.close(reply_fd)
        try:
            helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            helper.kill()
            helper.wait()
    setups = [(ready_at, setup_factor(out)) for ready_at, out in processes]
    record = json.loads(processes[-1][1].strip().splitlines()[-1])
    run = record["run"]
    slowdown = record["host_slowdown"]

    if args.trace:
        metrics = {k: tuple(v) for k, v in record["layers"].items()}
        metrics["bench.host_slowdown"] = (slowdown, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(t / s for t, s in setups), "s"),
            "ops_per_s": (run["ops_per_s"], "ops/s"),
            "op_p50_ms": (run["op_p50_ms"], "ms"),
            "op_tail_ms": (run["op_tail_ms"], "ms"),
            "peak_rss_mb": (record["peak_rss_mb"], "MiB"),
            "ops_ok_share": ((run["attempted"] - run["wrong"] - run["refused"]) / run["attempted"], "share"),
        }
    failed = run["wrong"] + run["refused"]
    correct = run["wrong"] == 0 and not record.get("acceptance_failed")
    record["setup_runs"] = [{"raw_s": t, "divided_by": s} for t, s in setups]
    record["environment"] = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": record.pop("python"),
        "numpy": record.pop("numpy"),
        "scipy": record.pop("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "qmc_tree_threads_cleared": True,
        "qmc_tree_threads_was": cleared,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "ops_attempted": run["attempted"],
        "ops_failed": failed,
        "tail_percentile": run["tail_percentile"],
        "tail_samples_beyond": run["tail_beyond"],
    }
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-corrupt' if args.corrupt else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    env_line = record["environment"]
    print(f"# {args.workload} seed {args.seed}: {run['attempted']} ops, {failed} failed "
          f"({run['wrong']} wrong, {run['refused']} refused); tail is p{run['tail_percentile']} "
          f"with {run['tail_beyond']} samples beyond; record in {OUT / name}")
    print("# environment " + json.dumps(env_line))
    print(f"# host slowdown {slowdown:.3f}: times below are "
          + ("modelled at the reference host speed" if record["rescaled"] else "as timed, not rescaled"))
    for key, (value, unit) in metrics.items():
        print(f"# {key:36s} {value:14.6g} {unit}")
    print("# as timed: " + ", ".join(f"{k} {v:.6g}" for k, v in run["raw"].items()))
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
