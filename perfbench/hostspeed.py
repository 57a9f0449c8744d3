"""The host's current speed, from a fixed kernel run in a helper process.

The 2-core host this benchmark was measured on runs the same code up to
1.6x slower for stretches of seconds to minutes, depending on load from
outside it.  CPU time rises with wall time, so the process is not waiting:
each instruction is slower.  Whole 25 s runs landed in the slow state, so no
statistic taken within one run removes it.  Small work like the recursive
engine's slows by the same factor as a small kernel of that kind.  Sampling
the kernel about every 0.1 s through the timed loop measures the factor as
the run goes, and dividing each op's latency by the factor around it gives
a modelled figure: the op at a reference host speed.  The factor is the
median of the samples within WINDOW samples of the op, about half a second
on either side, so one sample that caught a stray stall does not rescale its
neighbours.  The figures as timed are kept too.

The oracle's large sparse products do not follow this kernel, nor a sparse
one: over five oracle-crosscheck runs, its throughput as timed spread 0.04
while a sparse kernel's slowdown swung by 10% without it, and rescaling by
that kernel spread it to 0.10-0.16.  A workload sets ``rescaled`` to say
whether its times are rescaled.

The kernel runs in a helper process of its own (``python3 hostspeed.py``),
started once per benchmark run before any workload process.  It has its own
heap, so the package's allocations in the workload process cannot move the
kernel's time.  The workload process asks for a sample over a pipe and
blocks until the kernel has run, so the two never run at the same time.  Run
as a script, this file is that helper: it reads one request per sample from
standard input, the number of the CPU the client last ran on, moves itself
to that CPU, runs the kernel, writes its seconds to standard output, and
exits at end of input.
"""

from __future__ import annotations

import ctypes
import os
import statistics
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter

INTERVAL_S = 0.1
WINDOW = 5
REFERENCE_S = 2.5e-3  # the kernel's time in the host's fast state
REQUEST = struct.Struct("<I")  # the CPU the client last ran on
SAMPLE = struct.Struct("<d")  # the kernel's seconds
_LIBC = ctypes.CDLL(None, use_errno=True)


def serve() -> None:
    """The helper process: one timed kernel run per byte read, until end of input.

    The kernel is small work like the recursive engine's and the boundary
    solve's: 8x8 complex products, an einsum partial trace, small tuples and
    dicts.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(8, 8)) + 0j

    def kernel() -> complex:
        m, acc, seen = a, 0j, {}
        for k in range(150):
            m = (a @ m) / 3.0
            acc += np.einsum("abcdbc->ad", (a @ m @ a.conj().T).reshape((2,) * 6))[0, 0]
            seen[k, k % 7] = tuple(range(k % 11))
        return acc

    with os.fdopen(sys.stdin.fileno(), "rb", buffering=0) as requests, \
            os.fdopen(sys.stdout.fileno(), "wb", buffering=0) as replies:
        while request := requests.read(REQUEST.size):
            # Run on the CPU the client last ran on: the host may slow one core and not the other.
            os.sched_setaffinity(0, REQUEST.unpack(request))
            t0 = perf_counter()
            kernel()
            replies.write(SAMPLE.pack(perf_counter() - t0))


def start_helper() -> tuple[subprocess.Popen, int, int]:
    """Start the helper; return it with the (request, reply) pipe ends its clients use."""
    req_r, req_w = os.pipe()
    rep_r, rep_w = os.pipe()
    helper = subprocess.Popen([sys.executable, str(Path(__file__).resolve())], stdin=req_r, stdout=rep_w)
    os.close(req_r)
    os.close(rep_w)
    return helper, req_w, rep_r


class HostClock:
    """The client side: asks the helper for samples and, if ``applied``, rescales times by them.

    A workload whose figures do not follow the kernel keeps its times as
    timed (``applied`` false); its samples are still taken and reported.
    """

    def __init__(self, request_fd: int, reply_fd: int, applied: bool = True) -> None:
        self.request_fd, self.reply_fd = request_fd, reply_fd
        self.applied = applied
        self.samples: list[float] = []
        self.last = perf_counter()

    def sample(self) -> float:
        """Run the kernel once in the helper; return the seconds this process waited for it."""
        t0 = perf_counter()
        os.write(self.request_fd, REQUEST.pack(_LIBC.sched_getcpu()))
        reply = b""
        while len(reply) < SAMPLE.size:
            chunk = os.read(self.reply_fd, SAMPLE.size - len(reply))
            if not chunk:
                raise RuntimeError("the host-speed helper process has ended")
            reply += chunk
        self.samples.append(SAMPLE.unpack(reply)[0])
        self.last = perf_counter()
        return self.last - t0

    def tick(self) -> float:
        """Sample if INTERVAL_S has passed since the last sample; return the seconds spent."""
        return self.sample() if perf_counter() - self.last >= INTERVAL_S else 0.0

    def rescale(self, seconds: float, first: int, last: int | None = None) -> float:
        """An interval at the reference speed: a modelled figure, not a timed one.

        ``first`` is the number of samples taken before the interval started
        and ``last`` the number taken before it ended (``first`` if none were
        taken inside it).  The kernel's own time inside the interval is
        subtracted, and the rest is divided by the slowdown of the samples
        inside it and the WINDOW before and after it.
        """
        last = first if last is None else last
        s = self.samples
        own = seconds - sum(s[first:last])
        return own * REFERENCE_S / statistics.median(s[max(0, first - WINDOW): last + WINDOW]) if self.applied else own

    def slowdown(self, first: int = 0) -> float:
        """Median kernel time from sample ``first`` on, over the reference: 1 in the fast state, 1.6 in the slow one."""
        return statistics.median(self.samples[first:]) / REFERENCE_S

    def factor(self, first: int = 0) -> float:
        """What a time measured around samples ``first`` on is divided by: the slowdown, or 1 if not applied."""
        return self.slowdown(first) if self.applied else 1.0


if __name__ == "__main__":
    serve()
