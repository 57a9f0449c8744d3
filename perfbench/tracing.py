"""Spans around the benchmark's own calls into the package.

A span records name, start, end, parent span, op id, the exception type if
the call raised, optional metadata, and how many host-speed samples
(hostspeed.py) had been taken at its start and at its end.  A span outside
the ops is followed by a sample, so every span can be rescaled by the samples
around it.  Spans stay in memory until the workload process writes them out
at exit.  The layer of a span is the part
of its name before the first dot (``qmc_state.eval_recursive`` belongs to
``qmc_state``); the harness's own op spans are ``bench.op``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP, ERROR, META, FIRST, LAST = range(9)


class Tracer:
    """Records spans while ``enabled``; a disabled tracer only forwards calls."""

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.t0 = perf_counter()

    def call(self, name: str, fn, *args, meta=None):
        """Call ``fn(*args)``, inside a span named ``name`` when enabled."""
        if not self.enabled:
            return fn(*args)
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op, None, meta,
               self._samples(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args)
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            rec[END] = perf_counter()
            rec[LAST] = self._samples()
            if self.clock is not None and self.op is None:
                self.clock.sample()

    @contextmanager
    def op_span(self, op_id: int):
        """The ``bench.op`` span of one op; its metadata dict is yielded for the op to fill."""
        meta: dict = {}
        if not self.enabled:
            yield meta
            return
        self.op = op_id
        rec = ["bench.op", perf_counter(), None, None, op_id, None, meta, self._samples(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield meta
        finally:
            self._stack.pop()
            rec[END] = perf_counter()
            rec[LAST] = self._samples()
            self.op = None

    def _samples(self) -> int:
        return len(self.clock.samples) if self.clock is not None else 0

    def seconds(self, span: list) -> float:
        """The span's duration at the reference host speed (a modelled figure)."""
        return self.clock.rescale(span[END] - span[START], span[FIRST], span[LAST])

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "error", "meta", "samples_before", "samples_at_end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "clock": "perf_counter seconds since tracer start",
                    "host_samples_s": self.clock.samples if self.clock is not None else [],
                    "spans": [
                        dict(zip(keys, (s[NAME], s[START] - self.t0, s[END] - self.t0, *s[PARENT:])))
                        for s in self.spans
                    ],
                },
                fh,
            )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer over the spans of ops: each span's duration minus its children's."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s[OP] is not None:
            out[layer_of(s[NAME])] += s[END] - s[START] - child_time[i]
    return dict(out)


def durations(spans: list[list], name: str, in_ops: bool | None = None) -> list[float]:
    """Durations of the spans called ``name``; ``in_ops`` keeps only op (True) or non-op (False) spans."""
    return [
        s[END] - s[START]
        for s in spans
        if s[NAME] == name and (in_ops is None or (s[OP] is not None) == in_ops)
    ]
