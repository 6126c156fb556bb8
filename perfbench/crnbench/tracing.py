"""Spans recorded by the benchmark around its own calls into crnkit.

A span is (name, start, end, job id); the job id is the parent.  Spans stay
in memory and are written out once the run ends.  With tracing off the same
call sites run the function directly, so traced and untraced runs differ
only in the recording.
"""

from __future__ import annotations

import json
import time
from typing import Callable, List, Tuple

Span = Tuple[str, float, float, int]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.job = -1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``, recording a span named ``name`` under
        the current job when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, t0, time.perf_counter(), self.job))

    def job_span(self, kind: str, t0: float, t1: float) -> None:
        if self.enabled:
            self.spans.append((f"job.{kind}", t0, t1, self.job))

    def seconds_by_name(self) -> dict:
        """Summed span durations per span name."""
        out: dict = {}
        for name, t0, t1, _ in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0)
        return out

    def write(self, path) -> None:
        """One JSON object per span; times in seconds from the earliest start."""
        origin = min((span[1] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, job in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": t0 - origin, "end": t1 - origin, "job": job}
                    )
                )
                fh.write("\n")


def _noop():
    return None


def span_cost(repeats: int = 20000) -> float:
    """Seconds that recording one span adds to a call, measured as the
    difference between traced and untraced calls of an empty function."""
    best = []
    for enabled in (False, True):
        tracer = Tracer(enabled)
        t0 = time.perf_counter()
        for _ in range(repeats):
            tracer.call("calibrate", _noop)
        best.append(time.perf_counter() - t0)
    return max(best[1] - best[0], 0.0) / repeats


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop; tracks the machine's speed
    between jobs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0
