"""Measurement helpers: sample summaries, the span recorder, peak RSS."""

from __future__ import annotations

import contextlib
import resource
import statistics
import time


def summarize(values) -> dict:
    """Median with q1/q3/min/max/n — how every timing is reported."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def median_of(fn, reps: int) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """High-water RSS so far: max of this process and reaped children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


class Spans:
    """In-memory span recorder around the harness's calls into the program.

    One record per span: name, start, end, parent, workload, rep.
    Disabled (the untraced pass) it records nothing, so end-to-end
    metrics are measured with tracing off.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.rep = -1  # -1 = set-up / probes, >= 0 = repetition index

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.records)
        record = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload, "rep": self.rep,
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def with_self_time(self) -> list[dict]:
        """Records plus ``self_s`` = duration minus the children's."""
        child_s = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None:
                child_s[r["parent"]] += r["end"] - r["start"]
        return [
            dict(r, self_s=r["end"] - r["start"] - child_s[i])
            for i, r in enumerate(self.records)
        ]
