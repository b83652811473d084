"""Serving-side observability: queue depth, batching, latency, throughput.

The training path's recorder times the paper's six fixed EM phases;
the serving path (:mod:`repro.serve`) has a different shape — a request
queue, dynamic batches, per-request deadlines — so it gets its own
small, thread-safe aggregate.  A :class:`ServeMetrics` lives on each
:class:`repro.serve.scorer.Scorer` and is updated by the submitting
threads and the worker thread; :meth:`snapshot` returns a plain dict
(JSON-ready) and :meth:`render` a human table, mirroring the
``snapshot/render`` idiom of :mod:`repro.obs.report`.

Batch sizes are kept as an exact histogram (size -> count): batches are
bounded by ``max_batch``, so the histogram is small by construction,
and the batch-size distribution *is* the tuning signal the
``max_batch`` knob is turned against.
"""

from __future__ import annotations

import threading
import time
from repro.util.tables import format_table


class ServeMetrics:
    """Thread-safe counters for one scoring service instance."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.n_submitted = 0      # requests accepted into the queue
        self.n_completed = 0      # requests fulfilled
        self.n_errors = 0         # requests fulfilled with an error
        self.n_rejected = 0       # backpressure rejections (never queued)
        self.n_timeouts = 0       # result() deadlines that expired
        self.n_cancelled = 0      # timed-out requests dropped before scoring
        self.n_batches = 0
        self.n_items = 0          # items scored across all batches
        self.batch_hist: dict[int, int] = {}   # batch size (items) -> count
        self.queue_depth = 0      # current queued requests
        self.queue_depth_peak = 0
        self.latency_total_s = 0.0
        self.latency_max_s = 0.0
        self._first_submit: float | None = None
        self._last_done: float | None = None

    # -- update hooks (called by the Scorer) ------------------------------

    def now(self) -> float:
        return self._clock()

    def on_submit(self) -> None:
        with self._lock:
            self.n_submitted += 1
            self.queue_depth += 1
            self.queue_depth_peak = max(self.queue_depth_peak, self.queue_depth)
            if self._first_submit is None:
                self._first_submit = self._clock()

    def on_reject(self) -> None:
        with self._lock:
            self.n_rejected += 1

    def on_timeout(self) -> None:
        with self._lock:
            self.n_timeouts += 1

    def on_cancel(self) -> None:
        """A timed-out request removed from the queue before the worker
        took it — its kernel pass was saved."""
        with self._lock:
            self.n_cancelled += 1
            self.queue_depth -= 1

    def on_orphan(self, n_requests: int) -> None:
        """Requests dropped from the queue by a non-draining close."""
        with self._lock:
            self.queue_depth -= n_requests

    def on_batch(self, n_requests: int, n_items: int) -> None:
        with self._lock:
            self.n_batches += 1
            self.n_items += n_items
            self.queue_depth -= n_requests
            self.batch_hist[n_items] = self.batch_hist.get(n_items, 0) + 1

    def on_done(self, latency_s: float, *, error: bool = False) -> None:
        with self._lock:
            self.n_completed += 1
            if error:
                self.n_errors += 1
            self.latency_total_s += latency_s
            self.latency_max_s = max(self.latency_max_s, latency_s)
            self._last_done = self._clock()

    # -- read side --------------------------------------------------------

    @property
    def mean_batch_items(self) -> float:
        with self._lock:
            return self.n_items / self.n_batches if self.n_batches else 0.0

    @property
    def mean_latency_s(self) -> float:
        with self._lock:
            if not self.n_completed:
                return 0.0
            return self.latency_total_s / self.n_completed

    @property
    def throughput_items_per_s(self) -> float:
        """Items scored per wall second, first submit to last completion."""
        with self._lock:
            if self._first_submit is None or self._last_done is None:
                return 0.0
            elapsed = self._last_done - self._first_submit
            return self.n_items / elapsed if elapsed > 0 else float("inf")

    def snapshot(self) -> dict:
        """Plain-data view (JSON-ready; histogram keys become strings)."""
        with self._lock:
            hist = dict(sorted(self.batch_hist.items()))
        return {
            "n_submitted": self.n_submitted,
            "n_completed": self.n_completed,
            "n_errors": self.n_errors,
            "n_rejected": self.n_rejected,
            "n_timeouts": self.n_timeouts,
            "n_cancelled": self.n_cancelled,
            "n_batches": self.n_batches,
            "n_items": self.n_items,
            "queue_depth": self.queue_depth,
            "queue_depth_peak": self.queue_depth_peak,
            "batch_size_hist": {str(k): v for k, v in hist.items()},
            "mean_batch_items": self.mean_batch_items,
            "mean_latency_s": self.mean_latency_s,
            "latency_max_s": self.latency_max_s,
            "throughput_items_per_s": self.throughput_items_per_s,
        }

    def render(self) -> str:
        """Human-readable summary table plus the batch-size histogram."""
        snap = self.snapshot()
        rows = [
            ("requests", f"{snap['n_submitted']}"),
            ("completed / errors", f"{snap['n_completed']} / {snap['n_errors']}"),
            ("rejected / timeouts / cancelled",
             f"{snap['n_rejected']} / {snap['n_timeouts']} / "
             f"{snap['n_cancelled']}"),
            ("batches (items)", f"{snap['n_batches']} ({snap['n_items']})"),
            ("mean batch items", f"{snap['mean_batch_items']:.1f}"),
            ("queue depth peak", f"{snap['queue_depth_peak']}"),
            ("mean latency", f"{snap['mean_latency_s'] * 1e3:.2f} ms"),
            ("max latency", f"{snap['latency_max_s'] * 1e3:.2f} ms"),
            ("throughput", f"{snap['throughput_items_per_s']:.0f} items/s"),
        ]
        table = format_table(["metric", "value"], rows)
        hist = snap["batch_size_hist"]
        if hist:
            bars = " ".join(f"{k}:{v}" for k, v in hist.items())
            table += f"\nbatch-size histogram (items:count): {bars}"
        return table
