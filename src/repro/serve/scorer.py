"""The Scorer: an in-process micro-batching scoring service.

Single-item scoring pays the whole kernel setup (plan lookup, GEMM
dispatch, Python call overhead) per item; a service under heavy traffic
cannot.  The :class:`Scorer` coalesces concurrent requests the way
batched inference servers do:

* requests (each a small :class:`~repro.data.Database`) enter a
  **bounded queue** of ``queue_items`` items — when it is full,
  ``submit`` waits up to :data:`SUBMIT_TIMEOUT_S` and then raises
  :class:`QueueSaturated` (backpressure, not unbounded memory);
* one **worker thread** drains it with **dynamic batching**: it takes
  the oldest request, then keeps gathering until the batch holds
  ``max_batch`` items or :data:`MAX_WAIT_MS` has passed — the classic
  latency/throughput dial;
* each batch is row-concatenated, scored in **one** fused kernel pass
  (:func:`repro.serve.scoring.score_batch`), and split back per
  request;
* results carry **per-request deadlines**: ``PendingResult.result``
  raises :class:`RequestTimeout` when its wait expires, and the
  convenience wrappers retry idempotently — the same
  deadline-then-retry idiom the fault-tolerant collectives use
  (:class:`repro.mpc.errors`' ``CommTimeout`` + ``max_restarts``).

Fault injection reuses :mod:`repro.mpc.faults` directly: pass a
:class:`~repro.mpc.faults.FaultInjector` with specs at the ``"batch"``
site and the worker offers to fire it at every batch boundary
(``cycle`` = the batch sequence number, ``rank`` = 0) — how CI proves
the service stays correct under injected delays.

Everything is instrumented through :class:`repro.obs.serve.
ServeMetrics` (``scorer.metrics``): queue depth, batch-size histogram,
per-request latency, throughput.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.data.database import Database
from repro.mpc import faults as mpc_faults
from repro.obs.serve import ServeMetrics
from repro.serve.artifact import FittedModel
from repro.serve.scoring import BatchScores, check_schema, concat_databases, score_batch


class ServeError(RuntimeError):
    """Base class of scoring-service failures."""


class ScorerClosed(ServeError):
    """The request was submitted to (or orphaned by) a closed Scorer."""


class QueueSaturated(ServeError):
    """Backpressure: the bounded request queue stayed full past the wait."""


class RequestTimeout(ServeError):
    """A per-request deadline expired before the batch was scored."""


#: How long the worker holding a non-full batch waits for more
#: requests before scoring what it has.
MAX_WAIT_MS = 2.0
#: How long ``submit`` blocks on a full queue before raising
#: :class:`QueueSaturated`.
SUBMIT_TIMEOUT_S = 5.0
#: Default deadline of ``PendingResult.result``.
DEFAULT_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ScorerConfig:
    """Tuning knobs of one :class:`Scorer` (see docs/serving.md)."""

    #: Upper bound on *items* per scored batch.
    max_batch: int = 64
    #: Bound on queued items (backpressure threshold).
    queue_items: int = 4096

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_items < 1:
            raise ValueError(f"queue_items must be >= 1, got {self.queue_items}")


class _Request:
    __slots__ = ("db", "event", "scores", "error", "submitted_at", "cancelled")

    def __init__(self, db: Database, submitted_at: float) -> None:
        self.db = db
        self.event = threading.Event()
        self.scores: BatchScores | None = None
        self.error: BaseException | None = None
        self.submitted_at = submitted_at
        self.cancelled = False


class PendingResult:
    """Handle for one in-flight request (a minimal future)."""

    __slots__ = ("_req", "_scorer")

    def __init__(self, req: _Request, scorer: "Scorer") -> None:
        self._req = req
        self._scorer = scorer

    @property
    def done(self) -> bool:
        return self._req.event.is_set()

    def result(self, timeout: float | None = None) -> BatchScores:
        """The request's :class:`~repro.serve.scoring.BatchScores`.

        Blocks up to ``timeout`` seconds (default:
        :data:`DEFAULT_TIMEOUT_S`), then raises :class:`RequestTimeout`.
        Re-raises the scoring error if the batch failed.
        """
        if timeout is None:
            timeout = DEFAULT_TIMEOUT_S
        if not self._req.event.wait(timeout):
            self._scorer.metrics.on_timeout()
            # Pull the request back out of the queue so the worker does
            # not burn a kernel pass on a result nobody will read.  If it
            # already took it into a batch, it finishes normally (a
            # later result() call on this handle can still collect it).
            cancelled = self._scorer._cancel(self._req)
            state = (
                "cancelled while queued" if cancelled
                else "batch already in flight"
            )
            raise RequestTimeout(
                f"request not scored within {timeout:g}s ({state}; "
                f"queue depth {self._scorer.metrics.queue_depth})"
            )
        if self._req.error is not None:
            raise self._req.error
        assert self._req.scores is not None
        return self._req.scores


class _WorkerEndpoint:
    """The comm-shaped shim fault specs address the worker through."""

    clock_kind = "wall"
    hard_exit_supported = False
    rank = 0


class Scorer:
    """Micro-batching scoring service over one :class:`FittedModel`.

    Usage::

        with Scorer(model, ScorerConfig(max_batch=128)) as scorer:
            pending = [scorer.submit(block) for block in blocks]
            labels = [p.result().labels for p in pending]

    or the blocking one-shot wrappers ``predict`` /
    ``predict_logproba`` / ``score_samples`` (which add the
    deadline-then-retry idiom via ``retries=``).  ``start=False``
    defers the worker thread, letting tests (and warm-up code) enqueue
    a backlog first.
    """

    def __init__(
        self,
        model: FittedModel,
        config: ScorerConfig | None = None,
        *,
        faults: "mpc_faults.FaultInjector | None" = None,
        start: bool = True,
    ) -> None:
        self.model = model
        self.config = config or ScorerConfig()
        self.metrics = ServeMetrics()
        self._faults = faults
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._queue: deque[_Request] = deque()
        self._queued_items = 0
        self._closed = False
        self._worker: threading.Thread | None = None
        if start:
            self.start()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise ScorerClosed("cannot start a closed Scorer")
            if self._worker is not None:
                return
            self._worker = threading.Thread(
                target=self._work, name="scorer-worker", daemon=True
            )
        self._worker.start()

    def close(self, *, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (default) lets the worker finish the queued
        backlog first; ``drain=False`` fails queued requests with
        :class:`ScorerClosed` immediately.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            orphans: list[_Request] = []
            if not drain or self._worker is None:
                orphans = list(self._queue)
                self._queue.clear()
                self._queued_items = 0
            self._not_empty.notify_all()
            self._not_full.notify_all()
        if orphans:
            self.metrics.on_orphan(len(orphans))
        for req in orphans:
            req.error = ScorerClosed("Scorer closed before the request ran")
            req.event.set()
            self.metrics.on_done(
                self.metrics.now() - req.submitted_at, error=True
            )
        if self._worker is not None:
            self._worker.join(timeout=30.0)

    def __enter__(self) -> "Scorer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request side -----------------------------------------------------

    def submit(self, db: Database) -> PendingResult:
        """Enqueue one block of items; returns a :class:`PendingResult`.

        Validates the schema eagerly (a bad request must not poison the
        batch it would have joined).  Blocks while the queue is full,
        up to :data:`SUBMIT_TIMEOUT_S`, then raises
        :class:`QueueSaturated`.
        """
        check_schema(db, self.model.classification)
        if db.n_items == 0:
            raise ValueError("cannot submit an empty database")
        req = _Request(db, self.metrics.now())
        with self._not_full:
            while (
                not self._closed
                and self._queued_items + db.n_items > self.config.queue_items
                and self._queued_items > 0
            ):
                if not self._not_full.wait(SUBMIT_TIMEOUT_S):
                    self.metrics.on_reject()
                    raise QueueSaturated(
                        f"request queue stayed full for "
                        f"{SUBMIT_TIMEOUT_S:g}s "
                        f"({self._queued_items} items queued)"
                    )
            if self._closed:
                raise ScorerClosed("Scorer is closed")
            self._queue.append(req)
            self._queued_items += db.n_items
            self._not_empty.notify()
        self.metrics.on_submit()
        return PendingResult(req, self)

    def _cancel(self, req: _Request) -> bool:
        """Drop a timed-out request that is still queued.

        Returns True when it was removed before the worker took it; False
        when it is already in flight (or just completed), in which case
        the batch proceeds untouched.
        """
        with self._not_full:
            try:
                self._queue.remove(req)
            except ValueError:
                return False
            self._queued_items -= req.db.n_items
            req.cancelled = True
            self._not_full.notify_all()
        # Settle the handle so later result() calls fail fast instead
        # of re-arming the deadline on a request that can never run.
        req.error = RequestTimeout("request cancelled after its deadline")
        req.event.set()
        self.metrics.on_cancel()
        return True

    def _scored(
        self, db: Database, timeout: float | None, retries: int
    ) -> BatchScores:
        attempt = 0
        while True:
            try:
                return self.submit(db).result(timeout)
            except RequestTimeout:
                attempt += 1
                if attempt > retries:
                    raise

    def predict(
        self, db: Database, *, timeout: float | None = None, retries: int = 0
    ) -> np.ndarray:
        """Blocking convenience: submit, wait, return hard labels."""
        return self._scored(db, timeout, retries).labels

    def predict_proba(
        self, db: Database, *, timeout: float | None = None, retries: int = 0
    ) -> np.ndarray:
        out = self._scored(db, timeout, retries).log_proba.copy()
        np.exp(out, out=out)
        return out

    def predict_logproba(
        self, db: Database, *, timeout: float | None = None, retries: int = 0
    ) -> np.ndarray:
        return self._scored(db, timeout, retries).log_proba

    def score_samples(
        self, db: Database, *, timeout: float | None = None, retries: int = 0
    ) -> np.ndarray:
        return self._scored(db, timeout, retries).log_evidence

    # -- worker side ------------------------------------------------------

    def _take_batch(self) -> list[_Request] | None:
        """Block for the next dynamic batch; ``None`` means shut down."""
        max_batch = self.config.max_batch
        with self._not_empty:
            while not self._queue:
                if self._closed:
                    return None
                self._not_empty.wait()
            first = self._queue.popleft()
            self._queued_items -= first.db.n_items
            batch = [first]
            n_items = first.db.n_items
            deadline = self.metrics.now() + MAX_WAIT_MS / 1000.0
            while n_items < max_batch:
                if self._queue:
                    nxt = self._queue[0]
                    if n_items + nxt.db.n_items > max_batch:
                        break
                    self._queue.popleft()
                    self._queued_items -= nxt.db.n_items
                    batch.append(nxt)
                    n_items += nxt.db.n_items
                    continue
                remaining = deadline - self.metrics.now()
                if remaining <= 0 or self._closed:
                    break
                self._not_empty.wait(remaining)
                if not self._queue and self._closed:
                    break
            self._not_full.notify_all()
        return batch

    def _work(self) -> None:
        endpoint = _WorkerEndpoint()
        with mpc_faults.injecting(self._faults):
            seq = 0
            while (batch := self._take_batch()) is not None:
                self._run_batch(endpoint, seq, batch)
                seq += 1

    def _run_batch(
        self, endpoint: _WorkerEndpoint, seq: int, batch: list[_Request]
    ) -> None:
        n_items = sum(r.db.n_items for r in batch)
        self.metrics.on_batch(len(batch), n_items)
        error: BaseException | None = None
        scores = None
        try:
            # Fault boundary: a "delay" here models a slow worker (the
            # requests still succeed, just later); a "kill" fails this
            # batch's requests without taking the service down.
            mpc_faults.maybe_fire(
                endpoint, site="batch", try_index=0, cycle=seq
            )
            merged = concat_databases([r.db for r in batch])
            scores = score_batch(merged, self.model.classification)
        except BaseException as exc:  # noqa: BLE001 — forwarded per request
            error = exc
        offset = 0
        for req in batch:
            if error is None and scores is not None:
                req.scores = scores.take(slice(offset, offset + req.db.n_items))
                offset += req.db.n_items
            else:
                req.error = ServeError(f"batch {seq} failed: {error}")
                req.error.__cause__ = error
            req.event.set()
            self.metrics.on_done(
                self.metrics.now() - req.submitted_at, error=error is not None
            )
