"""Process-backed SPMD world: real OS processes over a pipe mesh.

``run_spmd_processes(fn, size)`` forks ``size`` worker processes wired
into a full mesh of duplex pipes and runs ``fn(comm, *args)`` on each.
This is the closest thing to a real multicomputer this host can offer:
separate address spaces, kernel-mediated message passing, genuine
serialization costs.  It validates that the SPMD code carries no hidden
shared-memory assumptions (with threads, an aliasing bug could pass
silently; with processes it cannot).

Wire
----
There is one wire: every payload is pickled over the pipe to its peer.
``transport="pipe"`` (the default) and ``"shm"`` are both accepted and
both mean this pipe; ``"shm"`` is an alias kept only because the
``benchmarks/e2e`` workloads pass it.

Sends are *buffered and non-rendezvous*: a payload of
:data:`_DIRECT_SEND_MAX` bytes or more is handed to a per-rank
background writer thread, so a symmetric exchange of large arrays can
never deadlock the way naive blocking ``Connection.send`` calls do.
The send-buffer reuse contract of :mod:`repro.mpc.buffers` (two-call
parity) survives the writer thread: the queue is FIFO across all
destinations, so receiving *any* reply from collective call ``c + 1``
proves every enqueued message of call ``c`` has left the building.

Limits, by design: the worker function and its arguments must be
picklable, and on a 1-core host there is no wall-clock speedup — the
performance experiments use :mod:`repro.simnet` instead.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable
from multiprocessing.connection import Connection, wait as conn_wait

from repro.mpc.api import CollectiveConfig, Communicator, payload_nbytes
from repro.mpc.errors import CommTimeout, MessageError, WorldAborted

#: Transport names ``run_spmd_processes`` accepts; both mean the pipe.
TRANSPORTS = ("shm", "pipe")

#: Cap of the blocked-recv poll backoff, and the parent's result-poll
#: interval (seconds).
_POLL_INTERVAL = 0.05
#: Hard cap on blocking with no progress at all (safety net against a
#: peer that died without tripping the abort pipe).
_STALL_LIMIT = 120.0
#: Pipe payloads at or above this many bytes always go through the
#: background writer: a direct ``Connection.send`` of a large payload
#: can block on a full kernel buffer while the peer is itself blocked
#: sending to us — the classic symmetric-exchange deadlock.
_DIRECT_SEND_MAX = 1 << 16
#: How long a finishing worker waits for its writer thread to drain
#: before shipping its result (seconds).
_FLUSH_TIMEOUT = 30.0


class _RecvBackoff:
    """Poll schedule for a blocked receive: spin, then back off.

    A handful of zero-timeout polls catches the common case where the
    message is one scheduler slice away; after that the wait doubles
    from half a millisecond up to :data:`_POLL_INTERVAL`, so an idle
    rank parks in ``select`` instead of burning the single host core at
    a fixed 20 Hz.
    """

    _SPIN = 8
    _FIRST = 0.0005

    __slots__ = ("_attempt",)

    def __init__(self) -> None:
        self._attempt = 0

    def next_timeout(self) -> float:
        n = self._attempt
        self._attempt += 1
        if n < self._SPIN:
            return 0.0
        return min(self._FIRST * (1 << min(n - self._SPIN, 20)), _POLL_INTERVAL)

    def reset(self) -> None:
        self._attempt = 0


class _SendWorker:
    """This rank's background pipe writer (one thread, FIFO over all peers).

    ``put`` never blocks; the thread performs the actual
    ``Connection.send`` calls in enqueue order.  A peer whose pipe
    breaks (it died) is marked dead and its remaining traffic dropped —
    the world's abort machinery, not the sender, owns that failure.
    The daemon thread is never stopped: it ends with the rank's
    process (``os._exit`` in :func:`_worker_main`).
    """

    def __init__(self, rank: int) -> None:
        self._cond = threading.Condition()
        self._pending: deque = deque()
        self._inflight = 0
        self._dead: set[Connection] = set()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"spmd-send-{rank}"
        )
        self._thread.start()

    def put(self, conn: Connection, item: tuple) -> None:
        with self._cond:
            self._pending.append((conn, item))
            self._cond.notify_all()

    def idle(self) -> bool:
        """True when nothing is queued or in flight (direct sends are
        then order-safe)."""
        with self._cond:
            return not self._pending and not self._inflight

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending:
                    self._cond.wait()
                conn, item = self._pending.popleft()
                self._inflight += 1
            try:
                if conn not in self._dead:
                    conn.send(item)
            except (BrokenPipeError, OSError):
                self._dead.add(conn)
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    def flush(self, timeout: float = _FLUSH_TIMEOUT) -> bool:
        """Wait until every enqueued message has been written (or the
        timeout passes — a peer that stopped reading must not wedge a
        finishing rank forever)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._pending or self._inflight:
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self._cond.wait(timeout=min(left, _POLL_INTERVAL))
        return True


class ProcessComm(Communicator):
    """One rank's endpoint over a mesh of pipes."""

    #: Ranks are real OS processes, so an injected "exit" fault can
    #: hard-kill one without taking the world down (see repro.mpc.faults).
    hard_exit_supported = True

    def __init__(
        self,
        rank: int,
        size: int,
        links: dict[int, Connection],
        abort_rx: Connection,
        collectives: CollectiveConfig | None = None,
    ) -> None:
        super().__init__(rank=rank, size=size, collectives=collectives)
        self._links = links
        self._abort_rx = abort_rx
        self._writer: _SendWorker | None = None
        # (tag, payload) messages read off a pipe but not yet matched,
        # per source.
        self._stash: dict[int, deque[tuple]] = {
            peer: deque() for peer in links
        }

    # -- sending -----------------------------------------------------------

    def _send_raw(self, obj: object, dest: int, tag: int, nbytes: int) -> None:
        if dest == self.rank:
            raise MessageError("process world does not support self-sends")
        item = (tag, obj)
        conn = self._links[dest]
        writer = self._writer
        if nbytes < _DIRECT_SEND_MAX and (writer is None or writer.idle()):
            conn.send(item)
            return
        if writer is None:
            writer = self._writer = _SendWorker(self.rank)
        writer.put(conn, item)

    def _flush_sends(self, timeout: float = _FLUSH_TIMEOUT) -> bool:
        """Drain the background writer (no-op when it never started)."""
        if self._writer is None:
            return True
        return self._writer.flush(timeout)

    # -- receiving ---------------------------------------------------------

    def _check_abort(self) -> None:
        if self._abort_rx.poll(0):
            failed_rank, reason = self._abort_rx.recv()
            raise WorldAborted(failed_rank, reason)

    def _try_match(self, source: int, tag: int) -> tuple | None:
        """Pop the oldest stashed ``(tag, payload)`` entry of the channel."""
        queue = self._stash[source]
        for i, entry in enumerate(queue):
            if entry[0] == tag:
                del queue[i]
                return entry
        return None

    def _drain_conn(self, conn: Connection, peer: int) -> None:
        try:
            entry = conn.recv()
        except (EOFError, OSError):
            # Peer's end closed: it died without an abort notice
            # (hard kill).  Surface it as a world abort so the
            # caller's restart policy can take over.
            self._check_abort()
            raise WorldAborted(
                peer, "peer pipe closed (process died)"
            ) from None
        self._stash[peer].append(entry)

    def _recv_raw(self, source: int, tag: int) -> tuple[object, int]:
        if source == self.rank:
            raise MessageError("process world does not support self-receives")
        stall_limit = self.collective_config.timeout_seconds or _STALL_LIMIT
        link = self._links[source]
        backoff = _RecvBackoff()
        last_progress = time.monotonic()
        while True:
            hit = self._try_match(source, tag)
            if hit is not None:
                return hit[1], payload_nbytes(hit[1])
            self._check_abort()
            if not conn_wait([link], timeout=backoff.next_timeout()):
                now = time.monotonic()
                if now - last_progress >= stall_limit:
                    raise CommTimeout(
                        f"rank {self.rank} stalled "
                        f"{now - last_progress:.0f}s waiting for "
                        f"(source={source}, tag={tag})"
                    )
                continue
            backoff.reset()
            last_progress = time.monotonic()
            self._drain_conn(link, source)


def _worker_main(
    rank: int,
    size: int,
    links: dict[int, Connection],
    abort_rx: Connection,
    abort_tx: Connection,
    result_tx: Connection,
    fn_blob: bytes,
    args_blob: bytes,
    collectives: CollectiveConfig | None,
) -> None:
    try:
        fn = pickle.loads(fn_blob)
        args, kwargs = pickle.loads(args_blob)
        comm = ProcessComm(rank, size, links, abort_rx, collectives)
        result = fn(comm, *args, **kwargs)
        # Buffered sends must actually leave before the parent may see
        # this rank as finished — a peer could still be waiting on them.
        comm._flush_sends()
        result_tx.send(("ok", result))
    except WorldAborted as exc:
        result_tx.send(("aborted", str(exc)))
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        detail = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        try:
            abort_tx.send((rank, f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        result_tx.send(("error", detail))
    finally:
        result_tx.close()
        os._exit(0)  # skip atexit/teardown races in forked children


def run_spmd_processes(
    fn: Callable,
    size: int,
    *args,
    collectives: CollectiveConfig | None = None,
    timeout: float = 600.0,
    transport: str = "pipe",
    **kwargs,
) -> list:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` forked processes.

    ``transport`` must name one of :data:`TRANSPORTS`; both mean the
    pipe mesh (``"shm"`` is an alias kept for ``benchmarks/e2e``).

    Returns rank-ordered results; raises if any rank failed, with the
    failing rank's traceback.  Every child is reaped on every exit
    path — normal completion, worker crash, hard kill, timeout —
    before this function returns or raises.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if transport not in TRANSPORTS:
        raise MessageError(
            f"transport {transport!r} not in {TRANSPORTS}"
        )
    ctx = mp.get_context("fork")

    # Full mesh of duplex pipes.
    pipes: dict[tuple[int, int], tuple[Connection, Connection]] = {}
    for a in range(size):
        for b in range(a + 1, size):
            pipes[(a, b)] = ctx.Pipe(duplex=True)

    def links_for(rank: int) -> dict[int, Connection]:
        out: dict[int, Connection] = {}
        for (a, b), (end_a, end_b) in pipes.items():
            if a == rank:
                out[b] = end_a
            elif b == rank:
                out[a] = end_b
        return out

    # Abort fan-out: each child can write (rank, reason) to the parent's
    # hub; the parent relays it to everyone.
    abort_to_parent = [ctx.Pipe(duplex=False) for _ in range(size)]
    abort_to_child = [ctx.Pipe(duplex=False) for _ in range(size)]
    result_pipes = [ctx.Pipe(duplex=False) for _ in range(size)]

    fn_blob = pickle.dumps(fn)
    args_blob = pickle.dumps((args, kwargs))

    procs = []
    try:
        for rank in range(size):
            p = ctx.Process(
                target=_worker_main,
                args=(
                    rank,
                    size,
                    links_for(rank),
                    abort_to_child[rank][0],
                    abort_to_parent[rank][1],
                    result_pipes[rank][1],
                    fn_blob,
                    args_blob,
                    collectives,
                ),
                name=f"spmd-proc-{rank}",
            )
            p.start()
            procs.append(p)

        results: list = [None] * size
        status: list[str | None] = [None] * size
        errors: dict[int, str] = {}
        pending = set(range(size))
        deadline = timeout

        start = time.monotonic()
        relayed_abort = False
        while pending:
            if time.monotonic() - start > deadline:
                for p in procs:
                    p.terminate()
                raise MessageError(
                    f"process world timed out after {timeout}s; "
                    f"pending ranks {sorted(pending)}"
                )
            # Relay any abort notice to all children once.
            if not relayed_abort:
                for rank in range(size):
                    rx = abort_to_parent[rank][0]
                    if rx.poll(0):
                        notice = rx.recv()
                        for tx_rank in range(size):
                            try:
                                abort_to_child[tx_rank][1].send(notice)
                            except (BrokenPipeError, OSError):
                                pass
                        relayed_abort = True
                        break
            ready = conn_wait(
                [result_pipes[r][0] for r in pending], timeout=_POLL_INTERVAL
            )
            for conn in ready:
                rank = next(r for r in pending if result_pipes[r][0] is conn)
                kind, payload = conn.recv()
                status[rank] = kind
                if kind == "ok":
                    results[rank] = payload
                else:
                    errors[rank] = payload
                pending.discard(rank)
            # Dead-worker detection: a rank that hard-exited (SIGKILL,
            # node loss, an injected "exit" fault) sends neither a
            # result nor an abort notice.  Notice it here, fail it
            # cleanly, and relay an abort so the surviving ranks
            # unblock with WorldAborted instead of stalling until
            # their receive timeout.
            for rank in sorted(pending):
                p = procs[rank]
                if p.is_alive() or result_pipes[rank][0].poll(0):
                    continue
                status[rank] = "error"
                errors[rank] = (
                    f"rank {rank} process died without a result "
                    f"(exit code {p.exitcode})"
                )
                pending.discard(rank)
                if not relayed_abort:
                    notice = (rank, f"process died (exit code {p.exitcode})")
                    for tx_rank in range(size):
                        try:
                            abort_to_child[tx_rank][1].send(notice)
                        except (BrokenPipeError, OSError):
                            pass
                    relayed_abort = True

        hard = {r: msg for r, msg in errors.items() if status[r] == "error"}
        if hard:
            rank = min(hard)
            raise RuntimeError(f"SPMD process rank {rank} failed:\n{hard[rank]}")
        if errors:  # only aborts — the originating error died with its pipe
            rank = min(errors)
            raise RuntimeError(f"SPMD world aborted: {errors[rank]}")
        return results
    finally:
        # Reap the children before any abort/timeout/dead-worker error
        # propagates.
        for p in procs:
            p.join(timeout=10)
            if p.is_alive():
                p.terminate()
                p.join(timeout=10)
