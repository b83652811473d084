"""Process-backed SPMD world: real OS processes over shm rings + pipes.

``run_spmd_processes(fn, size)`` forks ``size`` worker processes wired
into a full mesh of duplex pipes and runs ``fn(comm, *args)`` on each.
This is the closest thing to a real multicomputer this host can offer:
separate address spaces, kernel-mediated message passing, genuine
serialization costs.  It validates that the SPMD code carries no hidden
shared-memory assumptions (with threads, an aliasing bug could pass
silently; with processes it cannot).

Transports
----------
Two transports carry payloads (``transport="shm"`` is the default):

* ``"shm"`` — contiguous float64/int64 ndarrays travel as raw bytes
  through per-pair single-producer/single-consumer rings in
  ``multiprocessing.shared_memory`` (:mod:`repro.mpc.shm`); the pipe
  carries a tiny token in their place, which preserves MPI's
  non-overtaking order across both channels for free.  Everything
  else — and any payload the ring cannot take right now — falls back
  to the pipe, pickled, exactly as before.
* ``"pipe"`` — every payload pickled over the pipe mesh (the
  historical path, kept for A/B benchmarking and as the reference
  semantics the shm path must match bitwise).

Sends are *buffered and non-rendezvous* on both transports: a payload
that will not fit in the kernel's pipe buffer is handed to a per-rank
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

import math
import multiprocessing as mp
import os
import pickle
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable
from multiprocessing.connection import Connection, wait as conn_wait

import numpy as np

from repro.mpc.api import (
    CollectiveConfig,
    Communicator,
    copy_payload,
    payload_nbytes,
)
from repro.mpc.errors import CommTimeout, MessageError, WorldAborted
from repro.mpc.shm import ShmRing, ShmToken, ShmTransport, ring_eligible

#: Transports ``run_spmd_processes`` accepts.
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
    """

    def __init__(self, rank: int) -> None:
        self._cond = threading.Condition()
        self._pending: deque = deque()
        self._inflight = 0
        self._dead: set[Connection] = set()
        self._closed = False
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
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return
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

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class ProcessComm(Communicator):
    """One rank's endpoint over shm rings + a mesh of pipes."""

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
        shm_links: dict[int, tuple[ShmRing, ShmRing]] | None = None,
    ) -> None:
        super().__init__(rank=rank, size=size, collectives=collectives)
        self._links = links
        self._abort_rx = abort_rx
        self._shm_links = shm_links or {}
        self._writer: _SendWorker | None = None
        # Messages read off a pipe but not yet matched, per source.
        # Entries are mutable [tag, payload] lists: a payload may
        # be an unread ShmToken that a later match materializes in
        # place (ring order: earlier tokens are always read first).
        self._stash: dict[int, deque[list]] = {
            peer: deque() for peer in links
        }

    # -- sending -----------------------------------------------------------

    def _send_raw(self, obj: object, dest: int, tag: int, nbytes: int) -> None:
        if dest == self.rank:
            raise MessageError("process world does not support self-sends")
        payload: object = obj
        rings = self._shm_links.get(dest)
        if rings is not None and ring_eligible(obj, rings[0].capacity):
            offset = rings[0].try_write(obj)
            if offset is not None:
                payload = ShmToken(
                    str(obj.dtype), obj.shape, obj.nbytes, offset
                )
        if payload is obj:
            self.stats.n_pipe_msgs += 1
            self.stats.pipe_bytes += nbytes
        else:
            self.stats.n_shm_msgs += 1
            self.stats.shm_bytes += nbytes
        item = (tag, payload)
        conn = self._links[dest]
        writer = self._writer
        small = payload is not obj or nbytes < _DIRECT_SEND_MAX
        if small and (writer is None or writer.idle()):
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

    def _try_match(self, source: int, tag: int) -> list | None:
        """Pop the oldest stashed ``[tag, payload]`` entry of the channel."""
        queue = self._stash[source]
        for i, entry in enumerate(queue):
            if entry[0] == tag:
                del queue[i]
                return entry
        return None

    def _drain_conn(self, conn: Connection, peer: int) -> None:
        try:
            msg_tag, obj = conn.recv()
        except (EOFError, OSError):
            # Peer's end closed: it died without an abort notice
            # (hard kill).  Surface it as a world abort so the
            # caller's restart policy can take over.
            self._check_abort()
            raise WorldAborted(
                peer, "peer pipe closed (process died)"
            ) from None
        self._stash[peer].append([msg_tag, obj])

    def _materialize(self, src: int, token: ShmToken,
                     out: np.ndarray | None = None):
        """Read ``token``'s bytes out of ``src``'s ring.

        The ring is strictly FIFO, so any *earlier* tokens from ``src``
        still sitting unmatched in the stash are materialized first (in
        arrival order — their offsets are increasing).  With ``out``
        given and exactly type/size-compatible, the bytes land directly
        in the caller's buffer — the in-place path ``allreduce_into``
        rides on.
        """
        ring = self._shm_links[src][1]
        queue = self._stash.get(src)
        if queue:
            for entry in queue:
                tok = entry[1]
                if isinstance(tok, ShmToken) and tok.offset < token.offset:
                    entry[1] = ring.read_array(tok)
        if (
            out is not None
            and out.flags.c_contiguous
            and out.dtype == np.dtype(token.dtype)
            and out.nbytes == token.nbytes
        ):
            ring.read_into(out, token)
            return out
        arr = ring.read_array(token)
        if out is not None:
            np.copyto(out, arr.reshape(out.shape))
            return out
        return arr

    def _recv_matched(self, source: int, tag: int):
        """Blocking match loop; the payload may be an unread ShmToken."""
        if source == self.rank:
            raise MessageError("process world does not support self-receives")
        stall_limit = self.collective_config.timeout_seconds or _STALL_LIMIT
        link = self._links[source]
        backoff = _RecvBackoff()
        last_progress = time.monotonic()
        while True:
            hit = self._try_match(source, tag)
            if hit is not None:
                return hit[1]
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

    def _recv_raw(self, source: int, tag: int) -> tuple[object, int]:
        obj = self._recv_matched(source, tag)
        if isinstance(obj, ShmToken):
            return self._materialize(source, obj), obj.nbytes
        return obj, payload_nbytes(obj)

    def recv_into(self, buf: np.ndarray, source: int, tag: int) -> np.ndarray:
        """In-place receive: shm payloads copy straight into ``buf``.

        Same matching, ordering, size check and statistics as
        :meth:`recv` followed by a copy — minus the intermediate array
        when the payload came through the ring.
        """
        self._check_peer(source)
        self._check_tag(tag)
        t0 = time.perf_counter()
        obj = self._recv_matched(source, tag)
        if not isinstance(obj, ShmToken):
            nbytes = payload_nbytes(obj)
            copy_payload(buf, obj, source, tag)
        elif math.prod(obj.shape) == buf.size:
            nbytes = obj.nbytes
            self._materialize(source, obj, out=buf.reshape(-1))
        else:
            # Read the ring anyway so it stays in step, then refuse.
            copy_payload(buf, self._materialize(source, obj), source, tag)
        self.stats.seconds_in_comm += time.perf_counter() - t0
        self.stats.n_recvs += 1
        self.stats.bytes_received += nbytes
        return buf


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
    shm_transport: ShmTransport | None,
) -> None:
    try:
        fn = pickle.loads(fn_blob)
        args, kwargs = pickle.loads(args_blob)
        shm_links = (
            shm_transport.endpoint(rank) if shm_transport is not None else None
        )
        comm = ProcessComm(
            rank, size, links, abort_rx, collectives, shm_links=shm_links
        )
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
    transport: str = "shm",
    ring_capacity: int | None = None,
    **kwargs,
) -> list:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` forked processes.

    ``transport`` selects how ndarray payloads travel: ``"shm"``
    (default) routes contiguous float64/int64 arrays through per-pair
    shared-memory rings of ``ring_capacity`` bytes (default:
    :data:`repro.mpc.shm.DEFAULT_RING_CAPACITY`); ``"pipe"`` pickles
    everything over the pipe mesh.  Results are bitwise identical
    either way — only the wire changes.

    Returns rank-ordered results; raises if any rank failed, with the
    failing rank's traceback.  Shared-memory segments are owned by the
    parent and unlinked on *every* exit path — normal completion,
    worker crash, hard kill, timeout — before this function returns or
    raises.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if transport not in TRANSPORTS:
        raise MessageError(
            f"transport {transport!r} not in {TRANSPORTS}"
        )
    ctx = mp.get_context("fork")

    shm_transport = (
        ShmTransport(size, ring_capacity)
        if transport == "shm" and size > 1
        else None
    )

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
                    shm_transport,
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
            # their receive timeout.  The dead rank's shared-memory
            # segments are unlinked (with everyone else's) in the
            # finally below, before any error leaves this function.
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
        # Reap the children, then tear the transport down.  This runs
        # before any abort/timeout/dead-worker error propagates, so no
        # exit path can leak a /dev/shm segment.
        for p in procs:
            p.join(timeout=10)
            if p.is_alive():
                p.terminate()
                p.join(timeout=10)
        if shm_transport is not None:
            shm_transport.destroy()
