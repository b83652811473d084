"""Zero-copy shared-memory transport for the processes world.

The processes world (:mod:`repro.mpc.procworld`) is the one backend
with genuine address-space separation — and, until this module, the
worst bytes-per-message cost in the repo: every ndarray payload was
pickled and copied twice through a kernel pipe.  Real MPI
implementations (and NCCL's SHM path) route intra-node traffic through
shared memory instead; this module is that fast path.

Design
------
Every ordered rank pair ``(src, dst)`` owns one single-producer /
single-consumer byte ring in a :class:`multiprocessing.shared_memory`
segment.  A send of an eligible ndarray (C-contiguous ``float64`` /
``int64``, small enough for the ring) copies the raw bytes into the
ring — one ``memcpy``, no pickling, no syscalls — and ships a tiny
:class:`ShmToken` (dtype, shape, byte count, stream offset) down the
existing pipe in the payload's place.  The receiver materializes the
token by copying the bytes straight out of the ring, either into a
fresh array or, for :meth:`~repro.mpc.api.Communicator.recv_into`,
directly into the caller's reduction buffer (the in-place path
:mod:`repro.mpc.buffers` uses — peer bytes land in the pool scratch
with a single copy).

Routing every *control* message — and every token — through the pipe
keeps MPI's non-overtaking rule for free: the pipe is FIFO per pair,
tokens arrive in ring-write order, and the ring is consumed in token
order.  Matching by exact (source, tag) and abort propagation are
completely unchanged; only the bulk bytes take the shortcut.

Fallback rules (automatic, per message):

* non-ndarray payloads, object/other dtypes, non-contiguous arrays →
  pickle over the pipe (the pre-existing path, byte-identical
  semantics);
* payloads larger than the ring capacity → pipe;
* ring momentarily full (receiver hasn't drained yet) → pipe, because
  blocking a send on consumer progress could deadlock a symmetric
  exchange.

Ring layout
-----------
``[0:8)`` tail — total bytes ever written (producer-owned);
``[64:72)`` head — total bytes ever read (consumer-owned);
``[128:128+capacity)`` the data area.  Head and tail are free-running
``uint64`` cursors (offset = cursor % capacity), placed on separate
cache lines.  The producer writes payload bytes *before* publishing
the new tail, and the token travels over the pipe after that, so a
received token always refers to fully written bytes.

Cleanup guarantees
------------------
All segments are created by the *parent* before forking and inherited
by the workers, so no child ever owns a name: the parent's
``try/finally`` in :func:`repro.mpc.procworld.run_spmd_processes`
unlinks every segment on success, on abort, on timeout, and after
fault-injected hard kills — no leaked ``/dev/shm`` entries and no
``resource_tracker`` warnings (a tested invariant).
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass

import numpy as np

from repro.mpc.errors import MessageError

#: /dev/shm name prefix for every segment this module creates; the
#: leak-regression tests glob for it.
SEGMENT_PREFIX = "repro_shm_"

#: Default per-direction ring capacity (bytes).  tmpfs pages commit
#: lazily, so unused capacity costs address space, not memory.
DEFAULT_RING_CAPACITY = 1 << 23  # 8 MiB

#: Byte offsets of the control cursors and the data area.
_TAIL_OFF = 0
_HEAD_OFF = 64
DATA_OFFSET = 128

#: dtypes eligible for the ring fast path (the reduction hot path is
#: float64; int64 covers the class-count payloads).
RING_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))


@dataclass(frozen=True)
class ShmToken:
    """Pipe-side stand-in for a payload whose bytes travel in the ring.

    ``offset`` is the producer's free-running cursor at the first byte
    of this payload; the consumer asserts it equals its own head before
    reading, which catches any ordering bug loudly instead of
    delivering scrambled bytes.
    """

    dtype: str
    shape: tuple[int, ...]
    nbytes: int
    offset: int


class ShmRing:
    """One direction's SPSC byte ring over a shared-memory buffer.

    The producer process calls :meth:`try_write`; the consumer calls
    :meth:`read_into` / :meth:`read_array`.  Cursors are free-running,
    so ``tail - head`` is the number of unconsumed bytes and wraparound
    is a two-slice copy.
    """

    def __init__(self, buf: memoryview, capacity: int) -> None:
        if len(buf) < DATA_OFFSET + capacity:
            raise MessageError(
                f"shm buffer too small: {len(buf)} < {DATA_OFFSET + capacity}"
            )
        self.capacity = capacity
        self._tail = np.frombuffer(buf, dtype=np.uint64, count=1,
                                   offset=_TAIL_OFF)
        self._head = np.frombuffer(buf, dtype=np.uint64, count=1,
                                   offset=_HEAD_OFF)
        self._data = np.frombuffer(buf, dtype=np.uint8, count=capacity,
                                   offset=DATA_OFFSET)

    # -- producer side -----------------------------------------------------

    @property
    def tail(self) -> int:
        return int(self._tail[0])

    @property
    def head(self) -> int:
        return int(self._head[0])

    def free(self) -> int:
        """Unused ring bytes as seen by the producer (conservative: the
        consumer's head may already be further along)."""
        return self.capacity - (self.tail - self.head)

    def try_write(self, payload: np.ndarray) -> int | None:
        """Copy ``payload``'s raw bytes in; return their stream offset.

        Returns None — caller falls back to the pipe — when the bytes
        don't currently fit.  Zero-length payloads occupy no ring space
        but still get a valid offset.
        """
        raw = payload.reshape(-1).view(np.uint8)
        n = raw.size
        tail = self.tail
        if n > self.capacity - (tail - self.head):
            return None
        pos = tail % self.capacity
        first = min(n, self.capacity - pos)
        if first:
            self._data[pos:pos + first] = raw[:first]
        if n > first:
            self._data[:n - first] = raw[first:]
        # Publish after the data is in place: a token referencing this
        # offset is only sent (over the pipe) after try_write returns.
        self._tail[0] = tail + n
        return tail

    # -- consumer side -----------------------------------------------------

    def read_into(self, dest: np.ndarray, token: ShmToken) -> None:
        """Copy ``token``'s bytes into ``dest`` (C-contiguous, exact size)
        and retire them from the ring."""
        head = self.head
        if token.offset != head:
            raise MessageError(
                f"shm ring consumed out of order: token offset "
                f"{token.offset} != head {head}"
            )
        raw = dest.reshape(-1).view(np.uint8)
        n = token.nbytes
        if raw.size != n:
            raise MessageError(
                f"shm read size mismatch: dest {raw.size} != payload {n}"
            )
        pos = head % self.capacity
        first = min(n, self.capacity - pos)
        if first:
            raw[:first] = self._data[pos:pos + first]
        if n > first:
            raw[first:] = self._data[:n - first]
        self._head[0] = head + n

    def read_array(self, token: ShmToken) -> np.ndarray:
        """Materialize ``token`` as a freshly allocated array."""
        arr = np.empty(token.shape, dtype=np.dtype(token.dtype))
        self.read_into(arr, token)
        return arr


def ring_eligible(obj: object, capacity: int) -> bool:
    """Whether ``obj`` may travel through a ring of ``capacity`` bytes."""
    return (
        type(obj) is np.ndarray
        and obj.dtype in RING_DTYPES
        and obj.flags.c_contiguous
        and obj.nbytes <= capacity
    )


class ShmTransport:
    """All shared-memory segments of one processes world.

    Created by the parent before forking (one segment per ordered rank
    pair), inherited by the workers through ``fork``, and destroyed by
    the parent exactly once — whatever happened to the children.
    """

    def __init__(self, size: int, capacity: int | None = None) -> None:
        from multiprocessing import shared_memory

        self.capacity = (
            DEFAULT_RING_CAPACITY if capacity is None else int(capacity)
        )
        if self.capacity < 1:
            raise MessageError(
                f"ring capacity must be >= 1, got {self.capacity}"
            )
        self.run_id = f"{SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        self._segments: dict[tuple[int, int], object] = {}
        nbytes = DATA_OFFSET + self.capacity
        try:
            for a in range(size):
                for b in range(size):
                    if a == b:
                        continue
                    seg = shared_memory.SharedMemory(
                        name=f"{self.run_id}_{a}to{b}", create=True,
                        size=nbytes,
                    )
                    self._segments[(a, b)] = seg
        except BaseException:
            self.destroy()
            raise

    def endpoint(self, rank: int) -> dict[int, tuple[ShmRing, ShmRing]]:
        """``peer -> (send_ring, recv_ring)`` views for one rank.

        Called in the forked child: the views reference the inherited
        mappings, so no attach-by-name (and no child-side
        resource_tracker registration) ever happens.
        """
        links: dict[int, tuple[ShmRing, ShmRing]] = {}
        for (a, b), seg in self._segments.items():
            if a == rank:
                send = ShmRing(seg.buf, self.capacity)
                recv = ShmRing(self._segments[(b, a)].buf, self.capacity)
                links[b] = (send, recv)
        return links

    def destroy(self) -> None:
        """Unlink and close every segment; idempotent, never raises.

        Unlink comes first — removing the ``/dev/shm`` name is the part
        that must survive any error path; the children's inherited
        mappings stay valid until they exit regardless.
        """
        segments, self._segments = self._segments, {}
        for seg in segments.values():
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass
            try:
                seg.close()
            except (BufferError, OSError):
                pass

    def __del__(self) -> None:  # safety net; the worlds call destroy()
        self.destroy()
