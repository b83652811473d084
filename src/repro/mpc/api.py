"""The Communicator contract — the MPI-shaped API P-AutoClass targets.

A :class:`Communicator` is one rank's handle onto an SPMD world.  The
paper's algorithm needs exactly the operations MPI programs of its era
used: tagged point-to-point ``send``/``recv`` and the collectives
``Allreduce`` (its workhorse), ``Bcast``, ``Barrier``, plus
gather/allgather for the try-group merge.  A receive names its exact
source and tag and blocks: each ``(source, tag)`` pair is one FIFO
channel, so which message a receive gets never depends on the arrival
order between senders.  Backends implement only the point-to-point
primitives; every collective has one implementation in
:mod:`repro.mpc.collectives` built on them.  A world's
:class:`CollectiveConfig` sets only how long a collective may wait,
never which algorithm runs.

Statistics: every rank counts its messages and payload bytes
(:class:`CommStats`), which the benchmark harness reads to report
bytes-on-wire per cycle (EXP-A3).
"""

from __future__ import annotations

import pickle
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.mpc.errors import MessageError
from repro.mpc.reduceops import ReduceOp

#: Collectives claim tags at and above this value; user point-to-point
#: code must stay below it.
COLLECTIVE_TAG_BASE = 1 << 20


def payload_nbytes(obj: object) -> int:
    """Wire size of a payload.

    Arrays are priced at their buffer size (the fast path an MPI code
    would use); anything else at its pickle length — mirroring mpi4py's
    split between buffer and object communication.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass
class CommStats:
    """Per-rank communication accounting."""

    n_sends: int = 0
    n_recvs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    n_collectives: int = 0
    seconds_in_comm: float = 0.0


@dataclass(frozen=True)
class CollectiveConfig:
    """How a world runs its collectives.

    ``timeout_seconds`` bounds how long any blocking receive may wait
    without progress before raising
    :class:`~repro.mpc.errors.CommTimeout` (None = world default: the
    thread/sim worlds wait forever, the process world keeps its stall
    safety net).  Collectives are built on receives, so this is the
    paper-world equivalent of a collective timeout: a hung peer turns
    into a clean, restartable failure instead of a wedged job.
    """

    timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive or None, got "
                f"{self.timeout_seconds}"
            )


class Communicator(ABC):
    """One rank's endpoint in an SPMD world of ``size`` ranks."""

    #: What :meth:`wtime` measures — ``"wall"`` seconds on real worlds;
    #: virtual-time simulators override with ``"virtual"``.  Read by the
    #: observability layer so records carry their clock's meaning.
    clock_kind = "wall"

    def __init__(
        self, rank: int, size: int, collectives: CollectiveConfig | None = None
    ) -> None:
        if size < 1:
            raise MessageError(f"world size must be >= 1, got {size}")
        if not 0 <= rank < size:
            raise MessageError(f"rank {rank} out of range for size {size}")
        self._rank = rank
        self._size = size
        self._collectives = collectives or CollectiveConfig()
        self._coll_seq = 0
        self._split_seq = 0
        self._buffer_pool = None
        self.stats = CommStats()

    # -- identity ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    @property
    def collective_config(self) -> CollectiveConfig:
        return self._collectives

    def wtime(self) -> float:
        """Elapsed time in this world's clock (virtual for simulators)."""
        return time.perf_counter()

    def charge(self, seconds: float) -> None:
        """Post modelled compute time to this rank's clock.

        A no-op on real-time worlds (their clocks advance by themselves);
        the virtual-time :class:`repro.simnet.SimComm` overrides it.
        """
        if seconds < 0:
            raise MessageError(f"cannot charge negative time: {seconds}")

    # -- point-to-point (backends implement these) ------------------------

    @abstractmethod
    def _send_raw(self, obj: object, dest: int, tag: int, nbytes: int) -> None:
        """Deliver ``obj`` to ``dest``'s mailbox (may buffer)."""

    @abstractmethod
    def _recv_raw(self, source: int, tag: int) -> tuple[object, int]:
        """Block for the next message on channel (source, tag); return
        (obj, nbytes)."""

    def send(self, obj: object, dest: int, tag: int) -> None:
        """Send ``obj`` to rank ``dest`` with ``tag`` (buffered, non-rendezvous)."""
        self._check_peer(dest)
        self._check_tag(tag)
        nbytes = payload_nbytes(obj)
        t0 = time.perf_counter()
        self._send_raw(obj, dest, tag, nbytes)
        self.stats.seconds_in_comm += time.perf_counter() - t0
        self.stats.n_sends += 1
        self.stats.bytes_sent += nbytes

    def recv(self, source: int, tag: int) -> object:
        """Block for the next message from ``source`` with ``tag``.

        Messages on one (source, tag) channel arrive in send order
        (MPI's non-overtaking rule); there are no wildcards.
        """
        self._check_peer(source)
        self._check_tag(tag)
        t0 = time.perf_counter()
        obj, nbytes = self._recv_raw(source, tag)
        self.stats.seconds_in_comm += time.perf_counter() - t0
        self.stats.n_recvs += 1
        self.stats.bytes_received += nbytes
        return obj

    def recv_into(self, buf: np.ndarray, source: int, tag: int) -> np.ndarray:
        """Receive the next message from (source, tag) into ``buf`` (in place).

        ``recv`` + copy — same matching, ordering and statistics.  The
        payload's element count must equal ``buf``'s (else
        :class:`MessageError`); dtype mismatches cast as ``np.copyto``
        would.  Returns ``buf``.
        """
        arr = np.asarray(self.recv(source, tag))
        if arr.size != buf.size:
            raise MessageError(
                f"recv_into from rank {source} (tag {tag}): payload has "
                f"{arr.size} elements, buffer has {buf.size}"
            )
        np.copyto(buf.reshape(-1), arr.reshape(-1))
        return buf

    # -- collectives (defaults over p2p; see repro.mpc.collectives) -------

    def _next_coll_tag(self) -> int:
        """A fresh tag block for one collective call.

        All ranks execute collectives in identical program order (SPMD),
        so the per-rank counters stay in lockstep and successive
        collectives never share tags.
        """
        self._coll_seq += 1
        self.stats.n_collectives += 1
        return COLLECTIVE_TAG_BASE + (self._coll_seq << 8)

    def _reduce_rounds(self) -> int:
        """Combining rounds a reduction performs on this world's size."""
        if self._size <= 1:
            return 0
        return max((self._size - 1).bit_length(), 1)

    def _charge_reduction(self, payload) -> None:
        """Post the arithmetic cost of one (all)reduce of ``payload``."""
        rounds = self._reduce_rounds()
        if rounds:
            self._charge_reduction_rounds(rounds, payload)

    def _charge_reduction_rounds(self, rounds: int, payload) -> None:
        """Price ``rounds`` pairwise combines of ``payload``.

        A no-op on real-time worlds; virtual-time worlds override it.
        """

    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        from repro.mpc import collectives

        tag = self._next_coll_tag()
        collectives.barrier_dissemination(self, tag)

    def bcast(self, obj: object, root: int = 0) -> object:
        """Broadcast ``obj`` from ``root``; every rank returns the value."""
        from repro.mpc import collectives

        self._check_peer(root)
        tag = self._next_coll_tag()
        return collectives.bcast_binomial(self, obj, root, tag)

    def allreduce(self, payload, op: ReduceOp = ReduceOp.SUM):
        """Reduce across all ranks; every rank returns the full result.

        This is the operation the paper's Figures 4 and 5 hinge on.
        """
        from repro.mpc import collectives

        tag = self._next_coll_tag()
        result = collectives.allreduce_recursive_doubling(self, payload, op, tag)
        self._charge_reduction(payload)
        return result

    def allreduce_into(self, buf: np.ndarray, op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
        """In-place Allreduce over a preallocated float64 array.

        ``buf`` holds this rank's contribution on entry and the global
        reduction on return (same value as :meth:`allreduce`, bitwise,
        because the message schedule and combine orientation are
        identical).  The exchange runs entirely out of this
        communicator's :class:`~repro.mpc.buffers.BufferPool` — zero
        array allocations in steady state, which is what makes the
        per-cycle reduction path of :mod:`repro.parallel`
        allocation-free.
        """
        from repro.mpc import buffers

        tag = self._next_coll_tag()
        buffers.allreduce_into_impl(self, buf, op, tag)
        self._charge_reduction(buf)
        return buf

    def buffer_pool(self):
        """This communicator's lazily created reduction buffer pool.

        Pools are strictly per-communicator — concurrent groups created
        by :meth:`split` each own their buffers, so in-place collectives
        on sibling sub-communicators can never alias.
        """
        if self._buffer_pool is None:
            from repro.mpc.buffers import BufferPool

            self._buffer_pool = BufferPool()
        return self._buffer_pool

    def gather(self, obj: object, root: int = 0) -> list | None:
        """Gather one value per rank to ``root`` (rank-ordered list)."""
        from repro.mpc import collectives

        self._check_peer(root)
        tag = self._next_coll_tag()
        return collectives.gather_linear(self, obj, root, tag)

    def allgather(self, obj: object) -> list:
        """Gather one value per rank onto every rank."""
        from repro.mpc import collectives

        tag = self._next_coll_tag()
        return collectives.allgather_bruck(self, obj, tag)

    # -- sub-communicators -------------------------------------------------

    def split(self, color: int | None, key: int | None = None):
        """Partition the world into disjoint sub-communicators (MPI_Comm_split).

        Collective over the *whole* communicator: every rank must call
        it, in the same program order.  Ranks passing the same ``color``
        form one group, ordered by ``(key, rank)`` (``key=None`` means
        order by current rank); ranks passing ``color=None`` opt out and
        get ``None`` back.  The returned
        :class:`~repro.mpc.split.SubComm` relays point-to-point traffic
        through the parent with tags mapped into a per-group context, so
        concurrent collectives on sibling groups can never cross — see
        :mod:`repro.mpc.split` for the isolation argument.
        """
        from repro.mpc.split import comm_split

        return comm_split(self, color, key)

    # -- validation --------------------------------------------------------

    def _check_peer(self, rank: int) -> None:
        if not 0 <= rank < self._size:
            raise MessageError(f"peer rank {rank} out of range [0, {self._size})")

    @staticmethod
    def _check_tag(tag: int) -> None:
        if tag < 0:
            raise MessageError(f"tags must be >= 0, got {tag}")

