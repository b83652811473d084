"""Sub-communicators — ``MPI_Comm_split`` for the paper worlds.

A :class:`SubComm` is a full :class:`~repro.mpc.api.Communicator` whose
ranks are a subset of a parent world, renumbered ``0..m-1``.  It owns no
transport: every message is relayed through the parent's point-to-point
primitives with the destination translated to a world rank and the tag
mapped into a *context* unique to this group.  That tag mapping is the
whole isolation story, so it is worth stating precisely.

Tag-space isolation
-------------------
Each split call advances a lockstep per-parent counter ``split_seq``
(every rank calls split in the same program order — it is a collective),
and each color within a call gets a ``color_index`` from the sorted set
of colors used.  A sub-communicator maps every tag it sends as::

    world_tag = sub_tag * 2**48 + ctx,
    ctx       = 2**40 + split_seq * 2**16 + color_index

Why no two in-flight messages can collide:

* *Raw parent traffic vs. mapped traffic*: tags used directly on a
  communicator are small — user tags sit below ``COLLECTIVE_TAG_BASE``
  (2**20) and collective tags grow by 256 per collective call, far below
  2**40 in any feasible run.  Mapped tags are at least ``ctx >= 2**40``,
  so the two spaces are disjoint.
* *Sibling groups*: two sub-communicators of the same parent differ in
  ``ctx`` (different ``split_seq`` or different ``color_index``), and
  ``ctx < 2**48``, so their mapped tags differ modulo 2**48 — distinct
  for every pair of sub-tags.  Concurrent collectives on sibling groups
  therefore never match each other's messages, whatever their relative
  progress.
* *Split-then-split*: a nested sub-communicator's tags are already
  mapped (>= 2**40) before the outer mapping multiplies by 2**48 and
  adds the outer ``ctx``; within one outer group, nested traffic and
  direct traffic differ in the quotient by 2**48 (>= 2**40 vs. < 2**40),
  and the argument recurses.

Python integers are unbounded and every transport (deque, mailbox,
pickle pipe) matches tags by equality, so the wide tags cost nothing.

Accounting: message/byte counts are recorded on *both* the sub
communicator (its own ``stats``) and the parent (world-level totals so
observability sees grouped traffic); time-in-comm is only counted once,
on the subcomm doing the call.
"""

from __future__ import annotations

from repro.mpc.api import Communicator
from repro.mpc.errors import MessageError

#: Mapped tags are ``sub_tag * _TAG_STRIDE + ctx``.
_TAG_STRIDE = 1 << 48
#: Contexts start here — above any tag used directly on the parent.
_CTX_BASE = 1 << 40
#: Colors per split call are indexed within this many slots.
_MAX_COLORS = 1 << 16


def comm_split(
    parent: Communicator, color: int | None, key: int | None = None
) -> "SubComm | None":
    """Collective constructor behind :meth:`Communicator.split`."""
    if color is not None and not isinstance(color, int):
        raise MessageError(f"split color must be an int or None, got {color!r}")
    if key is not None and not isinstance(key, int):
        raise MessageError(f"split key must be an int or None, got {key!r}")
    entries = parent.allgather((color, key, parent.rank))
    split_seq = parent._split_seq
    parent._split_seq += 1
    if color is None:
        return None
    colors = sorted({c for c, _k, _r in entries if c is not None})
    if len(colors) > _MAX_COLORS:
        raise MessageError(f"too many split colors: {len(colors)}")
    color_index = colors.index(color)
    members = sorted(
        (k if k is not None else r, r) for c, k, r in entries if c == color
    )
    world_ranks = tuple(r for _k, r in members)
    ctx = _CTX_BASE + split_seq * (1 << 16) + color_index
    return SubComm(parent, color, world_ranks, ctx)


class SubComm(Communicator):
    """A contiguous-rank view onto a subset of a parent communicator.

    Constructed by :func:`comm_split`; not meant to be instantiated
    directly.  Supports the full Communicator API including further
    splits.
    """

    def __init__(
        self,
        parent: Communicator,
        color: int,
        world_ranks: tuple[int, ...],
        ctx: int,
    ) -> None:
        rank = world_ranks.index(parent.rank)
        super().__init__(rank, len(world_ranks), parent.collective_config)
        self._parent = parent
        self._color = color
        self._world_ranks = world_ranks
        self._ctx = ctx
        self.clock_kind = parent.clock_kind

    # -- identity ---------------------------------------------------------

    @property
    def parent(self) -> Communicator:
        return self._parent

    @property
    def color(self) -> int:
        return self._color

    @property
    def world_ranks(self) -> tuple[int, ...]:
        """Parent ranks of the group, in group-rank order."""
        return self._world_ranks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubComm(rank={self.rank}/{self.size}, color={self._color}, "
            f"world_ranks={self._world_ranks}, parent={type(self._parent).__name__})"
        )

    # -- clock / pricing delegate to the parent ---------------------------

    def wtime(self) -> float:
        return self._parent.wtime()

    def charge(self, seconds: float) -> None:
        self._parent.charge(seconds)

    def _charge_reduction_rounds(self, rounds: int, payload) -> None:
        self._parent._charge_reduction_rounds(rounds, payload)

    # -- point-to-point relays --------------------------------------------

    def _map_tag(self, tag: int) -> int:
        return tag * _TAG_STRIDE + self._ctx

    def _send_raw(self, obj: object, dest: int, tag: int) -> int:
        nbytes = self._parent._send_raw(
            obj, self._world_ranks[dest], self._map_tag(tag)
        )
        self._parent.stats.n_sends += 1
        self._parent.stats.bytes_sent += nbytes
        return nbytes

    def _recv_raw(self, source: int, tag: int) -> tuple[object, int]:
        obj, nbytes = self._parent._recv_raw(
            self._world_ranks[source], self._map_tag(tag)
        )
        self._parent.stats.n_recvs += 1
        self._parent.stats.bytes_received += nbytes
        return obj, nbytes
