"""Nonblocking collectives: request handles over isend/irecv.

An :class:`IAllreduce` is the recursive-doubling Allreduce of
:mod:`repro.mpc.collectives` reorganised as a per-rank state machine: the
launch posts this rank's first-round sends and returns a handle, the
caller computes, and each :meth:`~ICollective.progress` call advances
whatever rounds have arrived — one transition per segment per call,
never blocking.  :meth:`~ICollective.wait` drains the remaining rounds
with ordinary blocking receives, so completion never depends on polling
luck (and the virtual-time world prices the drain exactly like the
blocking collective it replaces).

**Bitwise contract.**  The machine executes the very step list the
blocking paths execute
(:func:`repro.mpc.collectives.recursive_doubling_schedule` — the same
non-power-of-two fold, partner sequence and fixed lo/hi combine
orientation), so ``wait()`` returns a payload bitwise-identical to
``comm.allreduce``.  Overlap changes *when* rounds
run, never *what* they compute; this is what lets
:mod:`repro.verify` hold overlapped runs to the strict (digest-equal)
gate against blocking ones.

**Segmentation.**  With ``segments=S > 1`` an ndarray payload is split
into S contiguous pieces, each an independent recursive-doubling
machine; sweeping them round-robin pipelines the rounds (piece 0 can be
two rounds ahead of piece S-1).  Reductions are elementwise, so the
per-segment association is the whole-payload association restricted to
each element — segmented results are bitwise-equal to unsegmented ones.

Tag discipline: the caller passes one fresh 256-tag collective block;
slot ``s`` of segment ``g`` uses ``tag + s * S + g``.  A segment needs
``2 + log2(P)`` slots (fold, rounds, surplus return), which bounds S —
checked at launch.
"""

from __future__ import annotations

import numpy as np

from repro.mpc.api import Request
from repro.mpc.collectives import LO, TAKE, recursive_doubling_schedule
from repro.mpc.errors import MessageError
from repro.mpc.reduceops import ReduceOp, combine


class ICollective(Request):
    """Base for in-flight collectives: cooperative stepping + drain."""

    _done = False
    _result: object = None

    @property
    def done(self) -> bool:
        return self._done

    def progress(self) -> bool:
        """Advance every unfinished segment by at most one round,
        without blocking; True once the collective has completed."""
        if not self._done:
            self._sweep(blocking=False)
        return self._done

    def step(self) -> bool:
        """Advance every unfinished segment by one round, blocking for
        each round's message; True once the collective has completed.

        One ``step()`` per sweep is what pipelines multiple in-flight
        collectives: drive them round-robin and their rounds interleave.
        """
        if not self._done:
            self._sweep(blocking=True)
        return self._done

    def test(self) -> tuple[bool, object]:
        if self.progress():
            return True, self._result
        return False, None

    def wait(self):
        while not self._done:
            self._sweep(blocking=True)
        return self._result

    def _sweep(self, blocking: bool) -> None:
        raise NotImplementedError


def drain(requests: list[Request]) -> list:
    """Drive several requests to completion cooperatively, round-robin.

    Blocking rounds of different collectives interleave, so their wire
    times overlap instead of serializing; returns the payloads in order.
    """
    pending = [r for r in requests if isinstance(r, ICollective) and not r.done]
    while pending:
        pending = [r for r in pending if not r.step()]
    return [r.wait() for r in requests]


# ---------------------------------------------------------------------------
# IAllreduce: segmented recursive doubling

_TAG_BLOCK = 256  # width of one _next_coll_tag() allocation


class _SegmentReduce:
    """One segment's nonblocking executor of the recursive-doubling
    schedule (:func:`repro.mpc.collectives.recursive_doubling_schedule`).

    Sends are posted the moment their partial exists — at launch, and
    right after each combine — so the machine only ever *waits* on a
    receive: ``steps[i]`` is the step whose message is outstanding.
    """

    __slots__ = (
        "comm", "op", "acc", "steps", "i", "tag", "stride", "seg", "done",
    )

    def __init__(
        self, comm, steps, part, op: ReduceOp, tag: int, stride: int, seg: int
    ):
        self.comm = comm
        self.steps = steps  # this rank's schedule, shared by all segments
        self.op = op
        self.acc = part
        self.tag = tag
        self.stride = stride  # = total number of segments
        self.seg = seg
        self.i = 0
        self.done = False
        self._post_sends()

    def _tag_of(self, slot: int) -> int:
        return self.tag + slot * self.stride + self.seg

    def _post_sends(self) -> None:
        """Run steps up to (and including the send of) the next receive."""
        while self.i < len(self.steps):
            step = self.steps[self.i]
            if step.send:
                self.comm.send(self.acc, step.peer, self._tag_of(step.slot))
            if step.recv is not None:
                return
            self.i += 1
        self.done = True

    def advance(self, blocking: bool) -> bool:
        """One state transition; False if its message has not arrived."""
        if self.done:
            return False
        step = self.steps[self.i]
        tag = self._tag_of(step.slot)
        if blocking:
            other = self.comm.recv(step.peer, tag)
        else:
            other = self.comm._try_recv(step.peer, tag)
            if other is None:
                return False
        if step.recv == TAKE:
            self.acc = other
        else:
            lo, hi = (self.acc, other) if step.recv == LO else (other, self.acc)
            self.acc = combine(lo, hi, self.op)
            # Price one pairwise combine of this segment (virtual
            # worlds only) *before* the next send, so downstream
            # availability stamps include the arithmetic.
            self.comm._charge_reduction_rounds(1, self.acc)
        self.i += 1
        self._post_sends()
        return True


class IAllreduce(ICollective):
    """In-flight Allreduce; ``wait()`` is bitwise-equal to ``allreduce``."""

    def __init__(self, comm, payload, op: ReduceOp, tag: int, segments: int = 1):
        self._comm = comm
        self._payload = payload
        self._arr_shape = None
        if comm.size == 1:
            self._done, self._result = True, payload
            return
        # Zero-copy worlds deliver send payloads by reference, and a
        # peer may hold this collective's round-0 envelope across an
        # unbounded compute window (that is the point of overlap) — so
        # unlike the blocking in-place path, which recycles pool
        # buffers under a two-call parity, a handle must never send the
        # caller's array itself.  One private copy at launch decouples
        # them; every later round sends combine-produced fresh arrays.
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        parts: list
        if segments > 1:
            arr = np.asarray(payload)
            if arr.dtype == object:
                segments = 1  # opaque payloads cannot be sliced
            else:
                self._arr_shape = arr.shape
                flat = arr.reshape(-1)
                bounds = np.linspace(0, flat.size, segments + 1).astype(int)
                parts = [
                    flat[bounds[i] : bounds[i + 1]] for i in range(segments)
                ]
        if segments == 1:
            parts = [payload]
        n_slots = 1 + comm.size.bit_length()  # fold + log2 P rounds + return
        if n_slots * segments > _TAG_BLOCK:
            raise MessageError(
                f"{segments} segments x {n_slots} tag slots exceed the "
                f"{_TAG_BLOCK}-tag collective block; reduce segments"
            )
        steps = recursive_doubling_schedule(comm.rank, comm.size)
        with comm._collective_scope():
            self._segments = [
                _SegmentReduce(comm, steps, part, op, tag, segments, g)
                for g, part in enumerate(parts)
            ]
        self._sweep(blocking=False)  # a size-1 machine may already be done

    def _sweep(self, blocking: bool) -> None:
        for seg in self._segments:
            if not seg.done:
                with self._comm._collective_scope():
                    seg.advance(blocking)
        if all(s.done for s in self._segments):
            self._assemble()

    def _assemble(self) -> None:
        if self._done:
            return
        if self._arr_shape is None:
            self._result = self._segments[0].acc
        else:
            out = np.concatenate(
                [np.asarray(s.acc).reshape(-1) for s in self._segments]
            ).reshape(self._arr_shape)
            if isinstance(self._payload, np.ndarray):
                self._result = out
            else:
                self._result = out.item() if out.ndim == 0 else out
        self._done = True


# ---------------------------------------------------------------------------
# IBcast: binomial tree

class IBcast(ICollective):
    """In-flight broadcast along the binomial tree of ``bcast_binomial``.

    The root posts every send at launch and completes immediately;
    a non-root pends one receive (its tree round), then forwards to its
    subtree eagerly on arrival.  Payloads travel boxed in a 1-tuple so a
    broadcast of ``None`` is never mistaken for "not arrived yet" by the
    nonblocking probe.
    """

    def __init__(self, comm, obj, root: int, tag: int):
        from repro.mpc.collectives import _prank, _vrank

        self._comm = comm
        self._tag = tag
        self._root = root
        size, rank = comm.size, comm.rank
        self._me = _vrank(rank, root, size)
        if size == 1:
            self._done, self._result = True, obj
            return
        if self._me == 0:
            with comm._collective_scope():
                k = 0
                while (1 << k) < size:
                    comm.send((obj,), _prank(1 << k, root, size), tag + k)
                    k += 1
            self._done, self._result = True, obj
            return
        # Non-root: round = index of our highest set bit.
        self._k0 = self._me.bit_length() - 1
        self._parent = _prank(self._me - (1 << self._k0), root, size)

    def _sweep(self, blocking: bool) -> None:
        from repro.mpc.collectives import _prank

        comm = self._comm
        with comm._collective_scope():
            if blocking:
                boxed = comm.recv(self._parent, self._tag + self._k0)
            else:
                boxed = comm._try_recv(self._parent, self._tag + self._k0)
            if boxed is None:
                return
            # Forward to our subtree, exactly as the blocking tree does.
            k = self._k0 + 1
            while (1 << k) < comm.size:
                if self._me + (1 << k) < comm.size:
                    comm.send(
                        boxed,
                        _prank(self._me + (1 << k), self._root, comm.size),
                        self._tag + k,
                    )
                k += 1
        self._done, self._result = True, boxed[0]
