"""Pooled, allocation-free in-place Allreduce.

P-AutoClass performs two Allreduce calls per EM cycle, every cycle of
every try.  The generic :func:`~repro.mpc.collectives.allreduce_recursive_doubling`
allocates a fresh array per combining round (``combine`` must not mutate
its inputs because thread worlds pass payloads by reference).  This
module provides the same reduction — same message schedule, same tags,
same combine orientation, hence *bitwise identical* results — running
entirely out of a per-communicator :class:`BufferPool`, so the steady
state makes zero array allocations.

Why the reuse is race-free on zero-copy (thread/sim) worlds
-----------------------------------------------------------
A buffer handed to ``send`` may still be referenced by the receiver
after our call returns (mailboxes deliver references, receivers copy on
collection).  The pool therefore recycles each payload-size's send
buffers with a **two-call parity**: the slot set used by call ``c`` is
not written again until call ``c + 2`` *of that slot set*.  Between
those uses, call ``c + 1`` runs a full allreduce on the same
communicator, which includes a blocking receive from every peer the
buffers were sent to (the partner schedule of recursive doubling is a
pure function of rank and size, hence identical across calls).  A peer
sending its call-``c+1`` message has necessarily finished call ``c`` —
including copying whatever we sent it — so every reference to the
call-``c`` buffers is dead before call ``c+2`` touches them.  Receive
scratch buffers are never sent, so a single set suffices.

The pool counts allocations (`n_allocations`); benchmarks assert the
counter stops growing after the first cycle — the "allocation-free per
cycle" acceptance gate.
"""

from __future__ import annotations

import numpy as np

from repro.mpc.collectives import HI, LO, TAKE, recursive_doubling_schedule
from repro.mpc.errors import MessageError
from repro.mpc.reduceops import _PAIRWISE, ReduceOp


class BufferPool:
    """Per-communicator pool of float64 reduction buffers.

    Keyed by payload element count; each entry owns two parities of
    send-chain buffers plus shared receive scratch.  Attached lazily to
    a communicator via :meth:`repro.mpc.api.Communicator.buffer_pool` —
    never shared between communicators, so sibling sub-communicator
    groups cannot alias each other's buffers.
    """

    def __init__(self, dtype=np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._sets: dict[int, list] = {}  # n_elems -> [send0, send1, recv, uses]
        self.n_allocations = 0  # arrays ever allocated (steady state: constant)
        self.n_acquires = 0

    def acquire(
        self, n_elems: int, n_send: int, n_recv: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Buffers for one in-place collective: ``(send_chain, recv_scratch)``.

        Returns the parity set due for this use (see module docstring
        for why two-call parity makes reuse safe), growing the pool only
        on first use of a payload size.
        """
        entry = self._sets.get(n_elems)
        if entry is None:
            entry = [[], [], [], 0]
            self._sets[n_elems] = entry
        parity = entry[3] & 1
        entry[3] += 1
        self.n_acquires += 1
        chain, recv = entry[parity], entry[2]
        while len(chain) < n_send:
            chain.append(self._alloc(n_elems))
        while len(recv) < n_recv:
            recv.append(self._alloc(n_elems))
        return chain, recv

    def _alloc(self, n_elems: int) -> np.ndarray:
        self.n_allocations += 1
        return np.empty(n_elems, dtype=self.dtype)


def allreduce_into_impl(comm, buf: np.ndarray, op: ReduceOp, tag: int) -> None:
    """In-place Allreduce: ``buf`` = global reduction of every rank's ``buf``.

    Executes :func:`repro.mpc.collectives.recursive_doubling_schedule`
    — the same steps, tags and combine orientation as the allocating
    :func:`~repro.mpc.collectives.allreduce_recursive_doubling` — so
    the result is bitwise identical to the generic path for every
    elementwise operator.
    """
    if not isinstance(buf, np.ndarray) or buf.dtype != np.float64:
        raise MessageError("allreduce_into requires a float64 ndarray")
    if not buf.flags.c_contiguous:
        raise MessageError("allreduce_into requires a C-contiguous buffer")
    if comm.size == 1:
        return

    ufunc = _PAIRWISE[op]
    steps = recursive_doubling_schedule(comm.rank, comm.size)
    flat = buf.reshape(-1)
    n_combines = sum(step.recv in (LO, HI) for step in steps)
    chain, scratch = comm.buffer_pool().acquire(
        flat.size, n_combines + 1, n_combines
    )
    # The running partial lives in pool buffers, never in the caller's
    # array — `flat` is only read at the start and written at the end,
    # so no peer ever holds a reference into it.
    acc = chain[0]
    np.copyto(acc, flat)
    used = 0
    for step in steps:
        if step.send:
            comm.send(acc, step.peer, tag + step.slot)
        if step.recv == TAKE:
            comm.recv_into(flat, step.peer, tag + step.slot)
            return
        if step.recv is not None:
            inc = comm.recv_into(scratch[used], step.peer, tag + step.slot)
            used += 1
            out = chain[used]
            if step.recv == LO:
                ufunc(acc, inc, out=out)
            else:
                ufunc(inc, acc, out=out)
            acc = out
    np.copyto(flat, acc)
