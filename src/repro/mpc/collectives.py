"""The collectives, over point-to-point messages.

One algorithm per collective — the classic from the MPI implementation
literature that wins on the paper's payloads (<= 3 KB per reduction;
EXP-A2 and docs/comms.md hold the measurement) — expressed purely in
``comm.send`` / ``comm.recv`` so that

* every backend (threads, processes, the virtual-time simulator) gets
  identical collective semantics, and
* a simulated network prices a collective by the *messages it actually
  exchanges* — recursive doubling costs its log2(P) rounds — rather than
  by a bolted-on closed formula.

Tag discipline: the caller passes a fresh ``tag`` block per collective
call (see ``Communicator._next_coll_tag``); rounds within one call use
``tag + round`` so nothing can cross-match, even between back-to-back
collectives.

Summation order (matters for float payloads — ``+`` is not
associative): the Allreduce is *internally deterministic* — all ranks of
one run compute the bitwise-identical result, whatever the message
arrival order (fixed lo/hi combine orientation) — and its association
depends on the world size alone, which is the one reduction-order axis
of :mod:`repro.verify.tolerance`.

Buffer ownership: ``send`` never copies an array (the thread and sim
worlds deliver references; the process world's background writer
pickles a large payload after ``send`` returns), so a sender must not
write an array it has sent.  The Allreduce meets that rule by
construction: it sends only arrays no caller can reach — a private copy
of the payload, then fresh sums — so a caller may overwrite its buffer,
or the returned array, as soon as the call returns.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np

#: Textbook name of the one Allreduce algorithm — what conformance
#: traces serialise and EXP-A2 prints next to the alternatives' costs.
ALLREDUCE = "recursive_doubling"


# ---------------------------------------------------------------------------
# barrier

def barrier_dissemination(comm, tag: int) -> None:
    """Dissemination barrier: ceil(log2 P) rounds, each rank sends one
    token per round to rank ``(rank + 2^k) mod P``."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    k = 0
    while (1 << k) < size:
        dist = 1 << k
        comm.send(None, (rank + dist) % size, tag + k)
        comm.recv((rank - dist) % size, tag + k)
        k += 1


# ---------------------------------------------------------------------------
# broadcast

def _vrank(rank: int, root: int, size: int) -> int:
    """Virtual rank with the root renumbered to 0."""
    return (rank - root) % size


def _prank(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


def bcast_binomial(comm, obj, root: int, tag: int):
    """Binomial-tree broadcast: ceil(log2 P) rounds.

    Round k: every virtual rank < 2^k that holds the value forwards it
    to virtual rank + 2^k.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    me = _vrank(rank, root, size)
    have = me == 0
    k = 0
    while (1 << k) < size:
        dist = 1 << k
        if have and me + dist < size:
            comm.send(obj, _prank(me + dist, root, size), tag + k)
        elif not have and dist <= me < 2 * dist:
            obj = comm.recv(_prank(me - dist, root, size), tag + k)
            have = True
        k += 1
    return obj


# ---------------------------------------------------------------------------
# allreduce

class Step(NamedTuple):
    """One step of a rank's recursive-doubling schedule.

    The rank first posts its running partial to ``peer`` (if ``send``),
    then — unless ``recv`` is None — receives from ``peer`` on the same
    tag ``slot`` and folds the message into the partial as ``recv``
    says: :data:`LO` → ``partial ∘ message``, :data:`HI` →
    ``message ∘ partial``, :data:`TAKE` → the message *is* the result.
    """

    peer: int
    slot: int
    send: bool
    recv: str | None


LO, HI, TAKE = "lo", "hi", "take"


def recursive_doubling_schedule(rank: int, size: int) -> tuple[Step, ...]:
    """The recursive-doubling Allreduce of ``rank`` in a ``size``-rank world.

    For P a power of two: log2 P rounds of pairwise full-payload
    exchange at distance 2^k.  For other P, the ``P - 2^m`` surplus
    ranks first fold into a power-of-two core, which runs the doubling,
    then the surplus ranks get the result back — the standard MPICH
    scheme.  Slot 0 is the fold, slot ``1 + k`` round ``k`` and slot
    ``1 + log2(core)`` the surplus return, so a call needs at most
    ``2 + log2 P`` tags.

    The combine orientation is fixed by core rank (lower on the left),
    so every rank computes the identical association tree whatever the
    message arrival order.
    """
    pow2 = 1 << (size.bit_length() - 1)
    rem = size - pow2
    n_rounds = pow2.bit_length() - 1
    slot_return = 1 + n_rounds
    if rank < 2 * rem and rank % 2:
        # Surplus rank: hand the partial to the left neighbour, then
        # wait for the finished result.
        return (
            Step(rank - 1, 0, True, None),
            Step(rank - 1, slot_return, False, TAKE),
        )
    steps = []
    if rank < 2 * rem:
        steps.append(Step(rank + 1, 0, False, LO))
        core_rank = rank // 2
    else:
        core_rank = rank - rem
    for k in range(n_rounds):
        partner = core_rank ^ (1 << k)
        partner_world = 2 * partner if partner < rem else partner + rem
        steps.append(
            Step(partner_world, 1 + k, True, LO if core_rank < partner else HI)
        )
    if rank < 2 * rem:
        steps.append(Step(rank + 1, slot_return, True, None))
    return tuple(steps)


def _sum(a, b):
    """``a + b`` as a new value: arrays must agree in shape, and two
    scalars sum to a Python scalar."""
    a_arr, b_arr = np.asarray(a), np.asarray(b)
    if a_arr.shape != b_arr.shape:
        raise ValueError(
            f"cannot reduce payloads of shapes {a_arr.shape} and {b_arr.shape}"
        )
    out = np.add(a_arr, b_arr)
    return out.item() if np.isscalar(a) else out


def allreduce_recursive_doubling(comm, payload, tag: int):
    """Recursive-doubling sum: executes :func:`recursive_doubling_schedule`.

    The partial starts as a private copy of ``payload`` and every later
    partial is a fresh :func:`_sum`, so this rank never sends an array
    its caller can reach.
    """
    private = isinstance(payload, np.ndarray)
    acc = payload.copy() if private else payload
    steps = recursive_doubling_schedule(comm.rank, comm.size)
    for step in steps:
        if step.send:
            sent = acc
            if step.recv is None and step is steps[-1]:
                # A core rank hands its result to a surplus rank, which
                # returns that array to its own caller: send a copy.
                sent = copy.copy(acc)
            comm.send(sent, step.peer, tag + step.slot)
        if step.recv is not None:
            other = comm.recv(step.peer, tag + step.slot)
            if step.recv == LO:
                acc = _sum(acc, other)
            elif step.recv == HI:
                acc = _sum(other, acc)
            else:
                acc = other
    if private and not isinstance(acc, np.ndarray):
        # ufuncs collapse 0-d arrays to numpy scalars; hand back the
        # caller's container.
        acc = np.asarray(acc).reshape(payload.shape)
    return acc


# ---------------------------------------------------------------------------
# gather / allgather

def gather_linear(comm, obj, root: int, tag: int) -> list | None:
    """Everyone sends to root; root returns the rank-ordered list.

    The root receives from each rank in rank order, so its clock on a
    virtual-time world never depends on host thread scheduling.
    """
    size, rank = comm.size, comm.rank
    if rank == root:
        return [
            obj if src == root else comm.recv(src, tag) for src in range(size)
        ]
    comm.send(obj, root, tag)
    return None


def allgather_bruck(comm, obj, tag: int) -> list:
    """Bruck allgather: ceil(log2 P) rounds of doubling block exchange."""
    size, rank = comm.size, comm.rank
    blocks: list = [obj]
    k = 0
    while (1 << k) < size:
        dist = 1 << k
        dest = (rank - dist) % size
        src = (rank + dist) % size
        # Send everything held, capped at what the receiver still lacks
        # (only the final round can be partial).
        send_count = min(len(blocks), size - len(blocks))
        comm.send(blocks[:send_count], dest, tag + k)
        incoming = comm.recv(src, tag + k)
        blocks.extend(incoming)
        k += 1
    blocks = blocks[:size]
    # blocks[i] is the value of rank (rank + i) mod P; rotate into order.
    out: list = [None] * size
    for i, val in enumerate(blocks):
        out[(rank + i) % size] = val
    return out
