"""Properties of the recursive-doubling schedule, checked symbolically.

``recursive_doubling_schedule(rank, size)`` is pure data, so the whole
protocol can be run on paper: no world is spawned, payloads are
association trees instead of numbers, and every world size up to 33 —
well past the P = 9 the value-checking world tests reach — is covered
in milliseconds.  The allocating, in-place and nonblocking Allreduce
paths all execute this one step list, so what holds here holds for all
three.
"""

from collections import Counter, deque

import pytest

from repro.mpc.collectives import HI, LO, TAKE, recursive_doubling_schedule

SIZES = range(1, 34)


def run_symbolically(size):
    """Execute every rank's steps over buffered mailboxes.

    A rank's partial starts as its own rank number; combining ``lo``
    with ``hi`` yields the tuple ``(lo, hi)``, so the final value *is*
    the association tree.  Sends are buffered (they never block);
    a receive blocks until its message is in the mailbox.  Returns the
    final partials, or fails on deadlock or an unconsumed message.
    """
    steps = [recursive_doubling_schedule(r, size) for r in range(size)]
    acc = list(range(size))
    at = [0] * size
    sent = [False] * size  # has the current step's send been posted?
    mail = {}  # (source, dest, slot) -> deque of partials
    moved = True
    while moved:
        moved = False
        for r in range(size):
            while at[r] < len(steps[r]):
                step = steps[r][at[r]]
                if step.send and not sent[r]:
                    mail.setdefault((r, step.peer, step.slot), deque()).append(acc[r])
                    sent[r] = True
                if step.recv is not None:
                    box = mail.get((step.peer, r, step.slot))
                    if not box:
                        break  # blocked on this receive
                    other = box.popleft()
                    if step.recv == LO:
                        acc[r] = (acc[r], other)
                    elif step.recv == HI:
                        acc[r] = (other, acc[r])
                    else:
                        acc[r] = other
                at[r] += 1
                sent[r] = False
                moved = True
    stuck = [r for r in range(size) if at[r] < len(steps[r])]
    assert not stuck, f"P={size}: ranks {stuck} deadlocked"
    assert not any(mail.values()), f"P={size}: unconsumed messages"
    return acc


def leaves(tree):
    if isinstance(tree, tuple):
        return leaves(tree[0]) + leaves(tree[1])
    return [tree]


@pytest.mark.parametrize("size", SIZES)
def test_every_send_has_exactly_one_matching_receive(size):
    sends, recvs = Counter(), Counter()
    for r in range(size):
        for step in recursive_doubling_schedule(r, size):
            assert 0 <= step.peer < size and step.peer != r
            assert step.recv in (None, LO, HI, TAKE)
            assert step.send or step.recv is not None
            if step.send:
                sends[(r, step.peer, step.slot)] += 1
            if step.recv is not None:
                recvs[(step.peer, r, step.slot)] += 1
    assert sends == recvs
    assert all(n == 1 for n in sends.values())


@pytest.mark.parametrize("size", SIZES)
def test_buffered_sends_never_deadlock_and_all_ranks_agree(size):
    trees = run_symbolically(size)
    # Every rank ends with the *same* association tree (so float sums
    # agree bitwise across ranks), holding each rank exactly once.
    assert all(tree == trees[0] for tree in trees)
    assert sorted(leaves(trees[0])) == list(range(size))


@pytest.mark.parametrize("size", SIZES)
def test_tag_slots_fit_two_plus_log2(size):
    slots = {
        step.slot
        for r in range(size)
        for step in recursive_doubling_schedule(r, size)
    }
    log2 = size.bit_length() - 1
    assert all(0 <= slot < 2 + log2 for slot in slots)


def test_power_of_two_worlds_use_neither_fold_nor_return():
    for size in (2, 4, 8, 16, 32):
        for r in range(size):
            steps = recursive_doubling_schedule(r, size)
            assert len(steps) == size.bit_length() - 1
            assert all(s.send and s.recv in (LO, HI) for s in steps)
