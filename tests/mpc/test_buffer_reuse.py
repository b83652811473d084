"""A caller may reuse its Allreduce buffer as soon as the call returns.

``send`` never copies an array: the thread and sim worlds deliver
references, and the process world's background writer pickles a large
payload after ``send`` has returned.  So the Allreduce must never send
an array its caller can write.  Each program below calls ``allreduce``
(or ``allreduce_into``) on ``buf`` and overwrites ``buf`` at once; a
peer still reading the caller's array would fold the junk into its sum.
The ``result`` mode overwrites the returned array instead, which no
other rank may share.  Every iteration's result is checked against the
exact sum (integer payloads add exactly), on every world.
"""

import sys

import numpy as np
import pytest

from repro.mpc.procworld import run_spmd_processes
from repro.mpc.serial import SerialComm
from repro.mpc.threadworld import run_spmd_threads

JUNK = -1.0e6


def _value(rank: int, it: int) -> float:
    return float(1000 * it + rank + 1)


def _reuse(comm, n_iter: int, n_elems: int, mode: str) -> list[int]:
    """Iterations whose result was not the exact sum."""
    buf = np.empty(n_elems)
    wrong = []
    for it in range(n_iter):
        buf.fill(_value(comm.rank, it))
        if mode == "allreduce_into":
            out = comm.allreduce_into(buf).copy()
            buf.fill(JUNK)
        elif mode == "allreduce":
            out = comm.allreduce(buf)
            buf.fill(JUNK)
        else:
            result = comm.allreduce(buf)
            out = result.copy()
            result.fill(JUNK)
        expected = sum(_value(r, it) for r in range(comm.size))
        if not np.all(out == expected):
            wrong.append(it)
    return wrong


def _split_reuse(comm, n_iter: int, n_elems: int, mode: str) -> list[int]:
    """Two sibling groups reduce with buffer reuse at the same time."""
    return _reuse(comm.split(color=comm.rank // 2), n_iter, n_elems, mode)


@pytest.fixture
def fast_switching():
    """Switch threads as often as the interpreter allows, so a peer that
    still holds the caller's array is likely to read it after the
    overwrite."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


MODES = pytest.mark.parametrize("mode", ["allreduce", "allreduce_into", "result"])


@MODES
def test_serial(mode):
    assert _reuse(SerialComm(), 50, 8, mode) == []


@MODES
@pytest.mark.parametrize("size", [2, 3, 5])
def test_threads(fast_switching, size, mode):
    assert run_spmd_threads(_reuse, size, 400, 8, mode) == [[]] * size


@MODES
def test_threads_sibling_groups(fast_switching, mode):
    assert run_spmd_threads(_split_reuse, 4, 400, 8, mode) == [[]] * 4


@MODES
def test_sim(fast_switching, mode):
    from repro.simnet.machine import meiko_cs2
    from repro.simnet.simworld import run_spmd_sim

    sim = run_spmd_sim(_reuse, 3, meiko_cs2(3), 400, 8, mode)
    assert sim.results == [[]] * 3


@MODES
@pytest.mark.parametrize("size", [2, 3])
def test_processes_background_writer(size, mode):
    """128 KiB payloads take the process world's background writer,
    which pickles the array after ``send`` has returned."""
    n_elems = (128 << 10) // 8
    results = run_spmd_processes(_reuse, size, 200, n_elems, mode, timeout=120)
    assert results == [[]] * size
