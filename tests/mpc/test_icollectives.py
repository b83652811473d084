"""Nonblocking collectives: IAllreduce/IBcast handles, drain, _try_recv.

The contract under test is the one the overlapped hot path leans on
(see docs/comms.md): ``wait()`` on an in-flight collective returns a
payload **bitwise-identical** to the blocking call, ``test()`` /
``progress()`` never block and never lie, and a backend without a
pollable inbox reports the capability gap as
:class:`~repro.mpc.errors.NotSupportedError` — never as something that
could be mistaken for a lost message.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc import run_spmd_processes, run_spmd_threads
from repro.mpc.api import Communicator
from repro.mpc.errors import MessageError, NotSupportedError
from repro.mpc.icollectives import drain
from repro.mpc.reduceops import ReduceOp
from repro.mpc.serial import SerialComm
from repro.simnet import run_spmd_sim
from repro.simnet.machine import meiko_cs2


def _payloads(size: int, n: int, seed: int) -> np.ndarray:
    """Wide-dynamic-range payloads: any reassociation would show up."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-60, 60, size=(size, n))
    return rng.normal(size=(size, n)) * scale


def _blocking_vs_inflight(comm, n, seed, segments):
    payloads = _payloads(comm.size, n, seed)
    mine = payloads[comm.rank]
    blocking = comm.allreduce(mine, ReduceOp.SUM)
    req = comm.iallreduce(mine, ReduceOp.SUM, segments=segments)
    req.progress()  # a cooperative poke must be harmless anywhere
    return blocking, req.wait()


class TestBitwiseContract:
    @given(
        size=st.integers(1, 6),
        n=st.integers(0, 24),
        segments=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_wait_equals_blocking_allreduce(self, size, n, segments, seed):
        def prog(comm):
            return _blocking_vs_inflight(comm, n, seed, segments)

        for blocking, inflight in run_spmd_threads(prog, size):
            np.testing.assert_array_equal(blocking, inflight)

    def test_payload_mutated_after_launch_is_decoupled(self):
        """The handle must snapshot the payload at launch: zero-copy
        worlds deliver by reference, and a peer may read our round-0
        envelope long after we have moved on (the aliasing hazard the
        overlap path exposed)."""

        def prog(comm):
            mine = np.full(8, float(comm.rank + 1))
            expect = comm.allreduce(mine.copy(), ReduceOp.SUM)
            req = comm.iallreduce(mine, ReduceOp.SUM)
            mine[:] = -1e9  # caller reuses its buffer immediately
            return expect, req.wait()

        for expect, got in run_spmd_threads(prog, 4):
            np.testing.assert_array_equal(expect, got)

    def test_segmented_matches_plain_when_segments_exceed_elements(self):
        def prog(comm):
            mine = np.arange(2.0) + comm.rank
            expect = comm.allreduce(mine, ReduceOp.SUM)
            return expect, comm.iallreduce(
                mine, ReduceOp.SUM, segments=4
            ).wait()

        for expect, got in run_spmd_threads(prog, 5):
            np.testing.assert_array_equal(expect, got)
            assert got.shape == (2,)

    def test_too_many_segments_rejected(self):
        def prog(comm):
            return comm.iallreduce(
                np.zeros(600), ReduceOp.SUM, segments=100
            ).wait()

        with pytest.raises(RuntimeError, match="exceed"):
            run_spmd_threads(prog, 4)


class TestDrainPipelining:
    def test_two_inflight_collectives_drain_in_order(self):
        def prog(comm):
            a = np.arange(6.0) + comm.rank
            b = np.arange(4.0) * (comm.rank + 1)
            expect_a = comm.allreduce(a, ReduceOp.SUM)
            expect_b = comm.allreduce(b, ReduceOp.MAX)
            ra = comm.iallreduce(a, ReduceOp.SUM)
            rb = comm.iallreduce(b, ReduceOp.MAX)
            got_a, got_b = drain([ra, rb])
            return expect_a, expect_b, got_a, got_b

        for expect_a, expect_b, got_a, got_b in run_spmd_threads(prog, 5):
            np.testing.assert_array_equal(got_a, expect_a)
            np.testing.assert_array_equal(got_b, expect_b)


class TestIBcast:
    def test_matches_blocking_bcast(self):
        def prog(comm):
            obj = {"v": comm.rank} if comm.rank == 1 else None
            return comm.ibcast(obj, root=1).wait()

        assert run_spmd_threads(prog, 4) == [{"v": 1}] * 4

    def test_none_payload_is_not_mistaken_for_pending(self):
        """A broadcast of ``None`` travels boxed, so ``test()`` going
        (False, None) -> (True, None) is unambiguous."""

        def prog(comm):
            req = comm.ibcast(None, root=0)
            while not req.test()[0]:
                time.sleep(0.0005)
            done, val = req.test()
            return done, val

        assert run_spmd_threads(prog, 4) == [(True, None)] * 4


# -- Request.test() on every world (acceptance gate) -----------------------

def _poll_prog(comm):
    """Launch, then poll test() to completion (real-time worlds)."""
    mine = np.arange(5.0) * (comm.rank + 1)
    expect = comm.allreduce(mine, ReduceOp.SUM)
    req = comm.iallreduce(mine, ReduceOp.SUM)
    while True:
        done, val = req.test()
        if done:
            return bool(np.array_equal(val, expect))
        time.sleep(0.0005)


def _sim_poll_prog(comm):
    """In virtual time an unsynchronized poll may legitimately stay
    (False, None) forever (polling does not advance the clock), so the
    sim contract is: test() never raises, never blocks, and reports
    (True, result) once the handle is drained."""
    mine = np.arange(5.0) * (comm.rank + 1)
    expect = comm.allreduce(mine, ReduceOp.SUM)
    req = comm.iallreduce(mine, ReduceOp.SUM)
    early = req.test()
    assert early == (False, None) or bool(
        np.array_equal(early[1], expect)
    )
    val = req.wait()
    done, again = req.test()
    return done and bool(np.array_equal(val, expect)) and again is val


class TestRequestTestEveryWorld:
    def test_serial_world(self):
        comm = SerialComm()
        req = comm.iallreduce(np.arange(3.0), ReduceOp.SUM)
        assert req.test()[0]
        np.testing.assert_array_equal(req.wait(), np.arange(3.0))

    def test_threads_world(self):
        assert all(run_spmd_threads(_poll_prog, 4))

    def test_processes_world(self):
        assert all(run_spmd_processes(_poll_prog, 3))

    def test_sim_world(self):
        sim = run_spmd_sim(_sim_poll_prog, 4, meiko_cs2(4))
        assert all(sim.results)


class TestNotSupported:
    def test_default_try_recv_is_a_capability_gap(self):
        """A backend without a pollable inbox must fail test() with
        NotSupportedError — which is *not* a MessageError, so it can
        never masquerade as a lost or timed-out message."""
        comm = SerialComm()
        with pytest.raises(NotSupportedError, match="wait()"):
            Communicator._try_recv(comm, 0, 1)
        try:
            Communicator._try_recv(comm, 0, 1)
        except NotSupportedError as exc:
            assert not isinstance(exc, MessageError)

    def test_all_shipped_worlds_support_try_recv(self):
        # Empty inbox: the probe answers None (no match), never raises.
        assert SerialComm()._try_recv(0, 99) is None
