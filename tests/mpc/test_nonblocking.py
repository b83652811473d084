"""Tests for nonblocking point-to-point (isend/irecv/Request)."""

import time

import numpy as np
import pytest

from repro.mpc import run_spmd_processes, run_spmd_threads, waitall
from repro.mpc.api import ANY_SOURCE, Communicator, CompletedRequest
from repro.mpc.errors import MessageError, NotSupportedError
from repro.mpc.serial import SerialComm
from repro.simnet import run_spmd_sim
from repro.simnet.machine import meiko_cs2


class TestRequestsThreadWorld:
    def test_irecv_wait(self):
        def prog(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(src, 7) for src in range(1, comm.size)]
                return waitall(reqs)
            comm.send(comm.rank * 10, 0, tag=7)
            return None

        assert run_spmd_threads(prog, 4)[0] == [10, 20, 30]

    def test_irecv_test_polls(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(1, 3)
                polls = 0
                while True:
                    done, val = req.test()
                    if done:
                        return polls, val
                    polls += 1
                    time.sleep(0.001)
            time.sleep(0.02)  # make rank 0 poll at least once
            comm.send("late", 0, tag=3)
            return None

        polls, val = run_spmd_threads(prog, 2)[0]
        assert val == "late"
        assert polls >= 1

    def test_wait_idempotent(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(1, 1)
                return req.wait(), req.wait()  # second wait returns cached
            comm.send(42, 0, tag=1)
            return None

        assert run_spmd_threads(prog, 2)[0] == (42, 42)

    def test_isend_complete_immediately(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend("x", 1, tag=5)
                done, payload = req.test()
                assert done and payload is None
                assert req.wait() is None
                return True
            return comm.recv(0, 5)

        results = run_spmd_threads(prog, 2)
        assert results == [True, "x"]

    def test_irecv_any_source(self):
        def prog(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(ANY_SOURCE, 9) for _ in range(comm.size - 1)]
                return sorted(waitall(reqs))
            comm.send(comm.rank, 0, tag=9)
            return None

        assert run_spmd_threads(prog, 4)[0] == [1, 2, 3]

    def test_deferred_matching_order(self):
        """irecv matching happens at wait time, in wait order, honoring
        per-sender FIFO."""
        def prog(comm):
            if comm.rank == 0:
                r1 = comm.irecv(1, 2)
                r2 = comm.irecv(1, 2)
                # Wait in reverse creation order: matching is FIFO by
                # send order regardless.
                second = r2.wait()
                first = r1.wait()
                return first, second
            comm.send("a", 0, tag=2)
            comm.send("b", 0, tag=2)
            return None

        first, second = run_spmd_threads(prog, 2)[0]
        assert {first, second} == {"a", "b"}

    def test_stats_counted_via_test(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(1, 4)
                while not req.test()[0]:
                    time.sleep(0.001)
                return comm.stats.n_recvs
            comm.send(b"12345678", 0, tag=4)
            return None

        assert run_spmd_threads(prog, 2)[0] == 1


class TestRequestsSerial:
    def test_serial_irecv_roundtrip(self):
        comm = SerialComm()
        comm.send("v", 0, tag=1)
        req = comm.irecv(0, 1)
        done, val = req.test()
        assert done and val == "v"

    def test_serial_test_empty(self):
        req = SerialComm().irecv(0, 1)
        assert req.test() == (False, None)

    def test_completed_request_payload(self):
        req = CompletedRequest("payload")
        assert req.wait() == "payload"
        assert req.test() == (True, "payload")


# -- Request.test() on every world ------------------------------------------

def _poll_prog(comm):
    """Rank 0 polls test() until rank 1's array arrives (real-time worlds)."""
    if comm.rank == 1:
        comm.send(np.arange(5.0), 0, tag=6)
        return True
    req = comm.irecv(1, 6)
    while True:
        done, val = req.test()
        if done:
            return bool(np.array_equal(val, np.arange(5.0)))
        time.sleep(0.0005)


def _sim_poll_prog(comm):
    """Rank 1 sends 1 MiB, then a token that fences its deposit.  Rank 0
    holds the token before the array's wire time has elapsed on its
    clock: test() reports "not yet" until compute passes that time,
    and the later hit charges only the receive overhead."""
    if comm.rank == 1:
        comm.send(np.ones(131072), 0, tag=1)
        comm.send(None, 0, tag=2)
        return True
    comm.recv(1, 2)
    req = comm.irecv(1, 1)
    early = req.test()
    comm.charge(0.05)  # well past the array's ~23 ms wire time
    t0 = comm.wtime()
    done, val = req.test()
    return (
        early == (False, None)
        and done
        and bool(np.array_equal(val, np.ones(131072)))
        and comm.wtime() == t0 + comm.machine.recv_overhead
    )


class TestRequestTestEveryWorld:
    def test_serial_world(self):
        comm = SerialComm()
        comm.send(np.arange(3.0), 0, tag=1)
        done, val = comm.irecv(0, 1).test()
        assert done
        np.testing.assert_array_equal(val, np.arange(3.0))

    def test_threads_world(self):
        assert all(run_spmd_threads(_poll_prog, 2))

    def test_processes_world(self):
        assert all(run_spmd_processes(_poll_prog, 2))

    def test_sim_world(self):
        sim = run_spmd_sim(
            _sim_poll_prog, 2, meiko_cs2(2), compute_mode="modeled"
        )
        assert all(sim.results)


class _NoPollComm(Communicator):
    """A backend with no pollable inbox (it never moves a message)."""

    def _send_raw(self, obj, dest, tag, nbytes):
        raise AssertionError("unused")

    def _recv_raw(self, source, tag):
        raise AssertionError("unused")


def _empty_poll_prog(comm):
    return comm.irecv((comm.rank + 1) % comm.size, 99).test()


class TestNotSupported:
    def test_default_try_recv_is_a_capability_gap(self):
        """A backend without a pollable inbox must fail test() with
        NotSupportedError — which is *not* a MessageError, so it can
        never masquerade as a lost or timed-out message."""
        req = _NoPollComm(0, 1).irecv(0, 1)
        with pytest.raises(NotSupportedError, match="wait()") as info:
            req.test()
        assert not isinstance(info.value, MessageError)

    def test_all_shipped_worlds_support_try_recv(self):
        # Empty inbox: the probe answers "not yet", never raises.
        empty = (False, None)
        assert _empty_poll_prog(SerialComm()) == empty
        assert run_spmd_threads(_empty_poll_prog, 2) == [empty] * 2
        assert run_spmd_processes(_empty_poll_prog, 2) == [empty] * 2
        sim = run_spmd_sim(_empty_poll_prog, 2, meiko_cs2(2))
        assert sim.results == [empty] * 2
