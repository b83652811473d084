"""Point-to-point semantics, serial world, thread world, process world."""

import numpy as np
import pytest

from repro.mpc.errors import MessageError
from repro.mpc.serial import SerialComm
from repro.mpc.threadworld import run_spmd_threads


class TestSerialComm:
    def test_identity(self):
        comm = SerialComm()
        assert comm.rank == 0 and comm.size == 1

    def test_self_send_recv_fifo(self):
        comm = SerialComm()
        comm.send("a", 0, tag=1)
        comm.send("b", 0, tag=1)
        assert comm.recv(0, 1) == "a"
        assert comm.recv(0, 1) == "b"

    def test_tag_matching_skips_others(self):
        comm = SerialComm()
        comm.send("x", 0, tag=1)
        comm.send("y", 0, tag=2)
        assert comm.recv(0, 2) == "y"
        assert comm.recv(0, 1) == "x"

    def test_empty_recv_raises_instead_of_deadlock(self):
        with pytest.raises(MessageError, match="deadlock"):
            SerialComm().recv(0, 0)

    def test_collectives_are_identity(self):
        comm = SerialComm()
        np.testing.assert_array_equal(comm.allreduce(np.array([3.0])), [3.0])
        assert comm.bcast("v") == "v"
        assert comm.gather("g") == ["g"]
        assert comm.allgather("a") == ["a"]
        comm.barrier()

    def test_bad_peer_raises(self):
        with pytest.raises(MessageError, match="peer"):
            SerialComm().send("x", 1, tag=0)

    def test_stats_counted(self):
        comm = SerialComm()
        comm.send(b"12345", 0, tag=0)
        comm.recv(0, 0)
        assert comm.stats.n_sends == 1
        assert comm.stats.n_recvs == 1
        assert comm.stats.bytes_sent == 5


class TestTagRules:
    def test_negative_send_tag_rejected(self):
        with pytest.raises(MessageError, match="tags"):
            SerialComm().send("x", 0, tag=-5)

    def test_any_tag_on_send_rejected(self):
        with pytest.raises(MessageError, match="tags"):
            SerialComm().send("x", 0, tag=-1)

    def test_negative_recv_tag_rejected(self):
        with pytest.raises(MessageError, match="tags"):
            SerialComm().recv(0, -1)

    def test_recv_source_out_of_world_rejected(self):
        with pytest.raises(MessageError, match="peer"):
            SerialComm().recv(-1, 0)


class TestThreadWorldP2P:
    def test_ping_pong(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("ping", 1, tag=7)
                return comm.recv(1, 8)
            msg = comm.recv(0, 7)
            comm.send(msg + "-pong", 0, tag=8)
            return msg

        assert run_spmd_threads(prog, 2) == ["ping-pong", "ping"]

    def test_non_overtaking_per_source(self):
        """Messages from one sender with the same tag arrive in order."""
        def prog(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, 1, tag=3)
                return None
            return [comm.recv(0, 3) for _ in range(20)]

        results = run_spmd_threads(prog, 2)
        assert results[1] == list(range(20))

    def test_channels_matched_by_source_and_tag(self):
        """Each receive takes its (source, tag) channel's oldest message,
        whatever else is queued from other senders or on other tags."""
        def prog(comm):
            if comm.rank == 0:
                order = ((2, 1), (1, 1), (2, 0), (1, 0), (2, 0), (1, 0))
                return [comm.recv(src, tag) for src, tag in order]
            for i in range(3):
                comm.send((comm.rank, i), 0, tag=i % 2)
            return None

        assert run_spmd_threads(prog, 3)[0] == [
            (2, 1), (1, 1), (2, 0), (1, 0), (2, 2), (1, 2)
        ]

    def test_results_rank_ordered(self):
        assert run_spmd_threads(lambda comm: comm.rank, 6) == list(range(6))

    def test_exception_propagates_origin(self):
        def prog(comm):
            if comm.rank == 2:
                raise KeyError("the original failure")
            comm.allreduce(np.ones(3))

        with pytest.raises(RuntimeError, match="rank 2"):
            run_spmd_threads(prog, 4)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            run_spmd_threads(lambda c: None, 0)


@pytest.mark.slow
class TestProcessWorld:
    def test_allreduce_and_p2p(self):
        from repro.mpc.procworld import run_spmd_processes

        results = run_spmd_processes(_mixed_prog, 3)
        assert [r[0] for r in results] == [6.0, 6.0, 6.0]
        assert results[1][1] == "note"

    def test_failure_propagates(self):
        from repro.mpc.procworld import run_spmd_processes

        with pytest.raises(RuntimeError, match="rank"):
            run_spmd_processes(_failing_prog, 2)

    def test_self_send_rejected(self):
        from repro.mpc.procworld import run_spmd_processes

        with pytest.raises(RuntimeError, match="self-send"):
            run_spmd_processes(_self_send_prog, 2)


def _mixed_prog(comm):
    total = comm.allreduce(np.full(4, comm.rank + 1.0))
    if comm.rank == 0:
        comm.send("note", 1, tag=2)
        peer = None
    else:
        peer = comm.recv(0, 2) if comm.rank == 1 else None
    return float(total[0]), peer


def _failing_prog(comm):
    if comm.rank == 1:
        raise ValueError("worker exploded")
    comm.allreduce(np.ones(2))


def _self_send_prog(comm):
    comm.send("x", comm.rank, tag=0)


def _short_payload_prog(comm):
    """Rank 1 receives a 1-element payload into a 4-element buffer, then
    a well-sized one on the same channel."""
    if comm.rank == 0:
        comm.send(np.array([7.0]), 1, tag=5)
        comm.send(np.arange(4.0), 1, tag=5)
        return None
    try:
        comm.recv_into(np.zeros(4), 0, 5)
        error = None
    except MessageError as exc:
        error = str(exc)
    return error, comm.recv_into(np.zeros(4), 0, 5).tolist()


def _serial_short_payload():
    comm = SerialComm()
    comm.send(np.array([7.0]), 0, tag=5)
    comm.send(np.arange(4.0), 0, tag=5)
    try:
        comm.recv_into(np.zeros(4), 0, 5)
        error = None
    except MessageError as exc:
        error = str(exc)
    return error, comm.recv_into(np.zeros(4), 0, 5).tolist()


def _run_short_payload(world):
    if world == "serial":
        return _serial_short_payload()
    if world == "threads":
        return run_spmd_threads(_short_payload_prog, 2)[1]
    if world == "sim":
        from repro.simnet.machine import meiko_cs2
        from repro.simnet.simworld import run_spmd_sim

        return run_spmd_sim(_short_payload_prog, 2, meiko_cs2(2)).results[1]
    from repro.mpc.procworld import run_spmd_processes

    return run_spmd_processes(_short_payload_prog, 2, timeout=120)[1]


@pytest.mark.parametrize("world", ["serial", "threads", "sim", "processes"])
def test_recv_into_refuses_wrong_element_count(world):
    """A payload whose element count differs from the buffer's raises one
    MessageError naming both sizes on every world, and the channel stays
    usable afterwards."""
    error, after = _run_short_payload(world)
    assert error is not None
    assert "payload has 1 elements, buffer has 4" in error
    assert after == [0.0, 1.0, 2.0, 3.0]
