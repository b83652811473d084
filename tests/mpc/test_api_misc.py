"""Coverage for Communicator plumbing: stats, payload sizing, tag rules."""

import numpy as np
import pytest

from repro.mpc.api import (
    COLLECTIVE_TAG_BASE,
    CommStats,
    payload_nbytes,
)
from repro.mpc.errors import MessageError
from repro.mpc.serial import SerialComm
from repro.mpc.threadworld import run_spmd_threads


class TestPayloadNbytes:
    def test_ndarray_buffer_size(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(np.zeros((3, 4), dtype=np.int32)) == 48

    def test_bytes_length(self):
        assert payload_nbytes(b"12345") == 5
        assert payload_nbytes(bytearray(7)) == 7

    def test_objects_priced_by_pickle(self):
        small = payload_nbytes({"a": 1})
        big = payload_nbytes({"a": list(range(1000))})
        assert 0 < small < big

    def test_none_has_size(self):
        assert payload_nbytes(None) > 0


class TestCommStats:
    def test_snapshot_is_independent_copy(self):
        s = CommStats(n_sends=3, bytes_sent=100)
        snap = s.snapshot()
        s.n_sends = 5
        assert snap.n_sends == 3

    def test_delta(self):
        s = CommStats(n_sends=10, n_recvs=8, bytes_sent=1000,
                      bytes_received=900, n_collectives=4,
                      seconds_in_comm=2.0)
        earlier = CommStats(n_sends=6, n_recvs=5, bytes_sent=400,
                            bytes_received=300, n_collectives=1,
                            seconds_in_comm=0.5)
        d = s.delta(earlier)
        assert (d.n_sends, d.n_recvs) == (4, 3)
        assert (d.bytes_sent, d.bytes_received) == (600, 600)
        assert d.n_collectives == 3
        assert d.seconds_in_comm == pytest.approx(1.5)

    def test_stats_accumulate_through_collectives(self):
        def prog(comm):
            before = comm.stats.snapshot()
            comm.allreduce(np.ones(16))
            comm.barrier()
            d = comm.stats.delta(before)
            return d.n_collectives, d.n_sends

        n_coll, n_sends = run_spmd_threads(prog, 4)[0]
        assert n_coll == 2
        assert n_sends > 0


class TestTagSpace:
    def test_collective_tags_above_base(self):
        comm = SerialComm()
        t1 = comm._next_coll_tag()
        t2 = comm._next_coll_tag()
        assert t1 >= COLLECTIVE_TAG_BASE
        assert t2 > t1

    def test_world_size_validation(self):
        with pytest.raises(MessageError, match="size"):
            from repro.mpc.threadworld import ThreadComm
            from repro.mpc.p2p import AbortFlag

            ThreadComm(0, [], AbortFlag())

    def test_rank_out_of_world(self):
        from repro.mpc.p2p import AbortFlag, Mailbox
        from repro.mpc.threadworld import ThreadComm

        abort = AbortFlag()
        boxes = [Mailbox(0, abort)]
        with pytest.raises(MessageError, match="rank"):
            ThreadComm(1, boxes, abort)


class TestSimNonblocking:
    def test_sim_test_never_raises_wait_works(self):
        from repro.simnet.machine import meiko_cs2
        from repro.simnet.simworld import run_spmd_sim

        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(1, 3)
                # test() is supported in virtual time: it answers from
                # the clock-gated inbox and never raises or blocks.  A
                # not-yet-arrived message is simply (False, None).
                done, payload = req.test()
                if done:
                    assert payload == "sim-msg"
                out = req.wait()
                # After completion test() keeps reporting the result.
                done, payload = req.test()
                assert done and payload is out
                return out
            comm.send("sim-msg", 0, tag=3)
            return None

        run = run_spmd_sim(prog, 2, meiko_cs2(2))
        assert run.results[0] == "sim-msg"
