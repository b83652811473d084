"""Coverage for Communicator plumbing: stats, payload sizing, tag rules."""

import numpy as np
import pytest

from repro.mpc.api import COLLECTIVE_TAG_BASE, payload_nbytes
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
    def test_stats_accumulate_through_collectives(self):
        def prog(comm):
            before = comm.stats.n_collectives, comm.stats.n_sends
            comm.allreduce(np.ones(16))
            comm.barrier()
            return (
                comm.stats.n_collectives - before[0],
                comm.stats.n_sends - before[1],
            )

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
