"""The processes world's one wire: the pickled pipe mesh.

Payload round trips (edge shapes and dtypes up to 1 MiB), per-channel
order, the blocked-receive backoff, the background writer under a
symmetric large exchange, and the absence of any shared-memory segment
(``transport="shm"`` is only an alias of the pipe).
"""

from __future__ import annotations

import glob
import multiprocessing.shared_memory
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.errors import MessageError
from repro.mpc.procworld import _POLL_INTERVAL, _RecvBackoff, run_spmd_processes
from repro.mpc.shm import SEGMENT_PREFIX


class TestBackoff:
    def test_spins_then_backs_off_to_cap(self):
        b = _RecvBackoff()
        waits = [b.next_timeout() for _ in range(40)]
        assert waits[: b._SPIN] == [0.0] * b._SPIN  # spin phase
        tail = waits[b._SPIN:]
        assert all(x > 0 for x in tail)
        assert tail == sorted(tail)  # monotone growth
        assert tail[-1] == _POLL_INTERVAL  # capped
        b.reset()
        assert b.next_timeout() == 0.0


def _echo_prog(comm, payloads):
    """Rank 0 sends each payload to rank 1; rank 1 returns what arrived."""
    if comm.rank == 0:
        for i, p in enumerate(payloads):
            comm.send(p, 1, tag=i % 7)
        return None
    return [comm.recv(0, tag=i % 7) for i in range(len(payloads))]


def _canon(obj):
    if isinstance(obj, np.ndarray):
        return ("nd", str(obj.dtype), obj.shape, obj.tobytes())
    return ("obj", repr(obj))


def _echo(payloads, transport="pipe"):
    res = run_spmd_processes(
        _echo_prog, 2, payloads, transport=transport, timeout=120
    )
    return [_canon(o) for o in res[1]]


def _out_of_order_prog(comm):
    """Ranks 1 and 2 each send arrays 0..3 on tags 0, 1, 0, 1; rank 0
    takes both tag-1 messages of a source before its tag-0 ones, so the
    tag-0 messages wait in the stash behind later arrivals."""
    if comm.rank == 0:
        order = [(2, 1), (1, 1), (1, 1), (2, 1), (1, 0), (2, 0), (2, 0), (1, 0)]
        by_src: dict[int, list] = {1: [], 2: []}
        for src, tag in order:
            by_src[src].append(comm.recv(src, tag))
        return by_src
    for i in range(4):
        comm.send(np.full(3, float(i)), 0, tag=i % 2)
    return None


#: 1 MiB of float64: well above the direct-send cutoff, so both ranks'
#: sends go through their background writers.
_BIG = 1 << 17


def _symmetric_prog(comm):
    """Both ranks send 1 MiB to each other before either receives."""
    peer = 1 - comm.rank
    mine = np.random.default_rng(comm.rank).standard_normal(_BIG)
    comm.send(mine, peer, tag=3)
    return comm.recv(peer, tag=3)


@pytest.mark.slow
class TestWire:
    def test_edge_payloads_round_trip(self):
        payloads = [
            np.empty(0, dtype=np.float64),          # zero-length
            np.array(3.5),                          # 0-d
            np.arange(16, dtype=np.int64),
            np.arange(12, dtype=np.float64).reshape(3, 4)[:, 1],  # strided
            {"k": [1, 2]},                          # object
            np.arange(6, dtype=np.float32),
            np.random.default_rng(0).standard_normal(_BIG),  # 1 MiB
        ]
        assert _echo(payloads) == [_canon(p) for p in payloads]

    def test_per_channel_order(self):
        res = run_spmd_processes(_out_of_order_prog, 3, timeout=120)
        for src in (1, 2):
            np.testing.assert_array_equal(
                [a[0] for a in res[0][src]], [1.0, 3.0, 0.0, 2.0]
            )

    def test_unknown_transport_rejected(self):
        with pytest.raises(MessageError, match="transport"):
            run_spmd_processes(_echo_prog, 2, [], transport="carrier-pigeon")

    def test_symmetric_large_exchange(self):
        # A blocking Connection.send of 1 MiB fills the kernel pipe
        # buffer; without the background writer both ranks would block
        # in send and the world would time out.
        res = run_spmd_processes(_symmetric_prog, 2, timeout=60)
        for rank in (0, 1):
            want = np.random.default_rng(1 - rank).standard_normal(_BIG)
            assert res[rank].tobytes() == want.tobytes()

    def test_shm_alias_creates_no_segment(self, monkeypatch, tmp_path):
        # The spy appends to a file, so constructions in the forked
        # ranks are seen as well as in the parent.
        log = tmp_path / "segments"
        real = multiprocessing.shared_memory.SharedMemory

        def spy(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {args} {kwargs}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(multiprocessing.shared_memory, "SharedMemory", spy)
        payloads = [np.arange(64, dtype=np.float64), np.arange(8)]
        assert _echo(payloads, transport="shm") == [_canon(p) for p in payloads]
        assert not log.exists()
        assert not glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_*")

    @settings(max_examples=6, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["float64", "int64", "float32"]),
                st.integers(min_value=0, max_value=300),
            ),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_property_echo(self, specs, rnd):
        payloads = []
        for dtype, n in specs:
            vals = [rnd.randint(-1000, 1000) for _ in range(n)]
            payloads.append(np.array(vals, dtype=dtype))
        assert _echo(payloads) == [_canon(p) for p in payloads]
