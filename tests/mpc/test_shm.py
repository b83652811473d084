"""Shared-memory transport: ring unit tests, edge cases, leak checks.

The SPMD tests run every scenario on both transports and assert the
delivered payloads are byte-identical — the shm ring is a wire
optimization, never a semantics change.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.procworld import _RecvBackoff, _POLL_INTERVAL, run_spmd_processes
from repro.mpc.shm import (
    DATA_OFFSET,
    SEGMENT_PREFIX,
    ShmRing,
    ShmToken,
    ShmTransport,
    default_ring_capacity,
    ring_eligible,
)
from repro.mpc.errors import MessageError


def _ring(capacity: int) -> ShmRing:
    return ShmRing(memoryview(bytearray(DATA_OFFSET + capacity)), capacity)


class TestShmRing:
    def test_roundtrip(self):
        ring = _ring(256)
        a = np.arange(8, dtype=np.float64)
        off = ring.try_write(a)
        assert off == 0
        tok = ShmToken("float64", (8,), a.nbytes, off)
        out = ring.read_array(tok)
        np.testing.assert_array_equal(out, a)
        assert ring.head == ring.tail == a.nbytes

    def test_wraparound(self):
        ring = _ring(64)  # two 4-double payloads per lap
        for lap in range(5):
            a = np.full(5, float(lap))  # 40 bytes: forces misalignment
            off = ring.try_write(a)
            assert off == lap * 40
            tok = ShmToken("float64", (5,), 40, off)
            np.testing.assert_array_equal(ring.read_array(tok), a)

    def test_full_ring_returns_none(self):
        ring = _ring(64)
        a = np.zeros(8)
        assert ring.try_write(a) == 0
        assert ring.try_write(a) is None  # 64 unconsumed bytes
        ring.read_array(ShmToken("float64", (8,), 64, 0))
        assert ring.try_write(a) == 64  # freed by the read

    def test_zero_length_payload(self):
        ring = _ring(64)
        empty = np.empty(0, dtype=np.int64)
        off = ring.try_write(empty)
        assert off == 0
        out = ring.read_array(ShmToken("int64", (0,), 0, off))
        assert out.shape == (0,) and out.dtype == np.int64
        assert ring.head == 0  # occupies no space

    def test_out_of_order_read_raises(self):
        ring = _ring(128)
        ring.try_write(np.zeros(4))
        second = ring.try_write(np.ones(4))
        with pytest.raises(MessageError, match="out of order"):
            ring.read_array(ShmToken("float64", (4,), 32, second))

    def test_size_mismatch_raises(self):
        ring = _ring(128)
        ring.try_write(np.zeros(4))
        with pytest.raises(MessageError, match="mismatch"):
            ring.read_into(np.zeros(3), ShmToken("float64", (4,), 32, 0))

    def test_read_into_lands_in_place(self):
        ring = _ring(128)
        a = np.arange(6, dtype=np.float64)
        off = ring.try_write(a)
        dest = np.zeros(6)
        ring.read_into(dest, ShmToken("float64", (6,), a.nbytes, off))
        np.testing.assert_array_equal(dest, a)


class TestEligibility:
    def test_eligible(self):
        cap = 1024
        assert ring_eligible(np.zeros(4), cap)
        assert ring_eligible(np.zeros(4, dtype=np.int64), cap)
        assert ring_eligible(np.zeros(()), cap)  # 0-d

    def test_ineligible(self):
        cap = 1024
        assert not ring_eligible([1.0, 2.0], cap)
        assert not ring_eligible("text", cap)
        assert not ring_eligible(np.zeros(4, dtype=np.float32), cap)
        assert not ring_eligible(np.zeros((4, 4))[:, 0], cap)  # strided
        assert not ring_eligible(np.zeros(cap), cap)  # cap+ bytes
        assert not ring_eligible(np.float64(3.0), cap)  # scalar, not ndarray

    def test_default_capacity_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_RING_BYTES", "4096")
        assert default_ring_capacity() == 4096
        monkeypatch.setenv("REPRO_SHM_RING_BYTES", "zero")
        with pytest.raises(MessageError):
            default_ring_capacity()


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


def _leaked_segments() -> list[str]:
    # Segment names embed the creating pid — this process, for worlds
    # these tests launch — so a concurrent run can't pollute the check.
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_*")


def _echo_prog(comm, payloads):
    """Rank 0 sends each payload to rank 1; rank 1 returns the bytes."""
    if comm.rank == 0:
        for i, p in enumerate(payloads):
            comm.send(p, 1, tag=i % 7)
        return None
    out = []
    for i in range(len(payloads)):
        obj = comm.recv(0, tag=i % 7)
        out.append(obj)
    return out


def _canon(obj):
    if isinstance(obj, np.ndarray):
        return ("nd", str(obj.dtype), obj.shape, obj.tobytes())
    return ("obj", repr(obj))


def _both_transports(payloads, **kw):
    out = {}
    for transport in ("shm", "pipe"):
        res = run_spmd_processes(
            _echo_prog, 2, payloads, transport=transport, timeout=120, **kw
        )
        out[transport] = [_canon(o) for o in res[1]]
    assert not _leaked_segments()
    return out


@pytest.mark.slow
class TestTransportEdgeCases:
    def test_edge_payloads_identical_on_both_wires(self):
        payloads = [
            np.empty(0, dtype=np.float64),          # zero-length
            np.array(3.5),                          # 0-d
            np.arange(16, dtype=np.int64),
            np.arange(12, dtype=np.float64).reshape(3, 4)[:, 1],  # strided
            {"k": [1, 2]},                          # object fallback
            np.arange(6, dtype=np.float32),         # ineligible dtype
            np.random.default_rng(0).standard_normal(1 << 17),  # 1 MiB
        ]
        got = _both_transports(payloads)
        assert got["shm"] == got["pipe"]
        assert got["shm"] == [_canon(p) for p in payloads]

    def test_over_capacity_falls_back_in_order(self):
        # small (ring), huge (pipe fallback), small (ring) — same tag:
        # non-overtaking must hold across the two wires.
        big = np.arange(4096, dtype=np.float64)
        payloads = [np.full(4, 1.0), big, np.full(4, 2.0)]
        got = _both_transports(payloads, ring_capacity=1024)
        assert got["shm"] == got["pipe"] == [_canon(p) for p in payloads]

    def test_wildcard_interleaving_both_wires(self):
        for transport in ("shm", "pipe"):
            res = run_spmd_processes(
                _wildcard_prog, 3, transport=transport, timeout=120
            )
            by_src, tags = res[0]
            # every message arrived, per-source order preserved
            for src in (1, 2):
                np.testing.assert_array_equal(
                    [a[0] for a in by_src[src]], [0.0, 1.0, 2.0, 3.0]
                )
            assert sorted(tags) == [0, 0, 0, 0, 1, 1, 1, 1]
        assert not _leaked_segments()

    def test_transport_counters(self):
        shm_stats, pipe_stats = (
            run_spmd_processes(_stats_prog, 2, transport=t, timeout=120)[0]
            for t in ("shm", "pipe")
        )
        assert shm_stats["n_shm_msgs"] > 0
        assert shm_stats["n_pipe_msgs"] > 0  # the object fallback
        assert pipe_stats["n_shm_msgs"] == 0
        assert pipe_stats["n_pipe_msgs"] > 0
        # the split is exhaustive: every send is one or the other
        for s in (shm_stats, pipe_stats):
            assert s["n_shm_msgs"] + s["n_pipe_msgs"] == s["n_sends"]
            assert s["shm_bytes"] + s["pipe_bytes"] == s["bytes_sent"]
        assert not _leaked_segments()

    def test_unknown_transport_rejected(self):
        with pytest.raises(MessageError, match="transport"):
            run_spmd_processes(_echo_prog, 2, [], transport="carrier-pigeon")

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
    def test_property_shm_equals_pipe(self, specs, rnd):
        payloads = []
        for dtype, n in specs:
            vals = [rnd.randint(-1000, 1000) for _ in range(n)]
            payloads.append(np.array(vals, dtype=dtype))
        got = _both_transports(payloads, ring_capacity=1024)
        assert got["shm"] == got["pipe"] == [_canon(p) for p in payloads]


def _wildcard_prog(comm):
    from repro.mpc.api import ANY_SOURCE, ANY_TAG

    if comm.rank == 0:
        by_src: dict[int, list] = {1: [], 2: []}
        tags = []
        for _ in range(8):
            obj, src, tag = comm.recv_status(ANY_SOURCE, ANY_TAG)
            by_src[src].append(obj)
            tags.append(tag)
        return by_src, tags
    for i in range(4):
        comm.send(np.full(3, float(i)), 0, tag=i % 2)
    return None


def _stats_prog(comm):
    peer = 1 - comm.rank
    comm.send(np.arange(64, dtype=np.float64), peer, tag=1)
    comm.recv(peer, tag=1)
    comm.send({"meta": comm.rank}, peer, tag=2)
    comm.recv(peer, tag=2)
    buf = np.full(32, float(comm.rank))
    comm.allreduce_into(buf)
    s = comm.stats
    return {
        "n_sends": s.n_sends,
        "bytes_sent": s.bytes_sent,
        "n_shm_msgs": s.n_shm_msgs,
        "shm_bytes": s.shm_bytes,
        "n_pipe_msgs": s.n_pipe_msgs,
        "pipe_bytes": s.pipe_bytes,
    }


def _hard_exit_prog(comm):
    if comm.rank == 1:
        os._exit(17)  # vanish without a goodbye, like a lost node
    comm.recv(1, tag=0)  # waits forever; dead-worker detection must fire
    return None


def _raising_prog(comm):
    if comm.rank == 0:
        raise RuntimeError("boom at rank 0")
    comm.recv(0, tag=0)  # wakes with WorldAborted
    return None


@pytest.mark.slow
class TestCleanup:
    def test_no_leak_after_success(self):
        run_spmd_processes(_echo_prog, 2, [np.arange(8.0)], timeout=120)
        assert not _leaked_segments()

    def test_no_leak_after_hard_kill(self):
        with pytest.raises(RuntimeError, match="died"):
            run_spmd_processes(_hard_exit_prog, 2, timeout=120)
        assert not _leaked_segments()

    def test_no_leak_after_world_abort(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_spmd_processes(_raising_prog, 2, timeout=120)
        assert not _leaked_segments()

    def test_transport_destroy_idempotent(self):
        t = ShmTransport(2, capacity=1024)
        names = [f"/dev/shm/{seg.name}" for seg in t._segments.values()]
        assert all(os.path.exists(n) for n in names)
        t.destroy()
        assert not any(os.path.exists(n) for n in names)
        t.destroy()  # second call is a no-op
