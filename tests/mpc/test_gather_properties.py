"""Property tests for ``gather``/``allgather`` — the merge primitives.

The try-parallel merge exchanges whole try lists over an allgather on a
leader sub-communicator, so these collectives get the same property
treatment the reduce suites have: payloads must come back **associated
with the rank that sent them**, in rank order, unchanged — for any world
size, any payload shapes (including empty), and on sub-communicators.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.collectives import gather_linear
from repro.mpc.serial import SerialComm
from repro.mpc.threadworld import run_spmd_threads

SIZES = [1, 2, 3, 4, 5, 7, 8, 9]


class TestAllgather:
    @pytest.mark.parametrize("size", SIZES)
    def test_rank_order_association(self, size):
        def prog(comm):
            return comm.allgather(("from", comm.rank, comm.rank * 11))

        results = run_spmd_threads(prog, size)
        expected = [("from", r, r * 11) for r in range(size)]
        for got in results:
            assert got == expected

    @settings(max_examples=20, deadline=None)
    @given(size=st.integers(1, 6), n=st.integers(0, 30))
    def test_property_array_payloads(self, size, n):
        """Arbitrary (including empty) array payloads survive unchanged."""

        def prog(comm):
            rng = np.random.default_rng(500 + comm.rank)
            local = rng.normal(size=n)
            return local, comm.allgather(local)

        results = run_spmd_threads(prog, size)
        locals_ = [loc for loc, _g in results]
        for _loc, gathered in results:
            assert len(gathered) == size
            for r in range(size):
                np.testing.assert_array_equal(gathered[r], locals_[r])

    def test_heterogeneous_payload_sizes(self):
        """Ranks may contribute differently sized lists (the merge case)."""

        def prog(comm):
            mine = [f"try-{comm.rank}-{i}" for i in range(comm.rank)]
            return comm.allgather(mine)

        results = run_spmd_threads(prog, 4)
        expected = [[f"try-{r}-{i}" for i in range(r)] for r in range(4)]
        for got in results:
            assert got == expected

    def test_empty_list_payloads(self):
        def prog(comm):
            return comm.allgather([])

        assert run_spmd_threads(prog, 3) == [[[], [], []]] * 3

    def test_one_rank_world(self):
        def prog(comm):
            return comm.allgather({"rank": comm.rank})

        assert run_spmd_threads(prog, 1) == [[{"rank": 0}]]
        assert SerialComm().allgather("solo") == ["solo"]

    def test_allgather_on_subcomm(self):
        """The leader-merge pattern: allgather over a split's leaders."""

        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            leaders = comm.split(color=0 if sub.rank == 0 else None)
            mine = [f"g{sub.color}-t{i}" for i in range(sub.color + 1)]
            if leaders is not None:
                merged = leaders.allgather(mine)
                merged = sub.bcast(merged, root=0)
            else:
                merged = sub.bcast(None, root=0)
            return merged

        results = run_spmd_threads(prog, 4)
        expected = [["g0-t0"], ["g1-t0", "g1-t1"]]
        for got in results:
            assert got == expected


class TestGather:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("root", [0, -1])
    def test_root_gets_rank_ordered_list(self, size, root):
        root = root % size

        def prog(comm):
            return comm.gather((comm.rank, "v"), root=root)

        results = run_spmd_threads(prog, size)
        for rank, got in enumerate(results):
            if rank == root:
                assert got == [(r, "v") for r in range(size)]
            else:
                assert got is None

    @settings(max_examples=15, deadline=None)
    @given(size=st.integers(1, 6), n=st.integers(0, 20))
    def test_property_matches_allgather(self, size, n):
        """gather(root) returns exactly allgather's root slice."""

        def prog(comm):
            rng = np.random.default_rng(900 + comm.rank)
            local = rng.normal(size=n)
            return comm.gather(local, root=0), comm.allgather(local)

        results = run_spmd_threads(prog, size)
        gathered, allgathered = results[0]
        assert len(gathered) == len(allgathered) == size
        for a, b in zip(gathered, allgathered):
            np.testing.assert_array_equal(a, b)

    def test_one_rank_world(self):
        assert SerialComm().gather("g") == ["g"]

    @pytest.mark.parametrize("root", [0, 2])
    def test_root_receives_in_rank_order(self, root):
        """The root names every source, in rank order: matching in host
        arrival order would make a virtual-time root's clock depend on
        thread scheduling."""

        class RecordingRoot:
            """A gather root that records which source each receive names."""

            size = 4

            def __init__(self):
                self.rank = root
                self.sources = []

            def recv(self, source, tag):
                self.sources.append(source)
                return ("from", source)

        comm = RecordingRoot()
        out = gather_linear(comm, ("from", root), root, tag=7)
        assert out == [("from", r) for r in range(4)]
        assert comm.sources == [r for r in range(4) if r != root]
