"""Collective algorithm correctness over the thread world.

Every collective is checked against its numpy one-liner for every world
size 1..9 (covering power-of-two and odd cases).  Test ids name the one
algorithm behind each collective.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.api import CollectiveConfig
from repro.mpc.threadworld import run_spmd_threads

SIZES = [1, 2, 3, 4, 5, 7, 8, 9]


def sizes(algorithm):
    """Every world size, with ids naming the collective's algorithm."""
    return pytest.mark.parametrize(
        "size", SIZES, ids=[f"{algorithm}-{s}" for s in SIZES]
    )


class TestAllreduce:
    @sizes("recursive_doubling")
    def test_sum_matches_numpy(self, size):
        def prog(comm):
            x = np.arange(17, dtype=np.float64) * (comm.rank + 1)
            return comm.allreduce(x)

        results = run_spmd_threads(prog, size)
        expected = np.arange(17, dtype=np.float64) * sum(range(1, size + 1))
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-12)

    def test_does_not_mutate_inputs(self):
        def prog(comm):
            x = np.array([comm.rank + 1.0])
            comm.allreduce(x)
            return x[0]

        for size in (1, 2, 3):
            assert run_spmd_threads(prog, size) == [r + 1.0 for r in range(size)]

    def test_shape_mismatch_raises(self):
        def prog(comm):
            with pytest.raises(ValueError, match="shapes"):
                comm.allreduce(np.zeros(2 + comm.rank))
            return True

        assert run_spmd_threads(prog, 2) == [True, True]

    def test_scalars_stay_scalars(self):
        def prog(comm):
            return comm.allreduce(comm.rank + 2.5)

        for size in (1, 2, 3):
            for r in run_spmd_threads(prog, size):
                assert np.isscalar(r)
                assert r == sum(k + 2.5 for k in range(size))

    def test_2d_arrays(self):
        def prog(comm):
            return comm.allreduce(np.ones((2, 3)))

        for size in (2, 3, 4):
            for r in run_spmd_threads(prog, size):
                np.testing.assert_array_equal(r, np.full((2, 3), float(size)))

    def test_all_ranks_get_identical_bits(self):
        """Recursive doubling with fixed combine orientation must give
        bit-identical results on every rank."""
        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            return comm.allreduce(rng.random(100))

        results = run_spmd_threads(prog, 6)
        for r in results[1:]:
            np.testing.assert_array_equal(r, results[0])

    @settings(max_examples=15, deadline=None)
    @given(size=st.integers(1, 6), n=st.integers(1, 40))
    def test_property_random_payloads(self, size, n):
        def prog(comm):
            rng = np.random.default_rng(1000 + comm.rank)
            local = rng.normal(size=n)
            return local, comm.allreduce(local)

        results = run_spmd_threads(prog, size)
        expected = np.sum([loc for loc, _tot in results], axis=0)
        for _loc, total in results:
            np.testing.assert_allclose(total, expected, rtol=1e-9, atol=1e-12)

    def test_unknown_algorithm_raises(self):
        """The algorithm is not configurable: naming one fails as any
        unknown keyword does."""
        for field in ("allreduce", "bcast", "barrier"):
            with pytest.raises(TypeError, match=field):
                CollectiveConfig(**{field: "magic"})


class TestBcast:
    @sizes("binomial")
    def test_every_rank_receives(self, size):
        def prog(comm):
            payload = {"data": [1, 2, 3]} if comm.rank == comm.size - 1 else None
            return comm.bcast(payload, root=comm.size - 1)

        results = run_spmd_threads(prog, size)
        assert all(r == {"data": [1, 2, 3]} for r in results)

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_arbitrary_roots(self, root):
        def prog(comm):
            return comm.bcast(comm.rank if comm.rank == root else None, root=root)

        assert run_spmd_threads(prog, 3) == [root] * 3


class TestGatherScatter:
    @pytest.mark.parametrize("size", SIZES)
    def test_gather_rank_ordered(self, size):
        def prog(comm):
            return comm.gather(f"r{comm.rank}", root=0)

        results = run_spmd_threads(prog, size)
        assert results[0] == [f"r{i}" for i in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_allgather(self, size):
        def prog(comm):
            return comm.allgather(comm.rank * 10)

        for r in run_spmd_threads(prog, size):
            assert r == [i * 10 for i in range(size)]


class TestBarrier:
    @sizes("dissemination")
    def test_barrier_completes(self, size):
        def prog(comm):
            for _ in range(3):
                comm.barrier()
            return True

        assert all(run_spmd_threads(prog, size))

    def test_barrier_synchronizes(self):
        """No rank may pass the barrier before every rank has arrived."""
        import threading

        arrived = []
        lock = threading.Lock()

        def prog(comm):
            with lock:
                arrived.append(comm.rank)
            comm.barrier()
            with lock:
                return len(arrived)

        counts = run_spmd_threads(prog, 5)
        assert all(c == 5 for c in counts)


class TestBackToBackCollectives:
    def test_no_crosstalk(self):
        """Interleaved different collectives must not cross-match."""
        def prog(comm):
            a = comm.allreduce(np.array([1.0]))
            b = comm.bcast("x" if comm.rank == 0 else None)
            c = comm.allgather(comm.rank)
            comm.barrier()
            d = comm.allreduce(np.array([2.0]))
            return (float(a[0]), b, c, float(d[0]))

        for r in run_spmd_threads(prog, 5):
            assert r == (5.0, "x", [0, 1, 2, 3, 4], 10.0)
