"""``Comm.split`` sub-communicators: semantics, isolation, all worlds.

The two-level search leans entirely on three properties tested here:
group renumbering/ordering, tag-space isolation between concurrent
groups (including split-then-split), and faithful stats accounting
through the relay.
"""

import numpy as np
import pytest

from repro.mpc.serial import SerialComm
from repro.mpc.split import SubComm
from repro.mpc.threadworld import run_spmd_threads


def _split_allreduce(comm):
    """Two halves, each allreducing its own contribution."""
    sub = comm.split(color=comm.rank // 2)
    total = sub.allreduce(np.array([float(comm.rank + 1)]))
    return sub.rank, sub.size, sub.world_ranks, float(total[0])


class TestSplitBasics:
    def test_two_groups_of_two(self):
        results = run_spmd_threads(_split_allreduce, 4)
        for world_rank, (sub_rank, sub_size, world_ranks, total) in enumerate(
            results
        ):
            assert sub_size == 2
            assert sub_rank == world_rank % 2
            assert world_ranks == (0, 1) if world_rank < 2 else (2, 3)
        assert results[0][3] == results[1][3] == 1.0 + 2.0
        assert results[2][3] == results[3][3] == 3.0 + 4.0

    def test_singleton_groups(self):
        def prog(comm):
            sub = comm.split(color=comm.rank)  # every rank its own group
            assert sub.rank == 0 and sub.size == 1
            assert sub.allgather(comm.rank) == [comm.rank]
            assert sub.bcast(comm.rank * 10) == comm.rank * 10
            return float(sub.allreduce(np.array([2.0 * comm.rank]))[0])

        assert run_spmd_threads(prog, 3) == [0.0, 2.0, 4.0]

    def test_non_contiguous_colors(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)  # evens vs odds
            return sub.world_ranks, sorted(sub.allgather(comm.rank))

        results = run_spmd_threads(prog, 5)
        for world_rank, (world_ranks, members) in enumerate(results):
            expected = [r for r in range(5) if r % 2 == world_rank % 2]
            assert list(world_ranks) == expected
            assert members == expected

    def test_key_reorders_group_ranks(self):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank, sub.world_ranks

        results = run_spmd_threads(prog, 4)
        for world_rank, (sub_rank, world_ranks) in enumerate(results):
            assert world_ranks == (3, 2, 1, 0)
            assert sub_rank == 3 - world_rank

    def test_color_none_returns_none_but_participates(self):
        def prog(comm):
            sub = comm.split(color=0 if comm.rank < 2 else None)
            if comm.rank >= 2:
                assert sub is None
                return None
            return sorted(sub.allgather(comm.rank))

        results = run_spmd_threads(prog, 4)
        assert results == [[0, 1], [0, 1], None, None]

    def test_bad_color_type_raises(self):
        def prog(comm):
            comm.split(color="red")

        with pytest.raises(RuntimeError, match="color"):
            run_spmd_threads(prog, 2)

    def test_serial_world_split(self):
        comm = SerialComm()
        sub = comm.split(color=7)
        assert isinstance(sub, SubComm)
        assert (sub.rank, sub.size) == (0, 1)
        np.testing.assert_array_equal(
            sub.allreduce(np.array([4.0])), [4.0]
        )
        assert comm.split(color=None) is None


class TestIsolation:
    def test_same_subtag_p2p_never_crosses_groups(self):
        """Sibling groups exchanging on the same sub tag stay separate."""

        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            if sub.rank == 0:
                sub.send(("payload", comm.rank), dest=1, tag=5)
                return None
            return sub.recv(source=0, tag=5)

        results = run_spmd_threads(prog, 4)
        assert results[1] == ("payload", 0)
        assert results[3] == ("payload", 2)

    def test_concurrent_group_collectives(self):
        """Unsynchronized collectives on sibling groups don't mix.

        Group 0 runs many more collectives than group 1, so their
        collective tag counters drift arbitrarily far apart — any tag
        collision between the groups would misroute a message and show
        up as a wrong sum.
        """

        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            n_rounds = 20 if sub.color == 0 else 3
            total = 0.0
            for i in range(n_rounds):
                total += float(
                    sub.allreduce(np.array([comm.rank + i + 1.0]))[0]
                )
            return total

        results = run_spmd_threads(prog, 4)
        expected_g0 = sum((0 + i + 1) + (1 + i + 1) for i in range(20))
        expected_g1 = sum((2 + i + 1) + (3 + i + 1) for i in range(3))
        assert results[0] == results[1] == expected_g0
        assert results[2] == results[3] == expected_g1

    def test_split_then_split(self):
        def prog(comm):
            half = comm.split(color=comm.rank // 2)  # {0,1} {2,3}
            solo = half.split(color=half.rank)  # singletons, nested ctx
            # Nested, parent-level and grandparent-level collectives all
            # live in distinct tag spaces; interleave them.
            a = float(solo.allreduce(np.array([comm.rank + 1.0]))[0])
            b = float(half.allreduce(np.array([comm.rank + 1.0]))[0])
            c = float(comm.allreduce(np.array([comm.rank + 1.0]))[0])
            return a, b, c

        results = run_spmd_threads(prog, 4)
        for world_rank, (a, b, c) in enumerate(results):
            assert a == world_rank + 1.0
            assert b == (1.0 + 2.0) if world_rank < 2 else (3.0 + 4.0)
            assert c == 10.0

    def test_raw_parent_traffic_unaffected(self):
        """P2P on the parent with small tags coexists with sub traffic."""

        def prog(comm):
            sub = comm.split(color=0)
            if comm.rank == 0:
                comm.send("raw", dest=1, tag=3)
                sub.send("mapped", dest=1, tag=3)
                return None
            if comm.rank == 1:
                return sub.recv(source=0, tag=3), comm.recv(source=0, tag=3)
            return None

        results = run_spmd_threads(prog, 2)
        assert results[1] == ("mapped", "raw")


class TestAccounting:
    def test_stats_counted_on_sub_and_parent(self):
        def prog(comm):
            sub = comm.split(color=0)
            before = (comm.stats.n_sends, comm.stats.n_recvs)
            if sub.rank == 0:
                sub.send(b"12345678", dest=1, tag=2)
            else:
                sub.recv(source=0, tag=2)
            return (
                sub.stats.n_sends, sub.stats.n_recvs,
                comm.stats.n_sends - before[0],
                comm.stats.n_recvs - before[1],
            )

        results = run_spmd_threads(prog, 2)
        assert results[0][:2] == (1, 0)
        assert results[1][:2] == (0, 1)
        # World-level totals see the relayed traffic too.
        assert results[0][2:] == (1, 0)
        assert results[1][2:] == (0, 1)


class TestOtherWorlds:
    def test_processes_world(self):
        from repro.mpc.procworld import run_spmd_processes

        results = run_spmd_processes(_split_allreduce, 4)
        assert results[0][3] == results[1][3] == 3.0
        assert results[2][3] == results[3][3] == 7.0

    def test_sim_world_prices_group_collectives(self):
        from repro.simnet.machine import meiko_cs2
        from repro.simnet.simworld import run_spmd_sim

        sim = run_spmd_sim(_split_allreduce, 4, meiko_cs2(4))
        assert sim.results[0][3] == sim.results[1][3] == 3.0
        assert sim.results[2][3] == sim.results[3][3] == 7.0
        assert sim.elapsed > 0.0
