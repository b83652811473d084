"""The decomposition rule and the longest-first packing of tries.

Timing-free: the rule counts the busiest rank's cells per cycle, so
its choice on a shape is a pure function of (config, N, P).  The
shapes are the end-to-end benchmark's parallel workloads.
"""

import pytest

import repro
from repro.api import PAutoClass
from repro.engine.search import PAPER_START_J_LIST, SearchConfig
from repro.mpc.faults import FaultInjector, FaultSpec
from repro.parallel.psearch import (
    group_sizes,
    pack_tries,
    predicted_makespan,
    resolve_try_groups,
)

PAPER_J = PAPER_START_J_LIST


def _config(j_list, n_tries, n_cycles):
    return SearchConfig(
        start_j_list=j_list, max_n_tries=n_tries, max_cycles=n_cycles
    )


class TestRule:
    @pytest.mark.parametrize(
        "name, n_items, n_cycles, procs, expected",
        [
            ("small_procs2", 5_000, 100, 2, 2),
            ("paper_procs2", 100_000, 10, 2, 2),
            # G = 3..7 leave a group more than 84 J-units of its
            # share; G = 2 ties G = 1 at 84 x N/5 cells and wins it.
            ("sim_cs2_p10", 100_000, 5, 10, 2),
        ],
    )
    def test_choice_on_the_benchmark_shapes(
        self, name, n_items, n_cycles, procs, expected
    ):
        config = _config(PAPER_J, 7, n_cycles)
        assert resolve_try_groups(None, procs, config, n_items) == expected

    def test_one_rank_or_one_try_is_the_paper_structure(self):
        assert resolve_try_groups(None, 1, _config(PAPER_J, 7, 10), 5000) == 1
        one_try = _config(PAPER_J, 1, 10)
        for procs in (2, 10):
            assert resolve_try_groups(None, procs, one_try, 5000) == 1

    def test_unpackable_tries_keep_the_row_split(self):
        """A J=64 try beside a J=2 one: one group would carry the
        whole J=64 try alone, so splitting every cycle wins."""
        config = _config((2, 64), 2, 10)
        assert resolve_try_groups(None, 2, config, 100_000) == 1
        assert predicted_makespan(config, 100_000, 2, 1) == 50_000 * 66
        assert predicted_makespan(config, 100_000, 2, 2) == 100_000 * 64

    def test_ties_go_to_the_larger_g(self):
        """Equal work on the busiest rank: smaller groups reduce over
        fewer ranks, so the larger G is taken."""
        config = _config(PAPER_J, 7, 100)
        assert (predicted_makespan(config, 5000, 2, 1)
                == predicted_makespan(config, 5000, 2, 2) == 84 * 5000)
        assert resolve_try_groups(None, 2, config, 5000) == 2

    def test_auto_is_the_default(self):
        config = _config(PAPER_J, 7, 100)
        assert (resolve_try_groups("auto", 2, config, 5000)
                == resolve_try_groups(None, 2, config, 5000))

    def test_group_sizes_are_the_color_blocks(self):
        assert group_sizes(10, 3) == [4, 3, 3]
        assert group_sizes(2, 2) == [1, 1]


class TestPacking:
    def test_paper_j_list_balances_84_84(self):
        config = _config(PAPER_J, 7, 10)
        owner, _span = pack_tries(config, 5000, [1, 1])
        loads = [
            sum(j for j, g in zip(PAPER_J, owner) if g == group)
            for group in (0, 1)
        ]
        assert loads == [84, 84]
        assert owner == [1, 0, 1, 0, 1, 1, 0]
        # Round-robin (k % 2) gave 98 / 70.
        assert [sum(PAPER_J[g::2]) for g in (0, 1)] == [98, 70]

    def test_ties_go_to_the_lower_try_then_the_lower_group(self):
        owner, _span = pack_tries(_config((4, 4, 4, 4), 4, 10), 1000, [1, 1])
        assert owner == [0, 1, 0, 1]

    def test_tries_past_the_list_are_priced_at_its_largest_j(self):
        # J prices [2, 8, 8, 8]: the three 8s first, then the 2.
        owner, _span = pack_tries(_config((2, 8), 4, 10), 1000, [1, 1])
        assert owner == [1, 0, 1, 0]

    def test_makespan_is_the_heaviest_group(self):
        config = _config(PAPER_J, 7, 10)
        _owner, span = pack_tries(config, 5000, [2])
        assert span == predicted_makespan(config, 5000, 2, 1) == 2500 * 168
        # [4, 3, 3] ranks: rows 25 000 / 33 334 / 33 334 per rank.
        owner, span = pack_tries(config, 100_000, [4, 3, 3])
        assert owner == [2, 0, 2, 2, 2, 1, 0]
        assert span == 25_000 * 68


CFG = dict(start_j_list=(2, 3, 2, 4), max_n_tries=4, seed=11, max_cycles=8)


class TestGroupedSearch:
    def test_groups_run_their_packed_tries(self):
        """Each rank's cycles carry their try index: group g ran exactly
        the tries the packing gave it."""
        db = repro.make_paper_database(96, seed=5)
        run = PAutoClass(
            n_processors=2, backend="threads", try_groups=2,
            instrument="full", **CFG,
        ).fit(db)
        owner, _span = pack_tries(SearchConfig(**CFG), db.n_items, [1, 1])
        for rank in run.record.ranks:
            ran = {c.try_index for c in rank.cycles}
            assert ran == {k for k, g in enumerate(owner) if g == rank.rank}

    def test_decomposition_counters(self):
        db = repro.make_paper_database(96, seed=5)
        run = PAutoClass(
            n_processors=2, backend="threads", instrument="phases", **CFG,
        ).fit(db)
        config = SearchConfig(**CFG)
        chosen = resolve_try_groups(None, 2, config, db.n_items)
        for rank in run.record.ranks:
            c = rank.counters
            assert c["try_groups"] == chosen
            assert c["try_groups.makespan_g1_cells"] == (
                predicted_makespan(config, db.n_items, 2, 1)
            )
            assert c["try_groups.makespan_chosen_cells"] == (
                predicted_makespan(config, db.n_items, 2, chosen)
            )

    def test_fault_spec_names_a_world_rank(self):
        """Inside a one-rank group every rank is sub-rank 0; a fault at
        world rank 1 must fire there (and only there)."""
        db = repro.make_paper_database(96, seed=5)
        owner, _span = pack_tries(SearchConfig(**CFG), db.n_items, [1, 1])
        k = owner.index(1)  # a try rank 1's group runs

        def fit(rank, try_index):
            return PAutoClass(
                n_processors=2, backend="threads", try_groups=2, **CFG,
            ).fit(db, faults=FaultInjector(FaultSpec(
                rank=rank, action="kill", site="init", at_try=try_index,
            )))

        with pytest.raises(RuntimeError, match="rank 1"):
            fit(1, k)
        fit(0, k)  # rank 0 never runs try k: nothing fires
