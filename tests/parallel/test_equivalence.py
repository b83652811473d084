"""The paper's central correctness claim: P-AutoClass preserves the
sequential semantics — for any processor count, any backend, and either
reduction granularity."""

import numpy as np
import pytest

from repro.data.partition import block_partition
from repro.data.synth import make_paper_database
from repro.engine.search import SearchConfig, run_search
from repro.mpc.threadworld import run_spmd_threads
from repro.parallel import run_pautoclass

CFG = SearchConfig(start_j_list=(2, 4), max_n_tries=2, seed=5, max_cycles=40)


def _scores(result):
    return [t.score for t in result.tries]


@pytest.fixture(scope="module")
def db():
    return make_paper_database(600, seed=11)


@pytest.fixture(scope="module")
def sequential(db):
    return run_search(db, CFG)


class TestThreadsEquivalence:
    @pytest.mark.parametrize("n_procs", [1, 2, 3, 4, 5, 8])
    def test_scores_match_sequential(self, db, sequential, n_procs):
        results = run_spmd_threads(run_pautoclass, n_procs, db, CFG)
        for rank_result in results:
            np.testing.assert_allclose(
                _scores(rank_result), _scores(sequential), rtol=1e-9
            )

    @pytest.mark.parametrize("n_procs", [2, 5])
    def test_cycle_counts_identical(self, db, sequential, n_procs):
        """Convergence decisions replicate exactly: same cycle count on
        every try — the paper's 'same semantics' in its strongest form."""
        results = run_spmd_threads(run_pautoclass, n_procs, db, CFG)
        assert [t.n_cycles for t in results[0].tries] == [
            t.n_cycles for t in sequential.tries
        ]

    def test_all_ranks_agree_bitwise(self, db):
        results = run_spmd_threads(run_pautoclass, 4, db, CFG)
        base = results[0]
        for other in results[1:]:
            assert _scores(other) == _scores(base)
            for a, b in zip(base.tries, other.tries):
                np.testing.assert_array_equal(
                    a.classification.log_pi, b.classification.log_pi
                )

    def test_best_parameters_match_sequential(self, db, sequential):
        results = run_spmd_threads(run_pautoclass, 3, db, CFG)
        best_par = results[0].best.classification
        best_seq = sequential.best.classification
        np.testing.assert_allclose(best_par.log_pi, best_seq.log_pi, rtol=1e-8)
        for pa, pb in zip(best_par.term_params, best_seq.term_params):
            np.testing.assert_allclose(pa.mu, pb.mu, rtol=1e-8)  # type: ignore[attr-defined]
            np.testing.assert_allclose(pa.sigma, pb.sigma, rtol=1e-8)  # type: ignore[attr-defined]


class TestDegenerateWorlds:
    def test_more_ranks_than_items(self):
        """Empty partitions must not break anything."""
        tiny = make_paper_database(5, seed=3)
        cfg = SearchConfig(start_j_list=(2,), max_n_tries=1, seed=0, max_cycles=10)
        seq = run_search(tiny, cfg)
        results = run_spmd_threads(run_pautoclass, 8, tiny, cfg)
        np.testing.assert_allclose(_scores(results[0]), _scores(seq), rtol=1e-9)

    def test_single_item_per_rank(self):
        db4 = make_paper_database(4, seed=4)
        cfg = SearchConfig(start_j_list=(2,), max_n_tries=1, seed=1, max_cycles=5)
        results = run_spmd_threads(run_pautoclass, 4, db4, cfg)
        assert np.isfinite(results[0].best.score)


class TestGranularityEquivalence:
    def test_per_term_class_equals_packed(self, db):
        """The paper's Fig. 5 per-(class, term) reducer of the figure
        experiments yields the library's packed global statistics."""
        from repro.engine.init import initial_classification
        from repro.engine.params import local_update_parameters
        from repro.engine.wts import update_wts
        from repro.harness.programs import PerTermClassReducer
        from repro.parallel.packed import ReductionPlan
        from repro.parallel.reducers import BlockingReducer
        from repro.util.rng import spawn_rng
        from repro.models.registry import ModelSpec
        from repro.models.summary import DataSummary

        spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
        clf = initial_classification(db, spec, 4, spawn_rng(0))
        wts, red = update_wts(db, clf)

        def prog(comm, per_term_class):
            local = block_partition(db, comm.size, comm.rank)
            lo = sum(
                block_partition(db, comm.size, r).n_items
                for r in range(comm.rank)
            )
            local_wts = wts[lo : lo + local.n_items]
            plan = ReductionPlan(comm, 4, spec.n_stats)
            reducer = (
                PerTermClassReducer(comm, plan, spec) if per_term_class
                else BlockingReducer(comm, plan)
            )
            reducer.launch_wts(np.zeros(4 + 2))
            reducer.launch_stats(local_update_parameters(local, spec, local_wts))
            _payload, stats = reducer.finish()
            return stats.copy()

        packed = run_spmd_threads(prog, 3, False)[0]
        per_tc = run_spmd_threads(prog, 3, True)[0]
        np.testing.assert_allclose(packed, per_tc, rtol=1e-12)


@pytest.mark.slow
class TestProcessesEquivalence:
    def test_processes_match_sequential(self, db, sequential):
        from repro.mpc.procworld import run_spmd_processes

        results = run_spmd_processes(run_pautoclass, 3, db, CFG)
        np.testing.assert_allclose(
            _scores(results[0]), _scores(sequential), rtol=1e-9
        )


class TestSimEquivalence:
    def test_sim_world_matches_sequential(self, db, sequential):
        from repro.simnet.machine import meiko_cs2
        from repro.simnet.simworld import run_spmd_sim

        run = run_spmd_sim(
            run_pautoclass, 4, meiko_cs2(4), db, CFG, compute_mode="counted"
        )
        np.testing.assert_allclose(
            _scores(run.results[0]), _scores(sequential), rtol=1e-9
        )
        assert run.elapsed > 0
