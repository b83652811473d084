"""Full P-AutoClass runs under the fused kernels.

The fused layer changes only each rank's *local* arithmetic; the two
Allreduce cut points and the replicated control flow are untouched, so
all ranks must still produce bit-identical classifications, and the
parallel result must match a sequential run using the same kernels.
"""

import numpy as np

from repro.data.synth import make_paper_database
from repro.engine.search import SearchConfig, run_search
from repro.mpc.threadworld import run_spmd_threads
from repro.parallel import run_pautoclass

CFG = SearchConfig(start_j_list=(2, 3), max_n_tries=2, seed=5, max_cycles=30)


def _scores(result):
    return [t.score for t in result.tries]


class TestFusedParallelDriver:
    def test_all_ranks_identical_classifications(self):
        db = make_paper_database(400, seed=21)
        results = run_spmd_threads(run_pautoclass, 4, db, CFG)
        base = results[0]
        for other in results[1:]:
            assert _scores(other) == _scores(base)
            for a, b in zip(base.tries, other.tries):
                np.testing.assert_array_equal(
                    a.classification.log_pi, b.classification.log_pi
                )
                for pa, pb in zip(
                    a.classification.term_params, b.classification.term_params
                ):
                    np.testing.assert_array_equal(pa.mu, pb.mu)
                    np.testing.assert_array_equal(pa.sigma, pb.sigma)

    def test_parallel_fused_matches_sequential_fused(self):
        db = make_paper_database(400, seed=21)
        seq = run_search(db, CFG, kernels="fused")
        results = run_spmd_threads(run_pautoclass, 3, db, CFG)
        np.testing.assert_allclose(
            _scores(results[0]), _scores(seq), rtol=1e-9
        )
        assert [t.n_cycles for t in results[0].tries] == [
            t.n_cycles for t in seq.tries
        ]

    def test_fused_and_reference_searches_agree(self):
        """Whole-search differential: same data, same seed, both kernel
        modes — scores and convergence decisions coincide."""
        db = make_paper_database(300, seed=23)
        ref = run_search(db, CFG, kernels="reference")
        fused = run_search(db, CFG, kernels="fused")
        np.testing.assert_allclose(_scores(fused), _scores(ref), rtol=1e-8)
        assert [t.n_cycles for t in fused.tries] == [
            t.n_cycles for t in ref.tries
        ]
