"""Component-level tests of the parallel pieces: the wts cut point, the
parallel cycle and init, and the wts-only (Miller & Guo) reducer."""

import numpy as np
import pytest

from repro.data.partition import block_partition
from repro.data.synth import make_paper_database
from repro.engine.cycle import base_cycle
from repro.engine.init import initial_classification, random_weights
from repro.engine.wts import finalize_wts, local_update_wts, update_wts
from repro.harness.programs import CentralMStepReducer
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.mpc.serial import SerialComm
from repro.mpc.threadworld import run_spmd_threads
from repro.parallel.packed import ReductionPlan
from repro.parallel.pcycle import parallel_base_cycle
from repro.parallel.reducers import reducer_for
from repro.util.rng import spawn_rng


def parallel_update_wts(local, clf, comm):
    """The wts cut point alone (paper Fig. 4): this rank's E half, then
    the reducer the cycle would use carries the payload across."""
    reducer = reducer_for(comm, clf.n_classes, clf.spec)
    wts, payload = local_update_wts(local, clf)
    reducer.launch_wts(payload)
    reducer.launch_stats(np.zeros((clf.n_classes, clf.spec.n_stats)))
    payload, _stats = reducer.finish()
    return wts, finalize_wts(payload, clf.n_classes)


def parallel_initial_classification(
    local, spec, n_classes, n_total, rng, comm, method="dirichlet"
):
    return initial_classification(
        local, spec, n_classes, rng, method=method, n_total_items=n_total,
        reducer=reducer_for(comm, n_classes, spec),
    )


def wts_only_base_cycle(local, full_db, clf, comm):
    plan = ReductionPlan(comm, clf.n_classes, clf.spec.n_stats)
    return base_cycle(
        local, clf, n_total_items=full_db.n_items,
        reducer=CentralMStepReducer(comm, plan, full_db),
    )


@pytest.fixture(scope="module")
def setup():
    db = make_paper_database(500, seed=21)
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    clf = initial_classification(db, spec, 3, spawn_rng(1))
    return db, spec, clf


class TestParallelUpdateWts:
    def test_reduction_matches_sequential(self, setup):
        db, _spec, clf = setup
        _, seq_red = update_wts(db, clf)

        def prog(comm):
            local = block_partition(db, comm.size, comm.rank)
            _, red = parallel_update_wts(local, clf, comm)
            return red

        for red in run_spmd_threads(prog, 4):
            np.testing.assert_allclose(red.w_j, seq_red.w_j, rtol=1e-12)
            assert red.sum_log_z == pytest.approx(seq_red.sum_log_z, rel=1e-12)
            assert red.sum_w_log_w == pytest.approx(seq_red.sum_w_log_w, rel=1e-12)

    def test_local_weights_cover_partition_only(self, setup):
        db, _spec, clf = setup

        def prog(comm):
            local = block_partition(db, comm.size, comm.rank)
            wts, _ = parallel_update_wts(local, clf, comm)
            return wts.shape

        shapes = run_spmd_threads(prog, 3)
        total_rows = sum(s[0] for s in shapes)
        assert total_rows == db.n_items

    def test_serial_world_is_sequential(self, setup):
        db, _spec, clf = setup
        wts_seq, red_seq = update_wts(db, clf)
        wts_par, red_par = parallel_update_wts(db, clf, SerialComm())
        np.testing.assert_array_equal(wts_par, wts_seq)
        np.testing.assert_array_equal(red_par.w_j, red_seq.w_j)


class TestParallelCycle:
    def test_identical_classification_on_all_ranks(self, setup):
        db, _spec, clf = setup

        def prog(comm):
            local = block_partition(db, comm.size, comm.rank)
            new_clf, _, stats = parallel_base_cycle(local, clf, db.n_items, comm)
            return new_clf, stats

        results = run_spmd_threads(prog, 4)
        log_pis = [r[0].log_pi for r in results]
        for lp in log_pis[1:]:
            np.testing.assert_array_equal(lp, log_pis[0])

    def test_cycle_stats_track_bytes(self, setup):
        db, _spec, clf = setup

        def prog(comm):
            local = block_partition(db, comm.size, comm.rank)
            _, _, stats = parallel_base_cycle(local, clf, db.n_items, comm)
            return stats

        stats = run_spmd_threads(prog, 3)[0]
        assert stats.bytes_sent > 0
        assert stats.seconds_total >= 0


class TestParallelInit:
    @pytest.mark.parametrize("method", ["dirichlet", "sharp"])
    def test_matches_sequential_init(self, setup, method):
        """Full-range weights sliced per rank must produce exactly the
        sequential initial classification."""
        db, spec, _ = setup
        seq_wts = random_weights(db.n_items, 3, spawn_rng(77), method=method)
        from repro.engine.init import classification_from_weights

        seq_clf = classification_from_weights(db, spec, seq_wts)

        def prog(comm):
            local = block_partition(db, comm.size, comm.rank)
            return parallel_initial_classification(
                local, spec, 3, db.n_items, spawn_rng(77), comm, method=method
            )

        par_clf = run_spmd_threads(prog, 4)[0]
        np.testing.assert_allclose(par_clf.log_pi, seq_clf.log_pi, rtol=1e-12)

    def test_partition_size_mismatch_detected(self, setup):
        db, spec, _ = setup

        def prog(comm):
            # Deliberately wrong block (everyone takes rank 0's slice).
            local = block_partition(db, comm.size, 0)
            return parallel_initial_classification(
                local, spec, 3, db.n_items, spawn_rng(0), comm
            )

        with pytest.raises(RuntimeError, match="partition bounds"):
            run_spmd_threads(prog, 3)


class TestWtsOnlyVariant:
    def test_same_numerics_as_pautoclass(self, setup):
        """Miller & Guo's structure changes the cost, not the answer."""
        db, _spec, clf = setup

        def prog(comm, variant):
            local = block_partition(db, comm.size, comm.rank)
            if variant == "pauto":
                new_clf, _, _ = parallel_base_cycle(local, clf, db.n_items, comm)
            else:
                new_clf, _, _ = wts_only_base_cycle(local, db, clf, comm)
            return new_clf

        a = run_spmd_threads(prog, 4, "pauto")[0]
        b = run_spmd_threads(prog, 4, "wts_only")[0]
        np.testing.assert_allclose(a.log_pi, b.log_pi, rtol=1e-10)
        assert a.scores.log_marginal_cs == pytest.approx(
            b.scores.log_marginal_cs, rel=1e-10
        )

    def test_gathers_full_weight_matrix(self, setup):
        """The variant's defining cost: ~8*N*J bytes cross the wire."""
        db, _spec, clf = setup

        def prog(comm):
            local = block_partition(db, comm.size, comm.rank)
            before = comm.stats.bytes_sent
            wts_only_base_cycle(local, db, clf, comm)
            return comm.stats.bytes_sent - before

        sent = run_spmd_threads(prog, 4)
        non_root_bytes = sent[1]
        # Rank 1 ships its (n/4 x 3) float64 block (plus small payloads).
        expected_wts = (db.n_items // 4) * 3 * 8
        assert non_root_bytes >= expected_wts
