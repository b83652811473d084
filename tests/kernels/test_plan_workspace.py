"""Plan cache, workspace pool and kernel-mode selection."""

import gc
import threading

import numpy as np
import pytest

from repro.data.synth import make_paper_database
from repro.engine.params import finalize_parameters, local_update_parameters
from repro.engine.wts import local_update_wts
from repro.engine.classification import Classification
from repro.kernels import (
    clear_plan_cache,
    clear_workspaces,
    get_plan,
    get_workspace,
    plan_cache_stats,
    workspace_stats,
)
from repro.kernels.config import resolve
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary


@pytest.fixture()
def db_spec():
    db = make_paper_database(100, seed=1)
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    return db, spec


def _clf(db, spec, j=3, seed=0):
    rng = np.random.default_rng(seed)
    wts = rng.dirichlet(np.ones(j), size=db.n_items)
    stats = local_update_parameters(db, spec, wts, kernels="reference")
    log_pi, tp = finalize_parameters(spec, stats, wts.sum(axis=0), db.n_items)
    return Classification(spec=spec, n_classes=j, log_pi=log_pi, term_params=tp)


class TestPlanCache:
    def test_same_pair_hits(self, db_spec):
        db, spec = db_spec
        clear_plan_cache()
        p1 = get_plan(db, spec)
        p2 = get_plan(db, spec)
        assert p1 is p2
        stats = plan_cache_stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_distinct_databases_get_distinct_plans(self, db_spec):
        db, spec = db_spec
        clear_plan_cache()
        other = db.take(slice(0, 50))
        assert get_plan(db, spec) is not get_plan(other, spec)

    def test_design_matches_registry_layout(self, db_spec):
        db, spec = db_spec
        plan = get_plan(db, spec)
        assert plan.design.shape == (db.n_items, spec.n_stats)
        assert plan.design.flags.c_contiguous
        assert not plan.design.flags.writeable
        assert plan.nbytes == plan.design.nbytes

    def test_dropping_operands_evicts(self, db_spec):
        _db, spec = db_spec
        clear_plan_cache()
        db = make_paper_database(40, seed=9)
        get_plan(db, spec)
        assert len(plan_cache_stats().entries) == 1
        del db
        gc.collect()
        assert len(plan_cache_stats().entries) == 0

    def test_simultaneous_death_does_not_deadlock(self):
        """Regression: both weakref callbacks may fire nested inside one
        GC pass; the cache lock must be reentrant."""
        clear_plan_cache()

        def build_and_drop():
            db = make_paper_database(30, seed=3)
            spec = ModelSpec.default_for(
                db.schema, DataSummary.from_database(db)
            )
            get_plan(db, spec)
            # db and spec both die when this frame exits.

        t = threading.Thread(target=build_and_drop, daemon=True)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        gc.collect()
        assert len(plan_cache_stats().entries) == 0


class TestWorkspacePool:
    def test_same_shape_reuses_buffers(self):
        clear_workspaces()
        ws1 = get_workspace(64, 4)
        ws2 = get_workspace(64, 4)
        assert ws1 is ws2
        assert workspace_stats().hits == 1
        assert workspace_stats().misses == 1

    def test_distinct_shapes_distinct_buffers(self):
        clear_workspaces()
        assert get_workspace(64, 4) is not get_workspace(64, 5)

    def test_pool_is_thread_local(self):
        clear_workspaces()
        mine = get_workspace(32, 2)
        theirs: list = []

        def worker():
            theirs.append(get_workspace(32, 2))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert theirs[0] is not mine

    @pytest.mark.parametrize("n_items,n_classes", [(64, 5), (64, 1), (0, 3)])
    def test_buffers_are_class_major(self, n_items, n_classes):
        """(n, J) views over C-order (J, n) storage: every per-item
        reduction over the classes walks contiguous item rows."""
        clear_workspaces()
        ws = get_workspace(n_items, n_classes)
        for buf in (ws.log_joint, ws.scratch):
            assert buf.shape == (n_items, n_classes)
            assert buf.T.flags.c_contiguous
            assert buf.base is not None and buf.base.shape == (n_classes, n_items)

    def test_fused_wts_alias_workspace(self, db_spec):
        """The documented aliasing contract: returned weights live in the
        pooled log-joint buffer and are overwritten by the next same-shape
        E-step on this thread."""
        db, spec = db_spec
        clf = _clf(db, spec)
        wts1, _ = local_update_wts(db, clf, kernels="fused")
        ws = get_workspace(db.n_items, clf.n_classes)
        assert wts1 is ws.log_joint
        assert wts1.shape == (db.n_items, clf.n_classes)
        assert wts1.T.flags.c_contiguous
        first = wts1.copy()
        wts2, _ = local_update_wts(db, clf, kernels="fused")
        assert wts2 is wts1
        np.testing.assert_array_equal(wts2, first)  # deterministic rerun


class TestModeSelection:
    def test_resolve_explicit_beats_default(self):
        assert resolve(None) == "fused"
        assert resolve("reference") == "reference"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="kernels"):
            resolve("vectorized")

    def test_default_mode_steers_dispatch(self, db_spec):
        db, spec = db_spec
        clf = _clf(db, spec)
        wts_f, _ = local_update_wts(db, clf)  # the default is fused
        wts_r, _ = local_update_wts(db, clf, kernels="reference")
        # Fused path returns the pooled buffer; reference allocates fresh.
        assert wts_f is get_workspace(db.n_items, clf.n_classes).log_joint
        assert wts_r is not wts_f
        np.testing.assert_allclose(wts_r, wts_f, rtol=1e-10, atol=1e-10)
