"""Batch scoring kernels: parity with training, on every backend."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import AutoClass, PAutoClass
from repro.data.database import Database
from repro.data.shards import TILE_ITEMS, ShardedDatabase
from repro.data.synth import make_paper_database
from repro.engine.classification import Classification
from repro.engine.report import membership
from repro.kernels.estep import LABEL_BLOCK
from repro.kernels.plan import get_plan
from repro.kernels.workspace import workspace_stats
from repro.serve import scoring
from repro.serve.scoring import (
    concat_databases,
    predict,
    predict_logproba,
    predict_proba,
    score,
    score_batch,
    score_samples,
)


@pytest.fixture(scope="module")
def clf(fitted_run):
    return fitted_run.best.classification


class TestScoreBatch:
    def test_labels_match_training_membership(self, train_db, clf):
        # membership() is the engine's reference E-step: the one
        # scoring path reproduces its class map.
        _, hard = membership(train_db, clf)
        labels = predict(train_db, clf)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, hard)

    def test_logproba_rows_normalize(self, train_db, clf):
        lp = predict_logproba(train_db, clf)
        lse = np.logaddexp.reduce(lp, axis=1)
        assert np.allclose(lse, 0.0, atol=1e-10)

    def test_proba_close_to_membership_weights(self, train_db, clf):
        wts, _ = membership(train_db, clf)
        proba = predict_proba(train_db, clf)
        assert proba.shape == wts.shape
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.allclose(proba, wts, atol=1e-10)

    def test_score_is_mean_log_evidence(self, train_db, clf):
        per_item = score_samples(train_db, clf)
        assert np.all(np.isfinite(per_item))
        assert score(train_db, clf) == pytest.approx(float(per_item.mean()))

    def test_score_empty_db_raises(self, train_db, clf):
        with pytest.raises(ValueError, match="empty"):
            score(train_db.take(slice(0, 0)), clf)

    def test_empty_batch_scores_cleanly(self, train_db, clf):
        scores = score_batch(train_db.take(slice(0, 0)), clf)
        assert scores.n_items == 0
        assert scores.log_proba.shape == (0, clf.n_classes)

    def test_schema_mismatch_is_rejected(self, mixed_db, clf):
        with pytest.raises(ValueError, match="schema mismatch"):
            score_batch(mixed_db, clf)

    def test_results_are_owned_copies(self, train_db, clf):
        a = score_batch(train_db, clf)
        b = score_batch(train_db, clf)
        # Same pooled workspace under the hood, yet the outputs of the
        # first call must survive the second untouched.
        assert np.array_equal(a.log_proba, b.log_proba)
        b.log_proba[:] = 0.0
        assert not np.array_equal(a.log_proba, b.log_proba)

    def test_take_slices_all_fields(self, train_db, clf):
        scores = score_batch(train_db, clf)
        part = scores.take(slice(10, 25))
        assert part.n_items == 15
        assert np.array_equal(part.labels, scores.labels[10:25])
        assert np.array_equal(part.log_evidence, scores.log_evidence[10:25])

    def test_mixed_attributes_and_missing_values(self, mixed_db):
        run = AutoClass(
            start_j_list=(3,), max_n_tries=1, seed=3, max_cycles=10
        ).fit(mixed_db)
        _, hard = membership(mixed_db, run.best.classification)
        assert np.array_equal(run.predict(mixed_db), hard)


def _select_classes(clf, idx):
    """``clf`` restricted/expanded to the classes ``idx`` (repeats copy a
    class, so the copies tie on every item)."""
    idx = np.asarray(idx)

    def take(tp):
        arrays = {
            f.name: getattr(tp, f.name)[idx]
            for f in dataclasses.fields(tp)
            if isinstance(getattr(tp, f.name), np.ndarray)
        }
        return dataclasses.replace(tp, n_classes=len(idx), **arrays)

    return Classification(
        spec=clf.spec, n_classes=len(idx), log_pi=clf.log_pi[idx],
        term_params=tuple(take(tp) for tp in clf.term_params),
    )


class TestLabelPass:
    """``predict``'s label pass is ``np.argmax`` of the log posterior.

    ``predict`` takes the argmax of the log joint, which the posterior
    shifts by ``log Z`` per item.  The two can differ only where the
    normalization's rounding ties two classes, at a log-joint gap below
    one ulp of ``log Z``; no case here comes near that.
    """

    @staticmethod
    def check(db, clf):
        log_post = predict_logproba(db, clf)
        expected = np.argmax(log_post, axis=1)
        labels = predict(db, clf)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, expected)
        np.testing.assert_array_equal(score_batch(db, clf).labels, expected)

    def test_fitted_model(self, train_db, clf):
        self.check(train_db, clf)

    def test_ties_take_the_first_class(self, train_db, clf):
        tied = _select_classes(clf, [0, 1, 1])
        log_post = predict_logproba(train_db, tied)
        np.testing.assert_array_equal(log_post[:, 1], log_post[:, 2])
        labels = predict(train_db, tied)
        assert (labels == 1).any() and not (labels == 2).any()
        self.check(train_db, tied)

    @pytest.mark.parametrize("idx", [[0], [i % 3 for i in range(64)]])
    def test_class_count_edges(self, train_db, clf, idx):
        self.check(train_db, _select_classes(clf, idx))
        self.check(train_db.take(slice(0, 0)), _select_classes(clf, idx))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_total_underflow_rows(self, train_db, clf):
        cols = [c.copy() for c in train_db.columns]
        cols[0][[3, 7]] = 1e160  # every class's likelihood underflows
        db = Database.from_columns(train_db.schema, cols)
        log_post = predict_logproba(db, clf)
        np.testing.assert_array_equal(
            log_post[3], np.full(clf.n_classes, -np.log(clf.n_classes))
        )
        labels = predict(db, clf)
        assert labels[3] == labels[7] == 0
        self.check(db, clf)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_rows_take_class_zero(self, train_db, clf):
        cols = [c.copy() for c in train_db.columns]
        cols[0][[4, 9]] = np.inf  # a*x^2 + b*x is -inf + inf
        db = Database.from_columns(train_db.schema, cols)
        plan = get_plan(db, clf.spec)
        log_joint = plan.design @ plan.coefficients(
            clf.term_params, clf.n_classes
        )
        assert np.isnan(log_joint[[4, 9]]).any(axis=1).all()
        labels = predict(db, clf)
        assert labels[4] == labels[9] == 0
        self.check(db, clf)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_plus_inf_rows_take_class_zero(self, train_db, clf):
        inf = dataclasses.replace(clf, log_pi=clf.log_pi.copy())
        inf.log_pi[-1] = np.inf  # every row's largest log joint is +inf
        labels = predict(train_db, inf)
        assert not labels.any()
        self.check(train_db, inf)

    def test_minus_inf_class_never_wins(self, train_db, clf):
        gone = dataclasses.replace(clf, log_pi=clf.log_pi.copy())
        gone.log_pi[0] = -np.inf
        labels = predict(train_db, gone)
        assert (labels != 0).all()
        self.check(train_db, gone)

    @pytest.mark.parametrize(
        "n", [0, LABEL_BLOCK - 1, LABEL_BLOCK, LABEL_BLOCK + 1,
              2 * LABEL_BLOCK + 1],
    )
    def test_block_edges(self, clf, n):
        db = make_paper_database(2 * LABEL_BLOCK + 1, seed=5)
        self.check(db.take(slice(0, n)), clf)

    def test_sharded_chunks_off_the_block_grid(self, clf, tmp_path):
        db = make_paper_database(3 * LABEL_BLOCK + 17, seed=5)
        sdb = ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=2 * LABEL_BLOCK,
            chunk_items=LABEL_BLOCK + 300,
        )
        assert sdb.chunk_items % LABEL_BLOCK
        self.check(sdb, clf)
        np.testing.assert_array_equal(predict(sdb, clf), predict(db, clf))


class TestConcatDatabases:
    def test_concat_equals_whole(self, train_db, clf):
        blocks = [
            train_db.take(slice(0, 100)),
            train_db.take(slice(100, 101)),
            train_db.take(slice(101, 400)),
        ]
        merged = concat_databases(blocks)
        assert merged.n_items == train_db.n_items
        whole = score_batch(train_db, clf)
        again = score_batch(merged, clf)
        assert np.array_equal(whole.labels, again.labels)
        assert np.array_equal(whole.log_proba, again.log_proba)

    def test_single_block_is_identity(self, train_db):
        assert concat_databases([train_db]) is train_db

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            concat_databases([])

    def test_mismatched_schemas_rejected(self, train_db, mixed_db):
        with pytest.raises(ValueError, match="different schemas"):
            concat_databases([train_db, mixed_db])


class TestFourWorldsDifferential:
    """The acceptance bar: ``FittedModel.predict`` on the training
    database reproduces each run's final class map bitwise, for a fit
    on every SPMD world."""

    @pytest.mark.parametrize(
        "backend,n_procs",
        [("serial", 1), ("threads", 3), ("processes", 2), ("sim", 4)],
    )
    def test_fitted_model_reproduces_final_class_map(
        self, train_db, backend, n_procs
    ):
        run = PAutoClass(
            n_processors=n_procs, backend=backend,
            start_j_list=(3,), max_n_tries=1, seed=7, max_cycles=10,
        ).fit(train_db)
        _, hard = membership(train_db, run.best.classification)
        model = run.fitted(train_db)
        labels = model.predict(train_db)
        assert np.array_equal(labels, hard)
        assert np.array_equal(labels, run.predict(train_db))

    def test_unified_run_methods_match_batch_scores(self, train_db, fitted_run):
        scores = score_batch(train_db, fitted_run.best.classification)
        assert np.array_equal(fitted_run.predict(train_db), scores.labels)
        assert np.array_equal(
            fitted_run.predict_logproba(train_db), scores.log_proba
        )
        assert np.array_equal(
            fitted_run.score_samples(train_db), scores.log_evidence
        )


class TestScoringPasses:
    """In-memory scoring is one kernel pass over the whole block; a shard
    view is one pass per chunk.  Tiling an in-memory block measured
    1.04-1.27x slower (docs/data.md), so a re-tiled scorer fails here.
    ``predict`` makes no posterior pass at all: its labels come from the
    log joint, a row block at a time."""

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        db = make_paper_database(3 * TILE_ITEMS, seed=3)
        sdb = ShardedDatabase.from_database(
            db, tmp_path_factory.mktemp("passes") / "s",
            shard_items=TILE_ITEMS, chunk_items=1000,
        )
        return db, sdb

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        real = scoring.fused_log_posterior

        def counting(ws, n_classes):
            calls.append(n_classes)
            return real(ws, n_classes)

        monkeypatch.setattr(scoring, "fused_log_posterior", counting)
        return calls

    @pytest.mark.parametrize("fn", [score_batch, score])
    def test_one_pass_per_chunk(self, pair, clf, passes, fn):
        db, sdb = pair
        fn(db, clf)
        assert len(passes) == 1
        passes.clear()
        fn(sdb, clf)
        assert len(passes) == len(list(sdb.iter_chunks())) == 15

    def test_predict_draws_no_posterior_or_workspace(self, pair, clf, passes):
        stats = workspace_stats()
        for db in pair:
            before = (stats.hits, stats.misses, len(stats.pool))
            predict(db, clf)
            assert (stats.hits, stats.misses, len(stats.pool)) == before
        assert passes == []
