"""Sharded bulk scoring: identical output on every SPMD world."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import sharded, sharded_predict, sharded_score_batch


class TestShardedEquality:
    @pytest.mark.parametrize(
        "backend,n_procs",
        [("serial", 1), ("threads", 3), ("processes", 2), ("sim", 4)],
    )
    def test_sharded_equals_unsharded(self, model, train_db, backend, n_procs):
        expect = model.predict(train_db)
        scores = sharded_score_batch(
            model, train_db, backend=backend, n_processors=n_procs
        )
        assert np.array_equal(scores.labels, expect)
        assert np.array_equal(
            scores.log_proba, model.predict_logproba(train_db)
        )
        assert np.array_equal(
            scores.log_evidence, model.score_samples(train_db)
        )

    @pytest.mark.parametrize(
        "backend,n_procs",
        [("serial", 1), ("threads", 3), ("processes", 2), ("sim", 4)],
    )
    def test_predict_allgathers_labels_only(
        self, model, train_db, monkeypatch, backend, n_procs
    ):
        def no_posteriors(*_args):
            raise AssertionError("sharded_predict scored the posterior")

        monkeypatch.setattr(sharded, "score_batch", no_posteriors)
        labels = sharded_predict(
            model, train_db, backend=backend, n_processors=n_procs
        )
        assert labels.dtype == np.int64
        assert np.array_equal(labels, model.predict(train_db))

    def test_more_ranks_than_items(self, model, train_db):
        # 3 items over 8 ranks: most blocks are empty; the allgather
        # concatenation must still reassemble the full result.
        tiny = train_db.take(slice(0, 3))
        labels = sharded_predict(model, tiny, backend="threads", n_processors=8)
        assert np.array_equal(labels, model.predict(tiny))

    def test_uneven_partition(self, model, train_db):
        odd = train_db.take(slice(0, 397))
        labels = sharded_predict(model, odd, backend="threads", n_processors=3)
        assert np.array_equal(labels, model.predict(odd))


class TestShardedValidation:
    def test_unknown_backend_rejected(self, model, train_db):
        with pytest.raises(ValueError, match="backend"):
            sharded_predict(model, train_db, backend="mpi")

    def test_bad_processor_count_rejected(self, model, train_db):
        with pytest.raises(ValueError, match="n_processors"):
            sharded_predict(model, train_db, backend="threads", n_processors=0)

    def test_serial_needs_one_processor(self, model, train_db):
        with pytest.raises(ValueError, match="exactly 1"):
            sharded_predict(model, train_db, backend="serial", n_processors=2)
