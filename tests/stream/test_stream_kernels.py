"""Chunk-accumulating kernel parity (repro.kernels.stream)."""

import numpy as np
import pytest

from repro.data.shards import ShardedDatabase
from repro.data.synth import make_mixed_database
from repro.engine.init import initial_classification
from repro.engine.params import local_update_parameters
from repro.engine.wts import local_update_wts
from repro.kernels.stream import streamed_local_pass
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary


@pytest.fixture(scope="module")
def fixture_fit():
    db, _ = make_mixed_database(230, missing_rate=0.05, seed=31)
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    clf = initial_classification(
        db, spec, 4, np.random.default_rng(5), method="sharp"
    )
    return db, spec, clf


def shard(db, tmp_path, shard_items, chunk_items):
    return ShardedDatabase.from_database(
        db, tmp_path / "s", shard_items=shard_items, chunk_items=chunk_items
    )


class TestLocalPassParity:
    def test_payload_and_stats_match_inmemory(self, fixture_fit, tmp_path):
        db, spec, clf = fixture_fit
        sdb = shard(db, tmp_path, shard_items=64, chunk_items=32)
        wts, payload_mem = local_update_wts(db, clf)
        stats_mem = local_update_parameters(db, spec, wts)
        payload, stats = streamed_local_pass(sdb, clf)
        np.testing.assert_allclose(payload, payload_mem, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(stats, stats_mem, rtol=1e-9, atol=1e-12)

    def test_single_chunk_is_bitwise(self, fixture_fit, tmp_path):
        """One shard, one chunk: the same kernel call, so exact equality."""
        db, spec, clf = fixture_fit
        sdb = shard(db, tmp_path, shard_items=db.n_items, chunk_items=db.n_items)
        wts, payload_mem = local_update_wts(db, clf)
        stats_mem = local_update_parameters(db, spec, wts)
        payload, stats = streamed_local_pass(sdb, clf)
        np.testing.assert_array_equal(payload, payload_mem)
        np.testing.assert_array_equal(stats, stats_mem)

    def test_chunk_size_invariance(self, fixture_fit, tmp_path):
        db, _spec, clf = fixture_fit
        a = streamed_local_pass(
            shard(db, tmp_path / "a", shard_items=50, chunk_items=50), clf
        )
        b = streamed_local_pass(
            shard(db, tmp_path / "b", shard_items=96, chunk_items=17), clf
        )
        np.testing.assert_allclose(a[0], b[0], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(a[1], b[1], rtol=1e-9, atol=1e-12)

    def test_reference_kernels_supported(self, fixture_fit, tmp_path):
        db, _spec, clf = fixture_fit
        sdb = shard(db, tmp_path, shard_items=64, chunk_items=64)
        payload_f, stats_f = streamed_local_pass(sdb, clf, kernels="fused")
        payload_r, stats_r = streamed_local_pass(sdb, clf, kernels="reference")
        np.testing.assert_allclose(payload_f, payload_r, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(stats_f, stats_r, rtol=1e-7, atol=1e-9)
