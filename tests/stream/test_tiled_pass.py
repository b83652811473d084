"""The tiled in-memory pass: a Database runs the chunk loop over tiles.

An in-memory block larger than :data:`~repro.data.shards.TILE_ITEMS`
rows is cut into cached zero-copy tile views, so the cycle's kernels
see only ``(<= TILE_ITEMS, J)`` shapes and their plans are built once
per tile for the whole search.
"""

import pickle

import numpy as np
import pytest

from repro import AutoClass, PAutoClass
from repro.data import shards
from repro.data.shards import TILE_ITEMS, as_chunk_iterable
from repro.data.synth import make_paper_database
from repro.engine.cycle import base_cycle
from repro.engine.init import initial_classification
from repro.kernels.plan import clear_plan_cache, plan_cache_stats
from repro.kernels.workspace import clear_workspaces, workspace_stats
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.util.rng import spawn_rng

N_ITEMS = 3 * TILE_ITEMS
PINNED = dict(
    start_j_list=(3,), max_n_tries=2, seed=41, max_cycles=4,
    rel_delta=1e-14, init_method="sharp",
)


def tiles(db):
    return tuple(as_chunk_iterable(db))


@pytest.fixture(scope="module")
def db():
    return make_paper_database(N_ITEMS, seed=37)


class TestTiles:
    def test_cached_zero_copy_views(self, db):
        cut = tiles(db)
        assert all(a is b for a, b in zip(cut, tiles(db)))
        assert [t.n_items for t in cut] == [TILE_ITEMS] * 3
        for t in cut:
            for col, base in zip(t.columns, db.columns):
                assert np.shares_memory(col, base)

    def test_a_block_of_one_tile_is_its_own_tile(self):
        small = make_paper_database(TILE_ITEMS, seed=1)
        assert tiles(small) == (small,)

    def test_ragged_last_tile(self):
        ragged = make_paper_database(TILE_ITEMS + 5, seed=2)
        assert [t.n_items for t in tiles(ragged)] == [TILE_ITEMS, 5]


def test_pickle_stays_data_sized():
    """The tile cache lives beside the database, not in its state."""
    fresh = make_paper_database(N_ITEMS, seed=37)
    before = len(pickle.dumps(fresh))
    AutoClass(**PINNED).fit(fresh)
    assert len(tiles(fresh)) == 3
    assert len(pickle.dumps(fresh)) == before


def test_steady_state_plans_and_tile_sized_pool(db):
    """Plans are built once per tile; later cycles and tries only hit,
    and the workspace pool never holds a shape larger than one tile."""
    clear_plan_cache()
    clear_workspaces()
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    for k, n_classes in enumerate((3, 5)):
        clf = initial_classification(
            db, spec, n_classes, spawn_rng(k), method="sharp"
        )
        clf, _, _ = base_cycle(db, clf)
        misses = plan_cache_stats().misses
        for _ in range(3):
            clf, _, _ = base_cycle(db, clf)
            assert plan_cache_stats().misses == misses
    assert plan_cache_stats().misses == len(tiles(db))
    pool = workspace_stats().pool
    assert pool and all(n_items <= TILE_ITEMS for n_items, _ in pool)


def test_threads_ranks_larger_than_a_tile_match_the_untiled_pass(
    db, monkeypatch
):
    """Two concurrent ranks, each 1.5 tiles, share the tile table; the
    fit agrees with the untiled (one chunk per block) pass at the
    reduction-order tolerance."""
    kw = dict(PINNED, max_n_tries=1)
    tiled = PAutoClass(n_processors=2, backend="threads", **kw).fit(db)
    monkeypatch.setattr(shards, "TILE_ITEMS", N_ITEMS)
    whole = PAutoClass(n_processors=2, backend="threads", **kw).fit(db)
    clf_t = tiled.best.classification
    clf_w = whole.best.classification
    assert clf_t.n_cycles == clf_w.n_cycles
    np.testing.assert_allclose(clf_t.log_pi, clf_w.log_pi, rtol=1e-9, atol=1e-9)
    assert tiled.best.score == pytest.approx(whole.best.score, rel=1e-9)
    np.testing.assert_array_equal(tiled.predict(db), whole.predict(db))
