"""Streamed fit == in-memory fit, bit for bit, on tile-aligned shards.

A fit pass cuts a shard view into chunks of at most
:data:`~repro.data.shards.TILE_ITEMS` rows, never across a shard.
When every shard boundary falls on a multiple of ``TILE_ITEMS`` from
the view's start (the default 8 192-row shards), those chunks are
exactly the in-memory block's tiles, so both fits sum in one order:
every try score, mixing weight and term parameter is equal, not close.
Unaligned shards are held to the reduction-order tolerance instead
(``test_stream_equivalence.py``).
"""

import dataclasses

import numpy as np
import pytest

from repro import AutoClass, PAutoClass
from repro.data.shards import (
    DEFAULT_SHARD_ITEMS,
    TILE_ITEMS,
    ShardedDatabase,
    as_chunk_iterable,
)
from repro.data.synth import make_mixed_database, make_paper_database

#: Two full default shards plus a ragged one.
N_ITEMS = 2 * DEFAULT_SHARD_ITEMS + 1016
PINNED = dict(
    start_j_list=(3,), max_n_tries=2, seed=17, max_cycles=3,
    rel_delta=1e-14, init_method="sharp",
)
FITTERS = {
    "serial": lambda: AutoClass(**PINNED),
    "threads_p1": lambda: PAutoClass(
        n_processors=1, backend="threads", **PINNED
    ),
}


@pytest.fixture(scope="module", params=["paper", "mixed_missing"])
def pair(request, tmp_path_factory):
    if request.param == "paper":
        db = make_paper_database(N_ITEMS, seed=23)
    else:
        db, _ = make_mixed_database(N_ITEMS, missing_rate=0.05, seed=29)
    sdb = ShardedDatabase.from_database(
        db, tmp_path_factory.mktemp(request.param) / "s"
    )
    return db, sdb


def assert_bitwise_same_search(mem, streamed):
    assert [t.score for t in streamed.tries] == [t.score for t in mem.tries]
    for tm, ts in zip(mem.tries, streamed.tries):
        clf_m, clf_s = tm.classification, ts.classification
        assert clf_s.n_cycles == clf_m.n_cycles
        assert np.array_equal(clf_s.log_pi, clf_m.log_pi)
        for pm, ps in zip(clf_m.term_params, clf_s.term_params):
            for f in dataclasses.fields(pm):
                assert np.array_equal(
                    getattr(ps, f.name), getattr(pm, f.name)
                ), f"{type(pm).__name__}.{f.name}"


@pytest.mark.parametrize("fitter", sorted(FITTERS))
def test_streamed_fit_is_bitwise_the_inmemory_fit(pair, fitter):
    db, sdb = pair
    assert sdb.shard_items % TILE_ITEMS == 0
    make = FITTERS[fitter]
    assert_bitwise_same_search(make().fit(db).result, make().fit(sdb).result)


def test_fit_chunks_are_the_inmemory_tiles(pair):
    """A wide ``chunk_items`` is cut to tiles; a narrow one is kept."""
    db, sdb = pair
    tiles = [t.n_items for t in as_chunk_iterable(db)]
    for chunk_items in (TILE_ITEMS, sdb.shard_items, 4 * sdb.shard_items):
        view = sdb.with_chunk_items(chunk_items)
        assert [c.n_items for c in as_chunk_iterable(view)] == tiles
    narrow = sdb.with_chunk_items(1000)
    assert max(c.n_items for c in as_chunk_iterable(narrow)) == 1000
