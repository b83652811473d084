"""Tests for repro.data.partition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.partition import (
    block_partition,
    block_partition_array,
    partition_bounds,
    partition_sizes,
)
from repro.data.synth import make_paper_database


class TestPartitionBounds:
    @given(st.integers(0, 10_000), st.integers(1, 64))
    def test_blocks_cover_exactly(self, n_items, n_ranks):
        """Blocks are contiguous, disjoint, and cover [0, n_items)."""
        cursor = 0
        for rank in range(n_ranks):
            lo, hi = partition_bounds(n_items, n_ranks, rank)
            assert lo == cursor
            assert hi >= lo
            cursor = hi
        assert cursor == n_items

    @given(st.integers(0, 10_000), st.integers(1, 64))
    def test_balanced_within_one(self, n_items, n_ranks):
        sizes = partition_sizes(n_items, n_ranks)
        assert sizes.sum() == n_items
        assert sizes.max() - sizes.min() <= 1

    def test_remainder_goes_to_first_ranks(self):
        assert partition_bounds(10, 3, 0) == (0, 4)
        assert partition_bounds(10, 3, 1) == (4, 7)
        assert partition_bounds(10, 3, 2) == (7, 10)

    def test_more_ranks_than_items(self):
        sizes = partition_sizes(3, 8)
        assert sizes.tolist() == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError, match="rank"):
            partition_bounds(10, 3, 3)

    def test_bad_n_ranks_raises(self):
        with pytest.raises(ValueError, match="n_ranks"):
            partition_bounds(10, 0, 0)

    def test_negative_items_raises(self):
        with pytest.raises(ValueError, match="n_items"):
            partition_bounds(-1, 2, 0)


class TestBlockPartition:
    def test_reassembles_database(self):
        db = make_paper_database(107, seed=1)
        pieces = [block_partition(db, 4, r) for r in range(4)]
        reassembled = np.concatenate([p.column("x0") for p in pieces])
        np.testing.assert_array_equal(reassembled, db.column("x0"))

    def test_empty_block(self):
        db = make_paper_database(2, seed=1)
        assert block_partition(db, 5, 4).n_items == 0

    def test_array_partition_matches_database_partition(self):
        db = make_paper_database(53, seed=2)
        arr = np.arange(53)
        for r in range(7):
            block = block_partition(db, 7, r)
            piece = block_partition_array(arr, 7, r)
            assert len(piece) == block.n_items


class TestShardViewSurface:
    """A Database answers ``iter_chunks`` / ``block`` / ``probe`` the way
    a ShardedDatabase view does, so consumers need no in-memory branch."""

    def test_one_whole_chunk(self):
        db = make_paper_database(9000, seed=3)
        assert [c is db for c in db.iter_chunks()] == [True]

    def test_block_is_a_zero_copy_bounds_slice(self):
        db = make_paper_database(107, seed=1)
        for r in range(4):
            lo, hi = partition_bounds(db.n_items, 4, r)
            block = db.block(4, r)
            np.testing.assert_array_equal(
                block.column("x0"), db.column("x0")[lo:hi]
            )
            assert np.shares_memory(block.columns[0], db.columns[0])

    def test_probe_is_itself(self):
        db = make_paper_database(5, seed=1)
        assert db.probe() is db
