"""Tests for repro.data.shards (out-of-core sharded databases)."""

import json
import pickle
import threading

import numpy as np
import pytest

from repro.api import AutoClass
from repro.data.partition import block_partition, partition_bounds
from repro.data.shards import (
    MANIFEST_NAME,
    MAX_RESIDENT_SHARDS,
    ShardCorruptionError,
    ShardedDatabase,
    ShardFormatError,
    as_chunk_iterable,
    is_streamable,
)
from repro.data.synth import make_mixed_database, make_paper_database
from repro.util import docfile


def assert_same_rows(db, sdb_or_chunkdb, lo=0, hi=None):
    """Column-wise equality of a Database against a sharded view/chunk."""
    hi = db.n_items if hi is None else hi
    other = (
        sdb_or_chunkdb.materialize()
        if isinstance(sdb_or_chunkdb, ShardedDatabase)
        else sdb_or_chunkdb
    )
    for i in range(db.n_attributes):
        np.testing.assert_array_equal(other.missing[i], db.missing[i][lo:hi])
        present = ~db.missing[i][lo:hi]
        np.testing.assert_array_equal(
            np.asarray(other.columns[i])[present],
            db.columns[i][lo:hi][present],
        )


class TestRoundtrip:
    def test_materialize_reproduces_database(self, tmp_path):
        db, _ = make_mixed_database(157, missing_rate=0.1, seed=5)
        sdb = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=40)
        assert sdb.schema == db.schema
        assert sdb.n_items == db.n_items
        assert sdb.n_shards == 4
        assert_same_rows(db, sdb)

    def test_open_matches_from_database(self, tmp_path):
        db = make_paper_database(90, seed=2)
        built = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=32)
        opened = ShardedDatabase.open(tmp_path / "s")
        assert opened.manifest_digest == built.manifest_digest
        assert opened.n_items == db.n_items
        assert_same_rows(db, opened)

    def test_empty_database_roundtrip(self, tmp_path):
        db = make_paper_database(7, seed=0).take(slice(0, 0))
        sdb = ShardedDatabase.from_database(db, tmp_path / "s")
        assert sdb.n_items == 0
        assert sdb.n_shards == 0
        assert list(sdb.iter_chunks()) == []
        assert sdb.materialize().n_items == 0

    def test_refuses_existing_directory(self, tmp_path):
        db = make_paper_database(10, seed=0)
        ShardedDatabase.from_database(db, tmp_path / "s")
        with pytest.raises(FileExistsError, match="refusing"):
            ShardedDatabase.from_database(db, tmp_path / "s")

    def test_bad_format_rejected(self, tmp_path):
        # a directory of compressed-archive shards written before ".npy
        # only": intact and correctly digested, but not loadable
        db = make_paper_database(10, seed=0)
        ShardedDatabase.from_database(db, tmp_path / "s")
        path = tmp_path / "s" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format"] = "npz"
        manifest["digest"] = docfile.digest(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ShardFormatError, match="npz"):
            ShardedDatabase.open(tmp_path / "s")

    def test_pickle_reopens_view(self, tmp_path):
        db = make_paper_database(60, seed=3)
        sdb = ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=25, chunk_items=10
        )
        view = sdb.block(3, 1)
        back = pickle.loads(pickle.dumps(view))
        assert back.bounds == view.bounds
        assert back.chunk_items == 10
        assert_same_rows(db, back, *view.bounds)


class TestChunkIteration:
    def test_chunks_cover_rows_in_order(self, tmp_path):
        db = make_paper_database(101, seed=4)
        sdb = ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=30, chunk_items=12
        )
        pos = 0
        for chunk in sdb.iter_chunks():
            assert chunk.n_items <= 12
            assert_same_rows(db, chunk, pos, pos + chunk.n_items)
            pos += chunk.n_items
        assert pos == db.n_items

    def test_chunks_clip_at_shard_boundaries(self, tmp_path):
        db = make_paper_database(100, seed=4)
        sdb = ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=30, chunk_items=100
        )
        sizes = [c.n_items for c in sdb.iter_chunks()]
        assert sizes == [30, 30, 30, 10]

    def test_chunk_items_override(self, tmp_path):
        db = make_paper_database(40, seed=4)
        sdb = ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=40, chunk_items=40
        )
        assert [c.n_items for c in sdb.iter_chunks(7)] == [7, 7, 7, 7, 7, 5]
        assert sdb.with_chunk_items(9).chunk_items == 9

    @pytest.mark.parametrize("chunk_items", [0, -3])
    def test_chunk_items_below_one_refused_everywhere(
        self, tmp_path, chunk_items
    ):
        db = make_paper_database(40, seed=4)
        match = f"chunk_items must be >= 1, got {chunk_items}"
        with pytest.raises(ValueError, match=match):
            ShardedDatabase.from_database(
                db, tmp_path / "bad", shard_items=20, chunk_items=chunk_items
            )
        assert not (tmp_path / "bad" / MANIFEST_NAME).exists()
        sdb = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=20)
        with pytest.raises(ValueError, match=match):
            ShardedDatabase.open(tmp_path / "s", chunk_items=chunk_items)
        with pytest.raises(ValueError, match=match):
            list(sdb.iter_chunks(chunk_items))
        with pytest.raises(ValueError, match=match):
            sdb.with_chunk_items(chunk_items)

    def test_resident_cap_holds(self, tmp_path):
        db = make_paper_database(120, seed=6)
        sdb = ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=20, chunk_items=20
        )
        for _ in sdb.iter_chunks():
            assert len(sdb.resident_shards()) <= MAX_RESIDENT_SHARDS
        sdb.close()
        assert sdb.resident_shards() == ()

    def test_chunk_views_are_readonly(self, tmp_path):
        db = make_paper_database(20, seed=6)
        sdb = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=20)
        chunk = next(sdb.iter_chunks())
        with pytest.raises(ValueError):
            np.asarray(chunk.columns[0])[0] = 1.0

    def test_as_chunk_iterable_wraps_plain_database(self):
        db = make_paper_database(10, seed=0)
        chunks = list(as_chunk_iterable(db))
        assert chunks == [db]
        assert not is_streamable(db)


class TestMapping:
    """Shards map as plain read-only ndarrays over a read-only mmap."""

    def test_mapped_shard_is_readonly(self, tmp_path):
        db, _ = make_mixed_database(40, seed=3)
        sdb = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=20)
        entry = sdb._get_shard(1)
        for arr in (entry.real, entry.disc):
            assert type(arr) is np.ndarray
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.setflags(write=True)
            with pytest.raises(ValueError):
                arr[0, 0] = arr[0, 0]
        assert_same_rows(db, sdb)

    def test_all_real_schema_maps_zero_row_disc(self, tmp_path):
        db = make_paper_database(30, seed=3)
        assert not db.schema.discrete_indices
        sdb = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=20)
        assert sdb._get_shard(1).disc.shape == (0, 10)
        assert_same_rows(db, sdb)

    def test_remap_after_eviction_does_not_rehash(self, tmp_path, monkeypatch):
        db = make_paper_database(100, seed=4)
        sdb = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=20)
        hashed = []
        real = docfile.sha256_file
        monkeypatch.setattr(
            docfile, "sha256_file", lambda p: hashed.append(p) or real(p)
        )
        list(sdb.iter_chunks())
        assert len(hashed) == 2 * sdb.n_shards  # a real and a disc file each
        assert sdb.resident_shards() == (3, 4)  # shards 0-2 were evicted
        hashed.clear()
        assert_same_rows(db, sdb)
        assert hashed == []

    def test_bit_flip_raises_on_first_load(self, tmp_path):
        db = make_paper_database(40, seed=5)
        ShardedDatabase.from_database(db, tmp_path / "s", shard_items=20)
        victim = tmp_path / "s" / "shard_00000.real.npy"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        victim.write_bytes(bytes(raw))
        sdb = ShardedDatabase.open(tmp_path / "s")
        with pytest.raises(ShardCorruptionError, match="shard_00000.real.npy"):
            next(sdb.iter_chunks())
        assert sdb.resident_shards() == ()

    def test_shape_against_manifest_checked(self, tmp_path):
        """A digest-valid file of the wrong shape is still refused."""
        db = make_paper_database(40, seed=5)
        ShardedDatabase.from_database(db, tmp_path / "s", shard_items=20)
        victim = tmp_path / "s" / "shard_00001.real.npy"
        np.save(victim, np.zeros((2, 19)))
        path = tmp_path / "s" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        files = manifest["shards"][1]["files"]["real"]
        files["sha256"] = docfile.sha256_file(victim)
        del manifest["digest"]
        manifest["digest"] = docfile.digest(manifest)
        path.write_text(json.dumps(manifest))
        sdb = ShardedDatabase.open(tmp_path / "s")
        with pytest.raises(ShardCorruptionError, match="shapes"):
            list(sdb.iter_chunks())


class TestBlockViews:
    def test_blocks_match_partition_bounds(self, tmp_path):
        db = make_paper_database(103, seed=8)
        sdb = ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=24, chunk_items=10
        )
        for n_ranks in (1, 3, 5):
            for rank in range(n_ranks):
                view = sdb.block(n_ranks, rank)
                lo, hi = partition_bounds(db.n_items, n_ranks, rank)
                assert view.bounds == (lo, hi)
                expected = block_partition(db, n_ranks, rank)
                assert_same_rows(db, view, lo, hi)
                assert view.n_items == expected.n_items

    def test_block_of_block_offsets(self, tmp_path):
        db = make_paper_database(60, seed=8)
        sdb = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=16)
        inner = sdb.block(2, 1).block(2, 1)
        lo, hi = inner.bounds
        assert (lo, hi) == (45, 60)
        assert_same_rows(db, inner, lo, hi)


class TestCorruption:
    def test_flipped_shard_bytes_detected(self, tmp_path):
        db = make_paper_database(50, seed=1)
        ShardedDatabase.from_database(db, tmp_path / "s", shard_items=20)
        victim = tmp_path / "s" / "shard_00001.real.npy"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        sdb = ShardedDatabase.open(tmp_path / "s")
        with pytest.raises(ShardCorruptionError, match="shard_00001.real.npy"):
            list(sdb.iter_chunks())

    def test_missing_shard_file_detected(self, tmp_path):
        db = make_paper_database(50, seed=1)
        ShardedDatabase.from_database(db, tmp_path / "s", shard_items=20)
        (tmp_path / "s" / "shard_00002.disc.npy").unlink()
        sdb = ShardedDatabase.open(tmp_path / "s")
        with pytest.raises(ShardCorruptionError, match="shard_00002"):
            list(sdb.iter_chunks())

    def test_edited_manifest_detected(self, tmp_path):
        db = make_paper_database(30, seed=1)
        ShardedDatabase.from_database(db, tmp_path / "s", shard_items=30)
        manifest = tmp_path / "s" / MANIFEST_NAME
        manifest.write_text(manifest.read_text().replace('"n_items": 30', '"n_items": 31'))
        with pytest.raises(ShardCorruptionError, match="manifest digest"):
            ShardedDatabase.open(tmp_path / "s")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ShardFormatError, match=MANIFEST_NAME):
            ShardedDatabase.open(tmp_path)

    def test_future_format_version_rejected(self, tmp_path):
        db = make_paper_database(10, seed=1)
        ShardedDatabase.from_database(db, tmp_path / "s")
        manifest = tmp_path / "s" / MANIFEST_NAME
        manifest.write_text(
            manifest.read_text().replace('"format_version": 1', '"format_version": 99')
        )
        with pytest.raises(ShardFormatError, match="format_version"):
            ShardedDatabase.open(tmp_path / "s")


class TestPrefetchLifecycle:
    """Shards load inline, on the consumer's thread: no pass — failed,
    abandoned or completed — may start a thread of any name, and
    ``close()`` (or ``with``) empties the view's residency."""

    def test_failing_fit_leaves_no_prefetch_threads(self, tmp_path):
        """A fit that dies mid-stream (here: a corrupt second shard
        discovered during first-touch verification)."""
        db = make_paper_database(120, seed=3)
        ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=24, chunk_items=12
        )
        victim = tmp_path / "s" / "shard_00002.real.npy"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        sdb = ShardedDatabase.open(tmp_path / "s")
        before = set(threading.enumerate())
        with pytest.raises(ShardCorruptionError):
            AutoClass(
                start_j_list=(2,), max_n_tries=1, seed=0, max_cycles=2
            ).fit(sdb)
        assert set(threading.enumerate()) == before
        assert len(sdb.resident_shards()) <= MAX_RESIDENT_SHARDS
        sdb.close()
        assert sdb.resident_shards() == ()

    def test_abandoned_iteration_stops_prefetch_thread(self, tmp_path):
        db = make_paper_database(120, seed=3)
        sdb = ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=24, chunk_items=12
        )
        before = set(threading.enumerate())
        it = sdb.iter_chunks()
        next(it)  # shard 0 resident
        it.close()  # consumer walks away mid-pass
        assert set(threading.enumerate()) == before
        assert sdb.resident_shards() == (0,)
        sdb.close()
        assert sdb.resident_shards() == ()

    def test_context_manager_closes(self, tmp_path):
        db = make_paper_database(60, seed=3)
        before = set(threading.enumerate())
        with ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=12
        ) as sdb:
            list(sdb.iter_chunks())
            assert sdb.resident_shards() == (3, 4)
        assert sdb.resident_shards() == ()
        assert set(threading.enumerate()) == before


class TestProbe:
    def test_probe_reproduces_missingness(self, tmp_path):
        db, _ = make_mixed_database(80, missing_rate=0.2, seed=7)
        sdb = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=30)
        probe = sdb.probe()
        assert probe.n_items == 1
        for i in range(db.n_attributes):
            assert bool(probe.missing[i][0]) == bool(db.missing[i].any())

    def test_probe_touches_no_shard(self, tmp_path):
        db = make_paper_database(40, seed=7)
        sdb = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=10)
        for f in (tmp_path / "s").glob("shard_*"):
            f.unlink()  # only the manifest remains
        reopened = ShardedDatabase.open(tmp_path / "s")
        assert reopened.probe().n_items == 1
