"""Tests for repro.data.io (.hd2/.db2 round-trips and error paths)."""

import numpy as np
import pytest

from repro.data.attributes import AttributeSet, DiscreteAttribute, RealAttribute
from repro.data.database import Database
from repro.data.io import (
    DataFormatError,
    HeaderFormatError,
    load_database,
    read_data,
    read_header,
    save_database,
    write_data,
    write_header,
)
from repro.data.synth import make_mixed_database, make_paper_database


def schema_full():
    return AttributeSet((
        RealAttribute("x", error=0.25),
        DiscreteAttribute("color", arity=3, symbols=("red", "green", "blue")),
        DiscreteAttribute("code", arity=4),
    ))


class TestHeaderRoundtrip:
    def test_roundtrip_preserves_schema(self, tmp_path):
        path = tmp_path / "t.hd2"
        write_header(schema_full(), path)
        back = read_header(path)
        assert back == schema_full()

    def test_error_value_preserved(self, tmp_path):
        path = tmp_path / "t.hd2"
        write_header(schema_full(), path)
        assert read_header(path)["x"].error == pytest.approx(0.25)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.hd2"
        path.write_text(
            ";; comment\n\n0 real location x error 0.5\n"
        )
        schema = read_header(path)
        assert schema.names == ("x",)

    def test_unknown_type_raises_with_lineno(self, tmp_path):
        path = tmp_path / "t.hd2"
        path.write_text("0 complex wave x\n")
        with pytest.raises(HeaderFormatError, match="line 1"):
            read_header(path)

    def test_non_dense_indices_raise(self, tmp_path):
        path = tmp_path / "t.hd2"
        path.write_text(
            "0 real location x error 0.1\n2 real location y error 0.1\n"
        )
        with pytest.raises(HeaderFormatError, match="dense"):
            read_header(path)

    def test_declared_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "t.hd2"
        path.write_text(
            "number_of_attributes 2\n0 real location x error 0.1\n"
        )
        with pytest.raises(HeaderFormatError, match="declares 2"):
            read_header(path)

    def test_discrete_missing_range_raises(self, tmp_path):
        path = tmp_path / "t.hd2"
        path.write_text("0 discrete nominal c\n")
        with pytest.raises(HeaderFormatError, match="range"):
            read_header(path)


class TestDataRoundtrip:
    def make_db(self):
        return Database.from_columns(
            schema_full(),
            [
                np.array([1.5, np.nan, -2.25]),
                np.array([0, 2, -1]),
                np.array([3, -1, 0]),
            ],
        )

    def test_exact_roundtrip(self, tmp_path):
        db = self.make_db()
        path = tmp_path / "t.db2"
        write_data(db, path)
        back = read_data(db.schema, path)
        for i in range(db.n_attributes):
            np.testing.assert_array_equal(back.missing[i], db.missing[i])
            present = ~db.missing[i]
            np.testing.assert_array_equal(
                back.columns[i][present], db.columns[i][present]
            )

    def test_symbols_written_not_codes(self, tmp_path):
        path = tmp_path / "t.db2"
        write_data(self.make_db(), path)
        assert "red" in path.read_text()

    def test_field_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "t.db2"
        path.write_text("1.0 red\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_data(schema_full(), path)

    def test_unknown_symbol_raises(self, tmp_path):
        path = tmp_path / "t.db2"
        path.write_text("1.0 purple 2\n")
        with pytest.raises(DataFormatError, match="purple"):
            read_data(schema_full(), path)

    def test_bad_real_raises(self, tmp_path):
        path = tmp_path / "t.db2"
        path.write_text("oops red 2\n")
        with pytest.raises(DataFormatError, match="oops"):
            read_data(schema_full(), path)

    def test_bad_code_raises(self, tmp_path):
        path = tmp_path / "t.db2"
        path.write_text("1.0 red zap\n")
        with pytest.raises(DataFormatError, match="zap"):
            read_data(schema_full(), path)


class TestSaveLoad:
    def test_paper_database_roundtrip(self, tmp_path):
        db = make_paper_database(50, seed=9)
        save_database(db, tmp_path / "paper")
        back = load_database(tmp_path / "paper")
        assert back.schema == db.schema
        np.testing.assert_array_equal(back.column("x0"), db.column("x0"))

    def test_mixed_database_roundtrip(self, tmp_path):
        db, _ = make_mixed_database(60, missing_rate=0.15, seed=3)
        save_database(db, tmp_path / "mixed")
        back = load_database(tmp_path / "mixed")
        assert back.n_missing() == db.n_missing()
        for i in range(db.n_attributes):
            present = ~db.missing[i]
            np.testing.assert_allclose(
                back.columns[i][present], db.columns[i][present]
            )

    def test_save_returns_both_paths(self, tmp_path):
        db = make_paper_database(5, seed=0)
        hd2, db2 = save_database(db, tmp_path / "x")
        assert hd2.exists() and db2.exists()
        assert hd2.suffix == ".hd2" and db2.suffix == ".db2"

    def test_empty_database_roundtrip(self, tmp_path):
        """Zero items is a legal database; the files still carry the schema."""
        db = make_paper_database(5, seed=0).take(slice(0, 0))
        assert db.n_items == 0
        save_database(db, tmp_path / "empty")
        back = load_database(tmp_path / "empty")
        assert back.schema == db.schema
        assert back.n_items == 0
        for i in range(back.n_attributes):
            assert back.columns[i].shape == (0,)
            assert back.missing[i].shape == (0,)

    def test_empty_mixed_schema_roundtrip(self, tmp_path):
        db, _ = make_mixed_database(4, n_real=2, n_discrete=3, arity=5, seed=1)
        empty = db.take(slice(0, 0))
        save_database(empty, tmp_path / "em")
        back = load_database(tmp_path / "em")
        assert back.schema == db.schema
        assert back.n_items == 0

    def test_mixed_schema_roundtrip_exact(self, tmp_path):
        """Interleaved real/discrete attributes with missing cells."""
        schema = AttributeSet((
            DiscreteAttribute("d0", arity=2, symbols=("no", "yes")),
            RealAttribute("r0", error=0.05),
            DiscreteAttribute("d1", arity=3),
            RealAttribute("r1", error=0.5),
        ))
        db = Database.from_columns(
            schema,
            [
                np.array([0, 1, -1, 1]),
                np.array([1.25, np.nan, -3.5, 0.0]),
                np.array([2, -1, 0, 1]),
                np.array([np.nan, 7.0, 8.0, np.nan]),
            ],
        )
        save_database(db, tmp_path / "mix")
        back = load_database(tmp_path / "mix")
        assert back.schema == schema
        for i in range(db.n_attributes):
            np.testing.assert_array_equal(back.missing[i], db.missing[i])
            present = ~db.missing[i]
            np.testing.assert_array_equal(
                back.columns[i][present], db.columns[i][present]
            )

    def test_shard_roundtrip_from_io_files(self, tmp_path):
        """io-loaded database shards and streams back identically."""
        from repro.data.shards import ShardedDatabase

        db, _ = make_mixed_database(75, missing_rate=0.1, seed=11)
        save_database(db, tmp_path / "src")
        loaded = load_database(tmp_path / "src")
        sdb = ShardedDatabase.from_database(
            loaded, tmp_path / "shards", shard_items=20
        )
        back = sdb.materialize()
        assert back.schema == db.schema
        for i in range(db.n_attributes):
            np.testing.assert_array_equal(back.missing[i], db.missing[i])

    def test_corrupted_shard_names_the_file(self, tmp_path):
        """Bad shard digest -> ShardCorruptionError naming the shard file."""
        from repro.data.shards import ShardCorruptionError, ShardedDatabase

        db = make_paper_database(60, seed=12)
        ShardedDatabase.from_database(db, tmp_path / "sh", shard_items=25)
        victim = tmp_path / "sh" / "shard_00000.real.npy"
        raw = bytearray(victim.read_bytes())
        raw[-5] ^= 0x55
        victim.write_bytes(bytes(raw))
        sdb = ShardedDatabase.open(tmp_path / "sh")
        with pytest.raises(ShardCorruptionError, match="shard_00000.real.npy"):
            sdb.materialize()
