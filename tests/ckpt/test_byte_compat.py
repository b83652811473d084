"""Checkpoint files are frozen: same search, same bytes, across PRs.

``fixtures/ckpt.json`` and ``fixtures/try_0000.json`` were written by
``write_fixtures()`` below when the format moved to version 2 (a small
head plus one file per completed try, compact JSON with base64 array
leaves).  The tests rerun the same seeded search and require the files
it writes today to equal the fixtures byte for byte, and a search
resumed from the fixtures to finish bit-identically to one that never
stopped — a checkpoint written by an older build of the same format
version must keep resuming.  The sequential search and the try-grouped
one write the same try document, so one ``try_0000.json`` pins both.

``fixtures/v1/`` keeps the bytes of the version-1 layout (every
finished try inline in ``ckpt.json``): a reader must refuse them with a
:class:`~repro.ckpt.CheckpointError` that names the version.

``MANIFEST_DIGEST`` / ``CHECKPOINT_KEY`` pin the two content identities
other files refer to (the streamed resume key folds the manifest digest
in); both are unchanged since they were first pinned.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.api import PAutoClass
from repro.ckpt import CheckpointError, Checkpointer, checkpoint_key
from repro.data.shards import ShardedDatabase
from repro.data.synth import make_mixed_database, make_paper_database
from repro.engine.search import SearchConfig, run_search
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.verify.trace import pack_term_params

FIXTURES = Path(__file__).resolve().parent / "fixtures"

CONFIG = dict(start_j_list=(2, 3), max_n_tries=2, seed=11, max_cycles=12,
              init_method="sharp")

MANIFEST_DIGEST = (
    "19af2f86b274f13450076096e677535b5c78f5ccf49016297b992e85504f7217"
)
CHECKPOINT_KEY = (
    "feb605e7bf04bb123486853c927076c7686d01eead0b9e78defd686fe876e241"
)


def _db():
    return make_paper_database(120, seed=13)


def _spec(db):
    return ModelSpec.default_for(db.schema, DataSummary.from_database(db))


class _SnapshotCheckpointer(Checkpointer):
    """Keeps the directory's files as they stood mid-search: try 0
    complete, try 1 frozen after its third cycle."""

    snapshot: dict[str, bytes] | None = None

    def save(self, result, stream, in_progress=None):
        super().save(result, stream, in_progress)
        if (
            in_progress is not None
            and in_progress.try_index == 1
            and in_progress.classification.n_cycles == 3
        ):
            self.snapshot = {
                p.name: p.read_bytes() for p in self.directory.iterdir()
            }


def _mid_search_ckpt(directory: Path) -> dict[str, bytes]:
    ck = _SnapshotCheckpointer(directory, policy="per_cycle")
    run_search(_db(), SearchConfig(**CONFIG), checkpointer=ck)
    assert ck.snapshot is not None
    return ck.snapshot


def _grouped_fit(directory: Path, **fit_kwargs):
    return PAutoClass(
        n_processors=2, backend="threads", try_groups=2, **CONFIG
    ).fit(_db(), checkpoint="per_try", checkpoint_dir=directory, **fit_kwargs)


def write_fixtures(scratch: Path) -> None:
    """Regenerate the fixtures (run at the commit whose bytes to pin)."""
    FIXTURES.mkdir(exist_ok=True)
    for name, data in _mid_search_ckpt(scratch / "a").items():
        (FIXTURES / name).write_bytes(data)
    _grouped_fit(scratch / "b")
    assert (scratch / "b" / "try_0000.json").read_bytes() == (
        FIXTURES / "try_0000.json"
    ).read_bytes()


def _fixture_files() -> dict[str, bytes]:
    return {
        name: (FIXTURES / name).read_bytes()
        for name in ("ckpt.json", "try_0000.json")
    }


def _assert_same_search(a, b):
    assert len(a.tries) == len(b.tries)
    for ta, tb in zip(a.tries, b.tries):
        assert ta.n_cycles == tb.n_cycles
        assert ta.duplicate_of == tb.duplicate_of
        assert ta.score == tb.score  # bit-identical, not approx
        np.testing.assert_array_equal(
            ta.classification.log_pi, tb.classification.log_pi
        )
        assert pack_term_params(ta.classification) == pack_term_params(
            tb.classification
        )


class TestCheckpointBytesFrozen:
    def test_ckpt_json_equals_parent_fixture(self, tmp_path):
        assert _mid_search_ckpt(tmp_path) == _fixture_files()

    def test_try_file_equals_parent_fixture(self, tmp_path):
        _grouped_fit(tmp_path)
        assert (tmp_path / "try_0000.json").read_bytes() == (
            FIXTURES / "try_0000.json"
        ).read_bytes()

    def test_parent_ckpt_resumes_bit_identically(self, tmp_path):
        clean = run_search(_db(), SearchConfig(**CONFIG))
        for name, data in _fixture_files().items():
            (tmp_path / name).write_bytes(data)
        ck = Checkpointer(tmp_path, policy="per_cycle")
        resumed = run_search(_db(), SearchConfig(**CONFIG), checkpointer=ck)
        # try 0 restored, try 1 re-entered after cycle 3: fewer saves
        # than a search that had to run both tries from scratch
        assert 0 < ck.n_saves < sum(t.n_cycles for t in clean.tries)
        _assert_same_search(clean, resumed)

    def test_parent_try_file_resumes_bit_identically(self, tmp_path):
        clean = _grouped_fit(tmp_path / "clean").result
        (tmp_path / "r").mkdir()
        shutil.copy(FIXTURES / "try_0000.json", tmp_path / "r" / "try_0000.json")
        resumed = _grouped_fit(tmp_path / "r", resume=True).result
        _assert_same_search(clean, resumed)


class TestVersionOneRefused:
    def _checkpointer(self, directory: Path) -> Checkpointer:
        db = _db()
        ck = Checkpointer(directory, policy="per_cycle")
        ck.bind(SearchConfig(**CONFIG), _spec(db), db.n_items)
        return ck

    def test_v1_head_is_refused_by_version(self, tmp_path):
        shutil.copy(FIXTURES / "v1" / "ckpt.json", tmp_path / "ckpt.json")
        with pytest.raises(CheckpointError, match="format_version 1"):
            self._checkpointer(tmp_path).load(_spec(_db()))

    def test_v1_try_file_is_refused_by_version(self, tmp_path):
        shutil.copy(FIXTURES / "v1" / "try_0000.json", tmp_path)
        with pytest.raises(CheckpointError, match="format_version 1"):
            self._checkpointer(tmp_path).load_tries(_spec(_db()))


class TestContentIdentitiesFrozen:
    def test_manifest_digest_equals_parent_value(self, tmp_path):
        db, _ = make_mixed_database(157, missing_rate=0.1, seed=5)
        sdb = ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=40, chunk_items=16
        )
        assert sdb.manifest_digest == MANIFEST_DIGEST
        assert ShardedDatabase.open(tmp_path / "s").manifest_digest == (
            MANIFEST_DIGEST
        )

    def test_checkpoint_key_equals_parent_value(self):
        db = _db()
        spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
        config = SearchConfig(max_seconds=3.0, **CONFIG)  # not in the key
        assert checkpoint_key(
            config, spec, db.n_items, data_digest="d" * 64
        ) == CHECKPOINT_KEY
