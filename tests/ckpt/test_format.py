"""Checkpoint format: byte-identical round-trips and clean failures."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.format import (
    CKPT_FORMAT_VERSION,
    CheckpointError,
    InProgressTry,
    checkpoint_bytes,
    checkpoint_key,
    decode_checkpoint,
    encode_try_checkpoint,
    read_checkpoint_file,
)
from repro.ckpt.manager import Checkpointer, CheckpointSpec
from repro.engine.search import SearchConfig, SearchResult, run_search
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.util.docfile import write_json
from repro.util.rng import SeedSequenceStream

CONFIG = SearchConfig(start_j_list=(2, 3), max_n_tries=2, seed=11,
                      max_cycles=12)


def _fit(db, spec=None):
    return run_search(db, CONFIG, spec)


def _files(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _roundtrip_bytes(db, tmp_path, *, in_progress: bool):
    """save -> load -> save must reproduce every file byte-for-byte."""
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    result = _fit(db, spec)
    stream = SeedSequenceStream(CONFIG.seed)
    # consume a few children so non-trivial RNG states get captured
    stream.child("try", 0).random()
    stream.child("select_j", 5)
    ip = None
    if in_progress:
        clf = result.tries[-1].classification
        ip = InProgressTry(
            try_index=len(result.tries),
            n_classes_requested=clf.n_classes,
            classification=clf,
            checker_history=[-1234.5678912345, -1200.000000001],
        )
    first = Checkpointer(tmp_path / "a", policy="per_cycle")
    first.bind(CONFIG, spec, db.n_items)
    first.save(result, stream, in_progress=ip)
    state = first.load(spec)
    # re-encode the decoded state
    result2 = SearchResult(config=CONFIG, tries=list(state.completed_tries))
    stream2 = SeedSequenceStream(CONFIG.seed)
    stream2.restore_state(state.rng_streams)
    second = Checkpointer(tmp_path / "b", policy="per_cycle")
    second.bind(CONFIG, spec, db.n_items)
    second.save(result2, stream2, in_progress=state.in_progress)
    assert sorted(_files(first.directory)) == [
        "ckpt.json", "try_0000.json", "try_0001.json",
    ]
    assert _files(first.directory) == _files(second.directory)


class TestRoundTrip:
    def test_real_attribute_terms_byte_identical(self, paper_db, tmp_path):
        _roundtrip_bytes(paper_db, tmp_path, in_progress=False)

    def test_mixed_terms_with_missing_byte_identical(self, mixed_db, tmp_path):
        # mixed_db covers real + discrete term models and missing cells
        _roundtrip_bytes(mixed_db, tmp_path, in_progress=False)

    def test_in_progress_try_byte_identical(self, mixed_db, tmp_path):
        _roundtrip_bytes(mixed_db, tmp_path, in_progress=True)

    def test_checkpointer_save_load_save(self, paper_db, tmp_path, paper_spec):
        result = _fit(paper_db, paper_spec)
        stream = SeedSequenceStream(CONFIG.seed)
        stream.child("try", 1)
        a = Checkpointer(tmp_path / "a", policy="per_try")
        a.bind(CONFIG, paper_spec, paper_db.n_items)
        a.save_boundary(result, stream)
        state = a.load(paper_spec)
        assert state is not None
        assert state.next_try_index == len(result.tries)
        restored = SearchResult(config=CONFIG, tries=list(state.completed_tries))
        stream2 = SeedSequenceStream(CONFIG.seed)
        stream2.restore_state(state.rng_streams)
        b = Checkpointer(tmp_path / "b", policy="per_try")
        b.bind(CONFIG, paper_spec, paper_db.n_items)
        b.save_boundary(restored, stream2)
        assert _files(a.directory) == _files(b.directory)

    @settings(max_examples=25, deadline=None)
    @given(
        history=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1, max_size=8,
        )
    )
    def test_checker_history_floats_exact(self, history):
        """Arbitrary finite doubles survive the JSON encoding bit-exactly."""
        text = json.dumps({"h": history})
        back = json.loads(text)["h"]
        assert all(
            np.float64(a) == np.float64(b) or (a != a and b != b)
            for a, b in zip(history, back)
        )
        assert len(back) == len(history)


class TestValidation:
    @pytest.fixture()
    def saved(self, paper_db, paper_spec, tmp_path):
        result = _fit(paper_db, paper_spec)
        ck = Checkpointer(tmp_path, policy="per_try")
        ck.bind(CONFIG, paper_spec, paper_db.n_items)
        ck.save_boundary(result, SeedSequenceStream(CONFIG.seed))
        return ck

    def test_truncated_file_raises(self, saved, paper_spec):
        text = saved.path.read_text()
        saved.path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="truncated|not JSON"):
            saved.load(paper_spec)

    def test_garbage_file_raises(self, saved, paper_spec):
        saved.path.write_bytes(b"\x00\x01definitely not json")
        with pytest.raises(CheckpointError):
            saved.load(paper_spec)

    def test_non_object_payload_raises(self, saved, paper_spec):
        saved.path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="not an object"):
            saved.load(paper_spec)

    def test_wrong_kind_raises(self, saved, paper_spec):
        payload = json.loads(saved.path.read_text())
        payload["kind"] = "something-else"
        saved.path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            saved.load(paper_spec)

    def test_future_version_refused(self, saved, paper_spec):
        payload = json.loads(saved.path.read_text())
        payload["format_version"] = CKPT_FORMAT_VERSION + 1
        saved.path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            saved.load(paper_spec)

    def test_different_search_refused(self, saved, paper_db, paper_spec):
        other = Checkpointer(saved.directory, policy="per_try")
        other.bind(
            SearchConfig(start_j_list=(2, 3), max_n_tries=2, seed=99),
            paper_spec,
            paper_db.n_items,
        )
        with pytest.raises(CheckpointError, match="different search"):
            other.load(paper_spec)

    def test_missing_fields_raise_cleanly(self, saved, paper_spec):
        path = saved.try_path(0)
        payload = json.loads(path.read_text())
        del payload["try"]["classification"]["log_pi"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="malformed"):
            saved.load(paper_spec)

    def test_missing_try_file_raises(self, saved, paper_spec):
        saved.try_path(1).unlink()
        with pytest.raises(CheckpointError, match="try_0001"):
            saved.load(paper_spec)

    def test_head_naming_an_in_progress_try_file_raises(
        self, saved, paper_db, paper_spec
    ):
        # a try-grouped leader's mid-try file is not a completed try
        clf = _fit(paper_db, paper_spec).tries[0].classification
        mid_try = encode_try_checkpoint(saved._require_key(), in_progress=(
            InProgressTry(try_index=0, n_classes_requested=clf.n_classes,
                          classification=clf, checker_history=[-1.5])
        ))
        saved.try_path(0).write_bytes(checkpoint_bytes(mid_try))
        with pytest.raises(CheckpointError, match="does not hold try 0"):
            saved.load(paper_spec)

    def test_spec_mismatch_raises(self, saved, mixed_spec):
        # loading with a different live model spec must be refused even
        # before the key check would fire on a rebound checkpointer
        payload = read_checkpoint_file(saved.path)
        with pytest.raises(CheckpointError):
            decode_checkpoint(
                payload, payload["key"], mixed_spec, saved.directory
            )

    def test_resume_false_ignores_existing(self, saved, paper_spec):
        ck = Checkpointer(saved.directory, policy="per_try", resume=False)
        ck.bind(CONFIG, paper_spec, 1_000)
        assert ck.load(paper_spec) is None

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        target = tmp_path / "x.json"
        write_json(target, {"ok": 1})
        assert target.exists()
        assert list(tmp_path.glob("*.tmp")) == []


class TestKey:
    def test_world_size_not_in_key(self, paper_spec):
        # the key is a pure function of (config, spec, n_items): nothing
        # about the world; identical inputs give identical keys
        k1 = checkpoint_key(CONFIG, paper_spec, 1_000)
        k2 = checkpoint_key(CONFIG, paper_spec, 1_000)
        assert k1 == k2

    def test_key_changes_with_config_and_items(self, paper_spec):
        base = checkpoint_key(CONFIG, paper_spec, 1_000)
        assert checkpoint_key(CONFIG, paper_spec, 999) != base
        other = SearchConfig(start_j_list=(2, 3), max_n_tries=2, seed=12)
        assert checkpoint_key(other, paper_spec, 1_000) != base

    def test_data_digest_folds_into_key(self, paper_spec):
        # streamed fits bind the shard manifest digest into the key, so
        # a checkpoint can never resume against different data; the
        # no-digest (in-memory) key is unchanged for legacy checkpoints
        base = checkpoint_key(CONFIG, paper_spec, 1_000)
        d1 = checkpoint_key(CONFIG, paper_spec, 1_000, data_digest="a" * 64)
        d2 = checkpoint_key(CONFIG, paper_spec, 1_000, data_digest="b" * 64)
        assert d1 != base and d2 != base and d1 != d2
        assert checkpoint_key(CONFIG, paper_spec, 1_000) == base

    def test_streamed_fit_checkpoints_bind_the_manifest(self, tmp_path):
        from repro import AutoClass
        from repro.ckpt.format import CheckpointError
        from repro.data.shards import ShardedDatabase
        from repro.data.synth import make_paper_database
        from repro.models.registry import ModelSpec
        from repro.models.summary import DataSummary

        db = make_paper_database(120, seed=5)
        sdb = ShardedDatabase.from_database(
            db, tmp_path / "s", shard_items=40
        )
        kw = dict(start_j_list=(2,), max_n_tries=1, seed=3, max_cycles=3,
                  init_method="sharp")
        ckdir = tmp_path / "ck"
        AutoClass(**kw).fit(sdb, checkpoint="per_try", checkpoint_dir=ckdir)

        spec = ModelSpec.default_for(
            sdb.schema, DataSummary.from_database(sdb)
        )
        # bound to the same manifest digest: the checkpoint is visible
        ck = Checkpointer(ckdir, policy="per_try")
        ck.bind(SearchConfig(**kw), spec, sdb.n_items,
                data_digest=sdb.manifest_digest)
        state = ck.load(spec)
        assert state is not None and state.next_try_index == 1
        # the in-memory key of the same rows (no digest) is a
        # different search: the streamed checkpoint is refused
        ck2 = Checkpointer(ckdir, policy="per_try")
        ck2.bind(SearchConfig(**kw), spec, sdb.n_items)
        with pytest.raises(CheckpointError, match="different search"):
            ck2.load(spec)


class TestSpecAndPolicy:
    def test_policy_off_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="off"):
            CheckpointSpec(directory=str(tmp_path), policy="off")
        with pytest.raises(ValueError, match="off"):
            Checkpointer(tmp_path, policy="off")

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="policy"):
            Checkpointer(tmp_path, policy="sometimes")

    def test_spec_builds_rank_checkpointer(self, tmp_path):
        spec = CheckpointSpec(directory=str(tmp_path), policy="per_cycle")
        w = spec.build(0)
        r = spec.build(3)
        assert w.is_writer and not r.is_writer
        assert w.path == r.path
