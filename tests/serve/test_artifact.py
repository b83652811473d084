"""FittedModel artifact: round-trip fidelity and tamper detection."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve.artifact import ARTIFACT_VERSION, ArtifactError, FittedModel


class TestRoundTrip:
    def test_save_load_scores_bitwise_identically(self, model, train_db, tmp_path):
        model.save(tmp_path / "m")
        loaded = FittedModel.load(tmp_path / "m")
        assert np.array_equal(loaded.predict(train_db), model.predict(train_db))
        assert np.array_equal(
            loaded.predict_logproba(train_db), model.predict_logproba(train_db)
        )
        assert np.array_equal(
            loaded.score_samples(train_db), model.score_samples(train_db)
        )
        assert loaded.score(train_db) == model.score(train_db)

    def test_metadata_round_trips(self, model, tmp_path):
        model.save(tmp_path / "m")
        loaded = FittedModel.load(tmp_path / "m")
        assert loaded.backend == model.backend
        assert loaded.n_processors == model.n_processors
        assert loaded.n_classes == model.n_classes
        assert loaded.schema == model.schema
        assert np.array_equal(
            loaded.classification.log_pi, model.classification.log_pi
        )
        assert loaded.classification.n_cycles == model.classification.n_cycles

    def test_scores_round_trip(self, model, tmp_path):
        model.save(tmp_path / "m")
        loaded = FittedModel.load(tmp_path / "m")
        s0, s1 = model.classification.scores, loaded.classification.scores
        assert s1.log_marginal_cs == s0.log_marginal_cs
        assert s1.log_map_objective == s0.log_map_objective
        assert np.array_equal(s1.w_j, s0.w_j)

    def test_path_suffix_forms_are_equivalent(self, model, tmp_path):
        json_path, npz_path = model.save(tmp_path / "m.json")
        assert json_path == tmp_path / "m.json"
        assert npz_path == tmp_path / "m.npz"
        for path in (tmp_path / "m", tmp_path / "m.json", tmp_path / "m.npz"):
            assert FittedModel.load(path).n_classes == model.n_classes

    def test_from_run_requires_db_or_summary(self, fitted_run):
        with pytest.raises(ValueError, match="training database"):
            FittedModel.from_run(fitted_run)

    def test_describe_mentions_shape(self, model):
        text = model.describe()
        assert f"J={model.n_classes}" in text
        assert "serial/1" in text  # AutoClass: one serial rank


class TestTamperDetection:
    def test_edited_metadata_is_rejected(self, model, tmp_path):
        json_path, _ = model.save(tmp_path / "m")
        meta = json.loads(json_path.read_text(encoding="utf-8"))
        meta["n_classes"] = meta["n_classes"] + 1
        json_path.write_text(json.dumps(meta, indent=1), encoding="utf-8")
        with pytest.raises(ArtifactError, match="digest mismatch"):
            FittedModel.load(tmp_path / "m")

    def test_corrupted_npz_is_rejected(self, model, tmp_path):
        _, npz_path = model.save(tmp_path / "m")
        raw = bytearray(npz_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        npz_path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="payload digest"):
            FittedModel.load(tmp_path / "m")

    def test_swapped_npz_is_rejected(self, model, tmp_path):
        model.save(tmp_path / "a")
        np.savez(tmp_path / "a.npz", bogus=np.zeros(3))
        with pytest.raises(ArtifactError, match="payload digest"):
            FittedModel.load(tmp_path / "a")

    def test_unknown_format_is_rejected(self, model, tmp_path):
        json_path, _ = model.save(tmp_path / "m")
        meta = json.loads(json_path.read_text(encoding="utf-8"))
        meta["format"] = "something-else"
        json_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ArtifactError, match="not a"):
            FittedModel.load(tmp_path / "m")

    def test_future_version_is_rejected(self, model, tmp_path):
        json_path, _ = model.save(tmp_path / "m")
        meta = json.loads(json_path.read_text(encoding="utf-8"))
        meta["artifact_version"] = ARTIFACT_VERSION + 1
        json_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ArtifactError, match="version"):
            FittedModel.load(tmp_path / "m")

    def test_missing_files_are_clear_errors(self, model, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            FittedModel.load(tmp_path / "nope")
        json_path, npz_path = model.save(tmp_path / "m")
        npz_path.unlink()
        with pytest.raises(ArtifactError, match="cannot read"):
            FittedModel.load(tmp_path / "m")

    def test_invalid_json_is_rejected(self, model, tmp_path):
        json_path, _ = model.save(tmp_path / "m")
        json_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            FittedModel.load(tmp_path / "m")

    def test_digest_property_matches_saved_digest(self, model, tmp_path):
        json_path, _ = model.save(tmp_path / "m")
        meta = json.loads(json_path.read_text(encoding="utf-8"))
        assert model.digest == meta["digest"]


class TestTornWrites:
    """``save`` replaces each file atomically, the npz first.  Two fixed
    names cannot be swapped as a pair, so the only torn state a crash
    can leave is new-npz-under-old-JSON — which must be *detected*."""

    @pytest.fixture()
    def other(self, train_db):
        from repro.api import AutoClass

        run = AutoClass(
            start_j_list=(2,), max_n_tries=1, seed=1, max_cycles=5
        ).fit(train_db)
        return FittedModel.from_run(run, train_db)

    def _save_failing_on_replace(self, model, base, monkeypatch, nth):
        import os

        real, calls = os.replace, []

        def flaky(src, dst):
            calls.append(dst)
            if len(calls) == nth:
                raise OSError("crash before rename")
            real(src, dst)

        monkeypatch.setattr(os, "replace", flaky)
        with pytest.raises(OSError, match="crash before rename"):
            model.save(base)
        monkeypatch.setattr(os, "replace", real)

    def test_crash_before_first_rename_keeps_the_old_pair(
        self, model, other, tmp_path, monkeypatch
    ):
        model.save(tmp_path / "m")
        self._save_failing_on_replace(other, tmp_path / "m", monkeypatch, 1)
        assert FittedModel.load(tmp_path / "m").digest == model.digest

    def test_crash_between_renames_is_detected(
        self, model, other, tmp_path, monkeypatch
    ):
        model.save(tmp_path / "m")
        self._save_failing_on_replace(other, tmp_path / "m", monkeypatch, 2)
        with pytest.raises(ArtifactError, match="payload digest"):
            FittedModel.load(tmp_path / "m")

    def test_success_leaves_exactly_the_pair(self, model, tmp_path):
        model.save(tmp_path / "m")
        model.save(tmp_path / "m")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "m.npz"]
