"""Fitted-model artifacts are frozen: an older build's model still loads
and scores byte-identically.

``fixtures/model.json`` / ``fixtures/model.npz`` were written by
``write_fixture()`` below while the artifact still recorded a kernel
mode (its metadata carries ``"kernels": null``), together with
``fixtures/expected.npz``: the labels, log posterior and per-item log
evidence that build's ``FittedModel`` returned on the fixture database.
Scoring now has one path, so new artifacts drop the key; on load an
absent, ``null`` or ``"fused"`` value is accepted and ignored, and any
other value is refused with :class:`ArtifactError` at ``load`` — not
at the first ``predict``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.api import AutoClass
from repro.data.synth import make_paper_database
from repro.serve.artifact import ArtifactError, FittedModel
from repro.util import docfile
from repro.verify.trace import pack_term_params

FIXTURES = Path(__file__).resolve().parent / "fixtures"

CONFIG = dict(start_j_list=(3,), max_n_tries=1, seed=7, max_cycles=12)


def _db():
    return make_paper_database(120, seed=13)


def _scores(model, db) -> dict[str, np.ndarray]:
    return {
        "labels": model.predict(db),
        "log_proba": model.predict_logproba(db),
        "log_evidence": model.score_samples(db),
    }


def write_fixture() -> None:
    """Regenerate the fixtures (run at the commit whose bytes to pin)."""
    db = _db()
    model = AutoClass(**CONFIG).fit(db).fitted(db)
    FIXTURES.mkdir(exist_ok=True)
    model.save(FIXTURES / "model")
    np.savez(FIXTURES / "expected.npz", **_scores(model, db))


def _expected() -> dict[str, np.ndarray]:
    with np.load(FIXTURES / "expected.npz") as npz:
        return {name: npz[name] for name in npz.files}


def _assert_same_bytes(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name].dtype == value.dtype, name
        assert got[name].tobytes() == value.tobytes(), name


def _rewritten(tmp_path: Path, edit) -> Path:
    """A copy of the fixture whose metadata ``edit`` changed, re-digested
    so only the edited field can make ``load`` refuse it."""
    shutil.copy(FIXTURES / "model.npz", tmp_path / "m.npz")
    meta = json.loads((FIXTURES / "model.json").read_text(encoding="utf-8"))
    edit(meta)
    meta["digest"] = docfile.digest(meta)
    docfile.write_json(tmp_path / "m.json", meta)
    return tmp_path / "m"


class TestOlderArtifactLoads:
    def test_fixture_records_a_null_kernel_mode(self):
        meta = json.loads((FIXTURES / "model.json").read_text(encoding="utf-8"))
        assert meta["kernels"] is None

    def test_fixture_predicts_byte_identically(self):
        model = FittedModel.load(FIXTURES / "model")
        _assert_same_bytes(_scores(model, _db()), _expected())

    def test_fixture_equals_a_fresh_fit(self, tmp_path):
        db = _db()
        fresh = AutoClass(**CONFIG).fit(db).fitted(db)
        loaded = FittedModel.load(FIXTURES / "model")
        assert pack_term_params(fresh.classification) == pack_term_params(
            loaded.classification
        )
        _assert_same_bytes(_scores(fresh, db), _expected())


class TestKernelsKey:
    def test_new_artifacts_drop_the_key(self, tmp_path):
        model = FittedModel.load(FIXTURES / "model")
        json_path, _ = model.save(tmp_path / "m")
        assert "kernels" not in json.loads(json_path.read_text(encoding="utf-8"))
        _assert_same_bytes(
            _scores(FittedModel.load(tmp_path / "m"), _db()), _expected()
        )

    @pytest.mark.parametrize("value", ["absent", None, "fused"])
    def test_default_values_are_accepted(self, tmp_path, value):
        def edit(meta):
            if value == "absent":
                del meta["kernels"]
            else:
                meta["kernels"] = value

        model = FittedModel.load(_rewritten(tmp_path, edit))
        _assert_same_bytes(_scores(model, _db()), _expected())

    @pytest.mark.parametrize("value", ["bogus", "reference", 3])
    def test_other_values_are_refused_at_load(self, tmp_path, value):
        base = _rewritten(tmp_path, lambda meta: meta.update(kernels=value))
        with pytest.raises(ArtifactError, match="kernels"):
            FittedModel.load(base)
