"""Fitted-model artifacts: freeze a trained classification for serving.

A :class:`FittedModel` is the deployable object a fit leaves behind —
the paper parallelizes the *search* for a classification, but the thing
production systems actually ship is the winning mixture.  The artifact
is:

* **frozen** — an immutable snapshot of the model spec, per-class
  parameters, mixture weights and the prior anchors (summary moments)
  the spec was built against;
* **versioned** — ``FORMAT`` / ``ARTIFACT_VERSION`` are checked on
  load, with a clear :class:`ArtifactError` on mismatch;
* **digested** — ``save`` writes a ``<base>.npz`` array payload, then
  a ``<base>.json`` metadata document recording the sha256 of the npz
  bytes and a sha256 over its own canonical form; ``load`` refuses
  anything that does not verify (bit rot, hand edits, truncation, a
  crash between the two writes) with :class:`ArtifactError`.

The JSON document *is* the results-file body of
:func:`repro.engine.results_io.classification_to_dict` with its ndarray
leaves hoisted into the npz (:func:`repro.util.docfile.hoist_arrays`) —
one classification codec, two containers.  Floats round-trip
bit-exactly: scalars ride JSON's repr-faithful doubles, arrays ride the
npz payload verbatim — so a loaded model scores byte-identically to the
fitted one, which the tests assert.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.classification import Classification
from repro.engine.results_io import (
    classification_from_dict,
    classification_to_dict,
)
from repro.models.summary import DataSummary
from repro.serve.scoring import Inference
from repro.util import docfile

if TYPE_CHECKING:  # avoid a runtime api -> serve -> api cycle
    from repro.api import Run

FORMAT = "pautoclass-fitted-model"
#: Version 2: the metadata is the results-file classification body with
#: npz references for leaves; version 1 artifacts are refused.
ARTIFACT_VERSION = 2


class ArtifactError(ValueError):
    """Raised for unreadable, corrupted, or version-mismatched artifacts."""


def _base_path(path: str | Path) -> Path:
    """Normalize ``model`` / ``model.json`` / ``model.npz`` to the base."""
    p = Path(path)
    if p.suffix in (".json", ".npz"):
        p = p.with_suffix("")
    return p


@dataclass(frozen=True, eq=False)
class FittedModel(Inference):
    """A frozen, versioned, servable snapshot of one fitted mixture.

    Construct with :meth:`from_run` (or load one with :meth:`load`);
    score new items with :meth:`predict` / :meth:`predict_logproba` /
    :meth:`score` — all of which reuse the allocation-free kernel path
    of :mod:`repro.serve.scoring`.
    """

    classification: Classification
    summary: DataSummary
    backend: str = "sequential"
    n_processors: int = 1

    # -- construction -----------------------------------------------------

    @classmethod
    def from_run(
        cls,
        run: "Run",
        db=None,
        *,
        summary: DataSummary | None = None,
    ) -> "FittedModel":
        """Freeze a :class:`~repro.api.Run`'s best classification.

        Needs the training database (or its precomputed
        :class:`~repro.models.summary.DataSummary`) for the prior
        anchors the artifact must carry to reconstruct the model spec
        on load.
        """
        if summary is None:
            if db is None:
                raise ValueError(
                    "from_run needs the training database (db=) or its "
                    "DataSummary (summary=) for the prior anchors"
                )
            summary = DataSummary.from_database(db)
        return cls(
            classification=run.best.classification,
            summary=summary,
            backend=run.backend,
            n_processors=run.n_processors,
        )

    # -- introspection ----------------------------------------------------

    @property
    def spec(self):
        return self.classification.spec

    @property
    def schema(self):
        return self.classification.spec.schema

    @property
    def n_classes(self) -> int:
        return self.classification.n_classes

    def describe(self) -> str:
        """One-line artifact summary (CLI / logs)."""
        return (
            f"FittedModel(J={self.n_classes}, "
            f"{len(self.schema)} attributes, "
            f"trained on {self.backend}/{self.n_processors})"
        )

    def _classification(self):
        return self.classification

    # -- serialization ----------------------------------------------------

    def _encode(self) -> tuple[dict, bytes]:
        """The (digested JSON metadata, npz bytes) pair of this model."""
        arrays: dict[str, np.ndarray] = {}
        meta = {
            "format": FORMAT,
            "artifact_version": ARTIFACT_VERSION,
            "backend": self.backend,
            "n_processors": self.n_processors,
            **docfile.hoist_arrays(
                classification_to_dict(self.classification, self.summary),
                arrays,
            ),
        }
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        npz_bytes = buf.getvalue()
        meta["arrays_sha256"] = docfile.sha256_hex(npz_bytes)
        meta["digest"] = docfile.digest(meta)
        return meta, npz_bytes

    def save(self, path: str | Path) -> tuple[Path, Path]:
        """Write ``<base>.json`` + ``<base>.npz``; returns both paths.

        The JSON document carries the sha256 of the npz bytes
        (``arrays_sha256``) and a digest over its own canonical form
        (``digest``); :meth:`load` verifies both.  Each file is replaced
        atomically, the npz first: two fixed names cannot be swapped as
        a pair, so a crash between the two renames leaves a new npz
        under the old JSON — which ``load`` reports as a payload digest
        mismatch, never as a silently mixed model.
        """
        base = _base_path(path)
        meta, npz_bytes = self._encode()
        npz_path = docfile.write_bytes(base.with_suffix(".npz"), npz_bytes)
        json_path = docfile.write_json(base.with_suffix(".json"), meta)
        return json_path, npz_path

    @property
    def digest(self) -> str:
        """sha256 identity of this model's serialized form."""
        return self._encode()[0]["digest"]

    @classmethod
    def load(cls, path: str | Path) -> "FittedModel":
        """Read an artifact back, verifying format, version and digests.

        Raises :class:`ArtifactError` for anything that does not
        verify: missing files, malformed JSON, unknown format or
        version, tampered metadata (digest mismatch), corrupted /
        swapped array payloads (arrays_sha256 mismatch), or a
        ``kernels`` entry other than the one scoring path.
        """
        base = _base_path(path)
        npz_path = base.with_suffix(".npz")
        meta = docfile.read_json(
            base.with_suffix(".json"), what="fitted-model artifact",
            error=ArtifactError, kind=("format", FORMAT),
            version=("artifact_version", ARTIFACT_VERSION), digested=True,
        )
        # Artifacts of the same version written by older builds record
        # the kernel mode they scored with; scoring has one path, so
        # only its name (or no mode at all) can be honoured.
        if meta.get("kernels") not in (None, "fused"):
            raise ArtifactError(
                f"unsupported kernels {meta['kernels']!r} in "
                f"{base.with_suffix('.json')}: artifacts score on the "
                "fused path only"
            )
        npz_bytes = docfile.read_bytes(npz_path, error=ArtifactError)
        if docfile.sha256_hex(npz_bytes) != meta.get("arrays_sha256"):
            raise ArtifactError(
                f"array payload digest mismatch for {npz_path}: the "
                "npz bytes do not match the sha256 recorded in the "
                "metadata (corrupted or swapped payload)"
            )
        try:
            with np.load(io.BytesIO(npz_bytes)) as npz:
                arrays = {name: np.ascontiguousarray(npz[name]) for name in npz.files}
        except Exception as exc:  # zipfile/format errors vary by version
            raise ArtifactError(f"cannot decode {npz_path}: {exc}") from exc
        with docfile.decoding("artifact payload", ArtifactError):
            clf, summary = classification_from_dict(
                docfile.restore_arrays(meta, arrays), ArtifactError
            )
            return cls(
                classification=clf,
                summary=summary,
                backend=meta["backend"],
                n_processors=meta["n_processors"],
            )
