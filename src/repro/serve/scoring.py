"""Batch scoring of new items against a fitted mixture.

Two kernels serve every entry point (:mod:`repro.kernels.estep`), one
chunk of ``db.iter_chunks()`` at a time:

* hard labels come from :func:`~repro.kernels.estep.log_joint_labels`,
  a blocked GEMM plus a row argmax over the log joint that needs no
  normalization and no pooled ``(n, J)`` buffer — :func:`predict` is
  this kernel alone;
* the log posterior and log evidence are the inference-side twin of
  the training E-step: one GEMM fills the pooled log-joint buffer and
  one in-place pass normalizes it in log space
  (:func:`~repro.kernels.estep.fused_log_posterior`), and only the
  requested outputs are copied out.

The label rule is the first maximal class of the log joint, everywhere.
Scoring the training database reproduces the run's final class map;
the tests check that against the reference E-step in
:func:`repro.engine.report.membership`.

All entry points are stateless functions over ``(db, clf)``; the
object-shaped API is the :class:`Inference` mixin, shared by
:class:`repro.serve.artifact.FittedModel`, :class:`repro.api.Run` and
the estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.data.database import Database
from repro.kernels.estep import (
    fused_compute_log_joint,
    fused_log_posterior,
    log_joint_labels,
)
from repro.kernels.workspace import get_workspace
from repro.obs import recorder as obs
from repro.util import workhooks

if TYPE_CHECKING:
    from repro.engine.classification import Classification


@dataclass(frozen=True)
class BatchScores:
    """Everything one scoring pass produces, as fresh (owned) arrays."""

    #: Hard class assignment, ``(n_items,)`` int64.
    labels: np.ndarray
    #: Log posterior membership, ``(n_items, n_classes)``; each row
    #: log-sum-exps to 0.
    log_proba: np.ndarray
    #: Per-item log evidence ``log p(x_i)``, ``(n_items,)``.
    log_evidence: np.ndarray

    @property
    def n_items(self) -> int:
        return self.labels.shape[0]

    def take(self, index: slice) -> "BatchScores":
        """Row-slice view (how the Scorer splits a merged batch)."""
        return BatchScores(
            labels=self.labels[index],
            log_proba=self.log_proba[index],
            log_evidence=self.log_evidence[index],
        )


def check_schema(db: Database, clf: "Classification") -> None:
    """Refuse to score items the model was not fitted for."""
    if db.schema != clf.spec.schema:
        raise ValueError(
            "schema mismatch: the model was fitted on different "
            "attributes than the given database"
        )


def _chunks(db: Database, clf: "Classification"):
    """Yield ``db``'s chunks in row order, each counted and priced.

    An in-memory database is one chunk, a shard view streams.
    """
    check_schema(db, clf)
    rec = obs.current()
    for chunk in db.iter_chunks():
        n = chunk.n_items
        # Price scoring like an E-step on the counted-work model (so the
        # virtual CS-2 charges sharded bulk scoring realistically).
        workhooks.report("wts", n, clf.n_classes, clf.spec.n_stats)
        rec.count("serve.batches")
        rec.count("serve.items", n)
        yield chunk


def _posteriors(db: Database, clf: "Classification"):
    """Score ``db`` chunk by chunk into this thread's pooled workspace.

    Yields ``(chunk, ws, log_evidence)`` per chunk, in row order, with
    the workspace's log-joint buffer holding the log posterior (see
    :func:`fused_log_posterior`); each triple is valid only until the
    next is drawn.
    """
    j = clf.n_classes
    for chunk in _chunks(db, clf):
        ws = get_workspace(chunk.n_items, j)
        fused_compute_log_joint(chunk, clf, ws.log_joint)
        _log_post, log_evidence = fused_log_posterior(ws, j)
        yield chunk, ws, log_evidence


def score_batch(db: Database, clf: "Classification") -> BatchScores:
    """Score a batch of items in one allocation-free kernel pass per chunk.

    The scratch space is this thread's pooled
    :class:`~repro.kernels.workspace.Workspace` for the chunk shape;
    the returned arrays are copies, safe to hold indefinitely.  A
    :class:`~repro.data.shards.ShardedDatabase` view therefore needs
    O(chunk) scratch, but the outputs are O(n_items) by contract; use
    :func:`predict` / :func:`score_samples` / :func:`score` to avoid
    holding the ``(n_items, n_classes)`` log posterior.  The labels are
    :func:`predict`'s, from the same label kernel.
    """
    labels, log_proba, log_evidence = [], [], []
    for chunk, ws, le in _posteriors(db, clf):
        labels.append(log_joint_labels(chunk, clf))
        log_proba.append(ws.log_joint.copy())
        log_evidence.append(le.copy())
    return BatchScores(
        labels=_concat(labels, (0,), np.int64),
        log_proba=_concat(log_proba, (0, clf.n_classes), np.float64),
        log_evidence=_concat(log_evidence, (0,), np.float64),
    )


def _concat(parts: list[np.ndarray], empty_shape, dtype) -> np.ndarray:
    """Row-concatenate per-chunk outputs (one chunk: as is, no copy)."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(empty_shape, dtype)


def predict(db: Database, clf: "Classification") -> np.ndarray:
    """Hard class assignment per item, ``(n_items,)`` int64.

    Each item's first maximal class of the log joint
    (:func:`~repro.kernels.estep.log_joint_labels`): no posterior, no
    pooled workspace, only ``(LABEL_BLOCK, n_classes)`` scratch per chunk.
    """
    out = [log_joint_labels(chunk, clf) for chunk in _chunks(db, clf)]
    return _concat(out, (0,), np.int64)


def predict_logproba(db: Database, clf: "Classification") -> np.ndarray:
    """``(n_items, n_classes)`` log posterior membership."""
    return score_batch(db, clf).log_proba


def predict_proba(db: Database, clf: "Classification") -> np.ndarray:
    """``(n_items, n_classes)`` posterior membership probabilities."""
    out = score_batch(db, clf).log_proba
    np.exp(out, out=out)
    return out


def score_samples(db: Database, clf: "Classification") -> np.ndarray:
    """Per-item log evidence ``log p(x_i)``, ``(n_items,)``."""
    out = [le.copy() for _, _, le in _posteriors(db, clf)]
    return _concat(out, (0,), np.float64)


def score(db: Database, clf: "Classification") -> float:
    """Mean per-item log evidence (sklearn's mixture ``score``).

    The sum accumulates chunk by chunk with O(chunk) peak heap; a
    streamed mean agrees with the in-memory one at summation-order
    tolerance.
    """
    if db.n_items == 0:
        raise ValueError("cannot score an empty database")
    total = 0.0
    for _, _, le in _posteriors(db, clf):
        total += float(le.sum())
    return total / db.n_items


class Inference:
    """The sklearn-shaped inference surface, written once.

    :class:`repro.api.Run`, :class:`repro.serve.artifact.FittedModel`
    and the estimators all score through the functions above; they
    differ only in where the classification comes from, which is the
    one hook they implement.
    """

    def _classification(self) -> "Classification":
        """The classification to score with."""
        raise NotImplementedError

    def _score_with(self, fn, db: Database):
        return fn(db, self._classification())

    def predict(self, db: Database) -> np.ndarray:
        """Hard class assignment per item, ``(n_items,)`` int64."""
        return self._score_with(predict, db)

    def predict_proba(self, db: Database) -> np.ndarray:
        """``(n_items, n_classes)`` posterior membership probabilities."""
        return self._score_with(predict_proba, db)

    def predict_logproba(self, db: Database) -> np.ndarray:
        """``(n_items, n_classes)`` log posterior membership."""
        return self._score_with(predict_logproba, db)

    def score_samples(self, db: Database) -> np.ndarray:
        """Per-item log evidence ``log p(x_i)``, ``(n_items,)``."""
        return self._score_with(score_samples, db)

    def score(self, db: Database) -> float:
        """Mean per-item log evidence (sklearn's mixture ``score``)."""
        return self._score_with(score, db)


def concat_databases(blocks: list[Database] | tuple[Database, ...]) -> Database:
    """Row-concatenate databases sharing a schema (the batching path).

    Column arrays are concatenated directly — the inputs are already
    normalized 1-D contiguous arrays, so no re-validation pass is paid
    per batch.
    """
    if not blocks:
        raise ValueError("concat_databases needs at least one block")
    first = blocks[0]
    if len(blocks) == 1:
        return first
    for b in blocks[1:]:
        if b.schema != first.schema:
            raise ValueError("cannot concatenate databases with different schemas")
    cols = []
    miss = []
    for i in range(len(first.schema)):
        c = np.concatenate([b.columns[i] for b in blocks])
        m = np.concatenate([b.missing[i] for b in blocks])
        c.setflags(write=False)
        m.setflags(write=False)
        cols.append(c)
        miss.append(m)
    return Database(first.schema, tuple(cols), tuple(miss))
