"""repro.serve — fitted-model artifacts and batched inference.

The serving layer the ROADMAP's production north star needs on top of
the paper's training machinery:

* :mod:`repro.serve.artifact` — the versioned, frozen, sha256-digested
  :class:`FittedModel` (JSON + npz save/load; carries spec, class
  params, mixture weights and the prior anchors);
* :mod:`repro.serve.scoring`  — batch ``predict`` (a blocked GEMM and
  argmax over the log joint) and ``predict_logproba`` / ``score``
  (allocation-free, over the :mod:`repro.kernels` plan/workspace
  machinery);
* :mod:`repro.serve.scorer`   — the micro-batching in-process
  :class:`Scorer` (bounded queue, dynamic batching on one worker
  thread, backpressure, per-request deadlines);
* :mod:`repro.serve.sharded`  — data-parallel bulk scoring on all four
  SPMD worlds.

Quick start::

    run = AutoClass(start_j_list=(4,), max_n_tries=1, seed=7).fit(db)
    model = FittedModel.from_run(run, db)
    model.save("model")                     # model.json + model.npz
    model = FittedModel.load("model")
    labels = model.predict(new_db)

    with Scorer(model, ScorerConfig(max_batch=128)) as scorer:
        pending = [scorer.submit(block) for block in request_blocks]
        results = [p.result().labels for p in pending]
"""

from repro.serve.artifact import ARTIFACT_VERSION, ArtifactError, FittedModel
from repro.serve.scorer import (
    PendingResult,
    QueueSaturated,
    RequestTimeout,
    Scorer,
    ScorerClosed,
    ScorerConfig,
    ServeError,
)
from repro.serve.scoring import (
    BatchScores,
    concat_databases,
    predict,
    predict_logproba,
    predict_proba,
    score,
    score_batch,
    score_samples,
)
from repro.serve.sharded import (
    SHARD_BACKENDS,
    sharded_predict,
    sharded_score_batch,
    sharded_score_rank,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "BatchScores",
    "FittedModel",
    "PendingResult",
    "QueueSaturated",
    "RequestTimeout",
    "SHARD_BACKENDS",
    "Scorer",
    "ScorerClosed",
    "ScorerConfig",
    "ServeError",
    "concat_databases",
    "predict",
    "predict_logproba",
    "predict_proba",
    "score",
    "score_batch",
    "score_samples",
    "sharded_predict",
    "sharded_score_batch",
    "sharded_score_rank",
]
