"""One good sample of every kind of on-disk document, with its loader.

Shared by the typed-error matrix (``test_docfile.py``) and the
corruption property (``test_docfile_fuzz.py``): both damage the
sample's bytes and require the kind's own loader to answer with the
kind's own exception type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.api import AutoClass
from repro.ckpt import (
    CheckpointError,
    Checkpointer,
    InProgressTry,
    checkpoint_key,
    decode_checkpoint,
    read_checkpoint_file,
)
from repro.ckpt.format import decode_try_checkpoint
from repro.data.shards import (
    MANIFEST_NAME,
    ShardCorruptionError,
    ShardedDatabase,
    ShardFormatError,
)
from repro.data.synth import make_mixed_database
from repro.engine.results_io import (
    ResultsFormatError,
    load_classification,
    load_search_result,
    save_classification,
    save_search_result,
)
from repro.engine.search import SearchResult
from repro.models.summary import DataSummary
from repro.serve.artifact import ArtifactError, FittedModel
from repro.util.rng import SeedSequenceStream
from repro.verify.harness import corpus_case, load_golden, write_golden
from repro.verify.trace import pack_term_params


@dataclass
class Kind:
    name: str
    #: Every file of the document (the artifact has two); ``files[0]``
    #: is the JSON one the structural faults are applied to.
    files: tuple[Path, ...]
    #: Loads the document from ``files`` and returns a value that is
    #: equal for two loads iff they are bitwise the same object.
    load: Callable[[], object]
    #: The exception types this kind's loader is allowed to raise.
    typed: tuple[type[Exception], ...]
    #: Carries a digest: a load that succeeds equals the original.
    digested: bool
    #: Path of keys to the format version integer.
    version_key: tuple[str, ...]
    #: A top-level key no load can do without.
    required_key: str

    def doc(self) -> dict:
        return json.loads(self.files[0].read_bytes())


def _clf_identity(clf):
    scores = clf.scores
    return (
        clf.n_classes, clf.n_cycles, clf.log_pi.tobytes(),
        tuple(pack_term_params(clf)),
        None if scores is None else (
            scores.log_marginal_cs, scores.log_lik_obs,
            scores.log_map_objective, scores.w_j.tobytes(), scores.n_items,
        ),
    )


def _tries_identity(tries):
    return tuple(
        (t.try_index, t.n_classes_requested, t.converged, t.n_cycles,
         t.duplicate_of, _clf_identity(t.classification))
        for t in tries
    )


def build_kinds(root: Path) -> dict[str, Kind]:
    """Write one sample of each kind under ``root``."""
    db, _ = make_mixed_database(90, missing_rate=0.2, seed=5)
    est = AutoClass(
        start_j_list=(2, 3), max_n_tries=2, seed=3, max_cycles=6,
        init_method="sharp",
    )
    run = est.fit(db)
    result, spec = run.result, run.best.classification.spec
    summary = DataSummary.from_database(db)
    key = checkpoint_key(est.config, spec, db.n_items)

    # the head mid-try 1, with try 0 in its own file
    ck = Checkpointer(root / "ck", policy="per_cycle")
    ck.bind(est.config, spec, db.n_items)
    stream = SeedSequenceStream(est.config.seed)
    stream.child("try", 1).random()
    second = result.tries[1]
    ck.save(
        SearchResult(config=est.config, tries=result.tries[:1]), stream,
        in_progress=InProgressTry(
            try_index=1, n_classes_requested=second.n_classes_requested,
            classification=second.classification,
            checker_history=[-812.25, -811.0625],
        ),
    )
    # a try-grouped leader's completed try: a group keeps no head
    grouped = Checkpointer(root / "ck_try", policy="per_try").for_group(0)
    grouped.bind(est.config, spec, db.n_items)
    grouped.save_boundary(
        SearchResult(config=est.config, tries=[second]), stream
    )
    try_path = grouped.try_path(1)

    search_path, clf_path = root / "search.json", root / "best.results.json"
    save_search_result(result, summary, search_path)
    save_classification(result.best.classification, summary, clf_path)

    json_path, npz_path = run.fitted(db).save(root / "model")

    ShardedDatabase.from_database(db, root / "shards", shard_items=32)

    case = corpus_case("paper-tiny")
    golden = write_golden(case, "fused", root / "golden")

    def load_ckpt():
        state = decode_checkpoint(
            read_checkpoint_file(ck.path), key, spec, ck.directory
        )
        in_progress = state.in_progress
        return (
            _tries_identity(state.completed_tries), state.rng_streams,
            None if in_progress is None
            else _clf_identity(in_progress.classification),
        )

    def load_try():
        done, partial = decode_try_checkpoint(
            read_checkpoint_file(try_path), key, spec
        )
        return (
            None if done is None else _tries_identity([done]),
            None if partial is None
            else _clf_identity(partial.classification),
        )

    def load_golden_sample():
        digest, trace = load_golden(case.name, "fused", root / "golden")
        return digest, trace.digest()

    kinds = [
        Kind("checkpoint", (ck.path, ck.try_path(0)), load_ckpt,
             (CheckpointError,), False, ("format_version",), "n_completed"),
        Kind("try-checkpoint", (try_path,), load_try, (CheckpointError,),
             False, ("format_version",), "key"),
        Kind("results-search", (search_path,),
             lambda: _tries_identity(load_search_result(search_path).tries),
             (ResultsFormatError,), False, ("format_version",), "config"),
        Kind("results-classification", (clf_path,),
             lambda: _clf_identity(load_classification(clf_path)[0]),
             (ResultsFormatError,), False, ("format_version",), "schema"),
        Kind("artifact", (json_path, npz_path),
             lambda: FittedModel.load(root / "model").digest,
             (ArtifactError,), True, ("artifact_version",), "schema"),
        Kind("shard-manifest", (root / "shards" / MANIFEST_NAME,),
             lambda: ShardedDatabase.open(root / "shards").manifest_digest,
             (ShardFormatError, ShardCorruptionError), True,
             ("format_version",), "shards"),
        Kind("golden-trace", (golden,), load_golden_sample, (ValueError,),
             True, ("trace", "trace_version"), "trace"),
    ]
    return {k.name: k for k in kinds}


KIND_NAMES = (
    "checkpoint", "try-checkpoint", "results-search",
    "results-classification", "artifact", "shard-manifest", "golden-trace",
)
