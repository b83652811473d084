"""The checkpoint file format — versioned, validated, atomic.

A checkpoint freezes the BIG_LOOP at one of its two well-defined cut
points (the same Allreduce boundaries :mod:`repro.obs` instruments):

* **per-try** — after a classification try has converged and been
  recorded (duplicate-eliminated or stored);
* **per-cycle** — after one EM ``base_cycle``, i.e. after both
  Allreduces, when parameters and scores are *global* and identical on
  every rank.

Because every decision the search takes downstream of a cut point is a
deterministic function of (a) the seed-derived RNG streams and (b) the
globally reduced scores, the captured state — completed tries with
their duplicate-elimination history, the in-progress try's parameters
+ convergence window, and the RNG stream states — is sufficient to
continue the run **bit-identically** to an uninterrupted one.  The
differential tests in ``tests/ckpt`` assert exactly that on all four
SPMD worlds.

Layout (version 2) — one directory, two kinds of document:

* ``try_NNNN.json`` (:data:`TRY_CKPT_KIND`) — one try: its completed
  result, or (one group of a try-grouped search) its mid-try state.  A
  completed try never changes, so its file is written exactly once;
* ``ckpt.json`` (:data:`CKPT_KIND`, a search that owns every try) — a
  small head: the resume key, how many completed tries the
  ``try_NNNN.json`` files hold, the in-progress try and the RNG
  streams.  It is the only file such a search's per-cycle save
  rewrites.

At a try boundary the try file lands first, then the directory entry
is fsynced, then the head is replaced, so a head on disk never names a
try file that is not.

File-level guarantees:

* **Versioned** — every file carries ``format_version``; a reader
  refuses versions it does not understand with :class:`CheckpointError`
  (version 1, the single-file layout with every finished try inline, is
  refused too).
* **Keyed** — a digest over the search config, model spec, and global
  item count is stored and re-checked on load, so a checkpoint can
  never silently resume a *different* search.  The world size is
  deliberately *not* part of the key: the state is global, so a search
  checkpointed on P ranks may resume on Q ranks.
* **Atomic** — each file is one :func:`repro.util.docfile.write_bytes`
  (temp file, fsync, rename), so a reader (or a rank that died
  mid-write) only ever sees a complete previous document.
* **Compact** — a document is :func:`repro.util.docfile.canonical_json`
  with its ndarray leaves embedded as base64 little-endian bytes
  (:func:`repro.util.docfile.embed_arrays`): one C-encoder pass, and
  bit-exact arrays by construction.
* **Clean failures** — a truncated, corrupt, or mismatched file raises
  :class:`CheckpointError`, never a bare JSON/base64/IO error.
* **Not digested** — a per-cycle policy rewrites the head after every
  EM cycle, so a save costs one small encode and one ``fsync``; a
  damaged file fails the parse or the structural decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.engine.classification import Classification
from repro.engine.results_io import (
    decode_classification,
    decode_try,
    encode_classification,
    encode_config,
    encode_try,
)
from repro.engine.search import SearchConfig, TryResult
from repro.models.registry import ModelSpec
from repro.util import docfile

#: Version stamped into (and required of) every checkpoint file.
CKPT_FORMAT_VERSION = 2

#: The ``kind`` marker of the head (``ckpt.json``).
CKPT_KIND = "pautoclass-checkpoint"

#: The ``kind`` marker of a one-try file (``try_NNNN.json``).
TRY_CKPT_KIND = "pautoclass-try-checkpoint"

#: File name of the head inside a checkpoint directory.
HEAD_NAME = "ckpt.json"


def try_file_name(try_index: int) -> str:
    """File name of try ``try_index``'s document."""
    return f"try_{try_index:04d}.json"


class CheckpointError(RuntimeError):
    """An unreadable, corrupt, truncated, or mismatched checkpoint."""


# ---------------------------------------------------------------------------
# resume-safety key

def checkpoint_key(
    config: SearchConfig, spec: ModelSpec, n_total_items: int,
    data_digest: str | None = None,
) -> str:
    """Digest identifying which search a checkpoint belongs to.

    Covers every input that determines the search trajectory: the full
    :class:`SearchConfig`, the model form (term models over attribute
    indices), and the global item count.  World size is excluded on
    purpose — resume may change it.  ``data_digest`` — the shard
    manifest digest of a streamed fit — folds the dataset identity in,
    so a resume against different shards is refused; ``None`` (plain
    in-memory fits) leaves the key unchanged from earlier versions.
    """
    spec_lines = [
        f"{term.spec_name}:{','.join(map(str, term.attribute_indices))}"
        for term in spec.terms
    ]
    key_fields = encode_config(config)
    del key_fields["max_seconds"]  # a wall-clock budget, not a trajectory input
    key_fields["spec"] = spec_lines
    key_fields["n_total_items"] = n_total_items
    if data_digest is not None:
        key_fields["data_digest"] = data_digest
    blob = json.dumps(key_fields, sort_keys=True)
    return docfile.sha256_hex(blob.encode("utf-8"))


# ---------------------------------------------------------------------------
# search state

@dataclass
class InProgressTry:
    """EM state of a try interrupted between cycles.

    ``classification`` is the post-cycle state (parameters *and*
    scores are global at the cut point); ``checker_history`` is the
    convergence window — restoring both and re-entering the cycle loop
    is indistinguishable from never having stopped.
    """

    try_index: int
    n_classes_requested: int
    classification: Classification
    checker_history: list[float]


@dataclass
class CheckpointState:
    """Everything a checkpoint captures, decoded and validated."""

    key: str
    completed_tries: list[TryResult]
    in_progress: InProgressTry | None
    rng_streams: dict[str, dict]

    @property
    def next_try_index(self) -> int:
        return len(self.completed_tries)


def _in_progress_to_dict(ip: InProgressTry) -> dict:
    return {
        "try_index": ip.try_index,
        "n_classes_requested": ip.n_classes_requested,
        "classification": encode_classification(ip.classification),
        "checker_history": list(ip.checker_history),
    }


def _in_progress_from_dict(entry: dict, spec: ModelSpec) -> InProgressTry:
    return InProgressTry(
        try_index=entry["try_index"],
        n_classes_requested=entry["n_classes_requested"],
        classification=decode_classification(
            entry["classification"], spec, CheckpointError
        ),
        checker_history=[float(x) for x in entry["checker_history"]],
    )


def checkpoint_bytes(payload: dict) -> bytes:
    """The on-disk form of either document: compact, arrays embedded."""
    return docfile.canonical_json(docfile.embed_arrays(payload))


# ---------------------------------------------------------------------------
# the head (ckpt.json)

def encode_checkpoint(
    key: str,
    n_completed: int,
    in_progress: InProgressTry | None,
    rng_streams: dict[str, dict],
) -> dict:
    """Build the head payload; tries ``0 .. n_completed-1`` are in their
    own files (:func:`encode_try_checkpoint`)."""
    return {
        "format_version": CKPT_FORMAT_VERSION,
        "kind": CKPT_KIND,
        "key": key,
        "n_completed": n_completed,
        "in_progress": (
            None if in_progress is None else _in_progress_to_dict(in_progress)
        ),
        "rng_streams": rng_streams,
    }


def decode_checkpoint(
    payload: dict, key: str, spec: ModelSpec, directory: str | Path
) -> CheckpointState:
    """Validate and decode a head against the live search.

    Each try it counts is read from its file in ``directory`` and must
    hold that completed try.  Raises :class:`CheckpointError` on any
    structural problem, version drift, or key mismatch (resuming a
    different search).
    """
    with docfile.decoding("checkpoint", CheckpointError):
        body = _open(payload, CKPT_KIND, key, "checkpoint")
        completed = []
        for i in range(body["n_completed"]):
            done, _ = decode_try_checkpoint(
                read_checkpoint_file(Path(directory) / try_file_name(i)),
                key, spec,
            )
            if done is None or done.try_index != i:
                raise CheckpointError(
                    f"checkpoint counts {body['n_completed']} completed "
                    f"tries but {try_file_name(i)} does not hold try {i}"
                )
            completed.append(done)
        in_progress = None
        if body["in_progress"] is not None:
            in_progress = _in_progress_from_dict(body["in_progress"], spec)
        return CheckpointState(
            key=key,
            completed_tries=completed,
            in_progress=in_progress,
            rng_streams=dict(body["rng_streams"]),
        )


# ---------------------------------------------------------------------------
# one try (try_NNNN.json)

def encode_try_checkpoint(
    key: str,
    try_result: TryResult | None = None,
    in_progress: InProgressTry | None = None,
) -> dict:
    """One try's payload — completed result or mid-try state.

    Every search keeps each completed try in its own file: so that a
    per-cycle save rewrites only the head, and because the groups of a
    try-grouped search complete tries in independent orders, so a
    single monotone list has no well-defined writer (a group also
    writes its mid-try state here).  The try is stored as it converged:
    duplicate links are assigned at the end of the search, so a link an
    older writer stored is recomputed on resume.  The key is the same
    search digest as the head's — it covers neither world size nor
    group count, which is precisely what lets a search resumed with a
    different ``try_groups`` pick these files up (tries are reassigned
    to groups, completed ones are skipped wherever they land).
    """
    if (try_result is None) == (in_progress is None):
        raise ValueError(
            "exactly one of try_result / in_progress must be given"
        )
    return {
        "format_version": CKPT_FORMAT_VERSION,
        "kind": TRY_CKPT_KIND,
        "key": key,
        "try": None if try_result is None else encode_try(try_result),
        "in_progress": (
            None if in_progress is None else _in_progress_to_dict(in_progress)
        ),
    }


def decode_try_checkpoint(
    payload: dict, key: str, spec: ModelSpec
) -> tuple[TryResult | None, InProgressTry | None]:
    """Validate and decode a one-try payload."""
    with docfile.decoding("try checkpoint", CheckpointError):
        body = _open(payload, TRY_CKPT_KIND, key, "per-try checkpoint")
        try_result = None
        if body["try"] is not None:
            try_result = decode_try(body["try"], spec, CheckpointError)
        in_progress = None
        if body["in_progress"] is not None:
            in_progress = _in_progress_from_dict(body["in_progress"], spec)
        return try_result, in_progress


# ---------------------------------------------------------------------------
# envelope

def _open(payload: dict, kind: str, key: str, what: str) -> dict:
    """Check kind, version and resume key; return the body with its
    arrays restored (call inside :func:`repro.util.docfile.decoding`)."""
    docfile.check(
        payload, what=what, error=CheckpointError,
        kind=("kind", kind), version=("format_version", CKPT_FORMAT_VERSION),
    )
    if payload.get("key") != key:
        raise CheckpointError(
            f"{what} belongs to a different search (config, model "
            "spec, or dataset changed since it was written)"
        )
    return docfile.unembed_arrays(payload)


def read_checkpoint_file(path) -> dict:
    """Parse a checkpoint file of either kind; any IO/parse problem is a
    :class:`CheckpointError`.  The envelope is checked by the decoders,
    which know the live key."""
    return docfile.read_json(path, what="checkpoint", error=CheckpointError)
