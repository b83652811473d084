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

File-level guarantees:

* **Versioned** — every file carries ``format_version``; a reader
  refuses versions it does not understand with :class:`CheckpointError`.
* **Keyed** — a digest over the search config, model spec, and global
  item count is stored and re-checked on load, so a checkpoint can
  never silently resume a *different* search.  The world size is
  deliberately *not* part of the key: the state is global, so a search
  checkpointed on P ranks may resume on Q ranks.
* **Atomic** — files are written by :func:`repro.util.docfile.write_json`
  (temp file, fsync, rename), so a reader (or a rank that died
  mid-write) only ever sees a complete previous checkpoint.
* **Clean failures** — a truncated, corrupt, or mismatched file raises
  :class:`CheckpointError`, never a bare pickle/JSON/IO error.
* **Not digested** — a per-cycle policy rewrites the file after every
  EM cycle, so a save costs one ``json.dumps`` and one ``fsync`` and
  nothing else; a damaged file fails the parse or the structural decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.engine.classification import Classification
from repro.engine.results_io import (
    decode_classification,
    decode_try,
    encode_classification,
    encode_config,
    encode_try,
)
from repro.engine.search import SearchConfig, SearchResult, TryResult
from repro.models.registry import ModelSpec
from repro.util import docfile

#: Version stamped into (and required of) every checkpoint file.
CKPT_FORMAT_VERSION = 1

#: The ``kind`` marker distinguishing checkpoints from results files.
CKPT_KIND = "pautoclass-checkpoint"

#: The ``kind`` marker of per-try checkpoint files (group-parallel search).
TRY_CKPT_KIND = "pautoclass-try-checkpoint"


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


def encode_checkpoint(
    key: str,
    result: SearchResult,
    in_progress: InProgressTry | None,
    rng_streams: dict[str, dict],
) -> dict:
    """Build the checkpoint payload (plain data; its ndarray leaves are
    inlined as lists by :func:`repro.util.docfile.write_json`)."""
    payload: dict = {
        "format_version": CKPT_FORMAT_VERSION,
        "kind": CKPT_KIND,
        "key": key,
        "completed_tries": [encode_try(t) for t in result.tries],
        "in_progress": None,
        "rng_streams": rng_streams,
    }
    if in_progress is not None:
        payload["in_progress"] = _in_progress_to_dict(in_progress)
    return payload


def decode_checkpoint(
    payload: dict, key: str, spec: ModelSpec
) -> CheckpointState:
    """Validate and decode a checkpoint payload against the live search.

    Raises :class:`CheckpointError` on any structural problem, version
    drift, or key mismatch (resuming a different search).
    """
    with docfile.decoding("checkpoint", CheckpointError):
        _check_envelope(payload, CKPT_KIND, key, "checkpoint")
        completed = [
            decode_try(entry, spec, CheckpointError)
            for entry in payload["completed_tries"]
        ]
        in_progress = None
        if payload.get("in_progress") is not None:
            in_progress = _in_progress_from_dict(payload["in_progress"], spec)
        return CheckpointState(
            key=key,
            completed_tries=completed,
            in_progress=in_progress,
            rng_streams=dict(payload.get("rng_streams", {})),
        )


# ---------------------------------------------------------------------------
# per-try checkpoint files (group-parallel search)

def encode_try_checkpoint(
    key: str,
    try_result: TryResult | None = None,
    in_progress: InProgressTry | None = None,
) -> dict:
    """One try's checkpoint payload — completed result or mid-try state.

    The group-parallel search checkpoints each try in its *own* file,
    written by the owning group's leader: groups complete tries in
    independent orders, so a single monotone ``completed_tries`` list
    has no well-defined writer.  The key is the same search digest as
    the monolithic format — it covers neither world size nor group
    count, which is precisely what lets a search resumed with a
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
    """Validate and decode a per-try checkpoint payload."""
    with docfile.decoding("try checkpoint", CheckpointError):
        _check_envelope(payload, TRY_CKPT_KIND, key, "per-try checkpoint")
        try_result = None
        if payload.get("try") is not None:
            try_result = decode_try(payload["try"], spec, CheckpointError)
        in_progress = None
        if payload.get("in_progress") is not None:
            in_progress = _in_progress_from_dict(payload["in_progress"], spec)
        return try_result, in_progress


# ---------------------------------------------------------------------------
# envelope

def _check_envelope(payload: dict, kind: str, key: str, what: str) -> None:
    """Kind, version and resume key of either checkpoint layout."""
    docfile.check(
        payload, what=what, error=CheckpointError,
        kind=("kind", kind), version=("format_version", CKPT_FORMAT_VERSION),
    )
    if payload.get("key") != key:
        raise CheckpointError(
            f"{what} belongs to a different search (config, model "
            "spec, or dataset changed since it was written)"
        )


def read_checkpoint_file(path) -> dict:
    """Parse a checkpoint file of either layout; any IO/parse problem is
    a :class:`CheckpointError`.  The envelope is checked by the decoders,
    which know the live key."""
    return docfile.read_json(path, what="checkpoint", error=CheckpointError)
