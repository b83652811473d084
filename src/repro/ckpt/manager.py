"""Checkpoint policy + IO orchestration for the search loops.

A :class:`Checkpointer` owns one checkpoint directory and a write
policy.  The SPMD contract is **rank 0 writes, all ranks restore**:
every rank holds a Checkpointer for the same directory, but only the
writer rank serializes state (the state is identical on every rank at
a cut point, so one copy is enough); at resume time every rank reads
the same files and therefore starts from byte-identical state — no
broadcast needed.

Policies (:data:`CHECKPOINT_POLICIES`):

* ``"off"``       — never write (the null object; loops stay branchless);
* ``"per_try"``   — write at try boundaries only (cheapest, the
  recommended default: a restart repeats at most one try);
* ``"per_cycle"`` — additionally write after every non-final EM cycle
  (a restart repeats at most one cycle).

Each save — one cut point, however many files it writes — is timed as
the ``ckpt`` phase and counted in the ``ckpt_saves`` counter of the
ambient :mod:`repro.obs` recorder, so instrumented runs attribute their
checkpoint traffic.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path

from repro.ckpt.format import (
    HEAD_NAME,
    CheckpointState,
    InProgressTry,
    checkpoint_bytes,
    checkpoint_key,
    decode_checkpoint,
    decode_try_checkpoint,
    encode_checkpoint,
    encode_try_checkpoint,
    read_checkpoint_file,
    try_file_name,
)
from repro.engine.search import SearchConfig, SearchResult
from repro.models.registry import ModelSpec
from repro.obs import recorder as obs
from repro.util.docfile import fsync_dir, write_bytes
from repro.util.rng import SeedSequenceStream

#: Valid ``checkpoint=`` policies of the fit APIs.
CHECKPOINT_POLICIES = ("off", "per_try", "per_cycle")


def check_policy(policy: str) -> str:
    """Validate a ``checkpoint=`` argument."""
    if policy not in CHECKPOINT_POLICIES:
        raise ValueError(
            f"checkpoint policy {policy!r} not in {CHECKPOINT_POLICIES}"
        )
    return policy


@dataclass(frozen=True)
class CheckpointSpec:
    """Picklable description of a checkpoint setup.

    This is what crosses process boundaries (the ``processes`` world
    pickles the SPMD entry's arguments); each rank materializes its own
    :class:`Checkpointer` from it via :meth:`build`.
    """

    directory: str
    policy: str = "per_try"
    resume: bool = True

    def __post_init__(self) -> None:
        check_policy(self.policy)
        if self.policy == "off":
            raise ValueError("CheckpointSpec with policy 'off' is pointless; "
                             "pass checkpointer=None instead")

    def build(self, rank: int = 0) -> "Checkpointer":
        return Checkpointer(
            self.directory,
            policy=self.policy,
            resume=self.resume,
            rank=rank,
        )


class Checkpointer:
    """One search's checkpoint directory, with rank-0-writes semantics."""

    def __init__(
        self,
        directory: str | Path,
        *,
        policy: str = "per_try",
        resume: bool = True,
        rank: int = 0,
    ) -> None:
        check_policy(policy)
        if policy == "off":
            raise ValueError(
                "Checkpointer(policy='off') is pointless; pass None instead"
            )
        self.directory = Path(directory)
        self.policy = policy
        self.resume = resume
        self.rank = rank
        self.path = self.directory / HEAD_NAME
        self._key: str | None = None
        self.n_saves = 0
        #: Completed tries already in their own files: the sequential
        #: writer writes each try file once (``load`` sets the count).
        self.n_tries_written = 0

    # -- binding -----------------------------------------------------------

    @property
    def is_writer(self) -> bool:
        return self.rank == 0

    def bind(
        self, config: SearchConfig, spec: ModelSpec, n_total_items: int,
        data_digest: str | None = None,
    ) -> None:
        """Fix the resume-safety key for this search (call before use).

        ``data_digest`` (streamed fits: the shard manifest digest)
        keys the checkpoint to the dataset as well, so resuming a
        streamed search against different shards is refused.
        """
        self._key = checkpoint_key(
            config, spec, n_total_items, data_digest=data_digest
        )
        self.n_tries_written = 0

    def _require_key(self) -> str:
        if self._key is None:
            raise RuntimeError("Checkpointer.bind() must be called first")
        return self._key

    # -- restore (all ranks) ----------------------------------------------

    def load(self, spec: ModelSpec) -> CheckpointState | None:
        """Read + validate the checkpoint; None when absent or resume=False.

        A present-but-corrupt head or try file raises
        :class:`~repro.ckpt.format.CheckpointError` — a half-written
        temp file can never be picked up because writes are atomic.
        """
        key = self._require_key()
        if not self.resume or not self.path.exists():
            return None
        state = decode_checkpoint(
            read_checkpoint_file(self.path), key, spec, self.directory
        )
        self.n_tries_written = state.next_try_index
        return state

    # -- save (rank 0 only) ------------------------------------------------

    @contextlib.contextmanager
    def _cut_point(self):
        """One save: timed as the ``ckpt`` phase, counted once."""
        rec = obs.current()
        with rec.phase("ckpt"):
            yield
        self.n_saves += 1
        rec.count("ckpt_saves")

    def _write(self, path: Path, payload: dict) -> None:
        write_bytes(path, checkpoint_bytes(payload))

    def save(
        self,
        result: SearchResult,
        stream: SeedSequenceStream,
        in_progress: InProgressTry | None = None,
    ) -> None:
        """Atomically persist the search state (no-op off the writer rank).

        Tries completed since the last save get their own files first;
        once those entries are durable the head is replaced.  A
        per-cycle save therefore writes the head alone.
        """
        if not self.is_writer:
            return
        key = self._require_key()
        with self._cut_point():
            new = result.tries[self.n_tries_written:]
            for t in new:
                self._write(
                    self.try_path(t.try_index),
                    encode_try_checkpoint(key, try_result=t),
                )
            if new:
                fsync_dir(self.directory)
                self.n_tries_written = len(result.tries)
            self._write(self.path, encode_checkpoint(
                key, len(result.tries), in_progress, stream.state_dict()
            ))

    def save_boundary(self, result: SearchResult, stream: SeedSequenceStream) -> None:
        """Per-try cut point: all recorded tries are complete."""
        self.save(result, stream, in_progress=None)

    def save_cycle(
        self,
        result: SearchResult,
        stream: SeedSequenceStream,
        *,
        try_index: int,
        n_classes_requested: int,
        clf,
        checker,
    ) -> None:
        """Per-cycle cut point: freeze the in-progress try's EM state.

        The search wires it in only under ``policy="per_cycle"`` and
        calls it after every non-final cycle.  ``clf`` is the post-cycle
        classification (``clf.n_cycles`` is the 1-based cycle count
        within the try) and ``checker`` the live convergence checker
        whose history *includes* this cycle's score.
        """
        self.save(
            result,
            stream,
            in_progress=InProgressTry(
                try_index=try_index,
                n_classes_requested=n_classes_requested,
                classification=clf,
                checker_history=list(checker.history),
            ),
        )

    # -- per-try files (group-parallel search) -----------------------------
    #
    # A try-parallel search (``try_groups > 1``) has no single writer for
    # a monotone completed-tries list — groups finish tries in
    # independent orders.  Instead, *each group's leader* persists its
    # own tries, one file per try.  These methods are deliberately not
    # gated on ``is_writer`` (a world-rank-0 notion): the caller gates on
    # the group-leader rank of its sub-communicator.

    def try_path(self, try_index: int) -> Path:
        """Path of try ``try_index``'s own checkpoint file."""
        return self.directory / try_file_name(try_index)

    def save_try(self, try_result) -> None:
        """Persist one completed try (called by its group's leader)."""
        payload = encode_try_checkpoint(
            self._require_key(), try_result=try_result
        )
        with self._cut_point():
            self._write(self.try_path(try_result.try_index), payload)

    def save_try_cycle(
        self, *, try_index: int, n_classes_requested: int, clf, checker
    ) -> None:
        """Per-cycle cut point of a group-owned try (leader only).

        Wired in like :meth:`save_cycle`; the in-progress state
        overwrites the try's file and is replaced by the completed
        result when the try converges.
        """
        payload = encode_try_checkpoint(
            self._require_key(),
            in_progress=InProgressTry(
                try_index=try_index,
                n_classes_requested=n_classes_requested,
                classification=clf,
                checker_history=list(checker.history),
            ),
        )
        with self._cut_point():
            self._write(self.try_path(try_index), payload)

    def load_tries(
        self, spec: ModelSpec
    ) -> tuple[dict, dict]:
        """Read every per-try checkpoint file in the directory.

        Returns ``(completed, in_progress)`` — both keyed by try index.
        The search key is validated per file; a file from a different
        search raises.  Because the key excludes world size *and* group
        count, a resume may use any ``try_groups``: completed tries are
        skipped by whichever group they are reassigned to.
        """
        completed: dict[int, object] = {}
        partial: dict[int, InProgressTry] = {}
        if not self.resume or not self.directory.exists():
            return completed, partial
        key = self._require_key()
        for path in sorted(self.directory.glob("try_*.json")):
            try_result, in_progress = decode_try_checkpoint(
                read_checkpoint_file(path), key, spec
            )
            if try_result is not None:
                completed[try_result.try_index] = try_result
            elif in_progress is not None:
                partial[in_progress.try_index] = in_progress
        return completed, partial
