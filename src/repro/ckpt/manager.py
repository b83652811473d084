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
  recommended default: a restart repeats at most one try, two if the
  previous try's save was still in flight);
* ``"per_cycle"`` — additionally write after every non-final EM cycle
  (a restart repeats at most two cycles).

Each save — one cut point, however many files it writes — is timed as
the ``ckpt`` phase and counted in the ``ckpt_saves`` counter of the
ambient :mod:`repro.obs` recorder, so instrumented runs attribute their
checkpoint traffic.

A search writes *behind* its cycles (:meth:`Checkpointer.background`):
at a cut point the cycle thread encodes the state and hands the bytes
to one writer thread, whose writes, fsyncs and renames overlap the
next EM cycle.  (The encode stays on the cycle thread: it holds the
GIL, and done on the writer it slowed the cycle more than it saved.)
At most one save is in flight — a hand-off first waits for the previous
save to land — and the writer lands each save through the
checkpointer's own :meth:`~Checkpointer.save`, in hand-off order, so
the try file / directory fsync / head order holds.  The search drains
the writer on every exit path: a fit returns only once its last save
has landed.  The ``ckpt`` phase then times what the cycle spends
(encode, hand-off, wait), and the writer's own time is counted in
``ckpt_write_us``.  Calls outside a search are synchronous.
"""

from __future__ import annotations

import contextlib
import logging
import time
from concurrent.futures import Future, ThreadPoolExecutor
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

logger = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class _RngSnapshot:
    """A stream's RNG states as they stood at a cut point (what
    :meth:`Checkpointer.save` reads of a stream)."""

    states: dict

    def state_dict(self) -> dict:
        return self.states


class _Writer:
    """One search's background writer: a thread that runs the search's
    saves in hand-off order, at most one in flight.

    A failed save stays pending: every later :meth:`submit` and the
    closing :meth:`wait` re-raise its error, so nothing handed over
    behind it — above all a head naming an unwritten try file — runs.
    """

    def __init__(self) -> None:
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="ckpt-writer")
        self._pending: Future | None = None
        self.busy_seconds = 0.0

    def _run(self, save, args: tuple) -> None:
        t0 = time.perf_counter()
        try:
            save(*args)
        finally:
            self.busy_seconds += time.perf_counter() - t0

    def submit(self, save, *args) -> None:
        """Run ``save(*args)`` on the thread once the previous save has
        landed; its arguments are bound now, by value."""
        self.wait()
        self._pending = self._pool.submit(self._run, save, args)

    def wait(self) -> None:
        """Block until the save in flight has landed; raise its error."""
        if self._pending is not None:
            self._pending.result()
            self._pending = None

    def close(self, *, check: bool) -> None:
        """Let the save in flight land and stop the thread.  A failed
        save is raised under ``check`` (the search itself did not fail)
        and logged otherwise."""
        try:
            self.wait()
        except Exception:
            if check:
                raise
            logger.warning("checkpoint save failed", exc_info=True)
        finally:
            self._pool.shutdown(wait=True)


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
        self._writer: _Writer | None = None
        #: What :meth:`save` lands instead of encoding (writer thread).
        self._encoded: tuple | None = None

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
    def background(self, enabled: bool = True):
        """Within: cut points are written behind the search by one thread.

        ``enabled`` is false off the rank that writes (rank 0 of a
        replicated search, a group leader of a grouped one): no thread.
        On exit the save in flight lands, whatever the exit path; a
        failed save is raised unless the search is already failing.
        """
        if not enabled:
            yield
            return
        writer = self._writer = _Writer()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._writer = None
            writer.close(check=ok)
        obs.current().count(
            "ckpt_write_us", round(writer.busy_seconds * 1e6)
        )

    def _cut(self, land, encode, *args) -> None:
        """One cut point of a search: ``land(*encode(*args))``.

        ``encode`` runs on this thread; its result holds every byte the
        save writes, so the state may move on at once.  Behind a writer
        it runs once the previous save has landed (reading what that
        save counted) and ``land`` runs on the writer thread.  That
        thread has no recorder, so the cut point is timed (encode,
        hand-off, the wait) and counted here.
        """
        writer = self._writer
        if writer is None:
            land(*encode(*args))
            return
        rec = obs.current()
        with rec.phase("ckpt"):
            writer.wait()
            writer.submit(land, *encode(*args))
        rec.count("ckpt_saves")

    @contextlib.contextmanager
    def _cut_point(self):
        """One save: timed as the ``ckpt`` phase, counted once."""
        rec = obs.current()
        with rec.phase("ckpt"):
            yield
        self.n_saves += 1
        rec.count("ckpt_saves")

    def _encode(
        self, tries: list, rng_states: dict, in_progress: InProgressTry | None
    ) -> tuple[list[tuple[Path, bytes]], bytes]:
        """The bytes of one save: a file for each try completed since the
        last save, and the head."""
        key = self._require_key()
        files = [
            (
                self.try_path(t.try_index),
                checkpoint_bytes(encode_try_checkpoint(key, try_result=t)),
            )
            for t in tries[self.n_tries_written:]
        ]
        head = checkpoint_bytes(
            encode_checkpoint(key, len(tries), in_progress, rng_states)
        )
        return files, head

    def save(
        self,
        result: SearchResult,
        stream: SeedSequenceStream,
        in_progress: InProgressTry | None = None,
    ) -> None:
        """Atomically persist the search state (no-op off the writer rank).

        Tries completed since the last save get their own files first;
        once those entries are durable the head is replaced.  A
        per-cycle save therefore writes the head alone.  On a search's
        writer thread it lands the bytes its cut point already encoded
        (:meth:`_save_encoded`).
        """
        if not self.is_writer:
            return
        with self._cut_point():
            encoded, self._encoded = self._encoded, None
            if encoded is None:
                encoded = self._encode(
                    result.tries, stream.state_dict(), in_progress
                )
            files, head = encoded
            for path, data in files:
                write_bytes(path, data)
            if files:
                fsync_dir(self.directory)
                self.n_tries_written = len(result.tries)
            write_bytes(self.path, head)

    def _snapshot(
        self,
        result: SearchResult,
        stream: SeedSequenceStream,
        in_progress: InProgressTry | None,
    ) -> tuple:
        """The state at a cut point, encoded and copied: the arguments of
        :meth:`_save_encoded`, bound by value."""
        states = stream.state_dict()
        return (
            self._encode(result.tries, states, in_progress),
            SearchResult(config=result.config, tries=list(result.tries)),
            _RngSnapshot(states),
            in_progress,
        )

    def _save_encoded(self, encoded, result, stream, in_progress) -> None:
        """:meth:`save`, landing ``encoded`` rather than encoding again:
        the encode holds the GIL, so it stays on the search's thread."""
        self._encoded = encoded
        try:
            self.save(result, stream, in_progress)
        finally:
            self._encoded = None

    def save_boundary(self, result: SearchResult, stream: SeedSequenceStream) -> None:
        """Per-try cut point: all recorded tries are complete."""
        if self.is_writer:
            self._cut(self._save_encoded, self._snapshot, result, stream, None)

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
        if self.is_writer:
            self._cut(
                self._save_encoded, self._snapshot, result, stream,
                InProgressTry(
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
        self._cut(
            self._write_try_file, self._encode_try, try_result.try_index,
            try_result, None,
        )

    def save_try_cycle(
        self, *, try_index: int, n_classes_requested: int, clf, checker
    ) -> None:
        """Per-cycle cut point of a group-owned try (leader only).

        Wired in like :meth:`save_cycle`; the in-progress state
        overwrites the try's file and is replaced by the completed
        result when the try converges.
        """
        self._cut(
            self._write_try_file, self._encode_try, try_index, None,
            InProgressTry(
                try_index=try_index,
                n_classes_requested=n_classes_requested,
                classification=clf,
                checker_history=list(checker.history),
            ),
        )

    def _encode_try(
        self, try_index: int, try_result, in_progress: InProgressTry | None
    ) -> tuple[Path, bytes]:
        return self.try_path(try_index), checkpoint_bytes(
            encode_try_checkpoint(
                self._require_key(), try_result=try_result,
                in_progress=in_progress,
            )
        )

    def _write_try_file(self, path: Path, data: bytes) -> None:
        with self._cut_point():
            write_bytes(path, data)

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
