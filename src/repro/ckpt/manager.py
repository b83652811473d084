"""Checkpoint policy + IO orchestration for the search loops.

A :class:`Checkpointer` owns one checkpoint directory and a write
policy.  The SPMD contract is **rank 0 of the group writes, all ranks
restore**: every rank holds a Checkpointer for the same directory, but
only rank 0 of the search's communicator — the world, or one try group
of a try-grouped search — serializes state (the state is identical on
every rank of that communicator at a cut point, so one copy is
enough); at resume time every rank reads the same files through one
:meth:`Checkpointer.restore` and therefore starts from byte-identical
state — no broadcast needed.

Which files a cut point writes is the checkpointer's decision alone:

* a search that owns every try (sequential, or the paper's row split)
  writes each newly completed try's file, then the head;
* one group of a try-grouped search (:meth:`Checkpointer.for_group`)
  owns only some tries, so it keeps no head: it writes a completed
  try's file, and at a per-cycle cut point puts the in-progress state
  in that try's file.

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
    """One search's checkpoint directory, written by rank 0 of the search."""

    def __init__(
        self,
        directory: str | Path,
        *,
        policy: str = "per_try",
        resume: bool = True,
        rank: int = 0,
        whole: bool = True,
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
        #: The search owns every try, so its cut points keep the head
        #: (false for one try group: :meth:`for_group`).
        self.whole = whole
        self.path = self.directory / HEAD_NAME
        self._key: str | None = None
        self.n_saves = 0
        #: Completed tries whose files are on disk: each is written once
        #: (:meth:`restore` fills it from the directory).
        self._on_disk: set[int] = set()
        self._writer: _Writer | None = None
        #: What :meth:`save` lands instead of encoding (writer thread).
        self._encoded: tuple | None = None

    def for_group(self, rank: int) -> "Checkpointer":
        """This directory's checkpointer for one group of a try-grouped
        search, held by the group's rank ``rank``."""
        return Checkpointer(
            self.directory, policy=self.policy, resume=self.resume,
            rank=rank, whole=False,
        )

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
        self._on_disk = set()

    def _require_key(self) -> str:
        if self._key is None:
            raise RuntimeError("Checkpointer.bind() must be called first")
        return self._key

    # -- restore (all ranks) ----------------------------------------------

    def load(self, spec: ModelSpec) -> CheckpointState | None:
        """Read + validate the head; None when absent or resume=False.

        A present-but-corrupt head or try file raises
        :class:`~repro.ckpt.format.CheckpointError` — a half-written
        temp file can never be picked up because writes are atomic.
        """
        key = self._require_key()
        if not self.resume or not self.path.exists():
            return None
        return decode_checkpoint(
            read_checkpoint_file(self.path), key, spec, self.directory
        )

    def load_tries(
        self, spec: ModelSpec, skip: int = 0
    ) -> tuple[dict, dict]:
        """Read the per-try checkpoint files in the directory, all but
        those of tries ``0 .. skip-1`` (which a head has read).

        Returns ``(completed, in_progress)`` — both keyed by try index.
        The search key is validated per file; a file from a different
        search raises.
        """
        completed: dict[int, object] = {}
        partial: dict[int, InProgressTry] = {}
        if not self.resume or not self.directory.exists():
            return completed, partial
        key = self._require_key()
        read = {try_file_name(k) for k in range(skip)}
        for path in sorted(self.directory.glob("try_*.json")):
            if path.name in read:
                continue
            try_result, in_progress = decode_try_checkpoint(
                read_checkpoint_file(path), key, spec
            )
            if try_result is not None:
                completed[try_result.try_index] = try_result
            elif in_progress is not None:
                partial[in_progress.try_index] = in_progress
        return completed, partial

    def restore(self, spec: ModelSpec) -> tuple[dict, dict, dict]:
        """The one restore of every search, on every rank and any G.

        Returns ``(completed, in_progress, rng_streams)``: the completed
        tries of the try files and the in-progress tries of the try
        files and the head, keyed by try index, and the head's RNG
        states (``{}`` without a head).  A try completed in its file is
        never resumed; one held in progress by both the head and its
        file resumes from whichever has run more cycles — both are
        points of one deterministic trajectory.  The key excludes world
        size and group count, so whichever group owns a try on the
        resuming world picks it up.
        """
        state = self.load(spec)
        counted = [] if state is None else state.completed_tries
        completed, partial = self.load_tries(spec, skip=len(counted))
        completed.update((t.try_index, t) for t in counted)
        rng_streams: dict = {}
        if state is not None:
            rng_streams = state.rng_streams
            head = state.in_progress
            if head is not None and head.try_index not in completed:
                other = partial.get(head.try_index)
                if other is None or (
                    head.classification.n_cycles
                    >= other.classification.n_cycles
                ):
                    partial[head.try_index] = head
        self._on_disk = set(completed)
        return completed, partial, rng_streams

    # -- save (the writer rank) -------------------------------------------

    @contextlib.contextmanager
    def background(self):
        """Within: cut points are written behind the search by one thread.

        Only the writer rank starts one.  On exit the save in flight
        lands, whatever the exit path; a failed save is raised unless
        the search is already failing.
        """
        if not self.is_writer:
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

    def _cut(
        self,
        result: SearchResult,
        stream: SeedSequenceStream,
        in_progress: InProgressTry | None,
    ) -> None:
        """One cut point of a search, on the writer rank.

        Behind a writer the state is encoded here, once the previous
        save has landed (reading which tries it put on disk), and landed
        on the writer thread; the encoded bytes are all the save writes,
        so the search may move on at once.  That thread has no recorder,
        so the cut point is timed (encode, hand-off, the wait) and
        counted here.  Without a writer it is a plain :meth:`save`.
        """
        writer = self._writer
        if writer is None:
            self.save(result, stream, in_progress)
            return
        rec = obs.current()
        with rec.phase("ckpt"):
            writer.wait()
            writer.submit(
                self._save_encoded, *self._snapshot(result, stream, in_progress)
            )
        rec.count("ckpt_saves")

    @contextlib.contextmanager
    def _cut_point(self):
        """One save: timed as the ``ckpt`` phase, counted once."""
        rec = obs.current()
        with rec.phase("ckpt"):
            yield
        self.n_saves += 1
        rec.count("ckpt_saves")

    def try_path(self, try_index: int) -> Path:
        """Path of try ``try_index``'s own checkpoint file."""
        return self.directory / try_file_name(try_index)

    def _encode(
        self, tries: list, rng_states: dict, in_progress: InProgressTry | None
    ) -> tuple[list[tuple[Path, bytes]], bytes | None]:
        """The bytes of one save: a file for each completed try not yet
        on disk, then the head — or, for a try group, no head and the
        in-progress try's own file."""
        key = self._require_key()
        files = [
            (
                self.try_path(t.try_index),
                checkpoint_bytes(encode_try_checkpoint(key, try_result=t)),
            )
            for t in tries
            if t.try_index not in self._on_disk
        ]
        if self.whole:
            return files, checkpoint_bytes(
                encode_checkpoint(key, len(tries), in_progress, rng_states)
            )
        if in_progress is not None:
            files.append((
                self.try_path(in_progress.try_index),
                checkpoint_bytes(
                    encode_try_checkpoint(key, in_progress=in_progress)
                ),
            ))
        return files, None

    def save(
        self,
        result: SearchResult,
        stream: SeedSequenceStream,
        in_progress: InProgressTry | None = None,
    ) -> None:
        """Atomically persist the search state (no-op off the writer rank).

        Completed tries not yet on disk get their own files first; once
        those entries are durable the head is replaced.  A per-cycle
        save of a whole search therefore writes the head alone, and one
        of a try group its live try's file alone.  On a search's writer
        thread it lands the bytes its cut point already encoded
        (:meth:`_save_encoded`).  ``result.tries`` of a whole search are
        tries ``0 .. n-1``: the head counts them.
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
            if head is not None:
                if files:
                    fsync_dir(self.directory)
                write_bytes(self.path, head)
            self._on_disk.update(t.try_index for t in result.tries)

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
            self._cut(result, stream, None)

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
                result, stream,
                InProgressTry(
                    try_index=try_index,
                    n_classes_requested=n_classes_requested,
                    classification=clf,
                    checker_history=list(checker.history),
                ),
            )
