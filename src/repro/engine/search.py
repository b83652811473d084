"""The BIG_LOOP: classification generation and evaluation.

The paper's Figure 2 names the steps of one pass:

1. *Select the number of classes* — cycle through ``start_j_list``
   (the paper used ``2, 4, 8, 16, 24, 50, 64``), then keep drawing from
   it pseudo-randomly;
2. *New classification try* — initialize and run ``base_cycle`` to
   convergence (~all the compute);
3. *Duplicates elimination* — a converged try whose populated class
   count and score match an already-stored classification is recorded as
   a duplicate, not stored;
4. *Select the best classification* — rank by the Cheeseman–Stutz
   approximation of ``log P(X|T)``;
5. *Store partial results* — every kept try is retained in the result.

Every decision in this loop is a deterministic function of the seed and
the (globally reduced) scores, which is what lets P-AutoClass replicate
the control flow on all ranks without communicating decisions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.database import Database
from repro.data.shards import data_digest, is_streamable
from repro.engine.classification import Classification
from repro.engine.convergence import RelativeDeltaChecker
from repro.engine.cycle import LocalReducer, base_cycle
from repro.engine.init import (
    INIT_METHODS,
    check_streamable_init,
    initial_classification,
)
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.obs import recorder as obs
from repro.util.rng import SeedSequenceStream

logger = logging.getLogger(__name__)

#: The paper's experiment setting (section 4).
PAPER_START_J_LIST = (2, 4, 8, 16, 24, 50, 64)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the BIG_LOOP (defaults follow AutoClass / the paper)."""

    start_j_list: tuple[int, ...] = PAPER_START_J_LIST
    max_n_tries: int = len(PAPER_START_J_LIST)
    rel_delta: float = 1e-4
    n_consecutive: int = 2
    max_cycles: int = 200
    #: ``"seeded"`` (k-means-style start) reaches good optima far more
    #: reliably than AutoClass's symmetric random weights; the
    #: ``"dirichlet"``/``"sharp"`` options reproduce the classic
    #: behaviour (and are required for streamed, shard-view fits).
    init_method: str = "seeded"
    seed: int = 0
    duplicate_eps: float = 0.5
    #: Wall-clock budget for the whole search (None = unlimited); checked
    #: between tries like AutoClass's time-based stopping condition.
    #: Sequential only — parallel searches must replicate control flow
    #: deterministically and therefore reject a wall-clock budget.
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if not self.start_j_list:
            raise ValueError("start_j_list must not be empty")
        if any(j < 1 for j in self.start_j_list):
            raise ValueError(f"class counts must be >= 1: {self.start_j_list}")
        if self.max_n_tries < 1:
            raise ValueError(f"max_n_tries must be >= 1, got {self.max_n_tries}")
        if self.init_method not in INIT_METHODS:
            raise ValueError(
                f"init_method {self.init_method!r} not in {INIT_METHODS}"
            )
        if self.duplicate_eps < 0:
            raise ValueError("duplicate_eps must be >= 0")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive (or None)")

    def checker(self) -> RelativeDeltaChecker:
        return RelativeDeltaChecker(
            rel_delta=self.rel_delta,
            n_consecutive=self.n_consecutive,
            max_cycles=self.max_cycles,
        )

    def select_n_classes(self, try_index: int, stream: SeedSequenceStream) -> int:
        """Step 1 of the BIG_LOOP — deterministic in (seed, try_index)."""
        if try_index < len(self.start_j_list):
            return self.start_j_list[try_index]
        rng = stream.child("select_j", try_index)
        return int(rng.choice(np.asarray(self.start_j_list)))


def search_config_for(
    config: SearchConfig | None,
    *,
    seedable: bool,
    init_defaulted: bool = False,
) -> SearchConfig:
    """``config`` with the initializer default resolved against the data.

    ``"seeded"`` — the default — needs the whole database in memory on
    every rank.  Where it is not (``seedable=False``: a streamed shard
    view) and the caller never chose an initializer
    (no config at all, or ``init_defaulted``), fall back to AutoClass's
    random-assignment start, ``"sharp"``.  An *explicit*
    ``init_method="seeded"`` is kept and fails loudly downstream.
    """
    if config is None:
        config, init_defaulted = SearchConfig(), True
    if seedable or not init_defaulted or config.init_method != "seeded":
        return config
    return dataclasses.replace(config, init_method="sharp")


@dataclass(frozen=True)
class TryResult:
    """Outcome of one classification try."""

    try_index: int
    n_classes_requested: int
    classification: Classification
    converged: bool
    n_cycles: int
    duplicate_of: int | None = None

    @property
    def score(self) -> float:
        assert self.classification.scores is not None
        return self.classification.scores.log_marginal_cs


@dataclass
class SearchResult:
    """All tries of one BIG_LOOP run, plus the selected best."""

    config: SearchConfig
    tries: list[TryResult] = field(default_factory=list)

    @property
    def best(self) -> TryResult:
        kept = [t for t in self.tries if t.duplicate_of is None]
        if not kept:
            raise ValueError("search produced no classifications")
        return max(kept, key=lambda t: t.score)

    @property
    def n_duplicates(self) -> int:
        return sum(1 for t in self.tries if t.duplicate_of is not None)

    def summary(self) -> str:
        lines = [
            f"Search: {len(self.tries)} tries, {self.n_duplicates} duplicates"
        ]
        for t in self.tries:
            mark = "*" if t is self.best else " "
            dup = f" dup-of-{t.duplicate_of}" if t.duplicate_of is not None else ""
            scores = t.classification.scores
            assert scores is not None
            lines.append(
                f" {mark} try {t.try_index}: J={t.n_classes_requested} "
                f"populated={scores.n_populated} cycles={t.n_cycles} "
                f"logP(X|T)~={t.score:.2f}{dup}"
            )
        return "\n".join(lines)


def run_try(
    data,
    spec: ModelSpec,
    config: SearchConfig,
    stream: SeedSequenceStream,
    try_index: int,
    make_reducer,
    *,
    n_total_items: int,
    full_db: Database | None = None,
    kernels: str | None = None,
    resume=None,
    save_cycle=None,
) -> TryResult:
    """Steps 1-2 of the BIG_LOOP: select J, initialize, converge one try.

    The one try body of the one loop, :func:`run_search` — sequential,
    replicated and try-grouped searches differ only in
    ``make_reducer(n_classes)`` (which world the reductions cross) and
    in which tries the loop owns.  ``resume`` — an
    in-progress try restored from a checkpoint — replaces selection and
    init with their recorded outputs: both were consumed before the
    checkpoint was cut, and the restored classification is the
    post-cycle state, so re-entering the cycle loop continues exactly
    where the run stopped.

    ``base_cycle`` runs until the checker stops it; every rank of a
    parallel run feeds the checker the same globally reduced score, so
    all stop on the same cycle without voting.  Injected faults
    (``reducer.fault_site``) fire at the init and cycle boundaries,
    before the work starts.  ``save_cycle(try_index=,
    n_classes_requested=, clf=, checker=)`` — the per-cycle checkpoint
    hook — runs after every completed, non-final cycle: downstream of
    both reductions the state is global and self-contained, so a run
    resumed from it is bit-identical.

    The returned try says whether the stop was a genuine convergence
    (vs the cycle cap); it has no duplicate link: the loop assigns every
    link once, at the end (:func:`assign_duplicates`).
    """
    rec = obs.current()
    rec.try_boundary(try_index)
    checker = config.checker()
    if resume is not None:
        j = resume.n_classes_requested
        clf = resume.classification
        checker.history = list(resume.checker_history)
        reducer = make_reducer(j)
        logger.info("try %d: resuming at cycle %d", try_index, clf.n_cycles)
    else:
        j = config.select_n_classes(try_index, stream)
        logger.info("try %d: J=%d (seed %d)", try_index, j, config.seed)
        reducer = make_reducer(j)
        reducer.fault_site("init", try_index=try_index)
        with rec.phase("init"):
            clf = initial_classification(
                data, spec, j, stream.child("try", try_index),
                method=config.init_method, kernels=kernels,
                n_total_items=n_total_items, reducer=reducer, full_db=full_db,
            )
    stopped = False
    while not stopped:
        reducer.fault_site("cycle", try_index=try_index, cycle=clf.n_cycles + 1)
        clf, _wts, _stats = base_cycle(
            data, clf, kernels=kernels, n_total_items=n_total_items,
            reducer=reducer,
        )
        assert clf.scores is not None
        stopped = checker.update(clf.scores.log_marginal_cs)
        if not stopped and save_cycle is not None:
            save_cycle(
                try_index=try_index, n_classes_requested=j, clf=clf,
                checker=checker,
            )
    converged = not checker.hit_cycle_limit
    logger.info(
        "try %d done: %d cycles, logP(X|T)~=%.2f%s",
        try_index,
        clf.n_cycles,
        clf.scores.log_marginal_cs,
        "" if converged else " (cycle limit)",
    )
    return TryResult(
        try_index=try_index,
        n_classes_requested=j,
        classification=clf,
        converged=converged,
        n_cycles=clf.n_cycles,
    )


def is_duplicate(
    candidate: Classification, stored: Classification, eps: float
) -> bool:
    """Step 3: same populated class count and score within ``eps``.

    AutoClass's duplicate rule — different random starts that converge
    to the same peak produce (up to class relabeling) the same
    classification, which this detects without parameter comparison.
    """
    a, b = candidate.scores, stored.scores
    assert a is not None and b is not None
    return (
        a.n_populated == b.n_populated
        and abs(a.log_marginal_cs - b.log_marginal_cs) <= eps
    )


def duplicate_of_index(
    candidate: Classification, stored: list[TryResult], eps: float
) -> int | None:
    """Index of the first kept try ``candidate`` duplicates, or None.

    Only non-duplicate stored tries are compared — AutoClass records a
    duplicate against the *original*, never against another duplicate.
    """
    return next(
        (
            t.try_index
            for t in stored
            if t.duplicate_of is None
            and is_duplicate(candidate, t.classification, eps)
        ),
        None,
    )


def assign_duplicates(tries: list[TryResult], eps: float) -> list[TryResult]:
    """Recompute duplicate links for a full set of tries, order-independently.

    AutoClass's incremental rule (each try compared against the
    previously *kept* ones) is only well-defined for a fixed visit
    order.  This assigns the links by the canonical order — ascending
    ``try_index``, exactly what a sequential search visits — so the
    result is a pure function of the set, whatever order the tries were
    completed, merged or restored in.  The BIG_LOOP applies it once, at
    the end of every search; a link a restored try carries is
    recomputed.

    Returns new :class:`TryResult` objects sorted by ``try_index``, with
    ``duplicate_of`` rewritten.
    """
    out: list[TryResult] = []
    kept: list[TryResult] = []
    for t in sorted(tries, key=lambda t: t.try_index):
        dup = duplicate_of_index(t.classification, kept, eps)
        fixed = t if t.duplicate_of == dup else dataclasses.replace(
            t, duplicate_of=dup
        )
        out.append(fixed)
        if dup is None:
            kept.append(fixed)
    return out


def check_stream(db, config: SearchConfig) -> None:
    """Refuse a shard view an unstreamable init, and record which
    manifest and chunk size the fit streams (``stream.*`` counters).
    A no-op on an in-memory database."""
    if not is_streamable(db):
        return
    check_streamable_init(config.init_method)
    rec = obs.current()
    if rec.enabled:
        rec.count(
            "stream.manifest_digest_u48", int(db.manifest_digest[:12], 16)
        )
        rec.count("stream.chunk_items", db.chunk_items)


def run_search(
    db,
    config: SearchConfig | None = None,
    spec: ModelSpec | None = None,
    checkpointer=None,
    *,
    kernels: str | None = None,
    make_reducer=None,
    n_total_items: int | None = None,
    full_db: Database | None = None,
    tries=None,
    merge=None,
) -> SearchResult:
    """The BIG_LOOP over one block of the data — the only one.

    With the defaults this is sequential AutoClass: ``db`` is the whole
    database and every reduction the identity.  P-AutoClass runs the
    same loop *replicated* on every rank over that rank's block
    (``make_reducer(n_classes)`` supplies each try's communicating
    reducer, ``n_total_items`` the global count, ``full_db`` the whole
    input ``"seeded"`` init draws from) — every decision below is
    a deterministic function of the seed and of globally reduced scores,
    so all ranks take identical branches with no extra communication.

    ``tries`` — the try indices this caller owns, ascending (default:
    all ``max_n_tries``) — and ``merge`` — which turns the owned tries
    into every group's (default: none) — make it one group of a
    try-grouped search: independent local work, combined once at the
    end.  Every search then assigns its duplicate links once, by
    :func:`assign_duplicates`: the canonical order is the order the
    sequential loop visits, so the links are those of the incremental
    rule.

    ``checkpointer`` — a bound :class:`repro.ckpt.Checkpointer` — makes
    the search durable: state is persisted at try boundaries (and, at
    ``policy="per_cycle"``, after EM cycles) and restored on entry, so
    an interrupted search resumed from its checkpoint produces the
    bit-identical result an uninterrupted run would have.  The state at
    a cut point is global, so rank 0 of the search's communicator
    persists one copy, on a writer thread behind the cycles, and every
    rank restores from the same files (:meth:`~repro.ckpt.Checkpointer.
    restore`): completed tries are kept and in-progress ones resumed
    wherever they fall, whoever wrote them.

    ``db`` is a database or a :class:`~repro.data.shards.ShardedDatabase`
    view; every EM cycle accumulates its statistics chunk by chunk (see
    :mod:`repro.engine.cycle`), so a view streams with O(chunk) peak
    heap.  A view needs a streamable ``init_method``
    (``"dirichlet"``/``"sharp"``; with no explicit config ``"sharp"``
    is used), and a bound checkpointer keys the checkpoint on its
    manifest digest so a resume against different data is refused.
    """
    config = search_config_for(config, seedable=not is_streamable(db))
    if spec is None:
        spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    if make_reducer is None:
        def make_reducer(n_classes):
            return LocalReducer()
    if n_total_items is None:
        n_total_items = db.n_items
    if tries is None:
        tries = range(config.max_n_tries)
    check_stream(db, config)
    spec.validate(db.probe())
    stream = SeedSequenceStream(config.seed)
    result = SearchResult(config=config)
    completed: dict[int, TryResult] = {}
    partial: dict = {}
    save_cycle = None
    writing = contextlib.nullcontext()
    if checkpointer is not None:
        checkpointer.bind(
            config, spec, n_total_items,
            data_digest=data_digest(db),
        )
        completed, partial, rng_streams = checkpointer.restore(spec)
        stream.restore_state(rng_streams)
        if completed or partial:
            logger.info(
                "resumed from %s: %d completed tries, %d in progress",
                checkpointer.directory, len(completed), len(partial),
            )
        if checkpointer.policy == "per_cycle":
            save_cycle = functools.partial(
                checkpointer.save_cycle, result, stream
            )
        writing = checkpointer.background()
    started = time.perf_counter()
    with writing:  # drained here: every save lands before the merge
        for k in tries:
            t = completed.get(k)
            if t is None:
                if (
                    result.tries
                    and k not in partial
                    and config.max_seconds is not None
                    and time.perf_counter() - started >= config.max_seconds
                ):
                    break  # budget spent; at least one try is always completed
                t = run_try(
                    db, spec, config, stream, k, make_reducer,
                    n_total_items=n_total_items, full_db=full_db,
                    kernels=kernels, resume=partial.get(k),
                    save_cycle=save_cycle,
                )
            result.tries.append(t)
            # try k's children are spent: keep them out of every later head
            stream.forget("select_j", k)
            stream.forget("try", k)
            if checkpointer is not None and k not in completed:
                checkpointer.save_boundary(result, stream)
    if merge is not None:
        result.tries = merge(result.tries)
    result.tries = assign_duplicates(result.tries, config.duplicate_eps)
    return result
