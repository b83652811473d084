"""High-level user-facing API.

One estimator shell (fit / predict / report) over a registry of
backends, with two constructors:

* :class:`PAutoClass` — the classification executed on a registered
  backend: ``"sequential"`` (no world at all), or SPMD on ``"serial"``,
  ``"threads"``, ``"processes"`` or ``"sim"`` (the virtual-time CS-2 —
  also returns the simulated timing).  Backends live in the
  :data:`BACKENDS` registry and new ones can be added with
  :func:`register_backend`;
* :class:`AutoClass` — sequential Bayesian classification of a
  :class:`~repro.data.Database`: the same shell pinned to the
  ``"sequential"`` backend.

Every backend produces the identical classification (a tested
invariant) through the one ``fit`` pipeline; the choice is about *how*
the work runs, which is the paper's whole point.

``fit`` returns a unified :class:`Run` carrying the
search ``result``, the observability ``record`` (when fitted with
``instrument="phases"`` or ``"full"``; see :mod:`repro.obs`), and a
paper-style ``report()`` of per-rank phase timings.  The ``"sim"``
backend additionally reports the virtual elapsed seconds and — at
``instrument="full"`` — the rendered virtual-time timeline.

Inference is sklearn-shaped and uniform: ``predict`` /
``predict_proba`` / ``predict_logproba`` / ``score_samples`` /
``score`` are one mixin (:class:`repro.serve.scoring.Inference`) on the
estimators (raising :class:`NotFittedError` before ``fit``), on the
returned :class:`Run`, and on the servable
:class:`repro.serve.FittedModel` a run exports via :meth:`Run.fitted`
— all over the same allocation-free batch kernels in
:mod:`repro.serve.scoring`.

Fit-time options (``instrument=``, ``verify=``, ``checkpoint*=``,
``try_groups=``, ``faults=``, ``collectives=``, ``transport=``) are
bare keyword arguments of the constructors and ``fit``; they build one
validated :class:`FitConfig`, which travels to the backend inside the
per-attempt :class:`FitJob`.
"""

from __future__ import annotations

import functools
import logging
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace as dc_replace
from pathlib import Path

from repro.ckpt.format import CheckpointError
from repro.ckpt.manager import CheckpointSpec, check_policy
from repro.data.database import Database
from repro.data.shards import is_streamable
from repro.engine.classification import Classification
from repro.engine.report import classification_report
from repro.engine.search import (
    SearchConfig,
    SearchResult,
    run_search,
    search_config_for,
)
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.mpc.api import CollectiveConfig
from repro.mpc.faults import FaultInjector, injecting
from repro.mpc.procworld import TRANSPORTS
from repro.obs.record import CommEventRecord, RunRecord
from repro.obs.recorder import Recorder, check_instrument, recording
from repro.obs.runtime import build_run_record, run_recorded
from repro.parallel.psearch import check_try_groups, run_pautoclass
from repro.serve.scoring import Inference
from repro.worlds import WORLDS, run_world

logger = logging.getLogger(__name__)

#: Exponential-backoff schedule for checkpointed restarts: the n-th
#: retry waits ``RESTART_BACKOFF_BASE * 2**(n-1)`` seconds, capped.
RESTART_BACKOFF_BASE = 0.05
RESTART_BACKOFF_CAP = 5.0


def restart_backoff_seconds(attempt: int) -> float:
    """Backoff before retry ``attempt`` (1-based), exponential + capped."""
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    return min(RESTART_BACKOFF_BASE * (2 ** (attempt - 1)), RESTART_BACKOFF_CAP)


def _with_restarts(attempt_fit, ckpt_spec, max_restarts: int, what: str):
    """Run ``attempt_fit(attempt, ckpt_spec)`` until it succeeds.

    A ``RuntimeError`` (a failed world, an injected fault, a timeout)
    is retried from the checkpoint up to ``max_restarts`` times, with
    exponential backoff; every retry resumes, whatever the caller's
    ``resume`` said.  A refused checkpoint — a
    :class:`~repro.ckpt.CheckpointError`, raised directly or as the
    ``__cause__`` an in-process world wraps a rank failure in — is
    deterministic, so it propagates at once: the retry would read the
    same file.  Returns ``(outcome, retry_log)`` with one ``(attempt,
    backoff_seconds, reason)`` entry per restart.
    """
    attempt = 0
    retry_log: list[tuple[int, float, str]] = []
    while True:
        spec = ckpt_spec
        if spec is not None and attempt > 0:
            spec = dc_replace(spec, resume=True)  # retries must resume
        try:
            return attempt_fit(attempt, spec), retry_log
        except RuntimeError as exc:
            attempt += 1
            refused = isinstance(exc, CheckpointError) or isinstance(
                exc.__cause__, CheckpointError
            )
            if refused or attempt > max_restarts:
                raise
            backoff = restart_backoff_seconds(attempt)
            reason = str(exc).splitlines()[0]
            retry_log.append((attempt, backoff, reason))
            logger.warning(
                "%s attempt %d failed (%s); restarting from "
                "checkpoint in %.3gs", what, attempt, exc, backoff,
            )
            time.sleep(backoff)


def _resolve_checkpoint(
    checkpoint: str,
    checkpoint_dir: str | Path | None,
    resume: bool,
) -> CheckpointSpec | None:
    """Normalize the fit-level checkpoint options into a CheckpointSpec."""
    if checkpoint == "off":
        if checkpoint_dir is not None:
            # A directory without a policy means "checkpoint, cheaply".
            checkpoint = "per_try"
        else:
            return None
    check_policy(checkpoint)
    if checkpoint_dir is None:
        raise ValueError(
            f"checkpoint={checkpoint!r} requires checkpoint_dir="
        )
    return CheckpointSpec(
        directory=str(checkpoint_dir), policy=checkpoint, resume=resume
    )


def _surface_restarts(run: Run) -> None:
    """Expose restart bookkeeping through the run's obs record.

    Rank 0's record gains a ``restarts`` counter and one comm event per
    retry (phase ``"restart"``, ``seconds`` = the backoff slept), so an
    instrumented fault-tolerant run carries its recovery history in the
    same schema as everything else.  No-op when uninstrumented.
    """
    if run.record is None:
        return
    rank0 = run.record.ranks[0]
    rank0.counters["restarts"] = run.restarts
    for _attempt, backoff, _reason in run.retry_log:
        rank0.comm_events.append(
            CommEventRecord(phase="restart", nbytes=0, seconds=backoff)
        )


#: Valid values of the ``verify=`` fit option.
VERIFY_LEVELS = ("off", "trace", "strict")


def check_verify(verify: str, config: SearchConfig) -> None:
    """Refuse a ``verify=`` shadow run that could not be expected to conform.

    ``max_seconds`` makes the try count wall-clock-dependent.  Data is
    never a reason: the shadow fits the same database or shard view
    the primary did.
    """
    if verify == "off":
        return
    if config.max_seconds is not None:
        raise ValueError(
            "verify='trace'/'strict' needs a deterministic search; "
            "max_seconds makes the try count wall-clock-dependent and "
            "no shadow run could be expected to conform"
        )


@dataclass(frozen=True)
class FitConfig:
    """Every fit-time option of :class:`AutoClass` / :class:`PAutoClass`,
    validated once.

    The constructors and ``fit`` take these as bare keywords and build
    this frozen object from them; a backend reads it from
    :attr:`FitJob.options`.

    ``try_groups`` / ``collectives`` / ``faults`` / ``transport`` are
    parallel-only: the ``"sequential"`` backend (hence
    :class:`AutoClass`) rejects configs that set them.
    """

    #: Observability level: ``"off"`` | ``"phases"`` | ``"full"``.
    instrument: str = "off"
    #: Conformance shadow run: ``"off"`` | ``"trace"`` | ``"strict"``.
    verify: str = "off"
    #: Checkpoint policy: ``"off"`` | ``"per_try"`` | ``"per_cycle"``.
    checkpoint: str = "off"
    checkpoint_dir: str | Path | None = None
    resume: bool = True
    max_restarts: int = 0
    #: Fault injection plan (:class:`repro.mpc.faults.FaultInjector`).
    faults: FaultInjector | None = None
    #: Try groups: None / ``"auto"`` (the decomposition rule picks G
    #: per fit) | int (``1`` = the paper's single-level search).
    try_groups: int | str | None = None
    collectives: CollectiveConfig | None = None
    #: Processes-world transport name: None | ``"shm"`` | ``"pipe"``.
    #: All three mean the one wire, the pipe mesh; ``"shm"`` is an alias
    #: kept for ``benchmarks/e2e``.  Only ``"processes"`` accepts it.
    transport: str | None = None

    def __post_init__(self) -> None:
        check_instrument(self.instrument)
        if self.verify not in VERIFY_LEVELS:
            raise ValueError(
                f"verify {self.verify!r} not in {VERIFY_LEVELS}"
            )
        if self.checkpoint != "off":
            check_policy(self.checkpoint)
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0: {self.max_restarts}"
            )
        check_try_groups(self.try_groups)
        if self.transport is not None and self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport {self.transport!r} not in {TRANSPORTS}"
            )


def _verified(
    run: Run,
    db: Database,
    *,
    config: SearchConfig,
    spec: ModelSpec | None,
    verify: str,
) -> Run:
    """Run the conformance shadow fit and attach/enforce its report.

    The shadow is always a *sequential* run over the same seeded
    config and the same ``db`` — a shard view streams again, because an
    in-memory shadow of a streamed fit would differ in summation order
    and fail the compare.  A parallel primary is shadowed on the fused
    kernel path it ran on — isolating the parallelism axis (the paper's
    claim).  A sequential primary is shadowed on the reference kernel
    path — the only remaining differential axis.  Strict mode raises
    :class:`repro.verify.ConformanceError` with a first-divergence
    report; trace mode only attaches ``run.conformance``.
    """
    from repro.verify.conformance import ConformanceError, compare_traces
    from repro.verify.trace import RunTrace, TraceMeta, capture_trace

    primary_meta = TraceMeta(
        case="", world=run.backend, size=run.n_processors, kernels="fused",
    )
    primary = RunTrace.from_run(run, db, primary_meta)
    shadow = capture_trace(
        db,
        asdict(config),
        world="sequential",
        size=1,
        kernels="reference" if run.backend == "sequential" else "fused",
        instrument="full" if run.instrument == "full" else "off",
        spec=spec,
    )
    report = compare_traces(shadow, primary)
    run = dc_replace(run, conformance=report)
    if verify == "strict" and not report.ok:
        raise ConformanceError(report)
    return run


class NotFittedError(RuntimeError):
    """Results were requested from a model whose ``fit`` has not run.

    Subclasses :class:`RuntimeError` so pre-existing ``except
    RuntimeError`` handlers keep working.
    """


@dataclass(frozen=True)
class Run(Inference):
    """Outcome of one ``fit`` on any backend (including sequential).

    Carries the classification search :attr:`result`, the run's
    observability :attr:`record` (``None`` unless fitted with
    ``instrument="phases"`` or ``"full"``), and backend metadata.  The
    same object shape is returned by every backend — wall-clocked real
    worlds and the virtual-time simulator differ only in the record's
    ``clock`` field.
    """

    result: SearchResult
    backend: str
    n_processors: int
    instrument: str = "off"
    #: Merged per-rank observability record (see :mod:`repro.obs`).
    record: RunRecord | None = None
    #: Simulated elapsed seconds (``"sim"`` backend only, else None).
    sim_elapsed: float | None = None
    #: Rendered virtual-time schedule (``"sim"`` backend with
    #: ``instrument="full"`` only).
    timeline: str | None = None
    #: How many checkpointed restarts the fit needed (0 = clean run).
    restarts: int = 0
    #: One ``(attempt, backoff_seconds, reason)`` per restart.
    retry_log: tuple = ()
    #: Conformance report of the shadow verification run (``None``
    #: unless fitted with ``verify="trace"`` or ``"strict"``); a
    #: :class:`repro.verify.ConformanceReport`.
    conformance: object | None = None

    @property
    def best(self):
        """The best try of the search (delegates to ``result.best``)."""
        return self.result.best

    def summary(self) -> str:
        """One-line-per-try search summary (delegates to the result)."""
        return self.result.summary()

    def report(self) -> str:
        """Paper-style per-rank phase/communication breakdown.

        Requires the run to have been instrumented.
        """
        if self.record is None:
            raise ValueError(
                "run was not instrumented; fit with instrument='phases' "
                "or instrument='full' to collect a record"
            )
        from repro.obs.report import render_run

        return render_run(self.record)

    def _classification(self):
        return self.best.classification

    def fitted(self, db: Database | None = None, *, summary=None):
        """Export the servable :class:`repro.serve.FittedModel`.

        Needs the training database (or its precomputed
        :class:`~repro.models.summary.DataSummary`) because priors are
        summary-relative.
        """
        from repro.serve.artifact import FittedModel

        return FittedModel.from_run(self, db, summary=summary)


@dataclass(frozen=True)
class FitJob:
    """One attempt of one ``fit``, as a backend runner receives it.

    Everything per-fit travels here — the estimator itself is never
    mutated for the duration of a fit, so a runner sees exactly the
    state it is handed and nothing else.
    """

    n_processors: int
    #: The effective search config (streamed init default applied).
    config: SearchConfig
    #: The resolved fit options (constructor + ``fit`` keywords).
    options: FitConfig
    #: This attempt's checkpoint setup (retries always resume).
    ckpt: CheckpointSpec | None = None
    #: This attempt's fault plan (disarmed on retries).
    faults: FaultInjector | None = None
    #: E/M kernel path (:mod:`repro.kernels.config`).  Estimator fits
    #: always run ``"fused"``; :func:`repro.verify.trace.capture_trace`
    #: builds ``"sequential"`` jobs on ``"reference"`` to fit the
    #: conformance oracle, and the SPMD backends refuse it.
    kernels: str = "fused"


#: A backend runner executes one fit attempt:
#: ``runner(job: FitJob, db: Database, spec: ModelSpec) -> Run``.
BackendRunner = Callable[[FitJob, Database, ModelSpec], Run]

#: Registry of backends, name -> runner.  Iteration order is
#: registration order; membership (``name in BACKENDS``) checks names.
BACKENDS: dict[str, BackendRunner] = {}


def register_backend(name: str) -> Callable[[BackendRunner], BackendRunner]:
    """Register a backend runner under ``name``.

    Used as a decorator::

        @register_backend("mpi")
        def _mpi_backend(job, db, spec) -> Run: ...

    Registering an existing name replaces it (lets tests substitute
    instrumented doubles).
    """

    def decorate(fn: BackendRunner) -> BackendRunner:
        BACKENDS[name] = fn
        return fn

    return decorate


def _assemble_run(
    job: FitJob,
    backend: str,
    pairs: list,
    *,
    sim_elapsed: float | None = None,
    timeline: str | None = None,
) -> Run:
    """Merge per-rank ``(result, rank_record)`` pairs into one Run."""
    instrument = job.options.instrument
    return Run(
        result=pairs[0][0],
        backend=backend,
        n_processors=job.n_processors,
        instrument=instrument,
        record=build_run_record(
            backend, job.n_processors, instrument,
            [rec for _result, rec in pairs],
        ),
        sim_elapsed=sim_elapsed,
        timeline=timeline,
    )


@register_backend("sequential")
def _sequential_backend(job: FitJob, db: Database, spec: ModelSpec) -> Run:
    """Sequential AutoClass: the BIG_LOOP with no world at all."""
    if job.n_processors != 1:
        raise ValueError("sequential backend supports exactly 1 processor")
    opts = job.options
    search = functools.partial(
        run_search, db, job.config, spec,
        checkpointer=None if job.ckpt is None else job.ckpt.build(0),
        kernels=job.kernels,
    )
    if opts.instrument == "off":
        pair = search(), None
    else:
        rec = Recorder(level=opts.instrument)
        with recording(rec):
            result = search()
        pair = result, rec.to_rank_record()
    return _assemble_run(job, "sequential", [pair])


def _fit_rank(comm, job: FitJob, db: Database, spec: ModelSpec):
    """One rank of an SPMD fit: :func:`~repro.parallel.run_pautoclass`
    over the whole input, under this rank's recorder and fault plan.

    Module-level so the ``processes`` world can pickle it by reference.
    The fault plan is ``job.faults`` — this attempt's, disarmed on
    retries — never ``job.options.faults``.  Returns the rank's
    ``(result, RankRecord | None)`` pair.
    """
    with injecting(job.faults):
        return run_recorded(
            comm, run_pautoclass, db, job.config, spec, job.ckpt,
            job.options.try_groups, instrument=job.options.instrument,
        )


def _spmd_backend(
    world: str, job: FitJob, db: Database, spec: ModelSpec
) -> Run:
    """P-AutoClass on one SPMD world, launched by :func:`run_world`.

    Every rank runs :func:`_fit_rank` on the fused kernels; a job on
    the reference kernels — the sequential oracle — is refused.  On
    ``"processes"`` each forked rank sends its ``(result,
    RankRecord)`` pair back over its result pipe and the parent merges
    the records — cross-process record collection with no shared
    memory.  On ``"sim"`` an ``instrument="full"`` fit also traces the
    virtual-time schedule.
    """
    if job.kernels != "fused":
        raise ValueError(
            f"kernels={job.kernels!r}: the {world!r} backend runs the "
            "fused kernels only; the reference kernels are the "
            "sequential oracle (backend 'sequential')"
        )
    opts = job.options
    tracer = None
    if world == "sim" and opts.instrument == "full":
        from repro.simnet.trace import Tracer

        tracer = Tracer()
    pairs, sim_elapsed = run_world(
        world, job.n_processors, _fit_rank, job, db, spec,
        collectives=opts.collectives, transport=opts.transport,
        tracer=tracer,
    )
    timeline = None
    if tracer is not None:
        from repro.simnet.trace import render_timeline

        timeline = tracer.summary() + "\n" + render_timeline(tracer)
    return _assemble_run(
        job, world, pairs, sim_elapsed=sim_elapsed, timeline=timeline
    )


BACKENDS.update(
    (world, functools.partial(_spmd_backend, world)) for world in WORLDS
)


#: ``FitConfig`` fields that need a world to act on.
_PARALLEL_ONLY = ("try_groups", "collectives", "faults", "transport")


class _Estimator(Inference):
    """The one fit / predict shell behind :class:`AutoClass` and
    :class:`PAutoClass`; they differ only in their constructors."""

    def __init__(
        self,
        n_processors: int,
        backend: str,
        spec: ModelSpec | None,
        options: FitConfig,
        config: dict,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"backend {backend!r} not in {tuple(BACKENDS)}"
            )
        if n_processors < 1:
            raise ValueError(f"n_processors must be >= 1, got {n_processors}")
        self.n_processors = n_processors
        self.backend = backend
        self.spec = spec
        self._check_options(options)
        self.options = options
        self._init_method_defaulted = "init_method" not in config
        self.config = SearchConfig(**config)
        self.run_: Run | None = None
        self._db: Database | None = None

    def _check_options(self, opts: FitConfig) -> None:
        """Options the configured backend cannot honour are an error."""
        if self.backend == "sequential":
            bad = [k for k in _PARALLEL_ONLY if getattr(opts, k) is not None]
            if bad:
                raise ValueError(
                    f"option(s) {', '.join(bad)} are parallel-only "
                    "(use PAutoClass with a parallel backend)"
                )
        check_try_groups(opts.try_groups, self.n_processors)
        if opts.transport is not None and self.backend != "processes":
            # Only the processes world has a wire to pick.
            raise ValueError(
                f"transport={opts.transport!r} only applies to the "
                f"'processes' backend (got backend={self.backend!r})"
            )

    # -- fitting ---------------------------------------------------------

    def fit(
        self,
        db: Database,
        *,
        checkpoint: str = "off",
        checkpoint_dir: str | Path | None = None,
        resume: bool = True,
        max_restarts: int = 0,
        faults: FaultInjector | None = None,
        verify: str = "off",
    ) -> Run:
        """Run the BIG_LOOP search on the configured backend; returns
        (and stores) the :class:`Run`.

        ``checkpoint``/``checkpoint_dir`` make the search durable (see
        :mod:`repro.ckpt`): state is persisted at try boundaries
        (``"per_try"``) or after every EM cycle (``"per_cycle"``) —
        rank 0 of the search's communicator writes, all ranks restore,
        under any ``try_groups`` — and a rerun with
        ``resume=True`` picks up where the file left off,
        bit-identically.  ``max_restarts`` retries a failed attempt (a
        lost rank, a timeout, an injected fault) from its checkpoint
        with exponential backoff; a refused checkpoint
        (:class:`repro.ckpt.CheckpointError`) is deterministic and
        propagates at once.  Restarts are surfaced as ``run.restarts``
        / ``run.retry_log`` and, when instrumented, as a ``restarts``
        counter plus ``"restart"`` comm events on rank 0's record.

        ``faults`` — a :class:`repro.mpc.faults.FaultInjector`,
        parallel backends only — injects rank failures for testing;
        injected faults are disarmed on restart (they model transient
        node losses; a persistent fault would defeat any retry budget).

        ``verify`` runs a *sequential* shadow fit over the same seeded
        config and compares the two searches under the tolerance the
        run pair resolves to (:mod:`repro.verify`): a parallel fit is
        shadowed on the same fused kernel path (bitwise for a 1-rank
        world, the reduction-order bound otherwise), a sequential fit on
        the reference kernel path.  ``"trace"`` attaches the report as
        ``run.conformance``; ``"strict"`` additionally raises
        :class:`repro.verify.ConformanceError` on any divergence, with
        a first-divergence report (cycle, term, max abs/rel error).

        These keywords apply to this fit only; the constructor-time
        options (``self.options``) are left as they were.
        """
        opts = dc_replace(
            self.options,
            checkpoint=checkpoint, checkpoint_dir=checkpoint_dir,
            resume=resume, max_restarts=max_restarts, faults=faults,
            verify=verify,
        )
        self._check_options(opts)
        config = search_config_for(
            self.config, seedable=not is_streamable(db),
            init_defaulted=self._init_method_defaulted,
        )
        check_verify(opts.verify, config)
        ckpt_spec = _resolve_checkpoint(
            opts.checkpoint, opts.checkpoint_dir, opts.resume
        )
        if opts.max_restarts and ckpt_spec is None:
            raise ValueError("max_restarts needs checkpointing enabled")
        spec = self.spec or ModelSpec.default_for(
            db.schema, DataSummary.from_database(db)
        )
        runner = BACKENDS[self.backend]

        def attempt_fit(attempt, ckpt):
            job = FitJob(
                n_processors=self.n_processors, config=config, options=opts,
                ckpt=ckpt, faults=opts.faults if attempt == 0 else None,
            )
            return runner(job, db, spec)

        run, retry_log = _with_restarts(
            attempt_fit, ckpt_spec, opts.max_restarts, f"{self.backend} fit"
        )
        if retry_log:
            run = dc_replace(
                run, restarts=len(retry_log), retry_log=tuple(retry_log)
            )
            _surface_restarts(run)
        if opts.verify != "off":
            # After the retry loop on purpose: a ConformanceError is a
            # *finding*, not a transient failure to restart through.
            run = _verified(
                run, db, config=config, spec=self.spec, verify=opts.verify,
            )
        self.run_ = run
        self._db = db
        return run

    # -- results (everything delegates to the stored Run) -----------------

    def _fitted_run(self) -> Run:
        if self.run_ is None:
            raise NotFittedError("call fit() first")
        return self.run_

    @property
    def result_(self) -> SearchResult | None:
        """The last fit's search result (``None`` before ``fit``)."""
        return None if self.run_ is None else self.run_.result

    @property
    def best_(self) -> Classification:
        """The best classification found by :meth:`fit`."""
        return self._fitted_run().best.classification

    def _classification(self):
        return self._fitted_run()._classification()

    def fitted(self, db: Database | None = None, *, summary=None):
        """Servable :class:`repro.serve.FittedModel` of the last fit.

        Defaults to the training database the model was fitted on.
        """
        run = self._fitted_run()
        if db is None and summary is None:
            db = self._db
        return run.fitted(db, summary=summary)

    def report(self) -> str:
        """AutoClass-style report of the best classification."""
        return classification_report(self._db, self.best_)


class AutoClass(_Estimator):
    """Sequential AutoClass: Bayesian unsupervised classification.

    Example::

        from repro import AutoClass, make_paper_database
        db = make_paper_database(5000, seed=0)
        ac = AutoClass(start_j_list=(2, 4, 8), max_n_tries=3, seed=7)
        run = ac.fit(db)
        print(run.summary())
        print(ac.report())
        labels = ac.predict(db)

    Pass ``instrument="phases"`` (timers only) or ``"full"`` (timers +
    per-cycle telemetry) to collect an observability record; it is
    available as ``run.record`` and rendered by ``run.report()``.

    This is :class:`PAutoClass` on the ``"sequential"`` backend — the
    parallel-only options (``try_groups``, ``collectives``, ``faults``,
    ``transport``) are rejected.
    """

    def __init__(
        self,
        spec: ModelSpec | None = None,
        *,
        instrument: str = "off",
        **config,
    ) -> None:
        super().__init__(
            1, "sequential", spec, FitConfig(instrument=instrument), config
        )


class PAutoClass(_Estimator):
    """P-AutoClass: the same classification, executed SPMD.

    Example::

        from repro import PAutoClass, make_paper_database
        db = make_paper_database(5000, seed=0)
        pac = PAutoClass(n_processors=8, backend="sim",
                         start_j_list=(2, 4, 8), max_n_tries=3, seed=7,
                         instrument="phases")
        run = pac.fit(db)
        print(run.sim_elapsed, "simulated seconds on", run.n_processors, "procs")
        print(run.report())   # per-rank wts/params/Allreduce breakdown

    ``try_groups`` picks the decomposition.  ``None`` / ``"auto"`` (the
    default): a closed-form rule counts the busiest rank's work per
    cycle for every group count G and takes the smallest, ties to the
    larger G — try-parallel where the tries pack evenly, the paper's
    row split where they cannot.  ``1``: the paper's structure, every
    cycle data-parallel over all ranks.  G > 1: the world is split into
    G sub-communicator groups and BIG_LOOP tries run concurrently
    across groups, longest first, each try data-parallel within its
    group (see :mod:`repro.parallel.psearch`).
    """

    def __init__(
        self,
        n_processors: int = 4,
        backend: str = "threads",
        spec: ModelSpec | None = None,
        collectives: CollectiveConfig | None = None,
        instrument: str = "off",
        trace: bool | None = None,
        try_groups: int | str | None = None,
        transport: str | None = None,
        **config,
    ) -> None:
        if trace is not None:
            raise TypeError(
                "PAutoClass(trace=...) was removed; use "
                "instrument='full' (works on every backend and also "
                "produces the sim timeline)"
            )
        super().__init__(
            n_processors, backend, spec,
            FitConfig(
                instrument=instrument, try_groups=try_groups,
                transport=transport, collectives=collectives,
            ),
            config,
        )
