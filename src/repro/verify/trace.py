"""Run traces: everything conformance compares, in plain data.

A :class:`RunTrace` is the comparable footprint of one fit:

* the **control flow** of the BIG_LOOP (tries, requested J, cycle
  counts, duplicate decisions) — replicated decisions, compared
  exactly on every axis;
* the **per-cycle log-posterior trace** (``instrument="full"`` runs
  only) — the earliest signal of a numerical divergence, localizing it
  to the cycle where it first appears;
* the **final numbers** per try: Cheeseman–Stutz score, observed-data
  log likelihood, class weights ``w_j``, mixture ``log_pi``, and the
  packed per-term parameter vectors (exactly what the second Allreduce
  cut point communicates);
* the **class map** of the best classification plus each item's
  top-1/top-2 membership margin, so a compare can distinguish a real
  assignment change from an argmax flip on a genuinely ambiguous item.

Traces serialize to canonical JSON (sorted keys, ``repr``-exact
floats) and carry a sha256 digest of that serialization — the golden
corpus stores and CI re-checks these digests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any

import numpy as np

from repro.kernels import config as kernel_config
from repro.mpc.collectives import ALLREDUCE
from repro.util import docfile

#: Trace schema version (bump on incompatible change; golden files
#: with a different version are rejected, not silently compared).
TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceMeta:
    """Where a trace came from — the axes the tolerance model reads."""

    case: str  # corpus case name ("" for ad-hoc traces)
    world: str  # "sequential" | "serial" | "threads" | "processes" | "sim"
    size: int  # world size (1 for sequential)
    kernels: str  # "fused" | "reference"
    #: the Allreduce algorithm's name (one constant) — kept serialised
    #: so golden files stay stable
    allreduce: str = ALLREDUCE

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TraceMeta":
        return cls(
            case=str(d["case"]),
            world=str(d["world"]),
            size=int(d["size"]),
            kernels=str(d["kernels"]),
            allreduce=str(d["allreduce"]),
        )

    def label(self) -> str:
        return (
            f"{self.world}[P={self.size}] kernels={self.kernels} "
            f"allreduce={self.allreduce}"
        )


@dataclass
class RunTrace:
    """The comparable footprint of one fit (see module docstring)."""

    meta: TraceMeta
    #: Per-cycle telemetry: one ``{index, n_classes, log_marginal,
    #: w_j_entropy}`` dict per EM cycle, in execution order.  Empty for
    #: runs not instrumented at ``"full"``.
    cycles: list[dict[str, Any]] = field(default_factory=list)
    #: Per-try finals: ``{try_index, n_classes_requested, n_cycles,
    #: converged, duplicate_of, score, log_lik_obs, w_j, log_pi,
    #: params}``.
    tries: list[dict[str, Any]] = field(default_factory=list)
    #: Hard assignment of every item under the best classification.
    class_map: list[int] = field(default_factory=list)
    #: Top-1 minus top-2 membership probability per item.
    margins: list[float] = field(default_factory=list)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_run(cls, run, db, meta: TraceMeta) -> "RunTrace":
        """Extract a trace from a fitted :class:`repro.api.Run` on ``db``.

        The class map and margins are taken per ``db.iter_chunks()``
        chunk, so a shard view streams.

        The per-cycle stream is stitched in try order: each try's
        cycles come from the lowest rank that ran it.  On a single-level
        run that is rank 0 for every try; on a try-parallel run
        (``try_groups > 1``) each try's group leader — so a grouped
        trace carries the whole search's cycles, as a serial one does.
        """
        from repro.engine.report import membership

        cycles: list[dict[str, Any]] = []
        if run.record is not None and run.instrument == "full":
            by_try: dict[int, list] = {}
            for r in reversed(run.record.ranks):  # the lowest rank wins
                for k, records in groupby(r.cycles, lambda c: c.try_index):
                    by_try[k] = list(records)
            stitched = [c for k in sorted(by_try) for c in by_try[k]]
            for index, c in enumerate(stitched):
                cycles.append(
                    {
                        "index": index,
                        "n_classes": int(c.n_classes),
                        "log_marginal": float(c.log_marginal),
                        "w_j_entropy": float(c.w_j_entropy),
                    }
                )
        tries: list[dict[str, Any]] = []
        for t in run.result.tries:
            scores = t.classification.scores
            assert scores is not None
            tries.append(
                {
                    "try_index": int(t.try_index),
                    "n_classes_requested": int(t.n_classes_requested),
                    "n_cycles": int(t.n_cycles),
                    "converged": bool(t.converged),
                    "duplicate_of": t.duplicate_of,
                    "score": float(scores.log_marginal_cs),
                    "log_lik_obs": float(scores.log_lik_obs),
                    "w_j": [float(v) for v in scores.w_j],
                    "log_pi": [float(v) for v in t.classification.log_pi],
                    "params": pack_term_params(t.classification),
                }
            )
        best = run.result.best.classification
        class_map: list[int] = []
        margins: list[float] = []
        for chunk in db.iter_chunks():
            wts, hard = membership(chunk, best)
            if wts.shape[1] >= 2:
                part = np.partition(wts, wts.shape[1] - 2, axis=1)
                margin = part[:, -1] - part[:, -2]
            else:
                margin = np.ones(wts.shape[0])
            class_map.extend(int(v) for v in hard)
            margins.extend(float(v) for v in margin)
        return cls(
            meta=meta,
            cycles=cycles,
            tries=tries,
            class_map=class_map,
            margins=margins,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_version": TRACE_VERSION,
            "meta": self.meta.to_dict(),
            "cycles": self.cycles,
            "tries": self.tries,
            "class_map": self.class_map,
            "margins": self.margins,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunTrace":
        version = int(d.get("trace_version", -1))
        if version != TRACE_VERSION:
            raise ValueError(
                f"trace schema version {version} != expected {TRACE_VERSION}; "
                "regenerate with `python -m repro.verify --regen`"
            )
        return cls(
            meta=TraceMeta.from_dict(d["meta"]),
            cycles=list(d["cycles"]),
            tries=list(d["tries"]),
            class_map=[int(v) for v in d["class_map"]],
            margins=[float(v) for v in d["margins"]],
        )

    def digest(self) -> str:
        """sha256 of the canonical JSON serialization.

        Python's ``repr`` of a float round-trips exactly, so two traces
        share a digest iff every number in them is bitwise identical —
        the digest *is* the bitwise-conformance check, in one string.
        """
        return docfile.digest(self.to_dict())


def pack_term_params(clf) -> list[float]:
    """Flatten a classification's per-term parameter arrays.

    Concatenates every ndarray field of every term's parameter object
    in declaration order — the same packed layout the M-step Allreduce
    communicates, which makes this vector the natural cross-run
    comparison surface for "did the ranks agree on the model".
    """
    out: list[float] = []
    for params in clf.term_params:
        for f in dataclasses.fields(params):
            value = getattr(params, f.name)
            if isinstance(value, np.ndarray):
                out.extend(float(v) for v in value.reshape(-1))
    return out


def capture_trace(
    db,
    config: dict,
    *,
    world: str = "sequential",
    size: int = 1,
    kernels: str = "fused",
    case: str = "",
    instrument: str = "full",
    spec=None,
) -> RunTrace:
    """Fit once on the requested (world, size, kernels) cell.

    ``config`` is the :class:`~repro.engine.search.SearchConfig` kwargs
    of the seeded search; every cell of a conformance matrix must use
    the identical ``config`` or the comparison is meaningless.

    The fit is one :class:`~repro.api.FitJob` handed straight to the
    world's backend runner — the one place a job runs on the
    ``"reference"`` kernels, which the estimators never select; only
    the ``"sequential"`` world accepts them (the oracle), a parallel
    world refuses them.

    ``db`` is a database or a shard view; the fit and the class map
    both read it the same way (a view streams).

    A parallel cell runs the paper's structure (``try_groups=1``): the
    axis the matrix checks is every cycle split over all ranks, which
    the decomposition rule would trade for one-rank try groups on these
    small few-try cases.
    """
    from repro.api import BACKENDS, FitConfig, FitJob
    from repro.data.shards import is_streamable
    from repro.engine.search import SearchConfig, search_config_for
    from repro.models.registry import ModelSpec
    from repro.models.summary import DataSummary

    if world not in BACKENDS:
        raise ValueError(f"world {world!r} not in {tuple(BACKENDS)}")
    job = FitJob(
        n_processors=size,
        config=search_config_for(
            SearchConfig(**config), seedable=not is_streamable(db),
            init_defaulted="init_method" not in config,
        ),
        options=FitConfig(
            instrument=instrument,
            try_groups=None if world == "sequential" else 1,
        ),
        kernels=kernel_config.resolve(kernels),
    )
    if spec is None:
        spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    run = BACKENDS[world](job, db, spec)
    meta = TraceMeta(case=case, world=world, size=size, kernels=kernels)
    return RunTrace.from_run(run, db, meta)
