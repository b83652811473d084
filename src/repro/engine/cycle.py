"""``base_cycle`` — one EM iteration, the hot path of AutoClass.

The paper's Figure 3: ``base_cycle`` calls ``update_wts``,
``update_parameters`` and ``update_approximations``, and the paper
measures it at ~99.5 % of total runtime.  P-AutoClass parallelizes
exactly this function (Figures 4/5: local halves plus two Allreduce cut
points), so it is written **once**, as ``chunks x reducer``:

* *chunks* — :func:`~repro.data.shards.as_chunk_iterable`: an in-memory
  block's cached 4 096-row tiles, a sharded view's chunks of at most
  one tile.
  Both cut-point payloads are additive over items, and a chunk's M half
  needs only that chunk's *local* weights, so E and M halves fuse per
  chunk: no ``(N, J)`` weights are ever formed;
* *reducer* — how the two payloads become global.  The sequential
  program is the identity :class:`LocalReducer` defined here; the
  communicating reducers live in :mod:`repro.parallel.reducers`.  The
  reducer is the engine's only view of the world it runs on — this
  package imports neither :mod:`repro.mpc` nor :mod:`repro.parallel`.

Scoring convention: the :class:`~repro.engine.classification.Scores`
attached to the returned classification evaluate the parameters the
cycle *started* from (the E-step point), because every ingredient —
weights, reduced statistics, log likelihood — is consistent at that
point.  Across cycles this yields the monotone MAP-EM objective
sequence ``obj(V_0) <= obj(V_1) <= ...`` that the tests assert.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.data.shards import as_chunk_iterable, is_streamable
from repro.engine.approx import update_approximations
from repro.engine.classification import Classification
from repro.engine.params import finalize_with_evidence, local_update_parameters
from repro.engine.wts import N_EXTRA_SLOTS, finalize_wts, local_update_wts
from repro.obs import recorder as obs


@dataclass(frozen=True)
class CycleStats:
    """Per-rank timing/traffic of one cycle (drives the EXP-T1 profile).

    Seconds are on the reducer's clock: wall seconds sequentially and on
    real worlds, *virtual machine seconds* on the simulated CS-2.  The
    wts share covers the E halves (plus the wts reduction, where a
    figure program blocks on one at ``launch_wts``); the params share
    the M halves, the cycle's packed reduction and the replicated
    finalize.
    """

    seconds_wts: float
    seconds_params: float
    seconds_approx: float
    bytes_sent: int = 0

    @property
    def seconds_total(self) -> float:
        return self.seconds_wts + self.seconds_params + self.seconds_approx


class LocalReducer:
    """Identity reduction: sequential AutoClass, the P = 1 program.

    Also the protocol the communicating reducers implement.  A cycle
    calls ``launch_wts`` once (after the final chunk's E half),
    ``launch_stats`` once (after the last M half), then ``finish`` for
    the two global arrays; ``allreduce`` is the one-shot
    sum the initializer needs.  ``rank``/``size`` place this block in
    the global item range, ``fault_site`` offers an injection point
    (:mod:`repro.mpc.faults`); ``chunks`` and ``local_stats`` (the M
    half) are methods so the Miller & Guo ablation can centralize it.
    """

    rank = 0
    size = 1
    bytes_sent = 0
    clock = staticmethod(time.perf_counter)
    chunks = staticmethod(as_chunk_iterable)
    local_stats = staticmethod(local_update_parameters)

    def fault_site(self, site: str, *, try_index: int, cycle: int = 0) -> None:
        """No world, no injected faults."""

    def allreduce(self, payload: np.ndarray) -> np.ndarray:
        return payload

    def launch_wts(self, payload: np.ndarray) -> None:
        self._payload = payload

    def launch_stats(self, stats: np.ndarray) -> None:
        self._stats = stats

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        return self._payload, self._stats


def local_pass(
    data, clf: Classification, reducer: LocalReducer, *, kernels: str | None = None
) -> tuple[float, float]:
    """The local halves of one cycle: chunk pass + both reduction launches.

    For each chunk: E half (accumulate the ``J + 2`` payload), then M
    half (accumulate the ``(J, n_stats)`` statistics).  ``launch_wts``
    is called right after the *final* chunk's E half — the earliest its
    payload is complete, which is where the paper's first cut point
    sits — and ``launch_stats`` after the last M half.  The accumulation
    order, and therefore every payload bit, depends on the reducer only
    through ``chunks``, which only the Miller & Guo ablation overrides.

    Returns ``(seconds_wts, seconds_params)``: the two halves' time on
    the reducer's clock (the statistics launch counts as M half).
    """
    rec = obs.current()
    clock = reducer.clock
    payload = stats = None
    seconds_wts = seconds_params = 0.0
    n_chunks = n_items = 0
    t0 = clock()
    chunks = reducer.chunks(data)
    chunk = next(chunks, None)
    while chunk is not None:
        # One chunk of lookahead finds the final chunk.
        following = next(chunks, None)
        with rec.phase("wts"):
            wts, part = local_update_wts(chunk, clf, kernels=kernels)
            if payload is None:
                payload = part
            else:
                payload += part
        if following is None:
            reducer.launch_wts(payload)
        t1 = clock()
        with rec.phase("params"):
            part = reducer.local_stats(chunk, clf.spec, wts, kernels=kernels)
            if stats is None:
                stats = part
            else:
                stats += part
        n_chunks += 1
        n_items += chunk.n_items
        chunk = following
        t2 = clock()
        seconds_wts += t1 - t0
        seconds_params += t2 - t1
        t0 = t2
    if payload is None:  # an empty streamed block: zero chunks
        payload = np.zeros(clf.n_classes + N_EXTRA_SLOTS, dtype=np.float64)
        stats = np.zeros((clf.n_classes, clf.spec.n_stats), dtype=np.float64)
        reducer.launch_wts(payload)
    reducer.launch_stats(stats)
    seconds_params += clock() - t0  # a blocking reduction completes here
    if is_streamable(data) and rec.enabled and n_chunks:
        rec.count("stream.chunks", n_chunks)
        rec.count("stream.items", n_items)
    return seconds_wts, seconds_params


def base_cycle(
    data,
    clf: Classification,
    *,
    kernels: str | None = None,
    n_total_items: int | None = None,
    reducer: LocalReducer | None = None,
) -> tuple[Classification, np.ndarray | None, CycleStats]:
    """One EM cycle over this rank's block of the data.

    With the defaults this is sequential AutoClass: ``data`` is the
    whole database and the reduction is the identity.  A parallel rank
    passes its block, the global item count and a communicating
    ``reducer``; the cycle then is the paper's Figures 4/5.

    Returns ``(new_clf, None, stats)``: the re-parameterized
    classification (scores evaluate the incoming parameters — see module
    docstring; identical on every rank, being a pure function of the
    reduced payloads), ``None`` where the block's ``(N, J)`` weights
    would sit (they are never formed; the slot keeps the triple's
    shape), and the phase timings.  ``kernels`` selects the E/M
    implementation (``None`` → ``"fused"``; see
    :mod:`repro.kernels.config`).

    Observability: each chunk's E half is timed under phase ``"wts"``
    and its M half under ``"params"`` (as is the replicated finalize);
    streamed data also bumps ``stream.chunks`` / ``stream.items``.  The
    reducer accounts its reductions (``allreduce_params`` for the
    library's one packed reduction per cycle).
    """
    if reducer is None:
        reducer = LocalReducer()
    if n_total_items is None:
        n_total_items = data.n_items
    rec = obs.current()
    clock = reducer.clock
    bytes0 = reducer.bytes_sent
    seconds_wts, seconds_params = local_pass(data, clf, reducer, kernels=kernels)
    t0 = clock()
    payload, stats = reducer.finish()
    reduction = finalize_wts(payload, clf.n_classes)
    with rec.phase("params"):
        log_pi, term_params, term_log_marginals = finalize_with_evidence(
            clf.spec, stats, reduction.w_j
        )
    new_clf = Classification(
        spec=clf.spec,
        n_classes=clf.n_classes,
        log_pi=log_pi,
        term_params=term_params,
        n_cycles=clf.n_cycles,
    )
    t1 = clock()
    with rec.phase("approx"):
        scores = update_approximations(
            clf, stats, reduction, n_total_items, term_log_marginals
        )
    t2 = clock()
    rec.cycle(
        n_classes=clf.n_classes,
        log_marginal=scores.log_marginal_cs,
        w_j=reduction.w_j,
    )
    new_clf = new_clf.with_scores(scores, n_cycles=clf.n_cycles + 1)
    return new_clf, None, CycleStats(
        seconds_wts=seconds_wts,
        seconds_params=seconds_params + (t1 - t0),
        seconds_approx=t2 - t1,
        bytes_sent=reducer.bytes_sent - bytes0,
    )
