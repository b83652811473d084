"""SPMD programs executed on the simulated machine by the experiments.

Compute is priced by the world's ``"counted"`` mode: the engine kernels
report their work through :mod:`repro.util.workhooks` and the simulator
prices it with the :class:`~repro.simnet.workmodel.WorkModel`.
Deterministic, and free of the Python call-overhead artifacts a 1996 C
implementation would not have.

The programs themselves know nothing of pricing; they differ from the
library driver only in using the **paper's** communication structure
by default (:class:`PerTermClassReducer`: two cut points per cycle, the
second one's Allreduce inside the per-class / per-attribute loops, as
the paper's Figure 5 draws it).
"""

from __future__ import annotations

import numpy as np

from repro.engine.cycle import base_cycle
from repro.engine.init import initial_classification
from repro.engine.params import local_update_parameters
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.parallel.packed import ReductionPlan
from repro.parallel.reducers import BlockingReducer
from repro.util.rng import SeedSequenceStream


class TwoCutPointReducer(BlockingReducer):
    """The paper's Figures 4/5 as drawn: E → Allreduce → M → Allreduce.

    The library packs both payloads into one reduction after the M half
    (:class:`~repro.parallel.reducers.BlockingReducer`); the figure
    experiments keep the paper's two cut points — the ``J + 2`` wts
    payload reduced right after the E half, the statistics after the M
    half — because the paper's communication costs are those of two
    collectives per cycle.  Same sums, bitwise.
    """

    def launch_wts(self, payload) -> None:
        self._payload = self._timed(
            "allreduce_wts", payload.nbytes,
            lambda: self.plan.allreduce_wts(payload),
        )

    def launch_stats(self, stats) -> None:
        self._stats = self._timed(
            "allreduce_params", stats.nbytes, lambda: self.reduce_stats(stats)
        )

    def reduce_stats(self, stats):
        """The second cut point: one packed in-place Allreduce."""
        return self.plan.allreduce_stats(stats)


class PerTermClassReducer(TwoCutPointReducer):
    """The paper's Figure 5: one small Allreduce per (class, term) pair.

    The figure's Allreduce box sits *inside* the ``#cl < Classes`` /
    ``#n < Attributes`` loops — ``J x n_terms`` collectives per cycle
    where the library packs all statistics into one.  The figure
    experiments run this structure because the paper's observed
    communication costs are only explicable with per-loop collectives
    (see EXPERIMENTS.md); EXP-A4 prices it against the packed default.
    """

    def __init__(self, comm, plan, spec) -> None:
        super().__init__(comm, plan)
        self._stat_slices = spec.stat_slices()

    def reduce_stats(self, stats):
        out = np.empty_like(stats)
        for sl in self._stat_slices:
            for j in range(stats.shape[0]):
                out[j, sl] = self.comm.allreduce(stats[j, sl])
        return out


class CentralMStepReducer(TwoCutPointReducer):
    """Miller & Guo (PCW'97): only ``update_wts`` is parallel.

    The only prior MIMD AutoClass the paper knew; P-AutoClass "exploits
    parallelism also in the parameters computing phase, with a further
    improvement of performance", which the EXP-A1 ablation measures
    against this reducer.  The E-step is P-AutoClass's (local weights +
    Allreduce of ``w_j``); the M half is **centralized**: every rank
    ships its ``(n_local, J)`` weight block to rank 0, which computes
    the statistics over the full dataset alone — its work report prices
    ``n_total`` items on rank 0's clock — and broadcasts them back.
    The gather of the full weight matrix (``8 N J`` bytes per cycle) and
    the unparallelized M-step are exactly the two costs the paper's
    design eliminates; results are numerically equivalent.

    Needs the full database on rank 0 (other ranks may pass the same
    replicated object — only rank 0 reads it) and in-memory blocks, which
    ``chunks`` keeps whole so ``local_stats`` sees all the rank's weights.
    """

    def __init__(self, comm, plan, full_db) -> None:
        super().__init__(comm, plan)
        self.full_db = full_db

    chunks = staticmethod(lambda data: iter((data,)))

    def local_stats(self, chunk, spec, wts, *, kernels=None):
        gathered = self.comm.gather(wts, root=0)
        stats = None
        if self.comm.rank == 0:
            stats = local_update_parameters(
                self.full_db, spec, np.vstack(gathered), kernels=kernels
            )
        return self.comm.bcast(stats, root=0)

    def launch_stats(self, stats) -> None:
        self._stats = stats  # already global


def fixed_cycles_program(
    comm, db, j_list, n_cycles, seed, *, variant="pautoclass", marks=None,
):
    """One try per ``j_list`` entry, each a fixed number of cycles.

    The workload of every figure experiment (Figs. 6/7 run it over the
    whole J list; EXP-A1/A3/A4/A5 pick the ``variant`` of a single J):
    the library's own initializer and EM cycle over this rank's block,
    with the reducer the experiment asks for — ``"pautoclass"`` is the
    paper's :class:`PerTermClassReducer`, ``"packed"`` the library's
    :class:`~repro.parallel.reducers.BlockingReducer`, ``"wts_only"``
    the :class:`CentralMStepReducer`.  Only ``"packed"`` makes one
    reduction per cycle; the other two keep the paper's two cut points
    (:class:`TwoCutPointReducer`).  ``marks``, if given, collects
    this rank's virtual time after every cycle.  Returns the last try's
    score.
    """
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    local = db.block(comm.size, comm.rank)
    stream = SeedSequenceStream(seed)
    score = 0.0
    for k, j in enumerate(j_list):
        plan = ReductionPlan(comm, j, spec.n_stats)
        if variant == "pautoclass":
            reducer = PerTermClassReducer(comm, plan, spec)
        elif variant == "packed":
            reducer = BlockingReducer(comm, plan)
        elif variant == "wts_only":
            reducer = CentralMStepReducer(comm, plan, db)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        clf = initial_classification(
            local, spec, j, stream.child("try", k),
            n_total_items=db.n_items, reducer=reducer,
        )
        for _ in range(n_cycles):
            clf, _wts, _stats = base_cycle(
                local, clf, n_total_items=db.n_items, reducer=reducer
            )
            if marks is not None:
                marks.append(comm.wtime())
        assert clf.scores is not None
        score = clf.scores.log_marginal_cs
    return score


def scaleup_program(comm, db, n_classes, n_measure, seed):
    """One warm-up + ``n_measure`` timed cycles (Fig. 8 workload).

    Returns this rank's virtual time after the warm-up and after each
    measured cycle; the harness derives per-cycle global durations.
    """
    marks: list[float] = []
    fixed_cycles_program(
        comm, db, (n_classes,), 1 + n_measure, seed, marks=marks
    )
    return marks


def allreduce_program(comm, nbytes, n_rounds):
    """EXP-A2 microbenchmark: mean virtual seconds per Allreduce."""
    payload = np.zeros(max(nbytes // 8, 1), dtype=np.float64)
    comm.barrier()
    t0 = comm.wtime()
    for _ in range(n_rounds):
        payload = comm.allreduce(payload)
    return (comm.wtime() - t0) / n_rounds


def kmeans_program(comm, db, k, n_measure, seed):
    """EXP-B1 workload: mean virtual seconds per parallel k-means iteration.

    ``tol=0`` pins the iteration count (no early convergence), so every
    rank executes exactly ``n_measure + 1`` identically shaped
    iterations and the mean is exact.
    """
    from repro.baselines.kmeans import parallel_kmeans

    local = db.block(comm.size, comm.rank)
    # Warm-up + measurement in one run: max_iter fixed, tol=0 means it
    # never converges early, so every rank executes exactly n_measure+1
    # identical-shape iterations.
    t0 = comm.wtime()
    parallel_kmeans(
        comm, local, k, full_db=db, seed=seed, max_iter=n_measure + 1, tol=0.0
    )
    t1 = comm.wtime()
    return (t1 - t0) / (n_measure + 1)
