"""Per-try packed reduction buffers for the two Allreduce cut points.

P-AutoClass's EM cycle reduces two payloads: the E-step vector
``[w_j (J), sum_log_z, sum_w_log_w]`` (length ``J + 2``) and the
M-step's packed sufficient statistics (``(J, n_stats)``).  Both shapes
are fixed for the whole lifetime of a try (they depend only on the
requested class count), so the search plans the buffers **once per
try** and reuses them every cycle: the local payload is copied into the
plan's contiguous float64 buffer and reduced in place with
:meth:`~repro.mpc.api.Communicator.allreduce_into`, which runs out of
the communicator's :class:`~repro.mpc.buffers.BufferPool`.  Net effect:
zero array allocations on the reduction path after the first cycle.

Results are bitwise identical to the unplanned path — ``allreduce_into``
reproduces the configured algorithm's message schedule and combine
orientation exactly — so conformance and verify guarantees carry over
unchanged.

Buffer lifetime: the reduced values are only *read* downstream
(``finalize_wts`` copies ``w_j``; ``finalize_parameters`` and
``update_approximations`` are pure functions that retain nothing), so
overwriting the buffers next cycle is safe.

Nonblocking reductions (:class:`~repro.parallel.reducers.
OverlappedReducer`) cannot run out of these buffers: the pool's two-call
parity that makes in-place reuse race-free assumes the next
collective's blocking receives fence every peer's reads, and a
nonblocking handle deliberately breaks that fence (peers may hold round
envelopes across the whole overlapped compute window).  ``iallreduce``
therefore sends a private copy of the payload — one allocation per
cycle, bought back many times over by the hidden communication.
"""

from __future__ import annotations

import numpy as np

from repro.engine.wts import N_EXTRA_SLOTS
from repro.mpc.api import Communicator
from repro.mpc.reduceops import ReduceOp


class ReductionPlan:
    """Preallocated reduction buffers for one try on one communicator.

    Create after the try's class count ``J`` is known; the try's
    :class:`~repro.parallel.reducers.BlockingReducer` reduces both cut
    points in place through it.  Counts its reductions so tests can assert the plan
    was actually exercised.
    """

    def __init__(self, comm: Communicator, n_classes: int, n_stats: int) -> None:
        self.comm = comm
        self.n_classes = n_classes
        self.n_stats = n_stats
        self.wts_buf = np.empty(n_classes + N_EXTRA_SLOTS, dtype=np.float64)
        self.stats_buf = np.empty((n_classes, n_stats), dtype=np.float64)
        self.n_wts_reductions = 0
        self.n_stats_reductions = 0

    def allreduce_wts(self, payload: np.ndarray) -> np.ndarray:
        """Globally sum an E-step payload; returns the plan's buffer."""
        np.copyto(self.wts_buf, payload)
        self.comm.allreduce_into(self.wts_buf, ReduceOp.SUM)
        self.n_wts_reductions += 1
        return self.wts_buf

    def allreduce_stats(self, local_stats: np.ndarray) -> np.ndarray:
        """Globally sum packed M-step statistics; returns the plan's buffer."""
        np.copyto(self.stats_buf, local_stats)
        self.comm.allreduce_into(self.stats_buf, ReduceOp.SUM)
        self.n_stats_reductions += 1
        return self.stats_buf
