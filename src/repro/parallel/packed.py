"""Per-try packed reduction buffer for the EM cycle's global sums.

P-AutoClass's EM cycle reduces two payloads: the E-step vector
``[w_j (J), sum_log_z, sum_w_log_w]`` (length ``J + 2``) and the
M-step's packed sufficient statistics (``(J, n_stats)``).  The paper
reduces them at two cut points (Figures 4/5); since the M half needs
only the *local* weights, the library packs both into one buffer and
makes one Allreduce per cycle after the M half.  Both shapes are fixed
for the whole lifetime of a try (they depend only on the requested
class count), so the search plans the buffer **once per try** and
reuses it every cycle: the local payloads are copied into the plan's
contiguous float64 buffer and summed in place with
:meth:`~repro.mpc.api.Communicator.allreduce_into`.

Results are bitwise identical to the unplanned path — ``allreduce_into``
is ``allreduce`` written back into the buffer, and recursive doubling
sums elementwise — so conformance and verify guarantees carry over
unchanged.

Buffer lifetime: the reduced values are only *read* downstream
(``finalize_wts`` copies ``w_j``; ``finalize_parameters`` and
``update_approximations`` are pure functions that retain nothing), so
overwriting the buffers next cycle is safe.  The Allreduce never sends
the caller's array, so no peer still reads the buffer when it is
refilled.
"""

from __future__ import annotations

import numpy as np

from repro.engine.wts import N_EXTRA_SLOTS
from repro.mpc.api import Communicator


class ReductionPlan:
    """Preallocated reduction buffers for one try on one communicator.

    Create after the try's class count ``J`` is known.  One contiguous
    float64 buffer holds ``[w_j (J), sum_log_z, sum_w_log_w | stats]``:
    :meth:`allreduce` reduces both payloads with a single in-place
    ``allreduce_into`` (what the library's
    :class:`~repro.parallel.reducers.BlockingReducer` does once per
    cycle), while :meth:`allreduce_wts` / :meth:`allreduce_stats` reduce
    one part alone (the paper's two cut points, kept by the figure
    reducers of :mod:`repro.harness.programs`).  Recursive doubling
    combines elementwise, so the packed call and the two separate calls
    give bitwise the same sums.  Counts its reductions so tests can
    assert the plan was actually exercised.
    """

    def __init__(self, comm: Communicator, n_classes: int, n_stats: int) -> None:
        self.comm = comm
        self.n_classes = n_classes
        self.n_stats = n_stats
        n_wts = n_classes + N_EXTRA_SLOTS
        self.buf = np.empty(n_wts + n_classes * n_stats, dtype=np.float64)
        self.wts_buf = self.buf[:n_wts]
        self.stats_buf = self.buf[n_wts:].reshape(n_classes, n_stats)
        self.n_packed_reductions = 0
        self.n_wts_reductions = 0
        self.n_stats_reductions = 0

    def allreduce(
        self, payload: np.ndarray, local_stats: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Globally sum an E-step payload and the packed M-step statistics
        in one reduction; returns the plan's two views."""
        np.copyto(self.wts_buf, payload)
        np.copyto(self.stats_buf, local_stats)
        self.comm.allreduce_into(self.buf)
        self.n_packed_reductions += 1
        return self.wts_buf, self.stats_buf

    def allreduce_wts(self, payload: np.ndarray) -> np.ndarray:
        """Globally sum an E-step payload alone; returns the plan's view."""
        np.copyto(self.wts_buf, payload)
        self.comm.allreduce_into(self.wts_buf)
        self.n_wts_reductions += 1
        return self.wts_buf

    def allreduce_stats(self, local_stats: np.ndarray) -> np.ndarray:
        """Globally sum packed M-step statistics alone; returns the view."""
        np.copyto(self.stats_buf, local_stats)
        self.comm.allreduce_into(self.stats_buf)
        self.n_stats_reductions += 1
        return self.stats_buf
