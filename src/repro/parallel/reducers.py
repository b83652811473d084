"""The communicating reducers of the one EM cycle.

:func:`repro.engine.cycle.base_cycle` is written once as ``chunks x
reducer``; this module is the *reducer* axis on a real world — how the
paper's two Allreduce cut points (Figures 4/5) are crossed:

* :class:`WorldReducer` — a size-1 world: the identity of
  :class:`~repro.engine.cycle.LocalReducer` (no collective is ever
  called) on the world's clock and fault sites;
* :class:`BlockingReducer` — E → M → one Allreduce: the M half needs
  only the *local* weights, so the E payload ``[w_j, sum_log_z,
  sum_w_log_w]`` and every term's statistics travel packed in one
  buffer of the try's :class:`~repro.parallel.packed.ReductionPlan`,
  reduced in place inside ``launch_stats``.  Recursive doubling
  combines elementwise, so this is bitwise the paper's two cut points
  at half the collectives.  (The figure experiments keep the paper's
  two cut points — and Figure 5's per-(class, term) reduction — as
  subclasses in :mod:`repro.harness.programs`.)

Observability: the reduction time is accounted as phases
``"allreduce_wts"`` / ``"allreduce_params"`` with one comm event each
per cut point crossed.  The blocking reducer crosses one — its packed
reduction is accounted as ``"allreduce_params"`` and
``"allreduce_wts"`` reads 0.
"""

from __future__ import annotations

import numpy as np

from repro.engine.cycle import LocalReducer
from repro.models.registry import ModelSpec
from repro.mpc import faults
from repro.mpc.api import Communicator
from repro.obs import recorder as obs
from repro.parallel.packed import ReductionPlan


class WorldReducer(LocalReducer):
    """A world's clock, traffic counter, fault sites and one-shot sum.

    The two cut points stay the inherited identity — right for a size-1
    world, which is what :func:`reducer_for` hands this class to; the
    subclasses cross them on larger worlds.
    """

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self.rank = comm.rank
        self.size = comm.size
        self.clock = comm.wtime

    @property
    def bytes_sent(self) -> int:
        return self.comm.stats.bytes_sent

    def fault_site(self, site: str, *, try_index: int, cycle: int = 0) -> None:
        faults.maybe_fire(self.comm, site=site, try_index=try_index, cycle=cycle)

    def allreduce(self, payload: np.ndarray) -> np.ndarray:
        if self.size == 1:
            return payload
        return np.asarray(self.comm.allreduce(payload))


class BlockingReducer(WorldReducer):
    """One packed reduction per cycle, completed inside ``launch_stats``."""

    def __init__(self, comm: Communicator, plan: ReductionPlan) -> None:
        super().__init__(comm)
        self.plan = plan

    def _timed(self, phase: str, nbytes: int, reduce):
        """Run one reduction, accounted on the recorder."""
        rec = obs.current()
        if not rec.enabled:
            return reduce()
        n0 = self.comm.stats.n_collectives
        t0 = rec.clock()
        out = reduce()
        dt = rec.clock() - t0
        rec.add_phase(phase, dt)
        rec.comm_event(
            phase, nbytes, dt,
            n_calls=max(self.comm.stats.n_collectives - n0, 1),
        )
        return out

    def launch_wts(self, payload: np.ndarray) -> None:
        # The M half needs only local weights: the payload rides with
        # the statistics in the cycle's one reduction.
        self._payload = payload

    def launch_stats(self, stats: np.ndarray) -> None:
        payload = self._payload
        self._payload, self._stats = self._timed(
            "allreduce_params", payload.nbytes + stats.nbytes,
            lambda: self.plan.allreduce(payload, stats),
        )


def reducer_for(
    comm: Communicator,
    n_classes: int,
    spec: ModelSpec,
    *,
    plan: ReductionPlan | None = None,
) -> WorldReducer:
    """The reducer a try with ``n_classes`` classes runs on ``comm``.

    Size-1 worlds reduce by identity; otherwise the cycle's one packed
    reduction blocks, in place through ``plan`` (created here unless the
    caller owns one).
    """
    if comm.size == 1:
        return WorldReducer(comm)
    if plan is None:
        plan = ReductionPlan(comm, n_classes, spec.n_stats)
    return BlockingReducer(comm, plan)
