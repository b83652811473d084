"""The virtual-time SPMD world.

:class:`SimComm` extends the thread world's communicator with a virtual
clock per rank:

* **Compute**: between communication calls, the rank's *actual* CPU time
  (``time.thread_time``, which counts only the calling thread even under
  the GIL) is accumulated and scaled by the machine's ``cpu_scale``.
  The computation is therefore real — identical numerics to any other
  backend — and only its *price* is translated to the modelled CPU.
* **Messages**: a send stamps the envelope with
  ``available_at = sender_clock + wire_time(src, dst, nbytes)`` and
  advances the sender by its send overhead; a receive advances the
  receiver to ``max(own_clock + recv_overhead, available_at)``.
  Virtual timestamps are pure functions of the message pattern, so the
  clock results are deterministic even though thread scheduling is not.
* **Collectives** run their real p2p rounds.  Python interpreter
  overhead *inside* the collective algorithms is deliberately **not**
  charged as compute (a C MPI library doesn't pay Python prices);
  instead each reduction combine charges the modelled
  ``reduce_seconds_per_byte``.

Two compute modes:

* ``"measured"`` (default) — charge scaled thread CPU time, for real
  workloads;
* ``"modeled"`` — charge only explicit :meth:`SimComm.charge` calls,
  for deterministic simulator tests.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.mpc.api import CollectiveConfig, CommStats
from repro.mpc.p2p import AbortFlag, Envelope, Mailbox
from repro.mpc.threadworld import ThreadComm, run_spmd_threads
from repro.simnet.costmodel import CostModel
from repro.simnet.machine import MachineSpec
from repro.util import workhooks

if TYPE_CHECKING:
    from repro.simnet.trace import Tracer
    from repro.simnet.workmodel import WorkModel

#: ``"measured"`` — charge scaled host CPU time between comm calls;
#: ``"modeled"``  — charge only explicit :meth:`SimComm.charge` calls;
#: ``"counted"``  — charge the work the engine kernels report through
#: :mod:`repro.util.workhooks`, priced by a
#: :class:`~repro.simnet.workmodel.WorkModel` (default for experiments:
#: free of Python call-overhead artifacts, deterministic).
COMPUTE_MODES = ("measured", "modeled", "counted")


class SimComm(ThreadComm):
    """A rank endpoint whose clock runs in modelled-machine seconds."""

    clock_kind = "virtual"

    def __init__(
        self,
        rank: int,
        mailboxes: Sequence[Mailbox],
        abort: AbortFlag,
        collectives: CollectiveConfig | None,
        machine: MachineSpec,
        compute_mode: str = "measured",
        work_model: "WorkModel | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        super().__init__(rank, mailboxes, abort, collectives)
        if compute_mode not in COMPUTE_MODES:
            raise ValueError(
                f"compute_mode {compute_mode!r} not in {COMPUTE_MODES}"
            )
        if compute_mode == "counted" and work_model is None:
            from repro.simnet.workmodel import WorkModel

            work_model = WorkModel()
        self.work_model = work_model
        self.tracer = tracer
        if machine.n_processors < len(mailboxes):
            raise ValueError(
                f"machine has {machine.n_processors} processors, "
                f"world needs {len(mailboxes)}"
            )
        self.machine = machine
        self.cost = CostModel(machine)
        self.compute_mode = compute_mode
        self.clock = 0.0
        self.compute_seconds = 0.0  # virtual seconds spent computing
        self.comm_seconds = 0.0  # virtual seconds spent in communication
        self._mark = time.thread_time()
        self._collective_depth = 0

    # -- clock plumbing ----------------------------------------------------

    def wtime(self) -> float:
        """Current virtual time of this rank."""
        self._absorb_compute()
        return self.clock

    def work_hook(self, kind: str, n_items: int, n_classes: int, n_stats: int) -> None:
        """Price a kernel's reported work (``"counted"`` mode only)."""
        assert self.work_model is not None
        self.charge(self.work_model.seconds_for(kind, n_items, n_classes, n_stats))

    def charge(self, seconds: float) -> None:
        """Explicitly add modelled compute time (any mode)."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        if self.tracer is not None and seconds > 0:
            from repro.simnet.trace import TraceEvent

            self.tracer.record(
                TraceEvent(self.rank, "compute", self.clock, self.clock + seconds)
            )
        self.clock += seconds
        self.compute_seconds += seconds

    def _absorb_compute(self) -> None:
        """Convert host CPU time since the last mark into virtual time."""
        now = time.thread_time()
        if self.compute_mode == "measured" and self._collective_depth == 0:
            delta = (now - self._mark) * self.machine.cpu_scale
            if self.tracer is not None and delta > 0:
                from repro.simnet.trace import TraceEvent

                self.tracer.record(
                    TraceEvent(self.rank, "compute", self.clock, self.clock + delta)
                )
            self.clock += delta
            self.compute_seconds += delta
        self._mark = now

    def _reset_mark(self) -> None:
        """Drop accumulated host CPU time (e.g. time spent blocked)."""
        self._mark = time.thread_time()

    def _try_recv(self, source: int, tag: int):
        """Poll *at the current virtual time*: match only arrived messages.

        "Has the message arrived?" is answered at this rank's own clock:
        an envelope matches only if its ``available_at`` is not in the
        future (``ready_by``), so an ``irecv(...).test()`` right after
        the matching send reports "not yet" until compute has advanced
        the clock past the wire time.  A hit charges only the receive
        overhead: the wire time has already elapsed.
        """
        self._absorb_compute()
        env = self._mailboxes[self.rank].try_collect(
            source, tag, ready_by=self.clock
        )
        if env is None:
            self._reset_mark()  # host-side polling has no virtual duration
            return None
        arrived = self.clock + self.machine.recv_overhead
        if self.tracer is not None:
            from repro.simnet.trace import TraceEvent

            self.tracer.record(
                TraceEvent(
                    self.rank, "wait", self.clock, arrived,
                    peer=env.source, tag=env.tag, nbytes=env.nbytes,
                )
            )
        self.comm_seconds += arrived - self.clock
        self.clock = arrived
        self.stats.n_recvs += 1
        self.stats.bytes_received += env.nbytes
        self._reset_mark()
        return env.payload

    # -- priced point-to-point ----------------------------------------------

    def _send_raw(self, obj: object, dest: int, tag: int, nbytes: int) -> None:
        self._absorb_compute()
        self._abort.check()
        available = (
            self.clock
            + self.machine.send_overhead
            + self.cost.wire_time(self.rank, dest, nbytes)
        )
        if self.tracer is not None:
            from repro.simnet.trace import TraceEvent

            self.tracer.record(
                TraceEvent(
                    self.rank, "send", self.clock,
                    self.clock + self.machine.send_overhead,
                    peer=dest, tag=tag, nbytes=nbytes,
                )
            )
        self.clock += self.machine.send_overhead
        self.comm_seconds += self.machine.send_overhead
        self._mailboxes[dest].deposit(
            Envelope(
                source=self.rank,
                tag=tag,
                payload=obj,
                nbytes=nbytes,
                send_seq=next(self._send_seq),
                available_at=available,
            )
        )
        self._reset_mark()

    def _recv_raw(self, source: int, tag: int) -> tuple[object, int, int, int]:
        self._absorb_compute()
        env = self._mailboxes[self.rank].collect(
            source, tag, timeout=self.collective_config.timeout_seconds
        )
        arrived = max(self.clock + self.machine.recv_overhead, env.available_at)
        if self.tracer is not None:
            from repro.simnet.trace import TraceEvent

            self.tracer.record(
                TraceEvent(
                    self.rank, "wait", self.clock, arrived,
                    peer=env.source, tag=env.tag, nbytes=env.nbytes,
                )
            )
        self.comm_seconds += arrived - self.clock
        self.clock = arrived
        self._reset_mark()
        return env.payload, env.source, env.tag, env.nbytes

    # -- collectives: suppress Python-overhead charging, price reductions ---
    #
    # The base Communicator wraps every collective's exchange in
    # ``_collective_scope()`` and prices (all)reduce arithmetic through
    # ``_charge_reduction_rounds``; overriding those two hooks replaces
    # the per-collective overrides this class used to carry.  Python
    # interpreter overhead *inside* the collective algorithms is
    # deliberately not charged as compute (a C MPI library doesn't pay
    # Python prices).

    def _next_coll_tag(self) -> int:
        # Called on entry to every collective wrapper; absorb the
        # caller's compute *before* suspending measurement.
        self._absorb_compute()
        return super()._next_coll_tag()

    def _collective_scope(self):
        return _SimCollectiveScope(self)

    def _charge_reduction_rounds(self, rounds: int, payload) -> None:
        # Price the arithmetic of the reduction this rank performed:
        # one full-payload combine per recursive-doubling round.
        from repro.mpc.api import payload_nbytes

        self.charge(rounds * self.cost.reduce_time(payload_nbytes(payload)))


class _SimCollectiveScope:
    """Suspend measured-compute charging for one collective's exchange."""

    __slots__ = ("_comm",)

    def __init__(self, comm: SimComm) -> None:
        self._comm = comm

    def __enter__(self) -> "_SimCollectiveScope":
        comm = self._comm
        comm._absorb_compute()  # charge the kernel work preceding the collective
        comm._collective_depth += 1
        return self

    def __exit__(self, *_exc) -> None:
        comm = self._comm
        comm._collective_depth -= 1
        comm._reset_mark()


@dataclass(frozen=True)
class SimRunResult:
    """Outcome of one simulated SPMD run."""

    results: list
    clocks: list[float]  # final virtual time per rank
    compute_seconds: list[float]
    comm_seconds: list[float]
    stats: list[CommStats]
    machine: MachineSpec

    @property
    def elapsed(self) -> float:
        """Virtual wall time of the run (slowest rank)."""
        return max(self.clocks)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_sent for s in self.stats)

    @property
    def comm_fraction(self) -> float:
        """Share of the critical rank's time spent communicating."""
        worst = max(range(len(self.clocks)), key=lambda r: self.clocks[r])
        if self.clocks[worst] == 0:
            return 0.0
        return self.comm_seconds[worst] / self.clocks[worst]


def run_spmd_sim(
    fn: Callable,
    size: int,
    machine: MachineSpec,
    *args,
    collectives: CollectiveConfig | None = None,
    compute_mode: str = "measured",
    work_model: "WorkModel | None" = None,
    tracer: "Tracer | None" = None,
    **kwargs,
) -> SimRunResult:
    """Run ``fn(comm, *args, **kwargs)`` on a virtual-time world.

    Like :func:`repro.mpc.threadworld.run_spmd_threads` but every rank's
    communicator is a :class:`SimComm` priced against ``machine``.
    """
    comms: list[SimComm] = []

    def factory(rank, mailboxes, abort, coll):
        comm = SimComm(
            rank, mailboxes, abort, coll, machine, compute_mode, work_model,
            tracer,
        )
        comms.append(comm)
        return comm

    def wrapped(comm, *a, **kw):
        # The final compute segment must be absorbed on the worker
        # thread itself (thread_time is per-thread).  In counted mode,
        # the engine kernels' work reports are routed to this rank's
        # pricing hook (ranks are threads, hooks are thread-local).
        comm._reset_mark()  # the construction-time mark belongs to the
        # launching thread's CPU clock, not this rank's
        try:
            if comm.compute_mode == "counted":
                with workhooks.installed(comm.work_hook):
                    return fn(comm, *a, **kw)
            return fn(comm, *a, **kw)
        finally:
            comm._absorb_compute()

    results = run_spmd_threads(
        wrapped, size, *args, collectives=collectives, comm_factory=factory, **kwargs
    )
    comms.sort(key=lambda c: c.rank)
    return SimRunResult(
        results=results,
        clocks=[c.clock for c in comms],
        compute_seconds=[c.compute_seconds for c in comms],
        comm_seconds=[c.comm_seconds for c in comms],
        stats=[c.stats for c in comms],
        machine=machine,
    )
