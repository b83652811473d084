"""The virtual-time SPMD world.

:class:`SimComm` extends the thread world's communicator with a virtual
clock per rank:

* **Compute** is priced, never timed: the computation is real —
  identical numerics to any other backend — but the clock advances only
  by what the compute mode charges for it, so host speed and load never
  reach virtual time.
* **Messages**: a send stamps the envelope with
  ``available_at = sender_clock + wire_time(src, dst, nbytes)`` and
  advances the sender by its send overhead; a receive advances the
  receiver to ``max(own_clock + recv_overhead, available_at)``.
  Virtual timestamps are pure functions of the message pattern, so the
  clock results are deterministic even though thread scheduling is not.
* **Collectives** run their real p2p rounds, so their cost emerges from
  the message pattern; each reduction combine also charges the modelled
  ``reduce_seconds_per_byte``.

One compute mode, ``"counted"``: the clock is charged the work the
engine kernels report through :mod:`repro.util.workhooks`, priced by a
:class:`~repro.simnet.workmodel.WorkModel`, plus any explicit
:meth:`SimComm.charge` calls.  A program whose kernels report no work
(a communication-only microbenchmark) is priced by its messages alone.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.mpc.api import CollectiveConfig, CommStats, payload_nbytes
from repro.mpc.p2p import AbortFlag, Envelope, Mailbox
from repro.mpc.threadworld import ThreadComm, run_spmd_threads
from repro.simnet.costmodel import CostModel
from repro.simnet.machine import MachineSpec
from repro.util import workhooks

if TYPE_CHECKING:
    from repro.simnet.trace import Tracer
    from repro.simnet.workmodel import WorkModel

#: The accepted ``compute_mode`` values: only ``"counted"``, free of
#: Python call-overhead artifacts and deterministic.
COMPUTE_MODES = ("counted",)


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
        compute_mode: str = "counted",
        work_model: "WorkModel | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        super().__init__(rank, mailboxes, abort, collectives)
        if compute_mode not in COMPUTE_MODES:
            raise ValueError(
                f"compute_mode {compute_mode!r} not in {COMPUTE_MODES}"
            )
        if work_model is None:
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
        self.clock = 0.0
        self.compute_seconds = 0.0  # virtual seconds spent computing
        self.comm_seconds = 0.0  # virtual seconds spent in communication

    # -- clock plumbing ----------------------------------------------------

    def wtime(self) -> float:
        """Current virtual time of this rank."""
        return self.clock

    def work_hook(self, kind: str, n_items: int, n_classes: int, n_stats: int) -> None:
        """Price a kernel's reported work."""
        self.charge(self.work_model.seconds_for(kind, n_items, n_classes, n_stats))

    def charge(self, seconds: float) -> None:
        """Explicitly add modelled compute time."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        if self.tracer is not None and seconds > 0:
            from repro.simnet.trace import TraceEvent

            self.tracer.record(
                TraceEvent(self.rank, "compute", self.clock, self.clock + seconds)
            )
        self.clock += seconds
        self.compute_seconds += seconds

    # -- priced point-to-point ----------------------------------------------

    def _send_raw(self, obj: object, dest: int, tag: int) -> int:
        self._abort.check()
        nbytes = payload_nbytes(obj)
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
                available_at=available,
            )
        )
        return nbytes

    def _recv_raw(self, source: int, tag: int) -> tuple[object, int]:
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
        return env.payload, env.nbytes

    # -- collectives: price the reduction arithmetic -----------------------
    #
    # The base Communicator prices (all)reduce arithmetic through
    # ``_charge_reduction_rounds``; the exchange itself is priced by the
    # point-to-point overrides above.

    def _charge_reduction_rounds(self, rounds: int, payload) -> None:
        # Price the arithmetic of the reduction this rank performed:
        # one full-payload combine per recursive-doubling round.
        self.charge(rounds * self.cost.reduce_time(payload_nbytes(payload)))


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
    compute_mode: str = "counted",
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
        # The engine kernels' work reports are routed to this rank's
        # pricing hook (ranks are threads, hooks are thread-local).
        with workhooks.installed(comm.work_hook):
            return fn(comm, *a, **kw)

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
