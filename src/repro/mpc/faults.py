"""Fault injection for SPMD worlds — kill, hang, delay chosen ranks.

A real multicomputer loses nodes; this module makes the repo's worlds
lose them *on purpose*, deterministically, so the checkpoint/restart
path (:mod:`repro.ckpt`) can be exercised in CI.  A
:class:`FaultInjector` holds :class:`FaultSpec`\\ s — "rank 1 dies at
try 0, cycle 3" — and the parallel loops call :func:`maybe_fire` at
their phase boundaries (the same cut points :mod:`repro.obs` times).

Installation is ambient and thread-local, exactly like the
observability recorder: each SPMD rank (thread or forked process)
installs the injector for the duration of its program, so the hot path
pays one thread-local read when no injector is installed.

Actions:

* ``"kill"``  — raise :class:`FaultInjected` on the target rank.  Every
  world converts an uncaught rank exception into a world abort, so the
  fit fails and (with ``max_restarts``) restarts from checkpoint.
* ``"exit"``  — ``os._exit`` the rank's *process* (processes world
  only: a hard kill with no exception, no abort message — the parent's
  dead-worker detection must notice).  On in-process worlds this
  degrades to ``"kill"`` (hard-exiting would take the test runner with
  it).
* ``"hang"``  — sleep ``seconds`` then raise; peers blocked on the hung
  rank exercise the communication timeout path.
* ``"delay"`` — sleep ``seconds`` (or charge them as virtual compute on
  the simulated CS-2) and continue: a slow/preempted rank.  The run
  must still produce identical results — a tested invariant.

On the virtual CS-2 (``sim`` backend) a ``"delay"`` models a *node*
fault (transient slowdown) priced in virtual seconds via
``comm.charge``; a ``"kill"`` models a node loss.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

#: Sites where the loops offer to fire faults, in program order.
#: ``"init"``/``"cycle"`` are the training-loop boundaries; ``"batch"``
#: is the serving-side boundary (:mod:`repro.serve.scorer` workers
#: offer to fire before each scored batch, with ``cycle`` = the batch
#: sequence number and ``rank`` = the worker index).
FAULT_SITES = ("init", "cycle", "batch")

#: Supported fault actions.
FAULT_ACTIONS = ("kill", "exit", "hang", "delay")


class FaultInjected(RuntimeError):
    """The error an injected ``kill``/``hang`` fault raises on its rank."""

    def __init__(self, rank: int, spec: "FaultSpec") -> None:
        super().__init__(
            f"injected fault on rank {rank}: {spec.action} at "
            f"site={spec.site!r} try={spec.at_try} cycle={spec.at_cycle}"
        )
        self.rank = rank
        self.spec = spec


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what happens, to whom, and when."""

    rank: int
    action: str = "kill"
    site: str = "cycle"
    #: Fire on this try index (BIG_LOOP iteration).
    at_try: int = 0
    #: Fire on this 1-based cycle within the try (ignored at
    #: site="init"; at site="batch" it is the 0-based batch number).
    at_cycle: int = 1
    #: Sleep for "hang"/"delay" actions.
    seconds: float = 0.25
    #: Fire at most once per rank (a persistent fault would defeat
    #: every retry budget).
    once: bool = True

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"fault action {self.action!r} not in {FAULT_ACTIONS}"
            )
        if self.site not in FAULT_SITES:
            raise ValueError(f"fault site {self.site!r} not in {FAULT_SITES}")
        if self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        if self.seconds < 0:
            raise ValueError(f"fault seconds must be >= 0: {self.seconds}")

    def matches(self, rank: int, site: str, try_index: int, cycle: int) -> bool:
        if rank != self.rank or site != self.site or try_index != self.at_try:
            return False
        return site == "init" or cycle == self.at_cycle


class FaultInjector:
    """A set of scheduled faults plus per-rank fired bookkeeping.

    Picklable (the ``processes`` world ships it to every worker); the
    fired-set is rebuilt empty on unpickle, which is correct — each
    worker process tracks its own firings.
    """

    def __init__(self, specs: "FaultSpec | tuple[FaultSpec, ...] | list") -> None:
        if isinstance(specs, FaultSpec):
            specs = (specs,)
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"not a FaultSpec: {spec!r}")
        self._fired: set[tuple[int, int]] = set()
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {"specs": self.specs}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["specs"])

    def fire(self, comm, *, site: str, try_index: int, cycle: int = 0) -> None:
        """Fire any matching fault for this rank at this point.

        ``comm`` supplies the rank, the virtual-clock test for sim
        delays, and the hard-exit capability test for ``"exit"``.  A
        spec names a *world* rank: on a sub-communicator (a try group)
        the rank is read from the root of its split chain.
        """
        root = comm
        while getattr(root, "parent", None) is not None:
            root = root.parent
        rank = root.rank
        for index, spec in enumerate(self.specs):
            if not spec.matches(rank, site, try_index, cycle):
                continue
            with self._lock:
                if spec.once and (index, rank) in self._fired:
                    continue
                self._fired.add((index, rank))
            self._execute(comm, rank, spec)

    def _execute(self, comm, rank: int, spec: FaultSpec) -> None:
        action = spec.action
        if action == "exit" and not getattr(comm, "hard_exit_supported", False):
            # In-process worlds share the interpreter; degrade to "kill".
            action = "kill"
        if action == "delay":
            if getattr(comm, "clock_kind", "wall") == "virtual":
                comm.charge(spec.seconds)  # a slow node on the virtual CS-2
            else:
                time.sleep(spec.seconds)
            return
        if action == "hang":
            time.sleep(spec.seconds)
            raise FaultInjected(rank, spec)
        if action == "exit":
            os._exit(17)  # hard node loss: no exception, no abort notice
        raise FaultInjected(rank, spec)


# ---------------------------------------------------------------------------
# Ambient (thread-local) installation — mirrors repro.obs.recorder.

_tls = threading.local()


def current() -> FaultInjector | None:
    """The injector installed on this rank thread, if any."""
    return getattr(_tls, "injector", None)


def maybe_fire(comm, *, site: str, try_index: int, cycle: int = 0) -> None:
    """Hot-path hook: fire the ambient injector's matching faults."""
    injector = getattr(_tls, "injector", None)
    if injector is not None:
        injector.fire(comm, site=site, try_index=try_index, cycle=cycle)


class injecting:
    """Context manager installing ``injector`` on this rank thread."""

    __slots__ = ("_injector", "_prev")

    def __init__(self, injector: FaultInjector | None) -> None:
        self._injector = injector

    def __enter__(self) -> FaultInjector | None:
        self._prev = getattr(_tls, "injector", None)
        _tls.injector = self._injector
        return self._injector

    def __exit__(self, *exc) -> None:
        _tls.injector = self._prev
