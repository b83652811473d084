"""Run recorders: the low-overhead instrumentation objects.

The engine, kernel, and parallel layers are instrumented against the
:class:`RunRecorder` protocol and fetch the ambient recorder with
:func:`current` — a single thread-local read.  When nothing is
installed they get the shared :data:`NULL_RECORDER`, whose every
operation is a no-op: the uninstrumented hot path costs one attribute
load and one C-level method call per phase, which is what keeps
``instrument="off"`` free and ``instrument="phases"`` under the 3 %
overhead budget.

Recorders are installed *per rank thread* (SPMD ranks are threads or
processes, and the thread-local scoping follows both), each with the
**clock of its world**: ``time.perf_counter`` on real backends,
``comm.wtime`` — virtual machine seconds — on the simulated CS-2.
Everything downstream is clock-agnostic; the record schema marks which
timebase was used.

Levels (:data:`INSTRUMENT_LEVELS`):

* ``"off"``    — no recorder installed; zero bookkeeping;
* ``"phases"`` — per-phase timers and counters only (aggregates);
* ``"full"``   — phases + per-EM-cycle telemetry + per-collective
  communication events.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable
from typing import Protocol, runtime_checkable

from repro.obs.record import PHASES, RankRecord

#: Instrumentation levels of the redesigned fit API.
INSTRUMENT_LEVELS = ("off", "phases", "full")


def check_instrument(level: str) -> str:
    """Validate an ``instrument=`` argument."""
    if level not in INSTRUMENT_LEVELS:
        raise ValueError(
            f"instrument {level!r} not in {INSTRUMENT_LEVELS}"
        )
    return level


@runtime_checkable
class RunRecorder(Protocol):
    """What instrumented code may ask of the ambient recorder.

    Implementations must keep every method cheap: these calls sit on
    the EM hot path of every backend.
    """

    #: False only on the null recorder — lets call sites skip argument
    #: preparation (e.g. payload size measurement) entirely.
    enabled: bool

    def phase(self, name: str) -> "_PhaseTimer | _NullPhase":
        """Context manager timing one phase occurrence."""
        ...

    def add_phase(self, name: str, seconds: float) -> None:
        """Account ``seconds`` to ``name`` (one call)."""
        ...

    def comm_event(
        self, phase: str, nbytes: int, seconds: float, n_calls: int = 1
    ) -> None:
        """Record one collective at an instrumented cut point."""
        ...

    def cycle(self, *, n_classes: int, log_marginal: float, w_j) -> None:
        """Record one EM cycle's telemetry."""
        ...

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter (kernel-path attribution etc.)."""
        ...

    def try_boundary(self, try_index: int) -> None:
        """Mark the start of classification try ``try_index``."""
        ...


class _NullPhase:
    """Reusable no-op context manager (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_PHASE = _NullPhase()


class NullRecorder:
    """The do-nothing recorder installed-by-default everywhere."""

    __slots__ = ()
    enabled = False

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE

    def add_phase(self, name: str, seconds: float) -> None:
        return None

    def comm_event(
        self, phase: str, nbytes: int, seconds: float, n_calls: int = 1
    ) -> None:
        return None

    def cycle(self, *, n_classes: int, log_marginal: float, w_j) -> None:
        return None

    def count(self, name: str, n: int = 1) -> None:
        return None

    def try_boundary(self, try_index: int) -> None:
        return None


#: The shared null recorder (what :func:`current` returns when nothing
#: is installed).
NULL_RECORDER = NullRecorder()


class _PhaseTimer:
    """Times one ``with`` block on the recorder's clock."""

    __slots__ = ("_rec", "_name", "_t0")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self._rec = rec
        self._name = name

    def __enter__(self) -> "_PhaseTimer":
        self._t0 = self._rec.clock()
        return self

    def __exit__(self, *exc) -> None:
        self._rec.add_phase(self._name, self._rec.clock() - self._t0)


def _entropy(w_j) -> float:
    """Shannon entropy (nats) of normalized non-negative weights."""
    total = float(sum(w_j))
    if total <= 0.0:
        return 0.0
    h = 0.0
    for w in w_j:
        p = float(w) / total
        if p > 0.0:
            h -= p * math.log(p)
    return h


class Recorder:
    """A per-rank recorder for ``"phases"`` or ``"full"`` instrumentation."""

    __slots__ = (
        "level", "rank", "size", "clock", "clock_kind",
        "phase_seconds", "phase_calls", "counters",
        "cycles_", "comm_events_",
        "_t_start", "_cycle_index", "_try_index", "_prev_log_marginal",
        "_full",
    )

    enabled = True

    def __init__(
        self,
        level: str = "phases",
        *,
        rank: int = 0,
        size: int = 1,
        clock: Callable[[], float] = time.perf_counter,
        clock_kind: str = "wall",
    ) -> None:
        if level not in ("phases", "full"):
            raise ValueError(
                f"recorder level must be 'phases' or 'full', got {level!r}"
            )
        self.level = level
        self.rank = rank
        self.size = size
        self.clock = clock
        self.clock_kind = clock_kind
        self.phase_seconds: dict[str, float] = {}
        self.phase_calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.cycles_: list = []
        self.comm_events_: list = []
        self._t_start = clock()
        self._cycle_index = 0
        self._try_index = 0
        self._prev_log_marginal: float | None = None
        self._full = level == "full"

    # -- hot-path API ------------------------------------------------------

    def phase(self, name: str) -> _PhaseTimer:
        return _PhaseTimer(self, name)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.phase_calls[name] = self.phase_calls.get(name, 0) + 1

    def comm_event(
        self, phase: str, nbytes: int, seconds: float, n_calls: int = 1
    ) -> None:
        if self._full:
            from repro.obs.record import CommEventRecord

            self.comm_events_.append(
                CommEventRecord(
                    phase=phase, nbytes=nbytes, seconds=seconds, n_calls=n_calls
                )
            )

    def cycle(self, *, n_classes: int, log_marginal: float, w_j) -> None:
        if not self._full:
            self._cycle_index += 1
            return
        from repro.obs.record import CycleRecord

        prev = self._prev_log_marginal
        # A new try restarts from a fresh initialization; comparing its
        # first score against another try's last would be meaningless.
        delta = (log_marginal - prev) if prev is not None else math.nan
        self.cycles_.append(
            CycleRecord(
                index=self._cycle_index,
                n_classes=n_classes,
                log_marginal=log_marginal,
                delta=delta,
                w_j_entropy=_entropy(w_j),
                try_index=self._try_index,
            )
        )
        self._prev_log_marginal = log_marginal
        self._cycle_index += 1

    def try_boundary(self, try_index: int) -> None:
        """Mark the start of try ``try_index`` (resets deltas; the
        cycles that follow carry its index)."""
        self._prev_log_marginal = None
        self._try_index = try_index

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- lifecycle ---------------------------------------------------------

    def to_rank_record(self, comm_stats=None) -> RankRecord:
        """Freeze this recorder into a serializable :class:`RankRecord`.

        ``comm_stats`` is the rank communicator's final
        :class:`~repro.mpc.api.CommStats` (None for sequential runs);
        its totals subsume the old ad-hoc ``CommStats`` reporting.
        """
        comm: dict[str, float] = {}
        if comm_stats is not None:
            comm = {
                "n_sends": float(comm_stats.n_sends),
                "n_recvs": float(comm_stats.n_recvs),
                "bytes_sent": float(comm_stats.bytes_sent),
                "bytes_received": float(comm_stats.bytes_received),
                "n_collectives": float(comm_stats.n_collectives),
                "seconds_in_comm": float(comm_stats.seconds_in_comm),
            }
        unknown = set(self.phase_seconds) - set(PHASES)
        if unknown:
            raise ValueError(f"unknown phases recorded: {sorted(unknown)}")
        return RankRecord(
            rank=self.rank,
            size=self.size,
            instrument=self.level,
            clock=self.clock_kind,
            wall_seconds=self.clock() - self._t_start,
            phase_seconds=dict(self.phase_seconds),
            phase_calls=dict(self.phase_calls),
            counters=dict(self.counters),
            cycles=list(self.cycles_),
            comm_events=list(self.comm_events_),
            comm=comm,
        )


# ---------------------------------------------------------------------------
# Ambient (thread-local) installation.

_tls = threading.local()


def current() -> RunRecorder:
    """The recorder installed on this thread (or the null recorder)."""
    rec = getattr(_tls, "recorder", None)
    return rec if rec is not None else NULL_RECORDER


class recording:
    """Context manager installing ``rec`` as this thread's recorder."""

    __slots__ = ("_rec", "_prev")

    def __init__(self, rec: RunRecorder) -> None:
        self._rec = rec

    def __enter__(self) -> RunRecorder:
        self._prev = getattr(_tls, "recorder", None)
        _tls.recorder = self._rec
        return self._rec

    def __exit__(self, *exc) -> None:
        _tls.recorder = self._prev
