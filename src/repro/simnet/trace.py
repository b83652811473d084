"""Execution tracing for the virtual-time world.

A :class:`Tracer` attached to a simulated run records every clock
movement as a typed event — compute charges, send postings, receive
waits — in virtual time.  The trace answers the questions the
aggregate counters can't: *where* does rank 3 stall, which collective's
rounds serialize, how does the wts-only variant's gather pile onto
rank 0.

:func:`render_timeline` draws the per-rank schedule as ASCII art::

    timeline: 0.004210 virtual seconds (# compute, > send, . wait)
    rank  0 |##########>>.........#####|
    rank  1 |########>>....>>##########|

A receive's ``wait`` spans idling for the sender, the message's wire
time and the receive overhead alike; all of it is drawn as ``.``.

Tracing is opt-in (``run_spmd_sim(..., tracer=Tracer())``): the hot
path stays allocation-free when disabled.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.util.tables import format_table

#: Event kinds recorded by the simulator.
KINDS = ("compute", "send", "wait")


@dataclass(frozen=True)
class TraceEvent:
    """One virtual-time interval on one rank's clock."""

    rank: int
    kind: str  # one of KINDS
    t0: float  # virtual start
    t1: float  # virtual end (>= t0)
    peer: int = -1  # other rank (send dest / recv source), -1 if n/a
    tag: int = -1
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Thread-safe collector of :class:`TraceEvent`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        if event.t1 < event.t0:
            raise ValueError(
                f"event ends before it starts: {event.t0} .. {event.t1}"
            )
        if event.kind not in KINDS:
            raise ValueError(f"unknown event kind {event.kind!r}")
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def rank_events(self, rank: int) -> list[TraceEvent]:
        return sorted(
            (e for e in self.events if e.rank == rank), key=lambda e: e.t0
        )

    def span(self) -> tuple[float, float]:
        """(earliest start, latest end) over all events."""
        events = self.events
        if not events:
            return 0.0, 0.0
        return min(e.t0 for e in events), max(e.t1 for e in events)

    # -- summaries ----------------------------------------------------------

    def time_by_kind(self, rank: int | None = None) -> dict[str, float]:
        """Total virtual seconds per event kind (optionally one rank)."""
        totals = dict.fromkeys(KINDS, 0.0)
        for e in self.events:
            if rank is None or e.rank == rank:
                totals[e.kind] += e.duration
        return totals

    def summary(self) -> str:
        ranks = sorted({e.rank for e in self.events})
        rows = []
        for r in ranks:
            by_kind = self.time_by_kind(r)
            total = sum(by_kind.values())
            rows.append(
                (
                    r,
                    f"{by_kind['compute']:.4f}",
                    f"{by_kind['send']:.4f}",
                    f"{by_kind['wait']:.4f}",
                    f"{(by_kind['wait'] / total * 100) if total else 0:.1f}%",
                )
            )
        return format_table(
            ["rank", "compute (s)", "send (s)", "wait (s)", "wait share"],
            rows,
            title="Trace summary (virtual seconds per rank)",
        )


_GLYPHS = {"compute": "#", "send": ">", "wait": "."}


def render_timeline(tracer: Tracer, width: int = 72) -> str:
    """ASCII per-rank schedule over the traced virtual-time span."""
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    t_min, t_max = tracer.span()
    span = t_max - t_min
    ranks = sorted({e.rank for e in tracer.events})
    if not ranks or span <= 0:
        return "(empty trace)"
    lines = [
        f"timeline: {span:.6f} virtual seconds "
        f"({_GLYPHS['compute']} compute, {_GLYPHS['send']} send, "
        f"{_GLYPHS['wait']} wait)"
    ]
    for r in ranks:
        cells = [" "] * width
        for e in tracer.rank_events(r):
            lo = int((e.t0 - t_min) / span * (width - 1))
            hi = max(int((e.t1 - t_min) / span * (width - 1)), lo)
            glyph = _GLYPHS[e.kind]
            for i in range(lo, hi + 1):
                # Compute wins ties so thin sends don't erase busy bars.
                if cells[i] == " " or glyph == "#":
                    cells[i] = glyph
        lines.append(f"rank {r:>2} |{''.join(cells)}|")
    return "\n".join(lines)
