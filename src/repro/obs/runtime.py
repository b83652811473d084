"""Running SPMD programs under a recorder, on any world.

Two functions serve all four backends, and neither knows which program
it records:

* :func:`run_recorded` wraps a ``fn(comm, *args)`` SPMD program with a
  per-rank :class:`~repro.obs.recorder.Recorder` bound to the world's
  clock (``comm.wtime`` — wall seconds on real worlds, *virtual machine
  seconds* on the simulated CS-2, so the same schema covers both) and
  returns the rank's ``(result, RankRecord)`` pair.  On the
  ``processes`` backend each worker returns that pair over the result
  pipe — cross-process record merging with no shared memory;
* :func:`build_run_record` assembles per-rank records into the unified
  :class:`~repro.obs.record.RunRecord`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.obs.record import RankRecord, RunRecord
from repro.obs.recorder import Recorder, check_instrument, recording


def run_recorded(
    comm,
    fn: Callable,
    *args,
    instrument: str = "off",
    **kwargs,
) -> tuple[object, RankRecord | None]:
    """Run ``fn(comm, *args, **kwargs)`` under this rank's recorder.

    Returns ``(result, rank_record)``; the record is ``None`` when
    ``instrument="off"`` (the program runs exactly as uninstrumented —
    no recorder is installed at all).
    """
    check_instrument(instrument)
    if instrument == "off":
        return fn(comm, *args, **kwargs), None
    rec = Recorder(
        level=instrument,
        rank=comm.rank,
        size=comm.size,
        clock=comm.wtime,
        clock_kind=getattr(comm, "clock_kind", "wall"),
    )
    with recording(rec):
        result = fn(comm, *args, **kwargs)
    return result, rec.to_rank_record(comm_stats=comm.stats)


def build_run_record(
    backend: str,
    n_processors: int,
    instrument: str,
    rank_records: list[RankRecord | None],
) -> RunRecord | None:
    """Merge per-rank records (any world) into one :class:`RunRecord`.

    Returns ``None`` when instrumentation was off (all records None).
    """
    records = [r for r in rank_records if r is not None]
    if not records:
        return None
    if len(records) != n_processors:
        raise ValueError(
            f"{len(records)} rank records for a {n_processors}-rank world"
        )
    return RunRecord(
        backend=backend,
        n_processors=n_processors,
        instrument=instrument,
        ranks=records,
    )
