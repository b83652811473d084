"""Paper-style reporting over observability records.

The paper's Tables 2–4 split each EM phase into compute vs. Allreduce
time per processor and derive speedup/efficiency from elapsed times.
This module renders the same shapes from any backend's
:class:`~repro.obs.record.RunRecord` — wall seconds from the real
worlds, virtual machine seconds from the simulated CS-2, one schema:

* :func:`phase_table` — per-rank wts/params compute vs. Allreduce
  breakdown (Table 2/3-shaped);
* :func:`cycle_table` — per-EM-cycle telemetry (``"full"`` records);
* :func:`speedup_table` / :func:`speedup_efficiency` — T1/Tp and
  T1/(p·Tp) across runs at different processor counts (Table 4-shaped);
* :func:`render_run` — the composite report behind ``Run.report()``.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.obs.record import RunRecord
from repro.util.tables import format_table


def _clock_unit(record: RunRecord) -> str:
    return "virtual s" if record.clock == "virtual" else "s"


def phase_table(record: RunRecord) -> str:
    """Per-rank phase breakdown: compute vs. Allreduce, Table 2/3-shaped."""
    unit = _clock_unit(record)
    rows = []
    for r in record.ranks:
        total = r.total_phase_seconds
        comm = r.allreduce_seconds
        rows.append(
            (
                r.rank,
                r.n_cycles,
                f"{r.seconds('wts'):.4f}",
                f"{r.seconds('allreduce_wts'):.4f}",
                f"{r.seconds('params'):.4f}",
                f"{r.seconds('allreduce_params'):.4f}",
                f"{r.seconds('approx'):.4f}",
                f"{r.seconds('init'):.4f}",
                f"{(comm / total * 100) if total else 0:.1f}%",
                f"{r.wall_seconds:.4f}",
            )
        )
    return format_table(
        [
            "rank", "cycles",
            f"wts ({unit})", f"ar-wts ({unit})",
            f"params ({unit})", f"ar-params ({unit})",
            f"approx ({unit})", f"init ({unit})",
            "comm share", f"total ({unit})",
        ],
        rows,
        title=(
            f"Phase breakdown — backend={record.backend} "
            f"P={record.n_processors} ({record.clock} clock); "
            "compute vs. Allreduce per rank (paper Tables 2-3 shape)"
        ),
    )


def comm_table(record: RunRecord) -> str:
    """Per-rank communication totals (subsumes the old CommStats dump)."""
    rows = []
    for r in record.ranks:
        comm = r.comm
        rows.append(
            (
                r.rank,
                int(comm.get("n_collectives", 0)),
                int(comm.get("n_sends", 0)),
                int(comm.get("bytes_sent", 0)),
                int(comm.get("bytes_received", 0)),
                f"{r.allreduce_seconds:.4f}",
            )
        )
    return format_table(
        ["rank", "collectives", "sends", "bytes sent", "bytes recv",
         "allreduce s"],
        rows,
        title=f"Communication totals — backend={record.backend}",
    )


def cycle_table(record: RunRecord, rank: int = 0, max_rows: int = 40) -> str:
    """Per-EM-cycle telemetry of one rank (``instrument="full"`` only)."""
    r = record.rank(rank)
    if not r.cycles:
        return (
            "(no cycle telemetry: record was taken at "
            f"instrument={record.instrument!r}; use instrument='full')"
        )
    cycles = r.cycles
    clipped = len(cycles) > max_rows
    rows = [
        (
            c.index,
            c.n_classes,
            f"{c.log_marginal:.3f}",
            "" if c.delta != c.delta else f"{c.delta:.5f}",  # NaN -> try start
            f"{c.w_j_entropy:.4f}",
        )
        for c in cycles[:max_rows]
    ]
    title = (
        f"EM-cycle telemetry — rank {rank}, {len(cycles)} cycles"
        + (f" (first {max_rows} shown)" if clipped else "")
    )
    return format_table(
        ["cycle", "J", "log P(X|T)~", "delta", "H(w_j)"], rows, title=title
    )


def counter_table(record: RunRecord) -> str:
    """Kernel-path and miscellaneous counters, summed over ranks."""
    totals: dict[str, int] = {}
    for r in record.ranks:
        for name, n in r.counters.items():
            totals[name] = totals.get(name, 0) + n
    if not totals:
        return "(no counters recorded)"
    rows = [(name, totals[name]) for name in sorted(totals)]
    return format_table(["counter", "total"], rows, title="Counters (all ranks)")


def render_run(record: RunRecord) -> str:
    """The composite paper-style report behind ``Run.report()``."""
    parts = [phase_table(record)]
    if any(r.comm for r in record.ranks):
        parts.append(comm_table(record))
    if record.instrument == "full":
        parts.append(cycle_table(record))
        parts.append(counter_table(record))
    unit = _clock_unit(record)
    parts.append(f"elapsed ({unit}, slowest rank): {record.elapsed:.4f}")
    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Speedup / efficiency across processor counts.

def speedup_efficiency(
    elapsed_by_procs: Mapping[int, float]
) -> dict[int, tuple[float, float]]:
    """``{p: (speedup, efficiency)}`` from ``{p: elapsed}`` measurements.

    The reference time is the smallest measured processor count
    (ideally 1, as in the paper's Table 4); speedup = T_ref·p_ref/Tp
    reduces to T1/Tp when a single-processor run is present.
    """
    if not elapsed_by_procs:
        raise ValueError("no elapsed measurements given")
    p_ref = min(elapsed_by_procs)
    t_ref = elapsed_by_procs[p_ref]
    out: dict[int, tuple[float, float]] = {}
    for p in sorted(elapsed_by_procs):
        tp = elapsed_by_procs[p]
        speedup = (t_ref * p_ref / tp) if tp > 0 else float("inf")
        out[p] = (speedup, speedup / p)
    return out


def record_try_groups(record: RunRecord) -> int:
    """Number of try-parallel groups a run used (1 when single-level).

    The grouped search records a ``try_groups`` counter on every rank;
    runs predating it (or single-level runs) default to 1.
    """
    return max(
        (r.counters.get("try_groups", 1) for r in record.ranks), default=1
    )


def speedup_table(records: list[RunRecord]) -> str:
    """Speedup/efficiency table from instrumented runs at several P.

    All records must come from the same backend (and therefore the same
    clock); elapsed is the slowest rank's total per run.  Runs are keyed
    by ``(procs, try_groups)``, so the same processor count may appear
    once per group configuration — the paper Table 4 shape with a group
    dimension added.  The reference row is the smallest ``(P, G)``.
    """
    if not records:
        raise ValueError("no records given")
    backends = {r.backend for r in records}
    if len(backends) > 1:
        raise ValueError(f"records mix backends: {sorted(backends)}")
    clocks = {r.clock for r in records}
    if len(clocks) > 1:
        raise ValueError(f"records mix clocks: {sorted(clocks)}")
    elapsed = {
        (r.n_processors, record_try_groups(r)): r.elapsed for r in records
    }
    if len(elapsed) != len(records):
        raise ValueError(
            "duplicate (processor count, try_groups) configurations "
            "among records"
        )
    p_ref, _ = ref = min(elapsed)
    t_ref = elapsed[ref]
    unit = _clock_unit(records[0])
    rows = []
    for p, g in sorted(elapsed):
        tp = elapsed[(p, g)]
        speedup = (t_ref * p_ref / tp) if tp > 0 else float("inf")
        rows.append(
            (p, g, f"{tp:.4f}", f"{speedup:.2f}", f"{speedup / p:.2f}")
        )
    return format_table(
        ["procs", "groups", f"elapsed ({unit})", "speedup", "efficiency"],
        rows,
        title=(
            f"Speedup/efficiency — backend={records[0].backend} "
            "(paper Table 4 shape)"
        ),
    )
