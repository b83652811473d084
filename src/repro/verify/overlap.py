"""Strict conformance of overlapped vs blocking streamed fits.

The nonblocking hot path (:mod:`repro.mpc.icollectives` +
``CollectiveConfig(overlap=True)``) promises that overlap changes *when*
reduction rounds run, never *what* they compute.  This module makes
that promise machine-checkable the same way the cross-backend matrix
does: fit the same sharded database twice on the same world — once
blocking, once overlapped — extract both :class:`~repro.verify.trace.
RunTrace` footprints, and hold them to the **bitwise** tolerance.

This is deliberately separate from ``fit(verify=...)``: the in-fit
shadow run replays the search through the in-memory harness and is
refused for streamed data (see ``repro.api.check_verify``).
The overlap gate needs no in-memory replay — both arms stream — so it
lives here and is exercised by ``tests/verify/test_overlap_conformance``
across all four worlds.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.verify.conformance import (
    ConformanceError,
    ConformanceReport,
    compare_traces,
)
from repro.verify.tolerance import BITWISE
from repro.verify.trace import RunTrace, TraceMeta


def content_digest(trace: RunTrace) -> str:
    """sha256 of a trace's *numbers*, metadata excluded.

    :meth:`RunTrace.digest` covers the metadata too, so two arms that
    differ only in their (intentionally different) ``allreduce`` label
    would never share it.  This digest is the bitwise-equality check on
    everything actually computed: cycles, tries, class map, margins.
    """
    d = trace.to_dict()
    del d["meta"]
    payload = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def capture_streamed_trace(
    sdb,
    db,
    config: dict[str, Any],
    *,
    world: str,
    size: int,
    overlap: bool,
    kernels: str = "fused",
    allreduce: str = "recursive_doubling",
    segments: int = 1,
    case: str = "",
    instrument: str = "full",
) -> RunTrace:
    """Fit ``sdb`` once on ``(world, size)`` and extract its trace.

    ``db`` is the in-memory database ``sdb`` shards — the class map
    (trace layer 4) scores every item's membership, which needs the
    materialized data; the fit itself streams.
    """
    from repro.api import PAutoClass
    from repro.mpc.api import CollectiveConfig

    meta = TraceMeta(
        case=case, world=world, size=size, kernels=kernels,
        allreduce=f"{allreduce}+overlap" if overlap else allreduce,
    )
    model = PAutoClass(
        n_processors=size,
        backend=world,
        collectives=CollectiveConfig(
            allreduce=allreduce, overlap=overlap, segments=segments
        ),
        instrument=instrument,
        kernels=kernels,
        **config,
    )
    run = model.fit(sdb)
    return RunTrace.from_run(run, db, meta)


def check_overlap_conformance(
    sdb,
    db,
    config: dict[str, Any],
    *,
    world: str,
    size: int,
    verify: str = "strict",
    kernels: str = "fused",
    allreduce: str = "recursive_doubling",
    segments: int = 1,
    instrument: str = "full",
) -> ConformanceReport:
    """Fit blocking and overlapped streamed arms; compare bitwise.

    ``verify="strict"`` raises :class:`~repro.verify.ConformanceError`
    on the first diverging bit (the same contract as
    ``fit(verify="strict")``); ``"trace"`` only returns the report.
    The arms run under the identical seeded ``config``, so the traces
    must be digest-equal — overlap reorders rounds in time but replays
    the blocking schedule's exact combine association.
    """
    blocking = capture_streamed_trace(
        sdb, db, config, world=world, size=size, overlap=False,
        kernels=kernels, allreduce=allreduce, instrument=instrument,
    )
    overlapped = capture_streamed_trace(
        sdb, db, config, world=world, size=size, overlap=True,
        kernels=kernels, allreduce=allreduce, segments=segments,
        instrument=instrument,
    )
    report = compare_traces(blocking, overlapped, tolerance=BITWISE)
    if verify == "strict":
        if not report.ok:
            raise ConformanceError(report)
        # Belt-and-braces: the value-level walk passed, so the content
        # digests must agree too; a mismatch here means serialization
        # drift (a field the walk does not compare), still a failure.
        if content_digest(blocking) != content_digest(overlapped):
            raise ConformanceError(report)
    return report
