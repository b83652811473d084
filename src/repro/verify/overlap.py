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

from typing import Any

from repro.util import docfile
from repro.verify.conformance import (
    ConformanceError,
    ConformanceReport,
    compare_traces,
)
from repro.verify.tolerance import BITWISE
from repro.verify.trace import RunTrace, capture_trace


def content_digest(trace: RunTrace) -> str:
    """sha256 of a trace's *numbers*, metadata excluded.

    :meth:`RunTrace.digest` covers the metadata too, so two arms that
    differ only in their (intentionally different) ``allreduce`` label
    would never share it.  This digest is the bitwise-equality check on
    everything actually computed: cycles, tries, class map, margins.
    """
    d = trace.to_dict()
    del d["meta"]
    return docfile.digest(d)


def check_overlap_conformance(
    sdb,
    db,
    config: dict[str, Any],
    *,
    world: str,
    size: int,
    verify: str = "strict",
    kernels: str = "fused",
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
    blocking = capture_trace(
        db, config, fit_on=sdb, world=world, size=size, overlap=False,
        kernels=kernels, instrument=instrument,
    )
    overlapped = capture_trace(
        db, config, fit_on=sdb, world=world, size=size, overlap=True,
        kernels=kernels, segments=segments, instrument=instrument,
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
