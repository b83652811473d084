"""Host-to-SPARC compute calibration.

The virtual clock converts host CPU seconds into modelled-machine
seconds through ``MachineSpec.cpu_scale``.  That scale is measured, not
guessed: :func:`calibrate_cpu_scale` times this host running the real
``base_cycle`` on a reference workload (the paper's: two real
attributes) and anchors the measured per-(item x class) cost to the
SPARC cost implied by the paper's Figure 8
(:data:`repro.simnet.machine.SPARC_SECONDS_PER_ITEM_CLASS`).

With that single anchor, the simulator's absolute times land in the
paper's ballpark and — more importantly — the *ratio* structure
(speedup, scaleup) depends only on measured host compute vs modelled
communication, not on the anchor at all.
"""

from __future__ import annotations

import time
from functools import lru_cache

from repro.data.synth import make_paper_database
from repro.engine.cycle import base_cycle
from repro.engine.init import initial_classification
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.simnet.machine import (
    SPARC_SECONDS_PER_ITEM_CLASS,
    MachineSpec,
    meiko_cs2,
)
from repro.util.rng import spawn_rng


def measure_host_item_class_seconds(
    n_items: int = 10_000,
    n_classes: int = 8,
    n_cycles: int = 3,
    seed: int = 123,
) -> float:
    """Host CPU seconds of ``base_cycle`` per (item x class).

    Runs a few warm cycles on the paper's reference workload and
    reports the best (least-noisy) per-unit cost.
    """
    db = make_paper_database(n_items, seed=seed)
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    clf = initial_classification(db, spec, n_classes, spawn_rng(seed))
    # Warm-up: first cycle pays allocator and cache-fill costs.
    clf, _, _ = base_cycle(db, clf)
    best = float("inf")
    for _ in range(n_cycles):
        t0 = time.thread_time()
        clf, _, _ = base_cycle(db, clf)
        best = min(best, time.thread_time() - t0)
    return best / (n_items * n_classes)


@lru_cache(maxsize=1)
def calibrate_cpu_scale(
    target_seconds_per_item_class: float = SPARC_SECONDS_PER_ITEM_CLASS,
) -> float:
    """``cpu_scale`` that makes this host's kernels cost SPARC time.

    Cached: one calibration per process (it costs a few hundred ms).
    """
    host = measure_host_item_class_seconds()
    if host <= 0:
        raise RuntimeError("calibration measured non-positive host time")
    return target_seconds_per_item_class / host


def calibrated_machine(n_procs: int, comm_scale: float = 1.0) -> MachineSpec:
    """The simulated CS-2 with the host-calibrated CPU scale.

    ``comm_scale`` shrinks the latency constants in lock-step with a
    scaled-down workload (see :func:`repro.simnet.machine.meiko_cs2`).
    """
    return meiko_cs2(
        n_procs, cpu_scale=calibrate_cpu_scale(), comm_scale=comm_scale
    )
