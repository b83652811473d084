"""EXP-K — kernel microbenchmarks on the host.

Times the primitives everything else is built from: the E-step, the
M-step, the packed-statistics reduction payloads, and each Allreduce
algorithm over the thread world.  These are host-time benchmarks (no
simulator): the simulator prices compute by counted work, not by these
timings.

The E/M kernels are timed in both implementations (``"reference"``,
the seed's per-term numpy path, and ``"fused"``, the
:mod:`repro.kernels` layer), and :func:`test_fused_speedup_json`
records a machine-readable before/after comparison in
``benchmarks/out/BENCH_kernels.json``.
"""

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data.synth import make_paper_database
from repro.engine.init import initial_classification
from repro.engine.params import local_update_parameters
from repro.engine.wts import local_update_wts, update_wts
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.mpc.threadworld import run_spmd_threads
from repro.util.rng import spawn_rng

N_ITEMS = 10_000
N_CLASSES = 8
KERNEL_MODES = ("reference", "fused")


@pytest.fixture(scope="module")
def state():
    db = make_paper_database(N_ITEMS, seed=0)
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    clf = initial_classification(db, spec, N_CLASSES, spawn_rng(0))
    wts, _ = update_wts(db, clf)
    return db, spec, clf, wts.copy()  # copy: detach from the fused pool


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_update_wts_kernel(state, benchmark, mode):
    db, _spec, clf, _wts = state
    benchmark(local_update_wts, db, clf, kernels=mode)
    benchmark.extra_info["items_x_classes"] = N_ITEMS * N_CLASSES
    benchmark.extra_info["kernels"] = mode


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_update_parameters_kernel(state, benchmark, mode):
    db, spec, _clf, wts = state
    benchmark(local_update_parameters, db, spec, wts, kernels=mode)
    benchmark.extra_info["kernels"] = mode


def _best_seconds(fn, repeats: int = 50) -> float:
    """Best-of-N wall time — robust against scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fused_speedup_json(state):
    """Before/after timing of the two hot kernels → BENCH_kernels.json.

    The fused layer's acceptance bar: >= 2x over the seed reference on
    the paper workload at N=10 000 items, J=8 classes.
    """
    db, spec, clf, wts = state
    timings: dict[str, dict[str, float]] = {"update_wts": {}, "update_parameters": {}}
    for mode in KERNEL_MODES:
        # Warm up: builds the plan/workspace so caching is amortized,
        # exactly as in a real run (one build per search).
        local_update_wts(db, clf, kernels=mode)
        local_update_parameters(db, spec, wts, kernels=mode)
        timings["update_wts"][mode] = _best_seconds(
            lambda m=mode: local_update_wts(db, clf, kernels=m)
        )
        timings["update_parameters"][mode] = _best_seconds(
            lambda m=mode: local_update_parameters(db, spec, wts, kernels=m)
        )

    cells = N_ITEMS * N_CLASSES
    report = {
        "benchmark": "EXP-K fused vs reference E/M kernels",
        "workload": "make_paper_database (2 real attributes), default spec",
        "n_items": N_ITEMS,
        "n_classes": N_CLASSES,
        "items_x_classes": cells,
        "timing": "best of 50 repeats, seconds",
        "platform": platform.platform(),
        "kernels": {},
    }
    total = {"reference": 0.0, "fused": 0.0}
    for name, per_mode in timings.items():
        ref, fused = per_mode["reference"], per_mode["fused"]
        total["reference"] += ref
        total["fused"] += fused
        report["kernels"][name] = {
            "reference_s": ref,
            "fused_s": fused,
            "speedup": ref / fused,
            "throughput_reference_cells_per_s": cells / ref,
            "throughput_fused_cells_per_s": cells / fused,
        }
    report["combined"] = {
        "reference_s": total["reference"],
        "fused_s": total["fused"],
        "speedup": total["reference"] / total["fused"],
    }

    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    payload = json.dumps(report, indent=2) + "\n"
    (out_dir / "BENCH_kernels.json").write_text(payload, encoding="utf-8")
    print(payload)
    assert report["combined"]["speedup"] >= 2.0, report["combined"]


def test_approximations_kernel(state, benchmark):
    from repro.engine.approx import update_approximations
    from repro.engine.wts import finalize_wts

    db, spec, clf, wts = state
    _, payload = local_update_wts(db, clf)
    red = finalize_wts(payload, clf.n_classes)
    stats = local_update_parameters(db, spec, wts)
    benchmark(update_approximations, clf, stats, red, db.n_items)


def test_allreduce_threadworld(benchmark):
    payload_len = N_CLASSES * 6  # the paper workload's packed stats

    def world():
        def prog(comm):
            return comm.allreduce(np.ones(payload_len))

        return run_spmd_threads(prog, 4)

    results = benchmark(world)
    np.testing.assert_allclose(results[0], 4.0)


def test_seeded_init_kernel(state, benchmark):
    db, spec, _clf, _wts = state
    benchmark(
        initial_classification, db, spec, N_CLASSES, spawn_rng(1), "seeded"
    )
