"""EXP-B1 — baseline: P-AutoClass vs parallel k-means (related work [10]).

Same SPMD pattern (partition, local stats, Allreduce, replicated
update) on a ~10x lighter kernel: k-means hits the communication wall
at lower processor counts, which is why the paper's compute-heavy
Bayesian clustering is the better fit for the multicomputer."""

import pytest

from repro.data.synth import make_paper_database
from repro.harness.programs import kmeans_program
from repro.harness.runner import baseline_kmeans_comparison
from repro.simnet.machine import meiko_cs2
from repro.simnet.simworld import run_spmd_sim


@pytest.fixture(scope="module")
def b1(scale, record):
    result = baseline_kmeans_comparison(n_items=10_000, seed=scale.seed)
    record("baseline_kmeans", result.render())
    return result


def test_b1_same_pattern_different_wall(b1, benchmark):
    # Both parallelize (elapsed decreases with P at first)...
    assert b1.sec_per_cycle_pautoclass[1] < b1.sec_per_cycle_pautoclass[0]
    assert b1.sec_per_iter_kmeans[1] < b1.sec_per_iter_kmeans[0]
    # ...k-means is much cheaper per iteration...
    assert b1.sec_per_iter_kmeans[0] < b1.sec_per_cycle_pautoclass[0]
    # ...and P-AutoClass's comm share per unit of compute is higher at
    # this size (the per-term-class collectives), so relative speedup
    # at P=10 favors the lighter-communication k-means here; both
    # saturate well below linear.
    assert max(b1.speedup("kmeans")) < 10
    assert max(b1.speedup("pautoclass")) < 10

    db = make_paper_database(10_000, seed=0)
    elapsed = benchmark.pedantic(
        run_spmd_sim,
        args=(kmeans_program, 8, meiko_cs2(8), db, 8, 5, 0),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["kmeans_s_per_iter_P8"] = round(
        b1.sec_per_iter_kmeans[b1.procs.index(8)], 4
    )
    assert elapsed.elapsed > 0
