"""EXP-A4 — ablation: the paper's Figure-5 loop-level Allreduces vs one
packed Allreduce per cycle.

The paper's drawn structure reduces the E payload at its own cut point
and each (class, attribute) block separately; packing both payloads
into a single collective removes that latency multiplier.  This bench
quantifies what the paper's communication structure cost — and what
this reproduction's packed default saves."""

import pytest

from repro.data.synth import make_paper_database
from repro.harness.programs import fixed_cycles_program
from repro.harness.runner import ablation_granularity, calibrated_machine
from repro.simnet.simworld import run_spmd_sim


@pytest.fixture(scope="module")
def a4(scale, record):
    result = ablation_granularity(n_items=10_000, n_cycles=3, seed=scale.seed)
    record("ablation_granularity", result.render())
    return result


def test_a4_packed_reduction_wins(a4, benchmark):
    for p in a4.procs:
        assert a4.overhead(p) >= 1.0
    # The gap widens with processors (more rounds per collective).
    assert a4.overhead(10) > a4.overhead(2)

    db = make_paper_database(a4.n_items, seed=0)
    run = benchmark.pedantic(
        run_spmd_sim,
        args=(fixed_cycles_program, 10, calibrated_machine(10), db,
              (a4.n_classes,), 3, 0),
        kwargs={"variant": "packed", "compute_mode": "counted"},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["per_term_class_overhead_P10"] = round(a4.overhead(10), 2)
    assert run.elapsed > 0
