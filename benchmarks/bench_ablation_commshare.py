"""EXP-A3 — §3 design claim: "the amount of data exchanged among the
processors is not so large since most operations are performed locally".

Measures bytes-on-wire per cycle per rank (tiny: the payloads are class
aggregates, never items) and the communication share of elapsed time
(which nonetheless grows with P and caps the speedup of small
datasets)."""

import pytest

from repro.data.synth import make_paper_database
from repro.harness.programs import fixed_cycles_program
from repro.harness.runner import ablation_comm_share
from repro.simnet.machine import meiko_cs2
from repro.simnet.simworld import run_spmd_sim


@pytest.fixture(scope="module")
def a3(scale, record):
    result = ablation_comm_share(n_items=10_000, n_cycles=3, seed=scale.seed)
    record("ablation_commshare", result.render())
    return result


def test_a3_little_data_much_latency(a3, benchmark):
    # Volume claim: a rank ships a few kilobytes per cycle, versus the
    # ~640 KB its partition of a 10k x 2-attr dataset occupies.
    assert all(b < 50_000 for b in a3.bytes_per_cycle_per_rank)

    # Latency reality: the comm *time* share still grows with P — the
    # mechanism behind Figure 7's small-dataset peaks.
    assert a3.comm_fraction[-1] > a3.comm_fraction[0]

    db = make_paper_database(a3.n_items, seed=0)
    run = benchmark.pedantic(
        run_spmd_sim,
        args=(fixed_cycles_program, 10, meiko_cs2(10), db,
              (a3.n_classes,), 3, 0),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["bytes_per_cycle_per_rank_P10"] = round(
        a3.bytes_per_cycle_per_rank[-1]
    )
    benchmark.extra_info["comm_share_P10"] = round(a3.comm_fraction[-1], 3)
    assert run.total_bytes > 0
