"""EXP-A2 — why the Allreduce is recursive doubling: does the emergent
simulated cost of the one executed algorithm match its textbook round
structure, and what would the textbook alternatives cost on the paper's
payloads."""

import numpy as np
import pytest

from repro.harness.programs import allreduce_program
from repro.harness.runner import ablation_collectives
from repro.mpc.collectives import ALLREDUCE
from repro.simnet.machine import meiko_cs2
from repro.simnet.simworld import run_spmd_sim


@pytest.fixture(scope="module")
def a2(record):
    result = ablation_collectives()
    record("ablation_collectives", result.render())
    return result


def test_a2_emergent_costs_match_textbook(a2, benchmark):
    """The simulator prices collectives by their actual message rounds;
    those emergent costs must track the closed-form expectations."""
    for key, measured in a2.measured.items():
        assert measured == pytest.approx(a2.expected[key], rel=0.6), key

    # For the paper's small payloads, latency dominates: the ring's
    # 2(P-1) rounds must lose to recursive doubling's log2(P) rounds.
    for p in a2.procs:
        if p >= 4:
            assert a2.measured[(ALLREDUCE, p)] < a2.expected[("ring", p)]

    run = benchmark.pedantic(
        run_spmd_sim,
        args=(allreduce_program, 8, meiko_cs2(8), a2.nbytes, 20),
        kwargs={"compute_mode": "modeled"},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["us_per_allreduce"] = round(
        float(np.mean(run.results)) * 1e6, 1
    )
