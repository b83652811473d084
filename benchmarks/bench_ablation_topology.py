"""EXP-A5 — ablation: interconnect topology.

Under the paper's software-dominated message costs the CS-2's fat tree
is interchangeable with any other topology (supporting the paper's
"easily portable to various MIMD distributed-memory parallel computers"
claim); under per-hop-dominated store-and-forward routing the topology
is decisive."""

import pytest

from repro.data.synth import make_paper_database
from repro.harness.programs import fixed_cycles_program
from repro.harness.runner import ablation_topology, calibrated_machine
from repro.simnet.simworld import run_spmd_sim
from repro.simnet.topology import Ring


@pytest.fixture(scope="module")
def a5(scale, record):
    result = ablation_topology(n_items=10_000, n_cycles=3, seed=scale.seed)
    record("ablation_topology", result.render())
    return result


def test_a5_topology_insensitive_under_mpi_latency(a5, benchmark):
    # Paper regime: software latency dwarfs hops — any topology works.
    assert a5.spread("effective_mpi") < 1.05
    # Store-and-forward regime: hop counts rule; lower-diameter networks
    # win, and the ring is the worst of the point-to-point networks.
    assert a5.spread("store_and_forward") > 1.5
    saf = a5.regime("store_and_forward")
    assert saf["crossbar"] <= min(saf.values()) * 1.01
    assert saf["ring"] >= saf["hypercube"]

    db = make_paper_database(10_000, seed=0)
    machine = calibrated_machine(10).with_topology(Ring(10))
    run = benchmark.pedantic(
        run_spmd_sim,
        args=(fixed_cycles_program, 10, machine, db, (8,), 3, 0),
        kwargs={"compute_mode": "counted"},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["saf_spread"] = round(a5.spread("store_and_forward"), 2)
    assert run.elapsed > 0
