"""EXP-A1 — §5 comparison: P-AutoClass vs wts-only parallelism.

The paper claims its design "exploits parallelism also in the
parameters computing phase, with a further improvement of performance"
over the Miller & Guo MIMD prototype.  This bench measures both
variants on the simulated CS-2.
"""

import pytest

from repro.data.synth import make_paper_database
from repro.harness.programs import fixed_cycles_program
from repro.harness.runner import ablation_variants
from repro.simnet.machine import meiko_cs2
from repro.simnet.simworld import run_spmd_sim


@pytest.fixture(scope="module")
def a1(scale, record):
    n_items = max(scale.sizes[-1] * 12, 10_000)  # ~the paper's mid sizes
    result = ablation_variants(
        n_items=n_items, n_cycles=3, comm_scale=1.0, seed=scale.seed
    )
    record("ablation_variants", result.render())
    return result


def test_a1_pautoclass_beats_wts_only(a1, benchmark):
    # Equal at P=1 (no communication either way)...
    assert a1.advantage(1) == pytest.approx(1.0, rel=0.05)
    # ...and the paper's design wins once the M-step has to scale.
    assert a1.advantage(8) > 1.0
    assert a1.advantage(10) > 1.0

    db = make_paper_database(a1.n_items, seed=0)
    run = benchmark.pedantic(
        run_spmd_sim,
        args=(fixed_cycles_program, 8, meiko_cs2(8), db,
              (a1.n_classes,), 3, 0),
        kwargs={"variant": "wts_only"},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["advantage_at_8"] = round(a1.advantage(8), 3)
    assert run.elapsed > 0
