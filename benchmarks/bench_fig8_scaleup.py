"""EXP-F8 — Figure 8: scaleup of base_cycle (fixed tuples/processor).

Regenerates both cluster-count series (J=8, J=16) and asserts the
paper's claim of a "nearly stable pattern"; benchmarks the largest
configuration (10 processors, 10 x tuples-per-proc items).
"""

import pytest

from repro.data.synth import make_paper_database
from repro.harness.programs import scaleup_program
from repro.harness.runner import fig8_scaleup
from repro.simnet.machine import meiko_cs2
from repro.simnet.simworld import run_spmd_sim


@pytest.fixture(scope="module")
def fig8(scale, record):
    result = fig8_scaleup(scale)
    record("fig8_scaleup", result.render())
    return result


def test_fig8_regenerates_paper_series(fig8, scale, benchmark):
    # Paper: "delivers nearly constant execution times in number of
    # processors showing good scaleup".
    for j in scale.scaleup_j:
        assert fig8.flatness(j) < 1.6
        procs, times = fig8.series(j)
        assert len(procs) == 10
        assert all(t > 0 for t in times)

    # J=16 cycles cost roughly twice J=8 (work is linear in J).
    _, t8 = fig8.series(8)
    _, t16 = fig8.series(16)
    assert 1.5 < (sum(t16) / sum(t8)) < 2.5

    db = make_paper_database(scale.scaleup_tuples_per_proc * 10, seed=scale.seed)
    run = benchmark.pedantic(
        run_spmd_sim,
        args=(scaleup_program, 10, meiko_cs2(10, comm_scale=scale.factor),
              db, 8, 3, scale.seed),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["sec_per_cycle_P10_J8"] = fig8.seconds_per_cycle[(8, 10)]
    assert run.elapsed > 0
