"""EXP-T2 — §3 text claim: sequential time grows linearly with size.

("Considering that the execution time increases linearly with the size
of dataset...")  Regenerates the P=1 size sweep and checks the linear
fit; benchmarks the largest sequential run.
"""

import pytest

from repro.data.synth import make_paper_database
from repro.harness.runner import _run_classification_sim, t2_linear_sequential


@pytest.fixture(scope="module")
def t2(scale, record):
    result = t2_linear_sequential(scale)
    record("t2_linear_seq", result.render())
    return result


def test_t2_linearity(t2, scale, benchmark):
    assert t2.r_squared > 0.999
    # Doubling the data roughly doubles the time.
    by_size = dict(zip(t2.sizes, t2.seconds))
    small, large = scale.sizes[1], scale.sizes[-1]
    ratio = by_size[large] / by_size[small]
    expected = large / small
    assert ratio == pytest.approx(expected, rel=0.15)

    db = make_paper_database(scale.sizes[-1], seed=scale.seed)
    run = benchmark.pedantic(
        _run_classification_sim,
        args=(db, 1, scale, 0),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["r_squared"] = round(t2.r_squared, 6)
    assert run.elapsed > 0
