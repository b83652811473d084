"""EXP-F7 — Figure 7: speedup T1/Tp per dataset size.

Regenerates every speedup series plus the linear reference, asserts the
paper's qualitative structure (small datasets peak early, the largest
scales to 10), and benchmarks the P=10 run of the smallest dataset —
the cell whose relative communication cost is the figure's whole story.
"""

import pytest

from repro.data.synth import make_paper_database
from repro.harness.runner import _run_classification_sim, fig6_elapsed, fig7_speedup


@pytest.fixture(scope="module")
def fig7(scale, record):
    result = fig7_speedup(fig6=fig6_elapsed(scale))
    record("fig7_speedup", result.render())
    return result


def test_fig7_regenerates_paper_series(fig7, scale, benchmark):
    smallest, largest = scale.sizes[0], scale.sizes[-1]

    # Paper: "the P-AutoClass algorithm scales well up to 10 processors
    # for the largest datasets".
    assert fig7.peak_procs(largest) >= 9
    _, sp_large = fig7.speedup(largest)
    assert sp_large[-1] > 5.0

    # Paper: "for small datasets the speedup increases until the optimal
    # number of processors ... (e.g., 4 procs for 5000 tuples)".
    assert fig7.peak_procs(smallest) <= 6

    # Monotone ordering: larger datasets achieve higher speedup at P=10.
    at10 = [fig7.speedup(s)[1][-1] for s in scale.sizes]
    assert at10 == sorted(at10) or all(
        b >= a - 0.3 for a, b in zip(at10, at10[1:])
    )

    db = make_paper_database(smallest, seed=scale.seed)
    result = benchmark.pedantic(
        _run_classification_sim,
        args=(db, 10, scale, 0),
        rounds=1,
        iterations=1,
    )
    _, sp_small = fig7.speedup(smallest)
    benchmark.extra_info["speedup_at_10"] = sp_small[-1]
    benchmark.extra_info["peak_procs"] = fig7.peak_procs(smallest)
    assert result.elapsed > 0
