"""EXP-F6 — Figure 6: average elapsed times vs number of processors.

Regenerates the full elapsed-time table (seven dataset sizes x ten
processor counts on the simulated CS-2) and benchmarks one
representative cell: the largest dataset on 10 processors.
"""

import pytest

from repro.data.synth import make_paper_database
from repro.harness.runner import _run_classification_sim, fig6_elapsed


@pytest.fixture(scope="module")
def fig6(scale, record):
    result = fig6_elapsed(scale)
    record("fig6_elapsed", result.render())
    return result


def test_fig6_regenerates_paper_series(fig6, scale, benchmark):
    """Times decrease with processors; the gain grows with dataset size
    — the two observations the paper draws from its Figure 6."""
    for n_items in scale.sizes:
        procs, times = fig6.series(n_items)
        assert times[procs.index(10)] < times[procs.index(1)]
    gain_small = fig6.elapsed[(scale.sizes[0], 1)] - fig6.elapsed[(scale.sizes[0], 10)]
    gain_large = fig6.elapsed[(scale.sizes[-1], 1)] - fig6.elapsed[(scale.sizes[-1], 10)]
    assert gain_large > gain_small

    db = make_paper_database(scale.sizes[-1], seed=scale.seed)
    result = benchmark.pedantic(
        _run_classification_sim,
        args=(db, 10, scale, 0),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["virtual_elapsed_s"] = result.elapsed
    benchmark.extra_info["n_items"] = scale.sizes[-1]
