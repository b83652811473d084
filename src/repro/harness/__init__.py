"""Experiment harness: regenerates every figure and text claim.

Per-experiment index in DESIGN.md.  ``pautoclass experiments`` and
``benchmarks/bench_figures.py`` both go through :func:`run_experiment`,
so they print the same bytes; every result is also reproducible
interactively::

    from repro.harness import fig7_speedup, ExperimentScale
    print(fig7_speedup(ExperimentScale(0.1)).render())

The experiment functions exported here are exactly the runners of the
:data:`EXPERIMENTS` table (``fig6_elapsed``, ``fig7_speedup``, ... —
see :mod:`repro.harness.runner`), which is also what
``pautoclass experiments --which`` chooses from.  Each is
``run(scale)`` and returns a ``Table`` or a ``Series``.
"""

from repro.harness.experiments import (
    PAPER_PROCS,
    PAPER_SIZES,
    PAPER_START_J_LIST,
    ExperimentScale,
)
from repro.harness.runner import EXPERIMENTS, run_experiment

globals().update({exp.run.__name__: exp.run for exp in EXPERIMENTS.values()})

__all__ = [
    "EXPERIMENTS",
    "ExperimentScale",
    "PAPER_PROCS",
    "PAPER_SIZES",
    "PAPER_START_J_LIST",
    "run_experiment",
    *sorted(exp.run.__name__ for exp in EXPERIMENTS.values()),
]
