"""Experiment harness: regenerates every figure and text claim.

Per-experiment index in DESIGN.md; the benchmark files under
``benchmarks/`` are thin wrappers over these functions, so every result
is also reproducible interactively::

    from repro.harness import fig7_speedup, ExperimentScale
    print(fig7_speedup(ExperimentScale(0.1)).render())

The experiment functions exported here are exactly the runners of the
:data:`EXPERIMENTS` registry (``fig6_elapsed``, ``fig7_speedup``, ... —
see :mod:`repro.harness.runner`), which is also what
``pautoclass experiments --which`` chooses from.
"""

from repro.harness.experiments import (
    PAPER_PROCS,
    PAPER_SIZES,
    PAPER_START_J_LIST,
    ExperimentScale,
)
from repro.harness.runner import EXPERIMENTS, run_experiment

globals().update({exp.fn.__name__: exp.fn for exp in EXPERIMENTS.values()})

__all__ = [
    "EXPERIMENTS",
    "ExperimentScale",
    "PAPER_PROCS",
    "PAPER_SIZES",
    "PAPER_START_J_LIST",
    "run_experiment",
    *sorted(exp.fn.__name__ for exp in EXPERIMENTS.values()),
]
