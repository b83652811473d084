"""repro — P-AutoClass: scalable parallel Bayesian clustering.

A full reproduction of *"Scalable Parallel Clustering for Data Mining
on Multicomputers"* (Foti, Lipari, Pizzuti & Talia, IPPS 2000):
AutoClass-style Bayesian unsupervised classification, its SPMD
parallelization over an MPI-shaped message-passing layer, and a
virtual-time multicomputer that reproduces the paper's Meiko CS-2
experiments.

Quick start::

    from repro import AutoClass, PAutoClass, make_paper_database

    db = make_paper_database(5_000, seed=0)
    ac = AutoClass(start_j_list=(2, 4, 8), max_n_tries=3, seed=7)
    ac.fit(db)
    print(ac.report())

    pac = PAutoClass(n_processors=8, backend="sim",
                     start_j_list=(2, 4, 8), max_n_tries=3, seed=7,
                     instrument="phases")
    run = pac.fit(db)          # identical classification...
    print(run.sim_elapsed)     # ...plus its time on the simulated CS-2
    print(run.report())        # per-rank phase/Allreduce breakdown

Package map (details in DESIGN.md):

========================  ==================================================
``repro.data``            databases, schemas, synthesis, ``.hd2/.db2`` I/O
``repro.models``          attribute probability models (AutoClass terms)
``repro.engine``          sequential AutoClass (BIG_LOOP / base_cycle)
``repro.mpc``             message-passing library (MPI-shaped)
``repro.simnet``          virtual-time multicomputer (Meiko CS-2 model)
``repro.parallel``        P-AutoClass — the paper's contribution
``repro.obs``             run observability (phase timers, records, report)
``repro.ckpt``            checkpoint/restart for durable searches
``repro.serve``           fitted-model artifacts + batched inference
``repro.harness``         experiment runners for every figure/claim
========================  ==================================================
"""

from repro.api import (
    BACKENDS,
    AutoClass,
    NotFittedError,
    PAutoClass,
    Run,
    register_backend,
)
from repro.serve import (
    ArtifactError,
    FittedModel,
    Scorer,
    ScorerConfig,
)
from repro.ckpt import CheckpointError, Checkpointer, CheckpointSpec
from repro.mpc.faults import FaultInjected, FaultInjector, FaultSpec
from repro.data import (
    AttributeSet,
    Database,
    DiscreteAttribute,
    RealAttribute,
    ShardCorruptionError,
    ShardedDatabase,
    ShardFormatError,
    make_mixed_database,
    make_paper_database,
    make_separable_blobs,
)
from repro.engine import SearchConfig, SearchResult
from repro.models import ModelSpec, parse_model_spec
from repro.util.metrics import adjusted_rand_index, confusion_matrix, purity
from repro.verify import ConformanceError, ConformanceReport

__version__ = "1.0.0"

__all__ = [
    "ArtifactError",
    "AttributeSet",
    "AutoClass",
    "BACKENDS",
    "CheckpointError",
    "CheckpointSpec",
    "Checkpointer",
    "ConformanceError",
    "ConformanceReport",
    "Database",
    "DiscreteAttribute",
    "FaultInjected",
    "FaultInjector",
    "FaultSpec",
    "FittedModel",
    "ModelSpec",
    "NotFittedError",
    "PAutoClass",
    "RealAttribute",
    "Run",
    "Scorer",
    "ScorerConfig",
    "SearchConfig",
    "SearchResult",
    "ShardCorruptionError",
    "ShardFormatError",
    "ShardedDatabase",
    "__version__",
    "adjusted_rand_index",
    "confusion_matrix",
    "make_mixed_database",
    "make_paper_database",
    "make_separable_blobs",
    "parse_model_spec",
    "purity",
    "register_backend",
]
