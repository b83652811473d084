"""Sequential AutoClass: the engine P-AutoClass parallelizes.

Structure mirrors the paper's Figure 1–3 decomposition of AutoClass C:

* ``BIG_LOOP`` (classification generation and evaluation) —
  :mod:`repro.engine.search`;
* ``base_cycle`` = ``update_wts`` → ``update_parameters`` →
  ``update_approximations`` — :mod:`repro.engine.cycle`,
  :mod:`repro.engine.wts`, :mod:`repro.engine.params`,
  :mod:`repro.engine.approx`.

Every step is split into a *local* part (a pure function of a database
block) and a *finalize* part (a pure function of globally reduced
quantities), and the cycle, initializer and BIG_LOOP compose them
around a *reducer* argument.  The sequential engine passes the identity
:class:`~repro.engine.cycle.LocalReducer`; :mod:`repro.parallel` passes
one that Allreduces — the very same code either way, which is how the
reproduction guarantees the paper's "same semantics as the sequential
algorithm".
"""

from repro.engine.classification import Classification, Scores
from repro.engine.convergence import RelativeDeltaChecker
from repro.engine.cycle import CycleStats, LocalReducer, base_cycle
from repro.engine.init import initial_classification, random_weights
from repro.engine.modelsearch import (
    ModelSearchResult,
    candidate_specs,
    run_model_search,
)
from repro.engine.results_io import (
    load_classification,
    load_search_result,
    save_classification,
    save_search_result,
)
from repro.engine.report import ClassReport, classification_report
from repro.engine.rlog import detailed_report, write_report
from repro.engine.search import SearchConfig, SearchResult, TryResult, run_search

__all__ = [
    "ClassReport",
    "Classification",
    "CycleStats",
    "LocalReducer",
    "ModelSearchResult",
    "RelativeDeltaChecker",
    "Scores",
    "SearchConfig",
    "SearchResult",
    "TryResult",
    "base_cycle",
    "candidate_specs",
    "classification_report",
    "detailed_report",
    "initial_classification",
    "load_classification",
    "load_search_result",
    "random_weights",
    "run_model_search",
    "run_search",
    "save_classification",
    "save_search_result",
    "write_report",
]
