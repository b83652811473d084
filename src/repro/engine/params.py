"""``update_parameters`` — the M-step, split into local and finalize halves.

The paper's Figure 5: each rank computes its partition's contribution to
the class posterior parameter statistics, one Allreduce sums them, and
every rank then computes the (identical) normalized parameter values.

The local half packs every term's weighted sufficient statistics into a
single dense ``(n_classes, n_stats)`` array (layout owned by
:func:`repro.models.registry.pack_stats`), so the whole M-step costs
exactly one Allreduce regardless of how many terms the model has — the
same choice the paper makes.
"""

from __future__ import annotations

import numpy as np

from repro.data.database import Database
from repro.engine.classification import Classification, class_weight_prior
from repro.kernels import config as kernel_config
from repro.kernels.mstep import fused_local_update_parameters
from repro.models.base import TermParams
from repro.models.registry import ModelSpec, pack_stats, unpack_stats
from repro.obs import recorder as obs
from repro.util import workhooks
from repro.util.logspace import safe_log


def local_update_parameters(
    db: Database,
    spec: ModelSpec,
    wts: np.ndarray,
    *,
    kernels: str | None = None,
) -> np.ndarray:
    """Local weighted sufficient statistics, packed ``(n_classes, n_stats)``.

    Additive over partitions: summing the packed arrays of all ranks
    gives exactly the packed statistics of the full dataset.

    ``kernels`` selects the implementation: ``"fused"`` (the default
    mode) computes the whole packed array as one GEMM against the cached
    design matrix (:mod:`repro.kernels.mstep`); ``"reference"`` runs the
    seed's per-term accumulation.
    """
    if kernel_config.resolve(kernels) == "fused":
        return fused_local_update_parameters(db, spec, wts)
    workhooks.report("params", db.n_items, wts.shape[1], spec.n_stats)
    obs.current().count("mstep.reference")
    per_term = [term.accumulate_stats(db, wts) for term in spec.terms]
    return pack_stats(spec, per_term)


def finalize_parameters(
    spec: ModelSpec,
    global_stats: np.ndarray,
    w_j: np.ndarray,
    n_items: int,
) -> tuple[np.ndarray, tuple[TermParams, ...]]:
    """MAP parameters from the *global* statistics (pure, replicable).

    Returns ``(log_pi, term_params)``.  The class weights use the
    AutoClass estimate ``pi_j = (w_j + 1/J) / (N + 1)``.
    """
    del n_items  # the Dirichlet MAP normalizes by sum(w_j) internally;
    # the count stays in the signature for symmetry with the paper's
    # normalization step and future priors that need it
    log_pi, term_params, _ = finalize_with_evidence(spec, global_stats, w_j)
    return log_pi, term_params


def finalize_with_evidence(
    spec: ModelSpec, global_stats: np.ndarray, w_j: np.ndarray
) -> tuple[np.ndarray, tuple[TermParams, ...], list[float]]:
    """:func:`finalize_parameters` plus each term's ``log_marginal``.

    One conjugate posterior evaluation per term serves both the cycle's
    new parameters and the term evidence its Cheeseman–Stutz score
    (:func:`repro.engine.approx.update_approximations`) needs.
    """
    pi = class_weight_prior(w_j.shape[0]).map(w_j)
    # The Dirichlet MAP over fractional counts always lands in the open
    # simplex, so the log is finite.
    log_pi = safe_log(pi)
    pairs = [
        term.map_params_and_log_marginal(stats)
        for term, stats in zip(spec.terms, unpack_stats(spec, global_stats))
    ]
    term_params = tuple(params for params, _ in pairs)
    return log_pi, term_params, [lm for _, lm in pairs]


def update_parameters(
    db: Database,
    clf: Classification,
    wts: np.ndarray,
    w_j: np.ndarray,
    *,
    kernels: str | None = None,
) -> tuple[Classification, np.ndarray]:
    """Sequential ``update_parameters``: local pass + identity reduction.

    Returns the re-parameterized classification and the global packed
    statistics (which ``update_approximations`` consumes).
    """
    stats = local_update_parameters(db, clf.spec, wts, kernels=kernels)
    log_pi, term_params = finalize_parameters(clf.spec, stats, w_j, db.n_items)
    new_clf = Classification(
        spec=clf.spec,
        n_classes=clf.n_classes,
        log_pi=log_pi,
        term_params=term_params,
        n_cycles=clf.n_cycles,
    )
    return new_clf, stats
