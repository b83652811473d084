"""``update_approximations`` — scoring a classification.

AutoClass ranks classifications by an approximation of the marginal
likelihood ``log P(X | T)``.  We implement the **Cheeseman–Stutz**
approximation (the one AutoClass's authors introduced):

.. math::

    \\log P(X|T) \\approx \\log P(\\hat X|T)
                  + \\log P(X|\\hat V, T) - \\log P(\\hat X|\\hat V, T)

where :math:`\\hat X` is the fractionally *completed* data (each item
split across classes by its weights) and :math:`\\hat V` the MAP
parameters.  All three pieces come from quantities the two preceding
steps already reduced globally:

* ``log P(X|V)``        = ``sum_log_z`` from :mod:`repro.engine.wts`;
* ``log P(X-hat|V)``    = ``sum_log_z + sum_w_log_w`` (see below);
* ``log P(X-hat|T)``    = closed-form conjugate evidence of the weighted
  statistics: a Dirichlet-multinomial term for the class assignments
  (over ``w_j``) plus each term's ``log_marginal`` (over its packed
  statistics).

The identity for the completed-data likelihood: since
``w_ij = exp(log p_ij - log Z_i)``,

.. math::

    \\sum_{ij} w_{ij} \\log p_{ij}
        = \\sum_i \\log Z_i + \\sum_{ij} w_{ij} \\log w_{ij}

so no extra pass over the items (and no extra communication) is needed —
this is why ``update_wts`` ships those two scalars in its payload.

The paper notes the time spent in ``update_approximations`` is
negligible next to the other two functions; that holds here by
construction, since it touches only ``(J x n_stats)`` arrays, never the
items.
"""

from __future__ import annotations

import numpy as np

from repro.engine.classification import Classification, Scores, class_weight_prior
from repro.engine.wts import WtsReduction
from repro.models.registry import ModelSpec, unpack_stats


def cheeseman_stutz(
    spec: ModelSpec,
    n_classes: int,
    global_stats: np.ndarray,
    reduction: WtsReduction,
    term_log_marginals: list[float] | None = None,
) -> float:
    """The Cheeseman–Stutz approximation of ``log P(X | T)``.

    ``term_log_marginals``, when given, are the terms' ``log_marginal``
    of ``global_stats`` already evaluated (see
    :func:`repro.engine.params.finalize_with_evidence`).
    """
    if term_log_marginals is None:
        term_log_marginals = [
            term.log_marginal(stats)
            for term, stats in zip(spec.terms, unpack_stats(spec, global_stats))
        ]
    log_x_hat_given_t = class_weight_prior(n_classes).log_marginal(
        reduction.w_j
    ) + sum(term_log_marginals)
    log_x_given_v = reduction.sum_log_z
    log_x_hat_given_v = reduction.sum_log_z + reduction.sum_w_log_w
    return log_x_hat_given_t + log_x_given_v - log_x_hat_given_v


def map_objective(clf: Classification, sum_log_z: float) -> float:
    """``log P(X|V) + log P(V|T)`` — the quantity MAP-EM ascends."""
    log_prior = class_weight_prior(clf.n_classes).log_pdf(clf.pi)
    for term, params in zip(clf.spec.terms, clf.term_params):
        log_prior += term.log_prior_density(params)
    return sum_log_z + log_prior


def update_approximations(
    clf: Classification,
    global_stats: np.ndarray,
    reduction: WtsReduction,
    n_items: int,
    term_log_marginals: list[float] | None = None,
) -> Scores:
    """Assemble the :class:`~repro.engine.classification.Scores`.

    Pure function of globally reduced quantities — every rank of a
    parallel run computes the identical scores with no communication.
    ``term_log_marginals`` as for :func:`cheeseman_stutz`.
    """
    from repro.util import workhooks

    workhooks.report("approx", 0, clf.n_classes, clf.spec.n_stats)
    cs = cheeseman_stutz(
        clf.spec, clf.n_classes, global_stats, reduction, term_log_marginals
    )
    return Scores(
        log_marginal_cs=cs,
        log_lik_obs=reduction.sum_log_z,
        log_map_objective=map_objective(clf, reduction.sum_log_z),
        w_j=np.asarray(reduction.w_j, dtype=np.float64),
        n_items=n_items,
    )
