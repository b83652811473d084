"""Scoring items with missing cells against a model fitted on complete data.

A ``*_cn`` term refuses missing values in a fit, but a fitted model
still meets them at scoring time.  The rule is the one
``single_multinomial`` already applies to an unmodelled missing cell:
the term contributes log-likelihood 0 (evidence 1), so the item is
classified by its remaining attributes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AutoClass
from repro.data.database import Database
from repro.data.synth import make_mixed_database
from repro.engine.wts import local_update_wts
from repro.models.multinomial import MultinomialTerm
from repro.models.multinormal import MultiNormalTerm
from repro.models.normal import NormalTerm
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.serve.scoring import predict_logproba, score_samples


@pytest.fixture(scope="module")
def complete_db() -> Database:
    db, _ = make_mixed_database(600, missing_rate=0.0, seed=17)
    return db


@pytest.fixture(scope="module")
def clf(complete_db):
    run = AutoClass(
        start_j_list=(3,), max_n_tries=1, seed=2, max_cycles=20
    ).fit(complete_db)
    return run.best.classification


def _blank(db: Database, cells: dict[int, int]) -> Database:
    """The first 8 items of ``db`` with ``cells[row] = column`` blanked."""
    head = db.take(slice(0, 8))
    columns = [c.copy() for c in head.columns]
    for row, col in cells.items():
        columns[col][row] = np.nan if columns[col].dtype.kind == "f" else -1
    return Database.from_columns(head.schema, columns)


def _remaining_terms_log_joint(db, clf, row, skip):
    """``log pi + sum of every term's log density but ``skip``'s``."""
    lj = clf.log_pi.copy()
    one = db.take(slice(row, row + 1))
    for term, params in zip(clf.spec.terms, clf.term_params):
        if term is not skip:
            lj += term.log_likelihood(one, params)[0]
    return lj


def test_missing_real_cell_is_classified_by_the_other_terms(complete_db, clf):
    terms = clf.spec.terms
    real = next(i for i, t in enumerate(terms) if isinstance(t, NormalTerm))
    disc = next(
        i for i, t in enumerate(terms) if isinstance(t, MultinomialTerm)
    )
    assert not terms[disc].model_missing
    db = _blank(db=complete_db, cells={
        0: terms[real].attribute_indices[0],
        1: terms[disc].attribute_indices[0],
    })

    log_proba = predict_logproba(db, clf)
    evidence = score_samples(db, clf)
    assert np.all(np.isfinite(log_proba)) and np.all(np.isfinite(evidence))
    for row, term in ((0, terms[real]), (1, terms[disc])):
        lj = _remaining_terms_log_joint(db, clf, row, skip=term)
        lse = np.logaddexp.reduce(lj)
        np.testing.assert_allclose(log_proba[row], lj - lse, atol=1e-10)
        assert evidence[row] == pytest.approx(lse, abs=1e-10)
    # A confident posterior, not the underflow guard's uniform.
    assert log_proba[0].max() > np.log(0.9)

    wts_ref, pay_ref = local_update_wts(db, clf, kernels="reference")
    wts_fused, pay_fused = local_update_wts(db, clf, kernels="fused")
    np.testing.assert_allclose(wts_fused, wts_ref, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(pay_fused, pay_ref, rtol=1e-10, atol=1e-10)


def test_multi_normal_block_skips_incomplete_items(complete_db):
    schema = complete_db.schema
    term = MultiNormalTerm(
        (0, 1), (schema[0], schema[1]), DataSummary.from_database(complete_db)
    )
    wts = np.random.default_rng(0).dirichlet(np.ones(3), complete_db.n_items)
    params = term.map_params(term.accumulate_stats(complete_db, wts))
    db = _blank(complete_db, {2: 1})

    ll = term.log_likelihood(db, params)
    cols = np.full((db.n_items, term.n_stats), np.nan)
    term.design_columns(db, cols)
    assert np.all(ll[2] == 0.0) and np.all(cols[2] == 0.0)
    complete = np.arange(db.n_items) != 2
    np.testing.assert_array_equal(
        ll[complete], term.log_likelihood(db.take(complete), params)
    )
    np.testing.assert_allclose(
        cols @ term.loglik_coefficients(params), ll, rtol=1e-10, atol=1e-10
    )


def test_fit_with_missing_reals_is_still_refused(complete_db, clf):
    db = _blank(complete_db, {0: 0})
    spec = ModelSpec(schema=db.schema, terms=clf.spec.terms)
    with pytest.raises(ValueError, match="missing values"):
        AutoClass(
            start_j_list=(2,), max_n_tries=1, seed=2, max_cycles=5, spec=spec
        ).fit(db)
