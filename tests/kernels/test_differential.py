"""Differential tests: fused kernels vs the reference implementation.

The fused layer (:mod:`repro.kernels`) must agree with the seed's
straightforward numpy path to 1e-10 on every built-in term, every
schema shape, and arbitrary weight matrices — that is the contract that
lets the engine default to ``"fused"`` while keeping ``"reference"``
as the differential-testing oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synth import make_mixed_database, make_paper_database
from repro.engine.classification import Classification
from repro.engine.params import finalize_parameters, local_update_parameters
from repro.engine.wts import N_EXTRA_SLOTS, local_update_wts
from repro.models.multinomial import MultinomialTerm
from repro.models.multinormal import MultiNormalTerm
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary

ATOL = 1e-10
RTOL = 1e-10


def _default_spec(db):
    return ModelSpec.default_for(db.schema, DataSummary.from_database(db))


def _design_columns(term, db):
    """The term's design rows, written into a fresh array."""
    cols = np.full((db.n_items, term.n_stats), np.nan)
    term.design_columns(db, cols)
    return cols


def _random_clf(db, spec, n_classes, seed):
    """A valid random classification: one M-step over Dirichlet weights."""
    rng = np.random.default_rng(seed)
    wts = rng.dirichlet(np.ones(n_classes), size=db.n_items)
    stats = local_update_parameters(db, spec, wts, kernels="reference")
    log_pi, term_params = finalize_parameters(
        spec, stats, wts.sum(axis=0), db.n_items
    )
    return wts, Classification(
        spec=spec, n_classes=n_classes, log_pi=log_pi, term_params=term_params
    )


def _cases():
    """(name, db, spec) over every built-in term, with & without missing."""
    paper = make_paper_database(300, seed=7)
    mixed_miss, _ = make_mixed_database(
        250, n_clusters=3, n_real=2, n_discrete=2, arity=4,
        missing_rate=0.15, seed=13,
    )
    mixed_clean, _ = make_mixed_database(
        250, n_clusters=3, n_real=2, n_discrete=2, arity=4,
        missing_rate=0.0, seed=17,
    )
    cases = [
        ("all_real_no_missing", paper, _default_spec(paper)),
        ("mixed_with_missing", mixed_miss, _default_spec(mixed_miss)),
        ("mixed_no_missing", mixed_clean, _default_spec(mixed_clean)),
    ]
    # Multinomial forced to model "unknown" even though no cell is missing.
    summary = DataSummary.from_database(mixed_clean)
    terms = list(_default_spec(mixed_clean).terms)
    for i, attr_i in enumerate(mixed_clean.schema):
        if hasattr(attr_i, "arity"):
            terms[i] = MultinomialTerm(i, attr_i, model_missing=True)
    cases.append(
        ("multinomial_model_missing",
         mixed_clean,
         ModelSpec(schema=mixed_clean.schema, terms=tuple(terms))),
    )
    # Correlated multivariate normal over the paper database's two reals.
    mn_summary = DataSummary.from_database(paper)
    mn_term = MultiNormalTerm(
        (0, 1), (paper.schema[0], paper.schema[1]), mn_summary
    )
    cases.append(
        ("multi_normal", paper, ModelSpec(schema=paper.schema, terms=(mn_term,)))
    )
    return cases


CASES = _cases()
CASE_IDS = [c[0] for c in CASES]


@pytest.mark.parametrize("name,db,spec", CASES, ids=CASE_IDS)
class TestFusedMatchesReference:
    def test_mstep(self, name, db, spec):
        wts, _clf = _random_clf(db, spec, 4, seed=1)
        ref = local_update_parameters(db, spec, wts, kernels="reference")
        fused = local_update_parameters(db, spec, wts, kernels="fused")
        assert fused.shape == ref.shape == (4, spec.n_stats)
        np.testing.assert_allclose(fused, ref, rtol=RTOL, atol=ATOL)

    def test_estep_wts_and_payload(self, name, db, spec):
        _wts, clf = _random_clf(db, spec, 4, seed=2)
        wts_ref, pay_ref = local_update_wts(db, clf, kernels="reference")
        wts_fused, pay_fused = local_update_wts(db, clf, kernels="fused")
        np.testing.assert_allclose(wts_fused, wts_ref, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(pay_fused, pay_ref, rtol=RTOL, atol=ATOL)
        # weights are a proper distribution per item
        np.testing.assert_allclose(
            wts_fused.sum(axis=1), 1.0, rtol=0, atol=1e-12
        )


class TestPropertyRandomWeights:
    """Property-style sweep: agreement holds for *any* weight matrix."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_mstep_any_weights(self, seed):
        name, db, spec = CASES[1]  # mixed schema with missing cells
        rng = np.random.default_rng(seed)
        j = int(rng.integers(1, 7))
        # Arbitrary non-negative weights — rows need not sum to one for
        # the statistics GEMM identity to hold.
        wts = rng.gamma(shape=0.5, scale=2.0, size=(db.n_items, j))
        ref = local_update_parameters(db, spec, wts, kernels="reference")
        fused = local_update_parameters(db, spec, wts, kernels="fused")
        np.testing.assert_allclose(fused, ref, rtol=1e-9, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_estep_any_parameters(self, seed):
        name, db, spec = CASES[1]
        _wts, clf = _random_clf(db, spec, int(1 + seed % 6), seed=seed)
        wts_ref, pay_ref = local_update_wts(db, clf, kernels="reference")
        wts_fused, pay_fused = local_update_wts(db, clf, kernels="fused")
        np.testing.assert_allclose(wts_fused, wts_ref, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(pay_fused, pay_ref, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("name,db,spec", CASES, ids=CASE_IDS)
class TestPerTermProtocol:
    """The GEMM pair reproduces the reference pair on every term."""

    def test_design_columns_reproduce_stats(self, name, db, spec):
        rng = np.random.default_rng(3)
        wts = rng.dirichlet(np.ones(3), size=db.n_items)
        for term in spec.terms:
            cols = _design_columns(term, db)
            np.testing.assert_allclose(
                wts.T @ cols,
                term.accumulate_stats(db, wts),
                rtol=RTOL, atol=ATOL,
            )

    def test_coefficients_reproduce_log_likelihood(self, name, db, spec):
        _wts, clf = _random_clf(db, spec, 3, seed=4)
        for term, params in zip(spec.terms, clf.term_params):
            cols = _design_columns(term, db)
            coef = term.loglik_coefficients(params)
            assert coef is not None and coef.shape == (term.n_stats, 3)
            np.testing.assert_allclose(
                cols @ coef,
                term.log_likelihood(db, params),
                rtol=RTOL, atol=ATOL,
            )


class TestLayout:
    def test_extra_slots_agree_with_engine(self):
        from repro.kernels import estep

        assert estep.N_EXTRA_SLOTS == N_EXTRA_SLOTS

    def test_empty_block_payload_is_zero(self):
        """Ranks with no items contribute an additive identity."""
        name, db, spec = CASES[0]
        _wts, clf = _random_clf(db, spec, 3, seed=8)
        empty = db.take(slice(0, 0))
        for mode in ("reference", "fused"):
            wts, payload = local_update_wts(empty, clf, kernels=mode)
            assert wts.shape == (0, 3)
            np.testing.assert_array_equal(payload, np.zeros(3 + N_EXTRA_SLOTS))
            stats = local_update_parameters(empty, spec, wts, kernels=mode)
            np.testing.assert_array_equal(stats, np.zeros((3, spec.n_stats)))

    @pytest.mark.parametrize("n_classes", [1, 64])
    def test_empty_block_any_class_count(self, n_classes):
        name, db, spec = CASES[1]
        _wts, clf = _random_clf(db, spec, n_classes, seed=8)
        empty = db.take(slice(0, 0))
        for mode in ("reference", "fused"):
            wts, payload = local_update_wts(empty, clf, kernels=mode)
            assert wts.shape == (0, n_classes)
            np.testing.assert_array_equal(
                payload, np.zeros(n_classes + N_EXTRA_SLOTS)
            )
            stats = local_update_parameters(empty, spec, wts, kernels=mode)
            np.testing.assert_array_equal(
                stats, np.zeros((n_classes, spec.n_stats))
            )


def _assert_cycle_halves_agree(db, spec, clf):
    """Fused E and M halves against the reference, at the 1e-10 contract."""
    wts_ref, pay_ref = local_update_wts(db, clf, kernels="reference")
    wts_fused, pay_fused = local_update_wts(db, clf, kernels="fused")
    assert wts_fused.shape == (db.n_items, clf.n_classes)
    assert wts_fused.T.flags.c_contiguous  # the class-major workspace
    np.testing.assert_allclose(wts_fused, wts_ref, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(pay_fused, pay_ref, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(
        local_update_parameters(db, spec, wts_fused, kernels="fused"),
        local_update_parameters(db, spec, wts_ref, kernels="reference"),
        rtol=RTOL, atol=ATOL,
    )


@pytest.mark.parametrize("n_classes", [1, 64])
@pytest.mark.parametrize("name,db,spec", CASES[:2], ids=CASE_IDS[:2])
def test_class_count_edges(name, db, spec, n_classes):
    """J = 1 (a single class row) and J = 64 (the paper's largest)."""
    _wts, clf = _random_clf(db, spec, n_classes, seed=11)
    _assert_cycle_halves_agree(db, spec, clf)
