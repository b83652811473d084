"""Tests for repro.engine.cycle."""

import numpy as np
import pytest

from repro.engine.cycle import base_cycle
from repro.engine.init import initial_classification
from repro.util.rng import spawn_rng


@pytest.fixture()
def clf0(paper_db, paper_spec):
    return initial_classification(paper_db, paper_spec, 4, spawn_rng(4))


class TestBaseCycle:
    def test_returns_scored_classification(self, paper_db, clf0):
        clf, wts, stats = base_cycle(paper_db, clf0)
        assert clf.scores is not None
        assert clf.n_cycles == 1
        assert wts is None  # the (N, J) weights are never formed

    def test_cycle_counter_increments(self, paper_db, clf0):
        clf = clf0
        for expected in (1, 2, 3):
            clf, _, _ = base_cycle(paper_db, clf)
            assert clf.n_cycles == expected

    def test_timings_nonnegative_and_sum(self, paper_db, clf0):
        _, _, stats = base_cycle(paper_db, clf0)
        assert stats.seconds_wts >= 0
        assert stats.seconds_params >= 0
        assert stats.seconds_approx >= 0
        assert stats.seconds_total == pytest.approx(
            stats.seconds_wts + stats.seconds_params + stats.seconds_approx
        )

    def test_scores_evaluate_incoming_parameters(self, paper_db, clf0):
        """The attached scores describe the E-step point (the incoming
        classification), per the documented convention."""
        from repro.engine.wts import update_wts

        _, red = update_wts(paper_db, clf0)
        clf, _, _ = base_cycle(paper_db, clf0)
        assert clf.scores.log_lik_obs == pytest.approx(red.sum_log_z)

    def test_observed_loglik_nondecreasing(self, paper_db, clf0):
        """Plain EM monotonicity on the observed-data likelihood
        (holds here because priors are weak relative to 1000 items)."""
        clf = clf0
        prev = -np.inf
        for _ in range(20):
            clf, _, _ = base_cycle(paper_db, clf)
            cur = clf.scores.log_lik_obs
            assert cur >= prev - 1e-6 * max(abs(prev), 1.0)
            prev = cur

    def test_immutable_input(self, paper_db, clf0):
        log_pi_before = clf0.log_pi.copy()
        base_cycle(paper_db, clf0)
        np.testing.assert_array_equal(clf0.log_pi, log_pi_before)
