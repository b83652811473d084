"""Tests for repro.engine.convergence."""

import pytest

from repro.engine.convergence import RelativeDeltaChecker


class TestRelativeDeltaChecker:
    def test_stops_on_flat_scores(self):
        c = RelativeDeltaChecker(rel_delta=1e-3, n_consecutive=2)
        assert not c.update(-100.0)
        assert not c.update(-50.0)
        assert not c.update(-49.99)  # first small delta
        assert c.update(-49.989)  # second consecutive small delta

    def test_reset_by_large_delta(self):
        c = RelativeDeltaChecker(rel_delta=1e-3, n_consecutive=2)
        c.update(-100.0)
        c.update(-99.99)
        assert not c.update(-50.0)  # big jump resets the streak
        c.update(-49.999)
        assert c.update(-49.998)

    def test_max_cycles_forces_stop(self):
        c = RelativeDeltaChecker(rel_delta=1e-12, max_cycles=3)
        assert not c.update(0.0)
        assert not c.update(100.0)
        assert c.update(-100.0)
        assert c.hit_cycle_limit

    def test_converged_is_not_cycle_limit(self):
        c = RelativeDeltaChecker(rel_delta=1.0, n_consecutive=1, max_cycles=100)
        c.update(-10.0)
        assert c.update(-10.0)
        assert not c.hit_cycle_limit

    def test_relative_scaling_small_scores(self):
        """Near-zero scores use an absolute scale of 1."""
        c = RelativeDeltaChecker(rel_delta=1e-3, n_consecutive=1)
        c.update(0.0)
        assert c.update(0.0005)
        c2 = RelativeDeltaChecker(rel_delta=1e-3, n_consecutive=1)
        c2.update(0.0)
        assert not c2.update(0.1)

    def test_non_finite_score_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            RelativeDeltaChecker().update(float("nan"))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RelativeDeltaChecker(rel_delta=0)
        with pytest.raises(ValueError):
            RelativeDeltaChecker(n_consecutive=0)
        with pytest.raises(ValueError):
            RelativeDeltaChecker(max_cycles=0)

    def test_fresh_resets_history(self):
        c = RelativeDeltaChecker(rel_delta=0.5, n_consecutive=1)
        c.update(-1.0)
        f = c.fresh()
        assert f.n_cycles == 0
        assert f.rel_delta == 0.5
