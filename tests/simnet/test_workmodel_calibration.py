"""Tests for repro.simnet.workmodel, the simulator's compute calibration:
counted work anchored to the paper's SPARC cycle cost."""

import pytest

from repro.simnet.machine import SPARC_SECONDS_PER_ITEM_CLASS
from repro.simnet.workmodel import REFERENCE_STATS_PER_CLASS, WorkModel


class TestWorkModel:
    def test_cycle_is_sum_of_phases(self):
        w = WorkModel()
        total = w.cycle_seconds(1000, 8, 6)
        parts = (
            w.wts_seconds(1000, 8, 6)
            + w.params_seconds(1000, 8, 6)
            + w.approx_seconds(8, 6)
        )
        assert total == pytest.approx(parts)

    def test_reference_workload_anchor(self):
        """One cycle on the reference workload costs the SPARC anchor."""
        w = WorkModel()
        n, j = 10_000, 8
        item_part = w.wts_seconds(n, j, 6) + w.params_seconds(n, j, 6)
        assert item_part == pytest.approx(
            n * j * SPARC_SECONDS_PER_ITEM_CLASS
        )

    def test_linear_in_items_and_classes(self):
        w = WorkModel()
        assert w.wts_seconds(200, 4, 6) == pytest.approx(
            2 * w.wts_seconds(100, 4, 6)
        )
        assert w.wts_seconds(100, 8, 6) == pytest.approx(
            2 * w.wts_seconds(100, 4, 6)
        )

    def test_scales_with_model_width(self):
        w = WorkModel()
        wide = w.wts_seconds(100, 4, int(2 * REFERENCE_STATS_PER_CLASS))
        narrow = w.wts_seconds(100, 4, int(REFERENCE_STATS_PER_CLASS))
        assert wide == pytest.approx(2 * narrow)

    def test_wts_dominates_params(self):
        """The measured host split: update_wts carries most of the cycle
        (the paper's observation after [7])."""
        w = WorkModel()
        assert w.wts_seconds(100, 4, 6) > 4 * w.params_seconds(100, 4, 6)

    def test_approx_negligible(self):
        """update_approximations stays well under 1% of a real cycle."""
        w = WorkModel()
        assert w.approx_seconds(8, 6) < 0.01 * w.cycle_seconds(10_000, 8, 6)

    def test_dispatch(self):
        w = WorkModel()
        assert w.seconds_for("wts", 10, 2, 6) == w.wts_seconds(10, 2, 6)
        assert w.seconds_for("params", 10, 2, 6) == w.params_seconds(10, 2, 6)
        assert w.seconds_for("approx", 0, 2, 6) == w.approx_seconds(2, 6)
        with pytest.raises(ValueError, match="kind"):
            w.seconds_for("other", 1, 1, 1)

    def test_share_validation(self):
        with pytest.raises(ValueError, match="must be 1"):
            WorkModel(wts_share=0.5, params_share=0.4)
