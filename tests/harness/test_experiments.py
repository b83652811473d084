"""Tests for repro.harness.experiments."""

import pytest

from repro.harness.experiments import (
    DEFAULT_BENCH_SCALE,
    PAPER_SIZES,
    SCALE_ENV_VAR,
    ExperimentScale,
)


class TestExperimentScale:
    def test_full_scale_is_paper(self):
        s = ExperimentScale(1.0)
        assert s.sizes == PAPER_SIZES
        assert s.start_j_list == (2, 4, 8, 16, 24, 50, 64)
        assert s.scaleup_tuples_per_proc == 10_000
        assert s.scaleup_j == (8, 16)

    def test_scaled_sizes_proportional(self):
        s = ExperimentScale(0.1)
        assert s.sizes == tuple(round(x * 0.1) for x in PAPER_SIZES)

    def test_small_scale_trims_j_list(self):
        assert 50 not in ExperimentScale(0.05).start_j_list
        assert 50 in ExperimentScale(0.5).start_j_list

    def test_size_floor(self):
        assert min(ExperimentScale(0.001).sizes) >= 100

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(0.0)
        with pytest.raises(ValueError):
            ExperimentScale(1.5)
        with pytest.raises(ValueError):
            ExperimentScale(0.5, cycles_per_try=0)
        with pytest.raises(ValueError):
            ExperimentScale(0.5, n_reps=0)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "0.25")
        assert ExperimentScale.from_env().factor == 0.25

    @pytest.mark.parametrize("raw", ["0.04x", "0", "1.5"])
    def test_from_env_bad_value_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv(SCALE_ENV_VAR, raw)
        with pytest.raises(ValueError, match=SCALE_ENV_VAR):
            ExperimentScale.from_env()

    def test_from_env_default(self, monkeypatch):
        monkeypatch.delenv(SCALE_ENV_VAR, raising=False)
        assert ExperimentScale.from_env().factor == DEFAULT_BENCH_SCALE

    def test_describe_mentions_sizes(self):
        assert "sizes" in ExperimentScale(0.1).describe()
