"""Integration tests of the experiment runners (tiny workloads).

These assert the *shape* claims each figure reproduction makes, at a
scale small enough for the test suite.  The full-scale numbers live in
EXPERIMENTS.md and the benchmark suite.
"""

import numpy as np
import pytest

from repro.harness.experiments import ExperimentScale
from repro.harness.runner import (
    A1Result,
    ablation_collectives,
    ablation_comm_share,
    ablation_granularity,
    ablation_variants,
    fig6_elapsed,
    fig7_speedup,
    fig8_scaleup,
    t1_profile,
    t2_linear_sequential,
)

#: One small scale shared by the figure tests (procs list stays 1..10).
#: 0.02 is the smallest factor at which all seven paper sizes stay
#: distinct after rounding.
SCALE = ExperimentScale(factor=0.02, cycles_per_try=2)


@pytest.fixture(scope="module")
def fig6():
    return fig6_elapsed(SCALE)


@pytest.mark.slow
class TestFig6:
    def test_all_cells_present(self, fig6):
        assert len(fig6.elapsed) == len(SCALE.sizes) * len(SCALE.procs)
        assert all(v > 0 for v in fig6.elapsed.values())

    def test_time_grows_with_dataset_size(self, fig6):
        """At fixed P, more tuples cost more time (paper Fig. 6)."""
        for p in (1, 10):
            times = [fig6.elapsed[(s, p)] for s in SCALE.sizes]
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_large_dataset_benefits_from_processors(self, fig6):
        biggest = SCALE.sizes[-1]
        procs, times = fig6.series(biggest)
        assert times[procs.index(10)] < times[procs.index(1)] / 3

    def test_render_is_paper_shaped(self, fig6):
        text = fig6.render()
        assert "Fig. 6" in text and "h.mm.ss" in text
        assert f"{SCALE.sizes[0]} tuples" in text


class TestRegistry:
    def test_fig6_sweep_is_shared_by_its_derived_experiments(
        self, fig6, monkeypatch
    ):
        from repro.harness import runner

        sweeps = []
        monkeypatch.setattr(
            runner, "fig6_elapsed", lambda scale: sweeps.append(scale) or fig6
        )
        runner._fig6_sweep.cache_clear()
        try:
            shown = runner.run_experiment("fig6", SCALE)
            f7 = runner.run_experiment("fig7", SCALE)
            t2 = runner.run_experiment("t2", SCALE)
        finally:
            runner._fig6_sweep.cache_clear()
        assert sweeps == [SCALE]  # one sweep for all three
        assert shown is fig6 and f7.fig6 is fig6
        assert t2.sizes == list(SCALE.sizes)

    def test_harness_exports_are_the_registered_runners(self):
        import repro.harness as harness

        for exp in harness.EXPERIMENTS.values():
            assert getattr(harness, exp.fn.__name__) is exp.fn
            assert exp.fn.__name__ in harness.__all__


@pytest.mark.slow
class TestFig7:
    def test_speedup_normalized_at_one(self, fig6):
        f7 = fig7_speedup(fig6=fig6)
        for s in SCALE.sizes:
            procs, sp = f7.speedup(s)
            assert sp[procs.index(1)] == pytest.approx(1.0)

    def test_small_dataset_peaks_before_large(self, fig6):
        """The paper's key qualitative result: the smallest dataset's
        speedup peaks at few processors, the largest keeps climbing."""
        f7 = fig7_speedup(fig6=fig6)
        assert f7.peak_procs(SCALE.sizes[0]) <= 6
        assert f7.peak_procs(SCALE.sizes[-1]) >= 8

    def test_speedup_bounded_by_linear(self, fig6):
        f7 = fig7_speedup(fig6=fig6)
        for s in SCALE.sizes:
            procs, sp = f7.speedup(s)
            for p, v in zip(procs, sp):
                assert v <= p * 1.05  # tiny tolerance for timing noise

    def test_larger_datasets_scale_better(self, fig6):
        f7 = fig7_speedup(fig6=fig6)
        at10 = [f7.speedup(s)[1][-1] for s in SCALE.sizes]
        assert at10[-1] > at10[0]


@pytest.mark.slow
class TestFig8:
    def test_scaleup_nearly_flat(self):
        f8 = fig8_scaleup(SCALE)
        for j in SCALE.scaleup_j:
            assert f8.flatness(j) < 1.6

    def test_j16_costs_about_double_j8(self):
        f8 = fig8_scaleup(SCALE)
        _, t8 = f8.series(8)
        _, t16 = f8.series(16)
        ratio = np.mean(np.array(t16) / np.array(t8))
        assert 1.6 < ratio < 2.4

    def test_render(self):
        f8 = fig8_scaleup(SCALE)
        assert "8 clusters" in f8.render()


class TestT1:
    def test_base_cycle_dominates(self):
        # approx's cost is item-count independent and per-try init is
        # paid once per try, so both shares shrink as items and cycles
        # grow; how far depends on the E/M kernels' speed.  The profile's
        # own defaults (20k items, 40 cycles) are where the paper's
        # "base_cycle dominates, approx negligible" claim holds.
        t1 = t1_profile()
        assert t1.cycle_fraction > 0.9
        assert t1.approx_fraction_of_cycle < 0.15
        assert t1.wts_seconds > t1.params_seconds

    def test_render(self):
        t1 = t1_profile(n_items=1_000, j_list=(4,), n_cycles=5)
        assert "base_cycle" in t1.render()


@pytest.mark.slow
class TestT2:
    def test_sequential_time_linear_in_size(self, fig6):
        t2 = t2_linear_sequential(SCALE, fig6=fig6)
        assert t2.r_squared > 0.999

    def test_render(self, fig6):
        assert "R^2" in t2_linear_sequential(SCALE, fig6=fig6).render()


@pytest.mark.slow
class TestAblations:
    def test_a1_pautoclass_wins_at_scale(self):
        a1 = ablation_variants(
            n_items=8_000, n_cycles=2, procs=(1, 8), comm_scale=0.2
        )
        assert a1.advantage(8) > 1.0
        assert a1.advantage(1) == pytest.approx(1.0, rel=0.15)
        assert "Miller" in a1.render()

    def test_a2_simulated_close_to_textbook(self):
        a2 = ablation_collectives(procs=(4, 8), n_rounds=10)
        for key, measured in a2.measured.items():
            expected = a2.expected[key]
            assert measured == pytest.approx(expected, rel=0.6), key

    def test_a2_render(self):
        a2 = ablation_collectives(procs=(2,), n_rounds=3)
        assert "recursive_doubling" in a2.render()

    def test_a3_bytes_small_comm_share_grows(self):
        a3 = ablation_comm_share(
            n_items=4_000, n_cycles=2, procs=(2, 10), comm_scale=0.2
        )
        # The paper's claim: little data on the wire (a few KB/cycle).
        assert all(b < 100_000 for b in a3.bytes_per_cycle_per_rank)
        # And comm share grows with P (the speedup limiter).
        assert a3.comm_fraction[-1] > a3.comm_fraction[0]

    def test_a4_packed_cheaper_at_scale(self):
        a4 = ablation_granularity(
            n_items=4_000, n_cycles=2, procs=(8,), comm_scale=0.2
        )
        assert a4.overhead(8) > 1.0


class TestResultHelpers:
    def test_a1_advantage_lookup(self):
        a1 = A1Result(
            n_items=10, n_classes=2, procs=[1, 2],
            elapsed_pautoclass=[1.0, 0.5],
            elapsed_wts_only=[1.0, 0.75],
        )
        assert a1.advantage(2) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            a1.advantage(4)


@pytest.mark.slow
class TestTopologyAndBaseline:
    def test_a5_regimes(self):
        from repro.harness.runner import ablation_topology

        a5 = ablation_topology(
            n_items=2_000, n_cycles=2, n_procs=8, comm_scale=0.2
        )
        assert a5.spread("effective_mpi") < 1.05
        assert a5.spread("store_and_forward") > 1.3
        text = a5.render()
        assert "fat_tree" in text and "crossbar" in text

    def test_b1_kmeans_comparison(self):
        from repro.harness.runner import baseline_kmeans_comparison

        b1 = baseline_kmeans_comparison(
            n_items=4_000, n_measure=2, procs=(1, 4), comm_scale=0.2
        )
        # k-means iteration is cheaper than a P-AutoClass cycle...
        assert b1.sec_per_iter_kmeans[0] < b1.sec_per_cycle_pautoclass[0]
        # ...and both benefit from processors at this size.
        assert b1.speedup("kmeans")[1] > 1.5
        assert b1.speedup("pautoclass")[1] > 1.5
        assert "k-means" in b1.render()


class TestObsPhaseBreakdown:
    def test_obs_experiment_renders_paper_shaped_table(self):
        from repro.harness.experiments import ExperimentScale
        from repro.harness.runner import obs_phase_breakdown

        res = obs_phase_breakdown(
            ExperimentScale(factor=0.04, cycles_per_try=3), n_processors=4
        )
        assert res.record.n_processors == 4
        assert res.record.clock == "wall"
        text = res.render()
        assert "OBS" in text
        assert "Phase breakdown" in text
        assert "ar-wts" in text and "ar-params" in text
