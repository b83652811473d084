"""Integration tests of the experiment runners.

The figure tests assert the *shape* claims each figure reproduction
makes, at a scale small enough for the test suite.  The ablation and
baseline tests assert theirs on the default-scale results, the same
ones the byte test compares with the committed ``benchmarks/out/``
files.  The full-scale numbers live in EXPERIMENTS.md and the
benchmark suite.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.harness.experiments import ExperimentScale
from repro.harness.runner import (
    EXPERIMENTS,
    Table,
    fig6_elapsed,
    fig7_speedup,
    fig8_scaleup,
    r_squared,
    run_experiment,
    t1_profile,
    t2_linear_sequential,
)
from repro.mpc.collectives import ALLREDUCE

#: One small scale shared by the figure tests (procs list stays 1..10).
#: 0.02 is the smallest factor at which all seven paper sizes stay
#: distinct after rounding.
SCALE = ExperimentScale(factor=0.02, cycles_per_try=2)

OUT_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "out"

#: Registry keys whose committed default-scale output is compared here
#: byte for byte.  Figs. 6-8 and T2 sweep for ~35 s, so CI's
#: sim-figures job checks those; T1 is host-timed.
BYTE_CHECKED = ("a1", "a2", "a3", "a4", "a5", "b1")


@pytest.fixture(scope="module")
def fig6():
    return fig6_elapsed(SCALE)


@pytest.fixture(scope="module")
def fig8():
    return fig8_scaleup(SCALE)


@pytest.fixture(scope="module")
def t1():
    return t1_profile(ExperimentScale())


@pytest.fixture(scope="module")
def default_run():
    """``key -> run_experiment(key, ExperimentScale())``, each run once."""
    results = {}

    def get(key):
        if key not in results:
            results[key] = run_experiment(key, ExperimentScale())
        return results[key]

    return get


def speedup(f7, n_items):
    return f7.get(f"speedup[{n_items} tuples]")


def peak_procs(f7, n_items):
    """Processor count at which this dataset's speedup peaks."""
    procs, sp = speedup(f7, n_items)
    return procs[int(np.argmax(sp))]


def spread(values):
    return max(values) / min(values)


@pytest.mark.slow
class TestFig6:
    def test_all_cells_present(self, fig6):
        assert len(fig6.rows) == len(SCALE.sizes)
        cells = [v for row in fig6.rows for v in row[1:]]
        assert len(cells) == len(SCALE.sizes) * len(SCALE.procs)
        assert all(v > 0 for v in cells)

    def test_time_grows_with_dataset_size(self, fig6):
        """At fixed P, more tuples cost more time (paper Fig. 6)."""
        for p in ("1", "10"):
            times = fig6.col(p)
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_large_dataset_benefits_from_processors(self, fig6):
        biggest = SCALE.sizes[-1]
        assert fig6.at("10", biggest) < fig6.at("1", biggest) / 3

    def test_render_is_paper_shaped(self, fig6):
        text = fig6.render()
        assert "Fig. 6" in text and "h.mm.ss" in text
        assert f"{SCALE.sizes[0]} tuples" in text


class TestRegistry:
    @pytest.mark.parametrize("key", BYTE_CHECKED)
    def test_reproduces_committed_output(self, key, default_run):
        out = EXPERIMENTS[key].out
        expected = (OUT_DIR / out).read_text(encoding="utf-8")
        assert default_run(key).render() + "\n" == expected

    def test_every_out_file_is_committed(self):
        for key, exp in EXPERIMENTS.items():
            assert (OUT_DIR / exp.out).is_file(), key

    def test_every_committed_output_has_a_row(self):
        outs = {exp.out for exp in EXPERIMENTS.values()}
        assert {p.name for p in OUT_DIR.glob("*.txt")} <= outs

    def test_every_runner_takes_only_the_scale(self):
        for key, exp in EXPERIMENTS.items():
            params = inspect.signature(exp.run).parameters
            assert list(params) == ["scale"], key

    def test_fig6_sweep_is_shared_by_its_derived_experiments(self, fig6):
        fig6 = fig6_elapsed(SCALE)  # the fixture's sweep, memoised
        sweeps = fig6_elapsed.cache_info().misses
        shown = run_experiment("fig6", SCALE)
        f7 = run_experiment("fig7", SCALE)
        t2 = run_experiment("t2", SCALE)
        assert fig6_elapsed.cache_info().misses == sweeps  # no new sweep
        assert shown is fig6
        for n_items, *times in fig6.rows:
            assert speedup(f7, n_items)[1] == [times[0] / t for t in times]
        assert t2.col("tuples") == list(SCALE.sizes)
        assert t2.col("seconds (P=1, simulated CS-2)") == fig6.col("1")

    def test_harness_exports_are_the_registered_runners(self):
        import repro.harness as harness

        for exp in harness.EXPERIMENTS.values():
            assert getattr(harness, exp.run.__name__) is exp.run
            assert exp.run.__name__ in harness.__all__


@pytest.mark.slow
class TestFig7:
    def test_speedup_normalized_at_one(self, fig6):
        f7 = fig7_speedup(SCALE)
        for s in SCALE.sizes:
            procs, sp = speedup(f7, s)
            assert sp[procs.index(1)] == pytest.approx(1.0)

    def test_small_dataset_peaks_before_large(self, fig6):
        """The paper's key qualitative result: the smallest dataset's
        speedup peaks at few processors, the largest keeps climbing."""
        f7 = fig7_speedup(SCALE)
        assert peak_procs(f7, SCALE.sizes[0]) <= 6
        assert peak_procs(f7, SCALE.sizes[-1]) >= 8

    def test_speedup_bounded_by_linear(self, fig6):
        f7 = fig7_speedup(SCALE)
        for s in SCALE.sizes:
            procs, sp = speedup(f7, s)
            for p, v in zip(procs, sp):
                assert v <= p * 1.05  # tiny tolerance for timing noise

    def test_larger_datasets_scale_better(self, fig6):
        f7 = fig7_speedup(SCALE)
        at10 = [speedup(f7, s)[1][-1] for s in SCALE.sizes]
        assert at10[-1] > at10[0]


@pytest.mark.slow
class TestFig8:
    def test_scaleup_nearly_flat(self, fig8):
        for j in SCALE.scaleup_j:
            assert spread(fig8.get(f"{j} clusters")[1]) < 1.6

    def test_j16_costs_about_double_j8(self, fig8):
        _, t8 = fig8.get("8 clusters")
        _, t16 = fig8.get("16 clusters")
        ratio = np.mean(np.array(t16) / np.array(t8))
        assert 1.6 < ratio < 2.4

    def test_render(self, fig8):
        assert "8 clusters" in fig8.render()


class TestT1:
    def test_base_cycle_dominates(self, t1):
        # approx's cost is item-count independent and per-try init is
        # paid once per try, so both shares shrink as items and cycles
        # grow; how far depends on the E/M kernels' speed.  The
        # profile's workload (20k items, 40 cycles) is where the paper's
        # "base_cycle dominates, approx negligible" claim holds.
        cycle = t1.at("seconds", "base_cycle")
        assert t1.at("share", "base_cycle") > 0.9
        assert t1.at("seconds", "  update_approximations") / cycle < 0.15
        assert (
            t1.at("seconds", "  update_wts")
            > t1.at("seconds", "  update_parameters")
        )

    def test_render(self, t1):
        assert "base_cycle" in t1.render()


@pytest.mark.slow
class TestT2:
    def test_sequential_time_linear_in_size(self, fig6):
        t2 = t2_linear_sequential(SCALE)
        seconds = t2.col("seconds (P=1, simulated CS-2)")
        assert r_squared(t2.col("tuples"), seconds) > 0.999

    def test_render(self, fig6):
        assert "R^2" in t2_linear_sequential(SCALE).render()


@pytest.mark.slow
class TestAblations:
    def test_a1_pautoclass_wins_at_scale(self, default_run):
        a1 = default_run("a1")
        assert a1.at("advantage", 8) > 1.0
        assert a1.at("advantage", 1) == pytest.approx(1.0, rel=0.15)
        assert "Miller" in a1.render()

    def test_a2_simulated_close_to_textbook(self, default_run):
        a2 = default_run("a2")
        expected = a2.col(f"textbook {ALLREDUCE} (us)")
        for p, measured, exp in zip(
            a2.col("procs"), a2.col("simulated (us)"), expected
        ):
            assert measured == pytest.approx(exp, rel=0.6), p

    def test_a2_render(self, default_run):
        assert "recursive_doubling" in default_run("a2").render()

    def test_a3_bytes_small_comm_share_grows(self, default_run):
        a3 = default_run("a3")
        # The paper's claim: little data on the wire (a few KB/cycle).
        assert all(b < 100_000 for b in a3.col("bytes/cycle/rank"))
        # And comm share grows with P (the speedup limiter).
        share = a3.col("comm share of elapsed")
        assert share[-1] > share[0]

    def test_a4_packed_cheaper_at_scale(self, default_run):
        assert default_run("a4").at("overhead", 8) > 1.0


class TestResultHelpers:
    def test_a1_advantage_lookup(self):
        a1 = Table(
            "A1",
            ("procs", "P-AutoClass (s)", "wts-only (s)", "advantage"),
            ("{}", "{:.4f}", "{:.4f}", "{:.2f}x"),
            ((1, 1.0, 1.0, 1.0), (2, 0.5, 0.75, 1.5)),
        )
        assert a1.at("advantage", 2) == pytest.approx(1.5)
        assert a1.col("procs") == [1, 2]
        with pytest.raises(KeyError):
            a1.at("advantage", 4)


@pytest.mark.slow
class TestTopologyAndBaseline:
    def test_a5_regimes(self, default_run):
        a5 = default_run("a5")
        assert spread(a5.col("MPI-latency (s)")) < 1.05
        assert spread(a5.col("store-and-fwd (s)")) > 1.3
        text = a5.render()
        assert "fat_tree" in text and "crossbar" in text

    def test_b1_kmeans_comparison(self, default_run):
        b1 = default_run("b1")
        # k-means iteration is cheaper than a P-AutoClass cycle...
        assert b1.at("k-means s/iter", 1) < b1.at("P-AutoClass s/cycle", 1)
        # ...and both benefit from processors at this size.
        assert b1.at("k-means speedup", 4) > 1.5
        assert b1.at("P-AutoClass speedup", 4) > 1.5
        assert "k-means" in b1.render()
