"""Tests for the public facade (repro.api) and the package surface."""

import numpy as np
import pytest

import repro
from repro import (
    BACKENDS,
    AutoClass,
    FitConfig,
    NotFittedError,
    PAutoClass,
    Run,
    make_paper_database,
    register_backend,
)
from repro.engine.search import SearchConfig


@pytest.fixture(scope="module")
def db():
    return make_paper_database(400, seed=31)


@pytest.fixture(scope="module")
def fitted(db):
    ac = AutoClass(start_j_list=(2, 3), max_n_tries=2, seed=1, max_cycles=30)
    ac.fit(db)
    return ac


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestAutoClass:
    def test_fit_returns_result(self, db, fitted):
        assert len(fitted.result_.tries) == 2
        assert fitted.best_.scores is not None

    def test_predict_shapes(self, db, fitted):
        proba = fitted.predict_proba(db)
        hard = fitted.predict(db)
        assert proba.shape == (db.n_items, fitted.best_.n_classes)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert hard.shape == (db.n_items,)

    def test_report_text(self, fitted):
        assert "Classes by weight" in fitted.report()

    def test_fit_returns_unified_run(self, db, fitted):
        run = fitted.run_
        assert isinstance(run, Run)
        assert run.backend == "sequential"
        assert run.n_processors == 1
        assert run.record is None  # default instrument="off"
        assert run.result is fitted.result_
        assert run.best is fitted.result_.best
        assert "Search:" in run.summary()

    def test_uninstrumented_run_report_raises(self, fitted):
        with pytest.raises(ValueError, match="instrument"):
            fitted.run_.report()

    def test_unfitted_raises(self):
        ac = AutoClass()
        with pytest.raises(RuntimeError, match="fit"):
            _ = ac.best_
        with pytest.raises(RuntimeError, match="fit"):
            ac.report()
        with pytest.raises(NotFittedError):
            ac.predict(make_paper_database(50, seed=0))

    def test_not_fitted_error_is_runtime_error(self):
        assert issubclass(NotFittedError, RuntimeError)

    def test_bad_instrument_rejected(self):
        with pytest.raises(ValueError, match="instrument"):
            AutoClass(instrument="verbose")
        with pytest.raises(ValueError, match="instrument"):
            PAutoClass(instrument="verbose")

    def test_instrumented_sequential_fit(self, db):
        ac = AutoClass(
            instrument="phases",
            start_j_list=(2,), max_n_tries=1, seed=1, max_cycles=10,
        )
        run = ac.fit(db)
        assert run.record is not None
        assert run.record.clock == "wall"
        assert run.record.ranks[0].n_cycles > 0
        assert "Phase breakdown" in run.report()

    def test_config_kwargs_forwarded(self):
        ac = AutoClass(start_j_list=(5,), seed=9)
        assert ac.config.start_j_list == (5,)
        assert ac.config.seed == 9

    def test_bad_config_kwargs_raise(self):
        with pytest.raises(TypeError):
            AutoClass(not_a_knob=1)


class TestPAutoClass:
    def test_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            PAutoClass(backend="quantum")
        with pytest.raises(ValueError, match="n_processors"):
            PAutoClass(n_processors=0)

    def test_serial_backend_needs_one_proc(self, db):
        with pytest.raises(ValueError, match="exactly 1"):
            PAutoClass(n_processors=2, backend="serial").fit(db)

    def test_serial_matches_sequential(self, db, fitted):
        pac = PAutoClass(
            n_processors=1, backend="serial",
            start_j_list=(2, 3), max_n_tries=2, seed=1, max_cycles=30,
        )
        run = pac.fit(db)
        assert run.result.best.score == pytest.approx(
            fitted.result_.best.score, rel=1e-12
        )

    def test_threads_backend(self, db, fitted):
        pac = PAutoClass(
            n_processors=3, backend="threads",
            start_j_list=(2, 3), max_n_tries=2, seed=1, max_cycles=30,
        )
        run = pac.fit(db)
        assert run.backend == "threads"
        assert run.sim_elapsed is None
        assert run.result.best.score == pytest.approx(
            fitted.result_.best.score, rel=1e-9
        )

    def test_sim_backend_reports_elapsed(self, db, fitted):
        pac = PAutoClass(
            n_processors=4, backend="sim",
            start_j_list=(2, 3), max_n_tries=2, seed=1, max_cycles=30,
        )
        run = pac.fit(db)
        assert run.sim_elapsed is not None and run.sim_elapsed > 0
        assert run.result.best.score == pytest.approx(
            fitted.result_.best.score, rel=1e-9
        )

    def test_predict_after_fit(self, db):
        pac = PAutoClass(
            n_processors=2, backend="threads",
            start_j_list=(2,), max_n_tries=1, seed=3, max_cycles=15,
        )
        pac.fit(db)
        assert pac.predict(db).shape == (db.n_items,)
        assert "Classes by weight" in pac.report()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            _ = PAutoClass().best_
        with pytest.raises(NotFittedError):
            PAutoClass().report()


class TestBackendRegistry:
    def test_backends_is_a_registry_of_runners(self):
        assert isinstance(BACKENDS, dict)
        assert set(BACKENDS) >= {"serial", "threads", "processes", "sim"}
        assert all(callable(runner) for runner in BACKENDS.values())

    def test_register_backend_adds_runner(self, db):
        calls = []

        @register_backend("echo")
        def _echo_backend(model, database, spec):
            calls.append((model.n_processors, database.n_items))
            return BACKENDS["serial"](model, database, spec)

        try:
            pac = PAutoClass(
                n_processors=1, backend="echo",
                start_j_list=(2,), max_n_tries=1, seed=3, max_cycles=5,
            )
            run = pac.fit(db)
            assert calls == [(1, db.n_items)]
            assert run.backend == "serial"  # delegated runner labeled it
        finally:
            del BACKENDS["echo"]
        with pytest.raises(ValueError, match="backend"):
            PAutoClass(backend="echo")

    def test_instrumented_threads_run_has_per_rank_record(self, db):
        pac = PAutoClass(
            n_processors=4, backend="threads", instrument="phases",
            start_j_list=(2,), max_n_tries=1, seed=1, max_cycles=8,
        )
        run = pac.fit(db)
        assert run.record is not None
        assert len(run.record.ranks) == 4
        report = run.report()
        assert "Phase breakdown" in report
        assert "ar-wts" in report and "ar-params" in report


class TestSearchConfigIntegration:
    def test_facade_and_direct_config_agree(self, db):
        cfg = SearchConfig(start_j_list=(2,), max_n_tries=1, seed=4, max_cycles=10)
        from repro.engine.search import run_search

        direct = run_search(db, cfg)
        ac = AutoClass(start_j_list=(2,), max_n_tries=1, seed=4, max_cycles=10)
        ac.fit(db)
        assert ac.result_.best.score == direct.best.score


class TestTracing:
    def test_trace_kwarg_removed_with_migration_hint(self):
        with pytest.raises(TypeError, match="instrument='full'"):
            PAutoClass(backend="sim", trace=True)

    def test_trace_false_also_rejected(self):
        # Any explicit value — not just truthy ones — names a removed
        # keyword; dead call sites should be cleaned up, not kept.
        with pytest.raises(TypeError, match="removed"):
            PAutoClass(backend="sim", trace=False)

    def test_sim_instrument_full_produces_timeline(self, db):
        pac = PAutoClass(
            n_processors=3, backend="sim", instrument="full",
            start_j_list=(2,), max_n_tries=1, seed=1, max_cycles=5,
        )
        run = pac.fit(db)
        assert run.timeline is not None
        assert "timeline:" in run.timeline
        assert "wait share" in run.timeline
        # ...and the record is in virtual seconds.
        assert run.record is not None
        assert run.record.clock == "virtual"
        assert "virtual s" in run.report()

    def test_no_trace_by_default(self, db):
        pac = PAutoClass(
            n_processors=2, backend="sim",
            start_j_list=(2,), max_n_tries=1, seed=1, max_cycles=5,
        )
        run = pac.fit(db)
        assert run.timeline is None
        assert run.record is None


class TestFitConfig:
    def test_defaults_validate(self):
        opts = FitConfig()
        assert opts.instrument == "off"
        assert opts.kernels is None
        assert opts.max_restarts == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"instrument": "loud"},
            {"kernels": "simd"},
            {"verify": "paranoid"},
            {"checkpoint": "hourly"},
            {"max_restarts": -1},
            {"try_groups": 0},
            {"try_groups": True},
            {"try_groups": False},
            {"try_groups": "many"},
        ],
    )
    def test_bad_values_rejected_eagerly(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)

    def test_merged_overrides_only_named_fields(self):
        base = FitConfig(instrument="phases", kernels="fused")
        out = base.merged(kernels="reference")
        assert out.instrument == "phases"
        assert out.kernels == "reference"
        assert base.kernels == "fused"  # frozen: base untouched

    def test_options_object_equals_bare_kwargs(self, db):
        config = dict(start_j_list=(2,), max_n_tries=1, seed=5, max_cycles=8)
        via_bare = AutoClass(kernels="reference", **config).fit(db)
        via_opts = AutoClass(
            options=FitConfig(kernels="reference"), **config
        ).fit(db)
        assert via_bare.kernels == via_opts.kernels == "reference"
        assert via_bare.best.score == via_opts.best.score

    def test_options_and_bare_kwargs_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            AutoClass(options=FitConfig(), instrument="phases")
        with pytest.raises(ValueError, match="not both"):
            PAutoClass(options=FitConfig(), kernels="fused")

    def test_fit_options_and_bare_kwargs_conflict(self, db):
        ac = AutoClass(start_j_list=(2,), max_n_tries=1, seed=5, max_cycles=8)
        with pytest.raises(ValueError, match="not both"):
            ac.fit(db, options=FitConfig(), verify="trace")

    def test_options_must_be_fitconfig(self):
        with pytest.raises(TypeError, match="FitConfig"):
            AutoClass(options={"instrument": "phases"})

    def test_autoclass_rejects_parallel_only_options(self):
        with pytest.raises(ValueError, match="parallel-only"):
            AutoClass(options=FitConfig(try_groups=2))
        with pytest.raises(ValueError, match="parallel-only"):
            AutoClass(options=FitConfig(collectives=__import__(
                "repro.mpc.api", fromlist=["CollectiveConfig"]
            ).CollectiveConfig()))

    def test_fit_time_override_is_scoped_to_the_fit(self, db):
        ac = AutoClass(start_j_list=(2,), max_n_tries=1, seed=5, max_cycles=8)
        assert ac.instrument == "off"
        run = ac.fit(db, options=FitConfig(instrument="phases"))
        assert run.record is not None
        assert ac.instrument == "off"  # override did not stick

    def test_try_groups_range_checked_against_world(self):
        with pytest.raises(ValueError, match="n_processors"):
            PAutoClass(n_processors=2, try_groups=4)

    def test_run_carries_kernels(self, db):
        run = AutoClass(
            kernels="reference", start_j_list=(2,), max_n_tries=1,
            seed=5, max_cycles=8,
        ).fit(db)
        assert run.kernels == "reference"


class TestUnifiedInference:
    def test_same_api_on_model_run_and_artifact(self, db, fitted):
        run = fitted.run_
        model = fitted.fitted()
        for obj in (fitted, run, model):
            labels = obj.predict(db)
            assert labels.shape == (db.n_items,)
            assert np.allclose(obj.predict_proba(db).sum(axis=1), 1.0)
            assert obj.predict_logproba(db).shape[0] == db.n_items
            assert np.isfinite(obj.score(db))
        assert np.array_equal(fitted.predict(db), model.predict(db))

    def test_not_fitted_semantics(self, db):
        for cls in (AutoClass, PAutoClass):
            fresh = cls(start_j_list=(2,), max_n_tries=1, seed=5)
            for method in ("predict", "predict_proba", "predict_logproba",
                           "score", "fitted"):
                with pytest.raises(NotFittedError):
                    getattr(fresh, method)(db)

    def test_pautoclass_fitted_defaults_to_training_db(self, db):
        pac = PAutoClass(
            n_processors=2, backend="threads",
            start_j_list=(2,), max_n_tries=1, seed=5, max_cycles=8,
        )
        run = pac.fit(db)
        model = pac.fitted()
        assert np.array_equal(model.predict(db), run.predict(db))
