"""Tests for the public facade (repro.api) and the package surface."""

import dataclasses
import inspect

import numpy as np
import pytest

import repro
from repro import (
    BACKENDS,
    AutoClass,
    NotFittedError,
    PAutoClass,
    Run,
    make_paper_database,
    register_backend,
)
from repro.api import FitConfig
from repro.data.shards import ShardedDatabase
from repro.engine.report import classification_report
from repro.engine.search import SearchConfig

ALL_BACKENDS = ("serial", "threads", "processes", "sim")


@pytest.fixture(scope="module")
def db():
    return make_paper_database(400, seed=31)


@pytest.fixture(scope="module")
def sdb(db, tmp_path_factory):
    return ShardedDatabase.from_database(
        db, tmp_path_factory.mktemp("api") / "s",
        shard_items=100, chunk_items=50,
    )


def estimator(backend, **kwargs):
    """The shell on ``backend``: 1 rank on serial, 2 on the other worlds."""
    n = 1 if backend == "serial" else 2
    return PAutoClass(n_processors=n, backend=backend, **kwargs)


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
        assert run.backend == "serial"
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
        # the backends are the four worlds; AutoClass is one serial rank
        with pytest.raises(ValueError, match="serial.*threads.*processes.*sim"):
            PAutoClass(backend="sequential")
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
        # AutoClass is this very fit: one rank of the serial world
        assert [t.score for t in run.result.tries] == [
            t.score for t in fitted.result_.tries
        ]

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
        assert tuple(BACKENDS) == ALL_BACKENDS
        assert all(callable(runner) for runner in BACKENDS.values())

    def test_register_backend_adds_runner(self, db, sdb):
        calls = []

        @register_backend("echo")
        def _echo_backend(job, database, spec):
            # what the runner is handed, and the estimator at that moment
            calls.append((job, database.n_items, pac.config.init_method))
            return BACKENDS["serial"](job, database, spec)

        try:
            pac = PAutoClass(
                n_processors=1, backend="echo",
                start_j_list=(2,), max_n_tries=1, seed=3, max_cycles=5,
            )
            run = pac.fit(db)
            [(job, n_items, _init)] = calls
            assert (job.n_processors, n_items) == (1, db.n_items)
            assert run.backend == "serial"  # delegated runner labeled it
            # A streamed fit falls back to "sharp" — in the frozen job
            # the runner receives, never by mutating the estimator.
            pac.fit(sdb)
            job, _n, estimator_init_during_fit = calls[-1]
            assert dataclasses.is_dataclass(job)
            with pytest.raises(dataclasses.FrozenInstanceError):
                job.config = None
            assert job.config.init_method == "sharp"
            assert estimator_init_during_fit == "seeded"
            assert pac.config.init_method == "seeded"
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
        assert opts.verify == "off"
        assert opts.max_restarts == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"instrument": "loud"},
            {"transport": "carrier-pigeon"},
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

    def test_merged_overrides_only_named_fields(self, db):
        # fit's keywords are merged over the constructor's options: the
        # fields they name change for that fit, the others are kept.
        ac = AutoClass(
            instrument="phases", start_j_list=(2,), max_n_tries=1, seed=5,
            max_cycles=8,
        )
        run = ac.fit(db, verify="trace")
        assert run.conformance is not None
        assert run.instrument == "phases" and run.record is not None

    def test_options_object_equals_bare_kwargs(self):
        # The bare keywords are the only input path; they build the
        # FitConfig every backend receives in its FitJob.
        pac = PAutoClass(
            n_processors=2, instrument="phases", try_groups=2,
            transport="shm", backend="processes",
        )
        assert pac.options == FitConfig(
            instrument="phases", try_groups=2, transport="shm"
        )

    def test_options_and_bare_kwargs_conflict(self):
        # Bare keywords are the only input path: an options= object
        # (with or without bare keywords) is an error, never ignored.
        with pytest.raises(TypeError, match="options"):
            AutoClass(options=FitConfig(), instrument="phases")
        with pytest.raises(TypeError, match="options"):
            PAutoClass(options=FitConfig())

    def test_fit_time_override_is_scoped_to_the_fit(self, db):
        ac = AutoClass(start_j_list=(2,), max_n_tries=1, seed=5, max_cycles=8)
        assert ac.options.verify == "off"
        run = ac.fit(db, verify="trace")
        assert run.conformance is not None
        assert ac.options.verify == "off"  # override did not stick
        assert ac.fit(db).conformance is None

    def test_try_groups_range_checked_against_world(self):
        with pytest.raises(ValueError, match="n_processors"):
            PAutoClass(n_processors=2, try_groups=4)


class TestOneKernelPathOneInputPath:
    """Kernel mode and ``options=`` are not part of the fit/serve surface."""

    @staticmethod
    def _params(fn) -> set[str]:
        return set(inspect.signature(fn).parameters)

    def test_estimators_take_neither(self):
        from repro.api import _Estimator

        for fn in (AutoClass, PAutoClass, _Estimator.fit):
            assert not {"kernels", "options"} & self._params(fn), fn

    def test_run_and_fitted_model_carry_no_kernel_mode(self):
        from repro.api import FitJob
        from repro.serve import FittedModel

        for cls in (Run, FittedModel, FitJob):
            names = {f.name for f in dataclasses.fields(cls)}
            assert "kernels" not in names, cls
            assert "kernels" not in self._params(cls), cls

    def test_scoring_functions_take_no_kernel_mode(self):
        from repro.serve import scoring

        for name in ("score_batch", "predict", "predict_logproba",
                     "predict_proba", "score_samples", "score"):
            assert "kernels" not in self._params(getattr(scoring, name)), name

    def test_package_exports_no_alias_or_options_object(self):
        assert "PAutoClassRun" not in repro.__all__
        assert "FitConfig" not in repro.__all__

    def test_reference_kernels_reach_only_the_verify_oracle(
        self, db, monkeypatch
    ):
        import repro.engine.search as search_mod
        from repro.kernels.config import resolve
        from repro.verify.trace import capture_trace

        seen = []
        real = search_mod.run_try

        def spy(*args, kernels=None, **kwargs):
            seen.append(resolve(kernels))
            return real(*args, kernels=kernels, **kwargs)

        monkeypatch.setattr(search_mod, "run_try", spy)
        config = dict(start_j_list=(2,), max_n_tries=1, seed=5, max_cycles=8)
        AutoClass(**config).fit(db, verify="trace")
        # the fit itself, then its sequential shadow on the oracle path
        assert seen == ["fused", "reference"]
        capture_trace(db, config, kernels="fused", instrument="off")
        assert seen[-1] == "fused"
        with pytest.raises(ValueError, match="kernels"):
            capture_trace(db, config, kernels="simd")

    @pytest.mark.parametrize("world", ALL_BACKENDS)
    def test_spmd_backends_refuse_reference_kernels(self, db, world):
        """The reference kernels are the sequential oracle only: asked
        for them on a world — the one-rank serial world included — the
        oracle refuses before launching a rank."""
        from repro.verify.trace import capture_trace

        config = dict(start_j_list=(2,), max_n_tries=1, seed=5, max_cycles=8)
        with pytest.raises(ValueError, match="kernels"):
            capture_trace(db, config, world=world, kernels="reference")


class TestUnifiedInference:
    def test_same_api_on_model_run_and_artifact(self, db, fitted):
        run = fitted.run_
        model = fitted.fitted()
        for obj in (fitted, run, model):
            labels = obj.predict(db)
            assert labels.shape == (db.n_items,)
            assert np.allclose(obj.predict_proba(db).sum(axis=1), 1.0)
            assert obj.predict_logproba(db).shape[0] == db.n_items
            assert obj.score_samples(db).mean() == obj.score(db)
        assert np.array_equal(fitted.predict(db), model.predict(db))

    def test_pautoclass_fitted_defaults_to_training_db(self, db):
        pac = PAutoClass(
            n_processors=2, backend="threads",
            start_j_list=(2,), max_n_tries=1, seed=5, max_cycles=8,
        )
        run = pac.fit(db)
        model = pac.fitted()
        assert np.array_equal(model.predict(db), run.predict(db))


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestShellContract:
    """The one fit/predict shell behaves identically on every backend."""

    CONFIG = dict(start_j_list=(2,), max_n_tries=1, seed=5, max_cycles=8)

    def test_fit_options_and_bare_kwargs_conflict(self, db, backend):
        # fit takes bare keywords only; an options= object is refused.
        with pytest.raises(TypeError, match="options"):
            estimator(backend, **self.CONFIG).fit(
                db, options=FitConfig(), verify="trace"
            )

    def test_checkpoint_policy_needs_directory(self, db, backend):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            estimator(backend, **self.CONFIG).fit(db, checkpoint="per_try")

    def test_max_restarts_needs_checkpointing(self, db, backend):
        with pytest.raises(ValueError, match="checkpoint"):
            estimator(backend, **self.CONFIG).fit(db, max_restarts=2)

    def test_verify_rejects_max_seconds(self, db, backend):
        est = estimator(backend, max_seconds=30.0, **self.CONFIG)
        with pytest.raises(ValueError, match="verify.*max_seconds"):
            est.fit(db, verify="trace")

    def test_verify_shadows_streamed_data(self, sdb, backend):
        run = estimator(backend, **self.CONFIG).fit(sdb, verify="strict")
        assert run.conformance.ok

    def test_report_of_streamed_fit(self, sdb, backend):
        est = estimator(backend, **self.CONFIG)
        est.fit(sdb)
        assert est.report() == classification_report(
            sdb.materialize(), est.best_
        )

    def test_saved_model_predicts_like_the_run(self, db, backend, tmp_path):
        from repro.serve import FittedModel

        est = estimator(backend, **self.CONFIG)
        run = est.fit(db)
        est.fitted().save(tmp_path / "m")
        back = FittedModel.load(tmp_path / "m")
        assert np.array_equal(back.predict(db), run.predict(db))
        assert np.array_equal(
            back.predict_logproba(db), run.predict_logproba(db)
        )

    def test_not_fitted_semantics(self, db, backend):
        fresh = estimator(backend, **self.CONFIG)
        for method in ("predict", "predict_proba", "predict_logproba",
                       "score_samples", "score", "fitted"):
            with pytest.raises(NotFittedError):
                getattr(fresh, method)(db)
        with pytest.raises(NotFittedError):
            fresh.report()
        with pytest.raises(NotFittedError):
            _ = fresh.best_

    def test_restarts_surface_in_run_and_record(
        self, db, backend, tmp_path, monkeypatch
    ):
        real = BACKENDS[backend]
        jobs = []

        def fails_once(job, database, spec):
            jobs.append(job)
            if len(jobs) == 1:
                raise RuntimeError("transient failure")
            return real(job, database, spec)

        monkeypatch.setitem(BACKENDS, backend, fails_once)
        run = estimator(backend, instrument="phases", **self.CONFIG).fit(
            db, checkpoint_dir=tmp_path, resume=False, max_restarts=1
        )
        first, retry = jobs
        assert not first.ckpt.resume and retry.ckpt.resume  # retries resume
        assert run.restarts == 1
        [(attempt, backoff, reason)] = run.retry_log
        assert (attempt, reason) == (1, "transient failure")
        rank0 = run.record.ranks[0]
        assert rank0.counters["restarts"] == 1
        restarts = [e for e in rank0.comm_events if e.phase == "restart"]
        assert [e.seconds for e in restarts] == [backoff]
