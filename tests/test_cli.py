"""Tests for the pautoclass CLI."""

import pytest

from repro.cli import _parse_j_list, build_parser, main


class TestParser:
    def test_j_list_parsing(self):
        assert _parse_j_list("2,4,8") == (2, 4, 8)

    def test_j_list_trailing_comma_ok(self):
        assert _parse_j_list("2,4,") == (2, 4)

    def test_j_list_garbage_raises(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_j_list("2,banana")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_j_list(",")

    def test_run_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_sources_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--data", "x", "--synthetic", "10"]
            )

    def test_experiments_which_choices(self):
        args = build_parser().parse_args(["experiments", "--which", "fig7"])
        assert args.which == "fig7"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--which", "fig99"])

    def test_experiments_choices_are_the_registry(self):
        from repro.harness import EXPERIMENTS

        # the keys the hand-written ladder had, in the order it printed
        assert tuple(EXPERIMENTS) == (
            "fig6", "fig7", "fig8", "t1", "t2", "a1", "a2", "a3", "a4",
            "a5", "b1", "obs", "fault", "split", "serve",
        )
        for key in (*EXPERIMENTS, "all"):
            assert build_parser().parse_args(
                ["experiments", "--which", key]
            ).which == key


class TestCommands:
    def test_synth_writes_files(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--items", "40", "--out", str(out)]) == 0
        assert out.with_suffix(".hd2").exists()
        assert out.with_suffix(".db2").exists()
        assert "40 items" in capsys.readouterr().out

    def test_run_on_written_database(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["synth", "--items", "60", "--out", str(out), "--seed", "3"])
        code = main(
            ["run", "--data", str(out), "--j-list", "2", "--seed", "1",
             "--max-cycles", "10"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Search: 1 tries" in text
        assert "Classes by weight" in text

    def test_run_synthetic_sequential(self, capsys):
        code = main(
            ["run", "--synthetic", "80", "--j-list", "2", "--seed", "2",
             "--max-cycles", "8"]
        )
        assert code == 0
        assert "logP(X|T)" in capsys.readouterr().out

    def test_run_sim_backend_prints_elapsed(self, capsys):
        code = main(
            ["run", "--synthetic", "80", "--j-list", "2", "--seed", "2",
             "--max-cycles", "8", "--backend", "sim", "--procs", "3"]
        )
        assert code == 0
        assert "simulated elapsed" in capsys.readouterr().out

    def test_run_threads_backend(self, capsys):
        code = main(
            ["run", "--synthetic", "60", "--j-list", "2", "--seed", "2",
             "--max-cycles", "6", "--backend", "threads", "--procs", "2"]
        )
        assert code == 0


class TestRestartLine:
    """Every backend prints the restart count through the same code."""

    ARGS = ["run", "--synthetic", "80", "--j-list", "2", "--seed", "2",
            "--max-cycles", "6", "--max-restarts", "2"]
    LINE = "completed after 1 checkpointed restart(s)"

    def test_injected_fault_on_serial(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        from repro.api import BACKENDS
        from repro.mpc.faults import FaultInjector, FaultSpec

        # the CLI has no fault flag: arm the first attempt's job instead
        # (the shell disarms retries by handing them faults=None)
        inj = FaultInjector(FaultSpec(rank=0, action="kill", at_cycle=2))
        real = BACKENDS["serial"]
        monkeypatch.setitem(
            BACKENDS, "serial",
            lambda job, db, spec: real(
                dataclasses.replace(job, faults=inj), db, spec
            ),
        )
        code = main([*self.ARGS, "--backend", "serial",
                     "--checkpoint-dir", str(tmp_path)])
        assert code == 0
        assert self.LINE in capsys.readouterr().out

    def test_same_line_on_sequential(self, tmp_path, capsys, monkeypatch):
        from repro.api import BACKENDS

        real = BACKENDS["sequential"]
        calls = []

        def fails_once(job, db, spec):
            calls.append(job)
            if len(calls) == 1:
                raise RuntimeError("transient failure")
            return real(job, db, spec)

        monkeypatch.setitem(BACKENDS, "sequential", fails_once)
        code = main([*self.ARGS, "--checkpoint-dir", str(tmp_path)])
        assert code == 0
        assert self.LINE in capsys.readouterr().out


class TestNewFlags:
    def test_model_search_flag(self, capsys):
        code = main(
            ["run", "--synthetic", "120", "--j-list", "2", "--seed", "4",
             "--max-cycles", "8", "--model-search"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Model-level search" in out
        assert "independent" in out and "correlated" in out

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes", "sim"])
    def test_model_search_rejected_off_the_sequential_backend(self, backend):
        with pytest.raises(SystemExit, match="--backend sequential"):
            main(
                ["run", "--synthetic", "120", "--j-list", "2",
                 "--backend", backend, "--model-search"]
            )

    def test_max_restarts_needs_a_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--max-restarts needs"):
            main(
                ["run", "--synthetic", "120", "--j-list", "2",
                 "--max-restarts", "2"]
            )

    def test_save_results_flag(self, tmp_path, capsys):
        path = tmp_path / "run.results.json"
        code = main(
            ["run", "--synthetic", "100", "--j-list", "2", "--seed", "4",
             "--max-cycles", "6", "--save-results", str(path)]
        )
        assert code == 0
        assert path.exists()
        from repro.engine.results_io import load_search_result

        loaded = load_search_result(path)
        assert len(loaded.tries) == 1

    def test_save_results_on_parallel_backend(self, tmp_path):
        path = tmp_path / "p.results.json"
        code = main(
            ["run", "--synthetic", "90", "--j-list", "2", "--seed", "4",
             "--max-cycles", "6", "--backend", "threads", "--procs", "2",
             "--save-results", str(path)]
        )
        assert code == 0 and path.exists()

    def test_experiments_new_choices_accepted(self):
        args = build_parser().parse_args(["experiments", "--which", "b1"])
        assert args.which == "b1"
        args = build_parser().parse_args(["experiments", "--which", "a5"])
        assert args.which == "a5"

    def test_experiments_scale_zero_rejected(self, monkeypatch):
        # 0 is a scale, not "unset": it must not fall back to the env.
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.04")
        with pytest.raises(ValueError, match="factor must be in"):
            main(["experiments", "--which", "a2", "--scale", "0"])


class TestTraceFlag:
    def test_trace_flag_removed(self, capsys):
        # --trace was removed in favour of --instrument full; argparse
        # now rejects it as an unknown option.
        with pytest.raises(SystemExit):
            main(
                ["run", "--synthetic", "80", "--j-list", "2",
                 "--backend", "sim", "--procs", "2", "--trace"]
            )
        assert "--trace" in capsys.readouterr().err

    def test_instrument_full_prints_timeline_on_sim(self, capsys):
        code = main(
            ["run", "--synthetic", "80", "--j-list", "2", "--seed", "2",
             "--max-cycles", "5", "--backend", "sim", "--procs", "2",
             "--instrument", "full"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline:" in out and "rank  0" in out


class TestModelArtifactFlags:
    def _fit_and_save(self, tmp_path):
        base = tmp_path / "d"
        main(["synth", "--items", "80", "--out", str(base), "--seed", "5"])
        model = tmp_path / "model"
        code = main(["run", "--data", str(base), "--j-list", "2", "--seed",
                     "1", "--max-cycles", "8", "--save-model", str(model)])
        assert code == 0
        return base, model

    def test_save_model_writes_artifact(self, tmp_path, capsys):
        _, model = self._fit_and_save(tmp_path)
        assert model.with_suffix(".json").exists()
        assert model.with_suffix(".npz").exists()
        assert "fitted model written to" in capsys.readouterr().out

    def test_predict_from_model_artifact(self, tmp_path, capsys):
        base, model = self._fit_and_save(tmp_path)
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(base)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("item,class")
        assert len(out.strip().splitlines()) == 81  # header + 80 items

    def test_model_and_results_mutually_exclusive(self, tmp_path):
        base, model = self._fit_and_save(tmp_path)
        with pytest.raises(SystemExit):
            main(["predict", "--model", str(model), "--results", str(model),
                  "--data", str(base)])

    def test_corrupt_artifact_is_clean_cli_error(self, tmp_path):
        base, model = self._fit_and_save(tmp_path)
        json_path = model.with_suffix(".json")
        json_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SystemExit, match="bad model artifact"):
            main(["predict", "--model", str(model), "--data", str(base)])

    def test_save_model_rejected_with_model_search(self, tmp_path):
        with pytest.raises(SystemExit, match="model-search"):
            main(["run", "--synthetic", "60", "--j-list", "2",
                  "--model-search", "--save-model", str(tmp_path / "m")])

    def test_save_model_on_parallel_backend(self, tmp_path):
        model = tmp_path / "pm"
        code = main(
            ["run", "--synthetic", "90", "--j-list", "2", "--seed", "4",
             "--max-cycles", "6", "--backend", "threads", "--procs", "2",
             "--save-model", str(model)]
        )
        assert code == 0
        from repro.serve import FittedModel

        loaded = FittedModel.load(model)
        assert loaded.backend == "threads"
        assert loaded.n_processors == 2


class TestInstrumentFlag:
    def test_instrument_prints_phase_breakdown(self, capsys):
        code = main(
            ["run", "--synthetic", "80", "--j-list", "2", "--seed", "2",
             "--max-cycles", "5", "--backend", "threads", "--procs", "2",
             "--instrument", "phases"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        assert "ar-wts" in out

    def test_instrument_sequential(self, capsys):
        code = main(
            ["run", "--synthetic", "80", "--j-list", "2", "--seed", "2",
             "--max-cycles", "5", "--instrument", "full"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        assert "EM-cycle telemetry" in out

    def test_obs_out_writes_valid_jsonl(self, tmp_path, capsys):
        path = tmp_path / "obs.jsonl"
        code = main(
            ["run", "--synthetic", "80", "--j-list", "2", "--seed", "2",
             "--max-cycles", "5", "--backend", "sim", "--procs", "2",
             "--instrument", "full", "--obs-out", str(path)]
        )
        assert code == 0
        from repro.obs.record import validate_jsonl

        record = validate_jsonl(path)
        assert record.n_processors == 2
        assert record.clock == "virtual"

    def test_obs_out_requires_instrument(self, tmp_path):
        with pytest.raises(SystemExit, match="instrument"):
            main(
                ["run", "--synthetic", "60", "--j-list", "2",
                 "--obs-out", str(tmp_path / "x.jsonl")]
            )

    def test_experiments_obs_choice_accepted(self):
        args = build_parser().parse_args(["experiments", "--which", "obs"])
        assert args.which == "obs"


class TestPredictCommand:
    def _fit(self, tmp_path):
        base = tmp_path / "d"
        main(["synth", "--items", "80", "--out", str(base), "--seed", "5"])
        results = tmp_path / "r.json"
        main(["run", "--data", str(base), "--j-list", "2", "--seed", "1",
              "--max-cycles", "8", "--save-results", str(results)])
        return base, results

    def test_predict_to_stdout(self, tmp_path, capsys):
        base, results = self._fit(tmp_path)
        capsys.readouterr()
        code = main(["predict", "--results", str(results), "--data", str(base)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("item,class")
        assert len(out.strip().splitlines()) == 81  # header + 80 items

    def test_predict_with_probabilities(self, tmp_path, capsys):
        base, results = self._fit(tmp_path)
        capsys.readouterr()
        main(["predict", "--results", str(results), "--data", str(base),
              "--proba"])
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header == "item,class,p0,p1"
        row = out.splitlines()[1].split(",")
        probs = [float(x) for x in row[2:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-4)

    def test_predict_to_file(self, tmp_path, capsys):
        base, results = self._fit(tmp_path)
        out_path = tmp_path / "pred.csv"
        code = main(["predict", "--results", str(results), "--data", str(base),
                     "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().startswith("item,class")

    def test_schema_mismatch_rejected(self, tmp_path):
        _, results = self._fit(tmp_path)
        other = tmp_path / "other"
        # Different schema: 3 clusters synth uses the same 2-attr schema,
        # so craft a mismatched header instead.
        from repro.data.attributes import AttributeSet, RealAttribute
        from repro.data.database import Database
        from repro.data.io import save_database
        import numpy as np

        schema = AttributeSet((RealAttribute("zz"),))
        db = Database.from_columns(schema, [np.arange(5.0)])
        save_database(db, other)
        with pytest.raises(SystemExit, match="schema mismatch"):
            main(["predict", "--results", str(results), "--data", str(other)])


class TestReportOut:
    def test_rlog_written(self, tmp_path, capsys):
        path = tmp_path / "run.rlog"
        code = main(
            ["run", "--synthetic", "100", "--j-list", "2", "--seed", "3",
             "--max-cycles", "6", "--report-out", str(path)]
        )
        assert code == 0
        text = path.read_text()
        assert "P-AutoClass classification report" in text
        assert "CLASS 0" in text
