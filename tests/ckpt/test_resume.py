"""Differential resume: interrupted + restored == never interrupted.

The paper's replicated control flow makes every search decision a
deterministic function of the seed and the globally reduced scores;
a checkpoint cut at an Allreduce boundary therefore restarts the run
*bit-identically*.  These tests interrupt searches on all four SPMD
worlds and assert exactly that.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.api import BACKENDS, AutoClass, PAutoClass
from repro.ckpt import CheckpointError
from repro.data.synth import make_paper_database
from repro.mpc.faults import FaultInjected, FaultInjector, FaultSpec
from tests.ckpt.test_byte_compat import CONFIG as FIXTURE_CONFIG
from tests.ckpt.test_byte_compat import FIXTURES
from tests.ckpt.test_byte_compat import _db as fixture_db

CONFIG = dict(start_j_list=(2, 3), max_n_tries=2, seed=7, max_cycles=15,
              init_method="sharp")


@pytest.fixture(scope="module")
def db():
    return make_paper_database(240, seed=31)


@pytest.fixture(scope="module")
def clean_parallel(db):
    """Reference 2-rank result with no interruption (the paper's
    single-level search, which the faulted runs below also pin)."""
    return PAutoClass(
        n_processors=2, backend="threads", try_groups=1, **CONFIG
    ).fit(db)


def _assert_same_search(a, b):
    assert len(a.tries) == len(b.tries)
    for ta, tb in zip(a.tries, b.tries):
        assert ta.n_classes_requested == tb.n_classes_requested
        assert ta.n_cycles == tb.n_cycles
        assert ta.duplicate_of == tb.duplicate_of
        assert ta.score == tb.score  # bit-identical, not approx
        np.testing.assert_array_equal(
            ta.classification.log_pi, tb.classification.log_pi
        )


class TestSequentialResume:
    def test_interrupt_mid_try_resume_bit_identical(
        self, db, tmp_path, monkeypatch
    ):
        clean = AutoClass(**CONFIG).fit(db).result

        import repro.engine.search as search_mod

        real = search_mod.base_cycle
        calls = {"n": 0}

        def flaky(db_, clf, **kw):
            calls["n"] += 1
            if calls["n"] == 5:
                raise RuntimeError("simulated crash mid-try")
            return real(db_, clf, **kw)

        monkeypatch.setattr(search_mod, "base_cycle", flaky)
        ac = AutoClass(**CONFIG)
        with pytest.raises(RuntimeError, match="simulated crash"):
            ac.fit(db, checkpoint="per_cycle", checkpoint_dir=tmp_path)
        monkeypatch.setattr(search_mod, "base_cycle", real)

        resumed = AutoClass(**CONFIG).fit(
            db, checkpoint="per_cycle", checkpoint_dir=tmp_path
        )
        _assert_same_search(clean, resumed.result)

    def test_sequential_retry_loop_self_heals(
        self, db, tmp_path, monkeypatch
    ):
        clean = AutoClass(**CONFIG).fit(db).result

        import repro.engine.search as search_mod

        real = search_mod.base_cycle
        calls = {"n": 0}

        def flaky_once(db_, clf, **kw):
            calls["n"] += 1
            if calls["n"] == 4:
                raise RuntimeError("transient failure")
            return real(db_, clf, **kw)

        monkeypatch.setattr(search_mod, "base_cycle", flaky_once)
        run = AutoClass(**CONFIG).fit(
            db, checkpoint="per_cycle", checkpoint_dir=tmp_path,
            max_restarts=1,
        )
        assert run.restarts == 1
        assert run.retry_log[0][2] == "transient failure"
        _assert_same_search(clean, run.result)

    def test_resume_skips_completed_tries(self, db, tmp_path):
        first = AutoClass(**CONFIG).fit(
            db, checkpoint="per_try", checkpoint_dir=tmp_path
        )
        # a rerun over the finished checkpoint must not redo any try
        rerun = AutoClass(**CONFIG).fit(
            db, checkpoint="per_try", checkpoint_dir=tmp_path
        )
        _assert_same_search(first.result, rerun.result)


@pytest.mark.parametrize("backend", ["serial", "threads", "sim"])
class TestParallelResume:
    def test_killed_rank_recovers_bit_identical(
        self, db, tmp_path, backend, clean_parallel
    ):
        procs = 1 if backend == "serial" else 2
        clean = (
            clean_parallel
            if (backend == "threads")
            else PAutoClass(n_processors=procs, backend=backend,
                            try_groups=1, **CONFIG).fit(db)
        )
        inj = FaultInjector(
            FaultSpec(rank=procs - 1, action="kill", site="cycle",
                      at_try=1, at_cycle=2)
        )
        pac = PAutoClass(
            n_processors=procs, backend=backend, try_groups=1, **CONFIG
        )
        run = pac.fit(
            db, checkpoint="per_cycle", checkpoint_dir=tmp_path,
            max_restarts=2, faults=inj,
        )
        assert run.restarts == 1
        _assert_same_search(clean.result, run.result)

    def test_without_restarts_the_fault_is_fatal(self, db, tmp_path, backend):
        procs = 1 if backend == "serial" else 2
        inj = FaultInjector(
            FaultSpec(rank=0, action="kill", site="init", at_try=0)
        )
        pac = PAutoClass(
            n_processors=procs, backend=backend, try_groups=1, **CONFIG
        )
        with pytest.raises((RuntimeError, FaultInjected)):
            pac.fit(db, checkpoint="per_try", checkpoint_dir=tmp_path,
                    faults=inj)


class TestWorldSizeChange:
    def test_checkpoint_resumes_on_different_world_size(
        self, db, tmp_path, clean_parallel
    ):
        # interrupt a 2-rank search, resume it on 4 ranks: the state is
        # global, so the world size is free to change across restarts
        inj = FaultInjector(
            FaultSpec(rank=1, action="kill", site="cycle",
                      at_try=1, at_cycle=3)
        )
        two = PAutoClass(
            n_processors=2, backend="threads", try_groups=1, **CONFIG
        )
        with pytest.raises(RuntimeError):
            two.fit(db, checkpoint="per_cycle", checkpoint_dir=tmp_path,
                    faults=inj)
        four = PAutoClass(
            n_processors=4, backend="threads", try_groups=1, **CONFIG
        )
        resumed = four.fit(
            db, checkpoint="per_cycle", checkpoint_dir=tmp_path
        )
        # across world sizes the Allreduce summation order changes, so
        # scores agree only to floating-point reassociation (the same
        # tolerance the repo's sequential/parallel equivalence uses);
        # the control-flow decisions must still match exactly.
        a, b = clean_parallel.result, resumed.result
        assert len(a.tries) == len(b.tries)
        for ta, tb in zip(a.tries, b.tries):
            assert ta.n_classes_requested == tb.n_classes_requested
            assert ta.n_cycles == tb.n_cycles
            assert ta.duplicate_of == tb.duplicate_of
            assert ta.score == pytest.approx(tb.score, rel=1e-9)


class TestCrossGroupResume:
    def test_head_resumes_its_in_progress_try_under_try_groups_2(
        self, tmp_path
    ):
        """The committed mid-search directory — a head with try 1 frozen
        after cycle 3, try 0 in its file — resumed on two one-rank try
        groups: the group owning try 1 continues it from the head
        instead of initialising it again."""
        pac = PAutoClass(
            n_processors=2, backend="threads", try_groups=2,
            instrument="phases", **FIXTURE_CONFIG,
        )
        clean = pac.fit(fixture_db())
        for name in ("ckpt.json", "try_0000.json"):
            shutil.copy(FIXTURES / name, tmp_path / name)
        resumed = pac.fit(
            fixture_db(), checkpoint="per_cycle", checkpoint_dir=tmp_path
        )
        for rank in resumed.record.ranks:
            assert "init" not in rank.phase_calls
        assert sum(r.n_cycles for r in resumed.record.ranks) == (
            clean.result.tries[1].n_cycles - 3
        )
        _assert_same_search(clean.result, resumed.result)

    def test_later_of_head_and_try_file_is_resumed(
        self, tmp_path, monkeypatch
    ):
        """The head holds try 1 after cycle 3 and a group leader's file
        holds it after cycle 4: a single-level resume continues from
        cycle 4."""
        import repro.ckpt.manager as manager

        real_write = manager.write_bytes
        frozen: list[bytes] = []  # try 1's file after each of its cycles

        def write_bytes(path, data):
            if path.name == "try_0001.json":
                frozen.append(data)
            return real_write(path, data)

        monkeypatch.setattr(manager, "write_bytes", write_bytes)
        grouped = PAutoClass(
            n_processors=2, backend="threads", try_groups=2,
            **FIXTURE_CONFIG,
        ).fit(
            fixture_db(), checkpoint="per_cycle",
            checkpoint_dir=tmp_path / "grouped",
        )
        monkeypatch.setattr(manager, "write_bytes", real_write)
        for name in ("ckpt.json", "try_0000.json"):
            shutil.copy(FIXTURES / name, tmp_path / name)
        in_progress = json.loads(frozen[3])["in_progress"]
        assert in_progress["classification"]["n_cycles"] == 4
        (tmp_path / "try_0001.json").write_bytes(frozen[3])
        resumed = PAutoClass(
            n_processors=1, backend="serial", instrument="phases",
            **FIXTURE_CONFIG,
        ).fit(fixture_db(), checkpoint="per_cycle", checkpoint_dir=tmp_path)
        assert resumed.record.ranks[0].n_cycles == (
            grouped.result.tries[1].n_cycles - 4
        )
        _assert_same_search(grouped.result, resumed.result)


class TestRefusedCheckpoint:
    @pytest.mark.parametrize(
        "backend, procs", [("serial", 1), ("threads", 2)]
    )
    def test_foreign_checkpoint_is_not_retried(
        self, db, tmp_path, monkeypatch, caplog, backend, procs
    ):
        # the directory holds another search's checkpoint: resuming it is
        # refused deterministically, so the restart budget must not be
        # spent (three backoffs, three re-launched worlds) on it
        PAutoClass(n_processors=procs, backend=backend, **CONFIG).fit(
            db, checkpoint_dir=tmp_path
        )
        real = BACKENDS[backend]
        attempts = []

        def counting(job, database, spec):
            attempts.append(job)
            return real(job, database, spec)

        monkeypatch.setitem(BACKENDS, backend, counting)
        other = PAutoClass(
            n_processors=procs, backend=backend, **dict(CONFIG, seed=8)
        )
        with caplog.at_level("WARNING", logger="repro.api"):
            with pytest.raises(RuntimeError) as exc_info:
                other.fit(db, checkpoint_dir=tmp_path, max_restarts=3)
        exc = exc_info.value
        # raised directly, or as the cause of the world's rank failure
        refusal = exc if isinstance(exc, CheckpointError) else exc.__cause__
        assert isinstance(refusal, CheckpointError)
        assert "different search" in str(refusal)
        assert len(attempts) == 1
        assert not caplog.records  # no "restarting from checkpoint"


class TestFitValidation:
    def test_policy_without_directory_rejected(self, db):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            AutoClass(**CONFIG).fit(db, checkpoint="per_try")

    def test_max_restarts_without_checkpoint_rejected(self, db):
        with pytest.raises(ValueError, match="checkpoint"):
            PAutoClass(n_processors=2, backend="threads", **CONFIG).fit(
                db, max_restarts=2
            )

    def test_directory_alone_enables_per_try(self, db, tmp_path):
        run = AutoClass(**CONFIG).fit(db, checkpoint_dir=tmp_path)
        assert (tmp_path / "ckpt.json").exists()
        assert run.restarts == 0
