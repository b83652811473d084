"""The background checkpoint writer: failure order, a crash in flight,
no leaked threads.

A search hands each cut point's state to one writer thread and runs on;
at most one save is in flight, and the search drains the writer on
every exit path.  These tests pin what that must not cost: a failed
save stops every save behind it, a rank killed with a save half-written
still resumes to the uninterrupted answer, and no ``ckpt-writer``
thread outlives its fit.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

import repro.ckpt.manager as manager
from repro.api import AutoClass, PAutoClass
from repro.ckpt import Checkpointer
from repro.data.synth import make_paper_database
from repro.engine.search import SearchConfig, run_search
from repro.mpc.faults import FaultInjector, FaultSpec
from repro.util.rng import SeedSequenceStream

#: Every try has J = 3, as in ``test_layout.py``.
CONFIG = dict(start_j_list=(3,), max_n_tries=3, seed=5, max_cycles=8,
              init_method="sharp")


@pytest.fixture(scope="module")
def db():
    return make_paper_database(150, seed=17)


def writer_threads() -> list[str]:
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith("ckpt-writer")
    ]


def assert_same_search(a, b):
    assert len(a.tries) == len(b.tries)
    for ta, tb in zip(a.tries, b.tries):
        assert (ta.n_cycles, ta.duplicate_of) == (tb.n_cycles, tb.duplicate_of)
        assert ta.score == tb.score  # bit-identical, not approx
        np.testing.assert_array_equal(
            ta.classification.log_pi, tb.classification.log_pi
        )


def test_failed_try_file_stops_every_later_save(db, tmp_path, monkeypatch):
    clean = AutoClass(**CONFIG).fit(db).result
    real_write = manager.write_bytes
    attempted: list[str] = []

    def write_bytes(path, data):
        attempted.append(path.name)
        if path.name == "try_0001.json":
            raise OSError("disk full")
        return real_write(path, data)

    monkeypatch.setattr(manager, "write_bytes", write_bytes)
    with pytest.raises(OSError, match="disk full"):
        AutoClass(**CONFIG).fit(
            db, checkpoint="per_cycle", checkpoint_dir=tmp_path
        )
    # the failed try file is the last write: no head behind it
    assert attempted[-1] == "try_0001.json"
    assert attempted.count("try_0001.json") == 1
    assert writer_threads() == []
    monkeypatch.setattr(manager, "write_bytes", real_write)
    assert not (tmp_path / "try_0001.json").exists()
    head = json.loads((tmp_path / "ckpt.json").read_bytes())
    # the head on disk is try 1's last per-cycle one
    assert head["n_completed"] == 1
    assert head["in_progress"]["try_index"] == 1

    resumed = AutoClass(**CONFIG).fit(
        db, checkpoint="per_cycle", checkpoint_dir=tmp_path
    ).result
    assert_same_search(clean, resumed)


def test_direct_calls_are_synchronous(db, tmp_path):
    """Outside a search a save has landed when the call returns."""
    result = run_search(db, SearchConfig(**CONFIG))
    ck = Checkpointer(tmp_path, policy="per_cycle")
    ck.bind(result.config, result.best.classification.spec, db.n_items)
    ck.save_boundary(result, SeedSequenceStream(CONFIG["seed"]))
    assert ck.n_saves == 1 and ck.path.exists()
    assert writer_threads() == []


@pytest.mark.parametrize(
    "backend,try_groups",
    [("sequential", None), ("serial", None), ("threads", 1), ("threads", 2),
     ("sim", 1)],
)
def test_no_writer_thread_outlives_a_fit(db, tmp_path, backend, try_groups):
    n_processors = 1 if backend in ("sequential", "serial") else 2
    run = PAutoClass(
        n_processors=n_processors, backend=backend, try_groups=try_groups,
        instrument="phases", **CONFIG,
    ).fit(db, checkpoint="per_cycle", checkpoint_dir=tmp_path)
    assert writer_threads() == []
    # the writer did run: its own time is on the writing rank's record
    assert run.record.ranks[0].counters["ckpt_write_us"] > 0


@pytest.mark.parametrize("fault_rank", [0, 1])
def test_no_writer_thread_outlives_a_restarted_fit(
    db, tmp_path, fault_rank
):
    pac = PAutoClass(n_processors=2, backend="threads", try_groups=1,
                     **CONFIG)
    clean = pac.fit(db).result
    inj = FaultInjector(
        FaultSpec(rank=fault_rank, action="kill", site="cycle", at_try=1,
                  at_cycle=3)
    )
    run = pac.fit(
        db, checkpoint="per_cycle", checkpoint_dir=tmp_path,
        max_restarts=1, faults=inj,
    )
    assert run.restarts == 1
    assert writer_threads() == []
    assert_same_search(clean, run.result)


def test_writers_hold_their_order_under_a_short_switch_interval(
    db, tmp_path, monkeypatch
):
    """Four group leaders, each with its writer thread, on two cores
    and a 1 us switch interval: every try file is written once per
    non-final cycle and once complete, in cycle order, and the
    directory resumes to the same search."""
    config = dict(CONFIG, max_n_tries=4)
    pac = PAutoClass(n_processors=4, backend="threads", try_groups=4,
                     **config)
    real_write = manager.write_bytes
    writes: list[tuple[str, bytes]] = []

    def write_bytes(path, data):
        writes.append((path.name, data))
        return real_write(path, data)

    monkeypatch.setattr(manager, "write_bytes", write_bytes)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = pac.fit(db, checkpoint="per_cycle", checkpoint_dir=tmp_path)
    finally:
        sys.setswitchinterval(interval)
    assert writer_threads() == []
    for t in run.result.tries:
        docs = [
            json.loads(data) for name, data in writes
            if name == f"try_{t.try_index:04d}.json"
        ]
        assert len(docs) == t.n_cycles
        cycles = [d["in_progress"]["classification"]["n_cycles"]
                  for d in docs[:-1]]
        assert cycles == list(range(1, t.n_cycles))
        assert docs[-1]["in_progress"] is None
    resumed = pac.fit(db, checkpoint="per_cycle", checkpoint_dir=tmp_path)
    assert_same_search(run.result, resumed.result)


def test_ckpt_phase_times_each_hand_off(db, tmp_path):
    """On the writing rank, one ``ckpt`` phase and one ``ckpt_saves``
    per cut point, with the writer's own time beside them."""
    run = PAutoClass(
        n_processors=2, backend="threads", instrument="phases",
        try_groups=1, **CONFIG,
    ).fit(db, checkpoint="per_cycle", checkpoint_dir=tmp_path)
    writer, other = run.record.ranks
    saves = sum(t.n_cycles for t in run.result.tries)
    assert writer.phase_calls["ckpt"] == writer.counters["ckpt_saves"] == saves
    assert writer.counters["ckpt_write_us"] > 0
    assert "ckpt_write_us" not in other.counters


#: One try on 2 processes, long enough to be killed at cycle 3.
CRASH_CONFIG = dict(start_j_list=(3,), max_n_tries=1, seed=13, max_cycles=10,
                    init_method="sharp")


@pytest.mark.slow
def test_rank_killed_with_a_save_in_flight_resumes_identically(
    tmp_path, monkeypatch
):
    """Rank 0 hard-exits at cycle 3 while its writer is stalled inside
    cycle 2's head write, with a partial ``ckpt.json.tmp`` on disk.

    The patch is installed before the world forks, so both attempts'
    ranks inherit it; the marker file (on disk, seen across forks)
    stalls the first attempt only.
    """
    db = make_paper_database(200, seed=5)
    clean = PAutoClass(n_processors=2, backend="processes", try_groups=1,
                       **CRASH_CONFIG).fit(db)
    directory, stalled = tmp_path / "ck", tmp_path / "stalled"
    real_write = manager.write_bytes
    heads: list[str] = []

    def write_bytes(path, data):
        if path.name == "ckpt.json" and not stalled.exists():
            heads.append(path.name)
            if len(heads) == 2:  # cycle 2's head: half a temp file, stall
                path.with_name(path.name + ".tmp").write_bytes(
                    data[: len(data) // 2]
                )
                stalled.touch()
                time.sleep(30)
        return real_write(path, data)

    monkeypatch.setattr(manager, "write_bytes", write_bytes)
    inj = FaultInjector([
        # give the writer time to reach the stall, then lose the node
        FaultSpec(rank=0, action="delay", site="cycle", at_try=0,
                  at_cycle=3, seconds=0.5),
        FaultSpec(rank=0, action="exit", site="cycle", at_try=0, at_cycle=3),
    ])
    t0 = time.perf_counter()
    run = PAutoClass(
        n_processors=2, backend="processes", try_groups=1,
        instrument="phases", **CRASH_CONFIG,
    ).fit(
        db, checkpoint="per_cycle", checkpoint_dir=directory,
        max_restarts=1, faults=inj,
    )
    # the stall ran, and on the killed attempt: the retry never slept
    assert stalled.exists() and time.perf_counter() - t0 < 25
    assert run.restarts == 1
    assert_same_search(clean.result, run.result)
    # the orphaned temp file was ignored, then overwritten and renamed
    assert not (directory / "ckpt.json.tmp").exists()
    # the retry resumed from cycle 1's head: cycles 2..n-1 and the
    # boundary were saved again, so two cycles were repeated
    n_cycles = run.result.tries[0].n_cycles
    assert run.record.ranks[0].counters["ckpt_saves"] == n_cycles - 1
