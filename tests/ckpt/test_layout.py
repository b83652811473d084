"""The version-2 directory layout: what each save writes, and in what order.

A sequential ``per_cycle`` search writes every completed try's file
exactly once and otherwise rewrites only the small head, whose size
does not grow with the number of completed tries.  At a try boundary
the try file lands, the directory entry is fsynced, and only then is
the head replaced — so a crash between the two leaves a directory that
still resumes to the uninterrupted answer.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

import repro.ckpt.manager as manager
from repro.api import AutoClass, PAutoClass
from repro.ckpt import Checkpointer
from repro.data.synth import make_paper_database
from repro.engine.search import SearchConfig, run_search

#: Every try has J = 3 (tries 1 and 2 draw it from a one-entry list),
#: so in-progress state is the same size in every try.
CONFIG = dict(start_j_list=(3,), max_n_tries=3, seed=5, max_cycles=8,
              init_method="sharp")


@pytest.fixture(scope="module")
def db():
    return make_paper_database(150, seed=17)


@pytest.fixture()
def writes(monkeypatch):
    """Every file the checkpointer writes and every directory fsync, in order."""
    log: list[tuple[str, int]] = []
    real_write, real_fsync = manager.write_bytes, manager.fsync_dir

    def write_bytes(path, data):
        log.append((path.name, len(data)))
        return real_write(path, data)

    def fsync_dir(path):
        log.append(("<fsync dir>", 0))
        real_fsync(path)

    monkeypatch.setattr(manager, "write_bytes", write_bytes)
    monkeypatch.setattr(manager, "fsync_dir", fsync_dir)
    return log


def test_each_try_file_is_written_once(db, tmp_path, writes):
    ck = Checkpointer(tmp_path, policy="per_cycle")
    result = run_search(db, SearchConfig(**CONFIG), checkpointer=ck)
    names = Counter(name for name, _ in writes)
    assert names == {
        "try_0000.json": 1, "try_0001.json": 1, "try_0002.json": 1,
        "<fsync dir>": 3, "ckpt.json": ck.n_saves,
    }
    # one save per cut point: every cycle but the last, plus the boundary
    assert ck.n_saves == sum(t.n_cycles for t in result.tries)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ckpt.json", "try_0000.json", "try_0001.json", "try_0002.json",
    ]


def test_per_cycle_head_does_not_grow_with_completed_tries(
    db, tmp_path, writes
):
    ck = Checkpointer(tmp_path, policy="per_cycle")
    run_search(db, SearchConfig(**CONFIG), checkpointer=ck)
    # heads between try files: [boundary head,] per-cycle heads of a try
    segments: list[list[int]] = [[]]
    try_sizes: list[int] = []
    for name, size in writes:
        if name.startswith("try_"):
            try_sizes.append(size)
            segments.append([])
        elif name == "ckpt.json":
            segments[-1].append(size)
    boundary = [seg[0] for seg in segments[1:]]
    # the first per-cycle head of tries 1 and 2: same cycle, same J, the
    # same two RNG streams (try 0 has no "select_j" draw), with 1 and 2
    # completed tries behind it
    first_cycle = [segments[1][1], segments[2][1]]
    # only the digits of a few floats and RNG states may differ; one
    # more completed try would add a whole try file's worth
    assert abs(first_cycle[1] - first_cycle[0]) <= 64 < min(try_sizes) // 4
    assert len(set(boundary)) == 1 and boundary[0] < min(try_sizes) // 4
    head = json.loads((tmp_path / "ckpt.json").read_bytes())
    assert head["n_completed"] == 3 and head["in_progress"] is None
    assert head["rng_streams"] == {}  # spent tries' streams are dropped


def test_try_boundary_orders_try_file_fsync_head(db, tmp_path, writes):
    ck = Checkpointer(tmp_path, policy="per_try")
    run_search(db, SearchConfig(**CONFIG), checkpointer=ck)
    assert [name for name, _ in writes] == [
        "try_0000.json", "<fsync dir>", "ckpt.json",
        "try_0001.json", "<fsync dir>", "ckpt.json",
        "try_0002.json", "<fsync dir>", "ckpt.json",
    ]


def test_head_write_failing_after_try_file_landed_resumes_identically(
    db, tmp_path, monkeypatch
):
    clean = AutoClass(**CONFIG).fit(db).result
    real_write = manager.write_bytes

    def write_bytes(path, data):
        # the head write at try 1's boundary: its try file has landed
        if path.name == "ckpt.json" and (tmp_path / "try_0001.json").exists():
            raise OSError("disk full")
        return real_write(path, data)

    monkeypatch.setattr(manager, "write_bytes", write_bytes)
    with pytest.raises(OSError, match="disk full"):
        AutoClass(**CONFIG).fit(
            db, checkpoint="per_cycle", checkpoint_dir=tmp_path
        )
    monkeypatch.setattr(manager, "write_bytes", real_write)
    head = json.loads((tmp_path / "ckpt.json").read_bytes())
    # the head on disk is the previous one: try 1 mid-flight
    assert head["n_completed"] == 1
    assert head["in_progress"]["try_index"] == 1

    resumed = AutoClass(**CONFIG).fit(
        db, checkpoint="per_cycle", checkpoint_dir=tmp_path
    ).result
    assert len(resumed.tries) == len(clean.tries)
    for a, b in zip(clean.tries, resumed.tries):
        assert (a.n_cycles, a.duplicate_of) == (b.n_cycles, b.duplicate_of)
        assert a.score == b.score  # bit-identical, not approx
        np.testing.assert_array_equal(
            a.classification.log_pi, b.classification.log_pi
        )


def test_each_save_is_one_ckpt_phase_on_the_writer_rank(db, tmp_path):
    run = PAutoClass(
        n_processors=2, backend="threads", instrument="phases",
        try_groups=1, **CONFIG,
    ).fit(db, checkpoint="per_cycle", checkpoint_dir=tmp_path)
    writer, other = run.record.ranks
    saves = sum(t.n_cycles for t in run.result.tries)
    assert writer.counters["ckpt_saves"] == saves
    assert writer.phase_calls["ckpt"] == saves
    assert writer.seconds("ckpt") > 0
    assert "ckpt" not in other.phase_seconds


def test_per_cycle_saves_after_every_non_final_cycle(db, tmp_path, writes):
    """Try-grouped ``per_cycle``: each group leader rewrites its try's
    file after every non-final cycle, then once more when it completes."""
    run = PAutoClass(
        n_processors=2, backend="threads", try_groups=2, **CONFIG
    ).fit(db, checkpoint="per_cycle", checkpoint_dir=tmp_path)
    try_writes = Counter(name for name, _ in writes if name.startswith("try_"))
    assert try_writes == {
        f"try_{t.try_index:04d}.json": t.n_cycles for t in run.result.tries
    }
