"""Unit tests for the recorder layer and the record schema."""

import json
import math
import pickle

import pytest

from repro.obs.record import (
    COMM_PHASES,
    PHASES,
    SCHEMA_VERSION,
    CommEventRecord,
    CycleRecord,
    RankRecord,
    RunRecord,
    SchemaError,
    read_jsonl,
    write_jsonl,
)
from repro.obs.recorder import (
    INSTRUMENT_LEVELS,
    NULL_RECORDER,
    Recorder,
    RunRecorder,
    check_instrument,
    current,
    recording,
)


class FakeClock:
    """Deterministic clock: each call advances by `step`."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.t
        self.t += self.step
        return t


class TestAmbientInstall:
    def test_default_is_null_recorder(self):
        assert current() is NULL_RECORDER
        assert current().enabled is False

    def test_null_recorder_is_noop(self):
        rec = NULL_RECORDER
        with rec.phase("wts"):
            pass
        rec.add_phase("wts", 1.0)
        rec.comm_event("allreduce_wts", 10, 0.1)
        rec.cycle(n_classes=2, log_marginal=-1.0, w_j=[1.0, 1.0])
        rec.count("estep.fused")
        rec.try_boundary(0)  # still a no-op

    def test_recording_installs_and_restores(self):
        rec = Recorder("phases")
        with recording(rec):
            assert current() is rec
            inner = Recorder("full")
            with recording(inner):
                assert current() is inner
            assert current() is rec
        assert current() is NULL_RECORDER

    def test_recorders_satisfy_protocol(self):
        assert isinstance(NULL_RECORDER, RunRecorder)
        assert isinstance(Recorder("phases"), RunRecorder)

    def test_check_instrument(self):
        for level in INSTRUMENT_LEVELS:
            assert check_instrument(level) == level
        with pytest.raises(ValueError, match="instrument"):
            check_instrument("verbose")

    def test_recorder_rejects_off_level(self):
        with pytest.raises(ValueError, match="phases"):
            Recorder("off")


class TestPhaseTimers:
    def test_phase_accumulates_on_injected_clock(self):
        clock = FakeClock(step=1.0)
        rec = Recorder("phases", clock=clock)
        with rec.phase("wts"):
            pass  # enter/exit = two ticks -> 1.0 s
        with rec.phase("wts"):
            pass
        with rec.phase("params"):
            pass
        assert rec.phase_seconds["wts"] == pytest.approx(2.0)
        assert rec.phase_calls["wts"] == 2
        assert rec.phase_seconds["params"] == pytest.approx(1.0)

    def test_add_phase_direct(self):
        rec = Recorder("phases")
        rec.add_phase("allreduce_wts", 0.25)
        rec.add_phase("allreduce_wts", 0.25)
        assert rec.phase_seconds["allreduce_wts"] == pytest.approx(0.5)
        assert rec.phase_calls["allreduce_wts"] == 2

    def test_counters(self):
        rec = Recorder("phases")
        rec.count("estep.fused")
        rec.count("estep.fused", 3)
        assert rec.counters == {"estep.fused": 4}

    def test_unknown_phase_rejected_at_freeze(self):
        rec = Recorder("phases")
        rec.add_phase("not_a_phase", 1.0)
        with pytest.raises(ValueError, match="unknown phases"):
            rec.to_rank_record()


class TestCycleTelemetry:
    def test_full_records_cycles_with_delta(self):
        rec = Recorder("full")
        rec.try_boundary(0)
        rec.cycle(n_classes=2, log_marginal=-100.0, w_j=[5.0, 5.0])
        rec.cycle(n_classes=2, log_marginal=-90.0, w_j=[9.0, 1.0])
        assert len(rec.cycles_) == 2
        assert math.isnan(rec.cycles_[0].delta)  # first cycle of a try
        assert rec.cycles_[1].delta == pytest.approx(10.0)
        # Uniform weights -> max entropy log(J).
        assert rec.cycles_[0].w_j_entropy == pytest.approx(math.log(2))
        assert rec.cycles_[1].w_j_entropy < math.log(2)

    def test_try_boundary_resets_delta(self):
        rec = Recorder("full")
        rec.cycle(n_classes=2, log_marginal=-10.0, w_j=[1.0])
        rec.try_boundary(3)
        rec.cycle(n_classes=4, log_marginal=-50.0, w_j=[1.0])
        assert math.isnan(rec.cycles_[1].delta)
        # each cycle carries the try it belongs to (0 before any boundary)
        assert [c.try_index for c in rec.cycles_] == [0, 3]

    def test_phases_level_skips_cycle_storage(self):
        rec = Recorder("phases")
        rec.cycle(n_classes=2, log_marginal=-1.0, w_j=[1.0])
        assert rec.cycles_ == []

    def test_comm_events_only_at_full(self):
        for level, n_events in (("phases", 0), ("full", 2)):
            rec = Recorder(level)
            rec.comm_event("allreduce_wts", 100, 0.1)
            rec.comm_event("allreduce_params", 200, 0.2, n_calls=16)
            assert len(rec.comm_events_) == n_events
        assert sum(e.nbytes for e in rec.comm_events_) == 300
        assert sum(e.n_calls for e in rec.comm_events_) == 17


class TestRankRecord:
    def _record(self, level="full"):
        clock = FakeClock(step=0.5)
        rec = Recorder(level, rank=1, size=4, clock=clock, clock_kind="wall")
        with rec.phase("wts"):
            pass
        rec.add_phase("allreduce_wts", 0.75)
        rec.count("estep.fused", 2)
        rec.cycle(n_classes=2, log_marginal=-5.0, w_j=[1.0, 3.0])
        return rec.to_rank_record()

    def test_derived_quantities(self):
        r = self._record()
        assert r.rank == 1 and r.size == 4
        assert r.total_phase_seconds == pytest.approx(0.5 + 0.75)
        assert r.allreduce_seconds == pytest.approx(0.75)
        assert r.compute_seconds == pytest.approx(0.5)
        assert r.n_cycles == 1  # one wts phase call
        assert r.wall_seconds > 0

    def test_ckpt_phase_is_attributed_but_not_compute(self):
        rec = Recorder("phases", clock=FakeClock(step=0.5))
        with rec.phase("wts"):
            pass
        rec.add_phase("allreduce_wts", 0.75)
        rec.add_phase("ckpt", 2.0)  # only the writer rank spends this
        r = rec.to_rank_record()
        assert r.total_phase_seconds == pytest.approx(0.5 + 0.75 + 2.0)
        assert r.allreduce_seconds == pytest.approx(0.75)
        assert r.compute_seconds == pytest.approx(0.5)

    def test_record_written_before_the_ckpt_phase_loads(self, tmp_path):
        written = {
            "kind": "rank", "rank": 0, "size": 1, "instrument": "phases",
            "clock": "wall", "wall_seconds": 2.0,
            "phase_seconds": {"init": 0.25, "wts": 1.0},
            "phase_calls": {"init": 1, "wts": 3},
        }
        header = {"kind": "run", "schema_version": SCHEMA_VERSION,
                  "backend": "sequential", "n_processors": 1,
                  "instrument": "phases", "clock": "wall", "elapsed": 2.0}
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(written) + "\n")
        (r,) = read_jsonl(path).ranks
        assert r.seconds("ckpt") == 0.0
        assert r.compute_seconds == pytest.approx(1.25)

    def _comparable_record(self):
        """A record with no NaN fields (NaN breaks == comparisons)."""
        r = self._record()
        r.cycles = [
            CycleRecord(index=0, n_classes=2, log_marginal=-5.0,
                        delta=0.5, w_j_entropy=0.4),
        ]
        return r

    def test_round_trip_dict(self):
        r = self._comparable_record()
        back = RankRecord.from_dict(r.to_dict())
        assert back == r

    def test_nan_delta_survives_dict_round_trip(self):
        r = self._record()
        back = RankRecord.from_dict(r.to_dict())
        assert math.isnan(back.cycles[0].delta)

    def test_picklable(self):
        r = self._comparable_record()
        assert pickle.loads(pickle.dumps(r)) == r

    def test_comm_stats_subsumed(self):
        from repro.mpc.api import CommStats

        rec = Recorder("phases")
        stats = CommStats()
        stats.bytes_sent = 123
        stats.n_collectives = 7
        r = rec.to_rank_record(comm_stats=stats)
        assert r.comm["bytes_sent"] == 123
        assert r.comm["n_collectives"] == 7


class TestRunRecordJsonl:
    def _run_record(self):
        ranks = []
        for rank in (1, 0):  # deliberately out of order
            rec = Recorder("full", rank=rank, size=2)
            with rec.phase("wts"):
                pass
            rec.comm_event("allreduce_wts", 64, 0.01)
            ranks.append(rec.to_rank_record())
        return RunRecord(
            backend="threads", n_processors=2, instrument="full", ranks=ranks
        )

    def test_rank_ordering_and_lookup(self):
        run = self._run_record()
        assert [r.rank for r in run.ranks] == [0, 1]
        assert run.rank(1).rank == 1
        with pytest.raises(KeyError):
            run.rank(9)

    def test_header_and_constants(self):
        run = self._run_record()
        head = run.header_dict()
        assert head["kind"] == "run"
        assert head["schema_version"] == SCHEMA_VERSION
        assert head["clock"] == "wall"
        assert set(COMM_PHASES) <= set(PHASES)

    def test_jsonl_round_trip(self, tmp_path):
        run = self._run_record()
        path = write_jsonl(run, tmp_path / "run.jsonl")
        back = read_jsonl(path)
        assert back.backend == run.backend
        assert back.n_processors == 2
        assert back.ranks == run.ranks
        assert read_jsonl(path).instrument == "full"

    def test_jsonl_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("not json\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_jsonl(p)

    def test_jsonl_rejects_missing_ranks(self, tmp_path):
        run = self._run_record()
        path = write_jsonl(run, tmp_path / "run.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="rank lines"):
            read_jsonl(path)

    def test_jsonl_rejects_bad_schema_version(self, tmp_path):
        run = self._run_record()
        run.schema_version = 999
        path = write_jsonl(run, tmp_path / "run.jsonl")
        with pytest.raises(SchemaError, match="schema_version"):
            read_jsonl(path)

    def test_cycle_and_event_round_trip(self):
        c = CycleRecord(
            index=3, n_classes=8, log_marginal=-1.5, delta=0.25,
            w_j_entropy=1.1, try_index=5,
        )
        assert CycleRecord.from_dict(c.to_dict()) == c
        e = CommEventRecord(phase="allreduce_params", nbytes=256, seconds=0.1,
                            n_calls=16)
        assert CommEventRecord.from_dict(e.to_dict()) == e

    def test_record_with_overlapped_key_still_loads(self):
        """Comm events written before the nonblocking reducer was
        removed carry ``"overlapped": false``; they still load."""
        written = {"phase": "allreduce_params", "nbytes": 64,
                   "seconds": 0.01, "n_calls": 1, "overlapped": False}
        e = CommEventRecord.from_dict(written)
        assert e == CommEventRecord(phase="allreduce_params", nbytes=64,
                                    seconds=0.01)
        assert "overlapped" not in e.to_dict()
