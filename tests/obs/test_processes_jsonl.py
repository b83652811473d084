"""End-to-end instrumented smoke: 2-rank processes fit -> JSONL.

This is exactly what the CI ``obs-smoke`` job runs: a tiny fit on the
``processes`` backend at ``instrument="full"``, exported as JSONL and
schema-validated on the way back in.  The forked workers each ship
their RankRecord to the parent over the result pipe, so this also
covers cross-process record merging.
"""

import pytest

from repro import PAutoClass, make_paper_database
from repro.obs.record import COMM_PHASES, read_jsonl, write_jsonl


@pytest.fixture(scope="module")
def run():
    db = make_paper_database(300, seed=13)
    pac = PAutoClass(
        n_processors=2, backend="processes", instrument="full",
        start_j_list=(2,), max_n_tries=1, seed=3, max_cycles=8,
    )
    return pac.fit(db)


class TestProcessesJsonl:
    def test_record_merged_from_both_workers(self, run):
        assert run.record is not None
        assert run.record.backend == "processes"
        assert [r.rank for r in run.record.ranks] == [0, 1]
        for rank in run.record.ranks:
            assert rank.n_cycles > 0
            assert rank.comm.get("n_collectives", 0) > 0
            assert any(p in rank.phase_seconds for p in COMM_PHASES)

    def test_jsonl_round_trip_validates(self, run, tmp_path):
        path = write_jsonl(run.record, tmp_path / "obs.jsonl")
        back = read_jsonl(path)
        assert back.n_processors == 2
        assert back.clock == "wall"
        assert back.instrument == "full"
        assert len(back.rank(0).cycles) == back.rank(0).n_cycles

    def test_full_record_has_comm_events(self, run):
        events = run.record.rank(0).comm_events
        assert events, "full instrumentation must capture collectives"
        assert {e.phase for e in events} <= set(COMM_PHASES)
        assert all(e.nbytes > 0 for e in events)

    def test_report_renders_from_merged_record(self, run):
        out = run.report()
        assert "Phase breakdown" in out
        assert "EM-cycle telemetry" in out
