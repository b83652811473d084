"""Tests for repro.simnet.trace."""

import numpy as np
import pytest

from repro.simnet.machine import meiko_cs2
from repro.simnet.simworld import run_spmd_sim
from repro.simnet.trace import TraceEvent, Tracer, render_timeline


class TestTracer:
    def test_record_and_order(self):
        tr = Tracer()
        tr.record(TraceEvent(0, "compute", 1.0, 2.0))
        tr.record(TraceEvent(0, "wait", 0.0, 1.0))
        assert [e.kind for e in tr.rank_events(0)] == ["wait", "compute"]

    def test_invalid_events_rejected(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="ends before"):
            tr.record(TraceEvent(0, "compute", 2.0, 1.0))
        with pytest.raises(ValueError, match="kind"):
            tr.record(TraceEvent(0, "dance", 0.0, 1.0))

    def test_span_and_totals(self):
        tr = Tracer()
        tr.record(TraceEvent(0, "compute", 0.0, 2.0))
        tr.record(TraceEvent(1, "wait", 1.0, 5.0))
        assert tr.span() == (0.0, 5.0)
        assert tr.time_by_kind()["compute"] == pytest.approx(2.0)
        assert tr.time_by_kind(rank=1)["wait"] == pytest.approx(4.0)

    def test_empty_span(self):
        assert Tracer().span() == (0.0, 0.0)


class TestSimIntegration:
    def run_traced(self):
        def prog(comm):
            comm.charge(0.01 * (comm.rank + 1))
            comm.allreduce(np.ones(32))
            return comm.wtime()

        tr = Tracer()
        run = run_spmd_sim(prog, 3, meiko_cs2(3), tracer=tr)
        return tr, run

    def test_events_cover_all_ranks(self):
        tr, _ = self.run_traced()
        assert {e.rank for e in tr.events} == {0, 1, 2}

    def test_compute_events_match_charges(self):
        """Traced compute = the explicit charge plus the allreduce's
        (tiny) modelled reduction arithmetic."""
        tr, _ = self.run_traced()
        for rank in range(3):
            compute = tr.time_by_kind(rank)["compute"]
            explicit = 0.01 * (rank + 1)
            assert explicit <= compute < explicit + 1e-4

    def test_wait_events_record_peers(self):
        tr, _ = self.run_traced()
        waits = [e for e in tr.events if e.kind == "wait"]
        assert waits
        assert all(0 <= e.peer < 3 for e in waits)

    def test_events_within_run_span(self):
        tr, run = self.run_traced()
        _, t_max = tr.span()
        assert t_max <= run.elapsed + 1e-12

    def test_summary_table(self):
        tr, _ = self.run_traced()
        text = tr.summary()
        assert "wait share" in text
        assert "rank" in text

    def test_no_tracer_no_events(self):
        def prog(comm):
            comm.charge(0.01)
            comm.barrier()

        run = run_spmd_sim(prog, 2, meiko_cs2(2))
        assert run.elapsed > 0  # simply runs without a tracer


class TestRenderTimeline:
    def test_render_shapes(self):
        tr, _ = TestSimIntegration().run_traced()
        art = render_timeline(tr, width=40)
        lines = art.splitlines()
        assert len(lines) == 4  # header + 3 ranks
        assert all(line.endswith("|") for line in lines[1:])
        assert "#" in art and "." in art

    def test_empty_trace(self):
        assert render_timeline(Tracer()) == "(empty trace)"

    def test_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            render_timeline(Tracer(), width=3)

    def test_imbalance_visible(self):
        """Rank 0 (least compute) must show more wait than rank 2."""
        tr, _ = TestSimIntegration().run_traced()
        assert tr.time_by_kind(0)["wait"] > tr.time_by_kind(2)["wait"]
