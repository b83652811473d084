"""Packed reductions: bitwise parity with the unpacked Allreduce.

``allreduce_into`` must be a drop-in for ``allreduce`` — bitwise, on
every world — and the plan's one packed reduction per cycle must give
bitwise the sums of the paper's two cut points.
"""

import numpy as np
import pytest

from repro.data.partition import block_partition
from repro.data.synth import make_paper_database
from repro.engine.cycle import base_cycle
from repro.engine.init import initial_classification
from repro.harness.programs import TwoCutPointReducer
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.mpc.serial import SerialComm
from repro.mpc.threadworld import run_spmd_threads
from repro.obs.recorder import Recorder, recording
from repro.parallel.packed import ReductionPlan
from repro.parallel.reducers import BlockingReducer
from repro.util.rng import spawn_rng
from repro.verify.trace import pack_term_params

SIZES = [1, 2, 3, 4, 5, 7, 8]


def _both_paths(comm):
    rng = np.random.default_rng(77 + comm.rank)
    x = rng.standard_normal(33)
    via_allreduce = comm.allreduce(x)
    buf = x.copy()
    comm.allreduce_into(buf)
    return via_allreduce, buf


class TestBitwiseParity:
    @pytest.mark.parametrize("size", SIZES)
    def test_threads_world(self, size):
        for via, into in run_spmd_threads(_both_paths, size):
            np.testing.assert_array_equal(via, into)

    def test_serial_world(self):
        comm = SerialComm()
        via, into = _both_paths(comm)
        np.testing.assert_array_equal(via, into)

    def test_processes_world(self):
        from repro.mpc.procworld import run_spmd_processes

        for via, into in run_spmd_processes(_both_paths, 4):
            np.testing.assert_array_equal(via, into)

    def test_sim_world(self):
        from repro.simnet.machine import meiko_cs2
        from repro.simnet.simworld import run_spmd_sim

        sim = run_spmd_sim(_both_paths, 4, meiko_cs2(4))
        for via, into in sim.results:
            np.testing.assert_array_equal(via, into)



class TestReductionPlan:
    def test_matches_unplanned_bitwise(self):
        def prog(comm):
            rng = np.random.default_rng(21 + comm.rank)
            wts = rng.standard_normal(6)  # J=4 + 2 extra slots
            stats = rng.standard_normal((4, 7))
            plan = ReductionPlan(comm, 4, 7)
            return (
                plan.allreduce_wts(wts).copy(),
                plan.allreduce_stats(stats).copy(),
                comm.allreduce(wts),
                comm.allreduce(stats),
            )

        for pw, ps, uw, us in run_spmd_threads(prog, 6):
            np.testing.assert_array_equal(pw, uw)
            np.testing.assert_array_equal(ps, us)

    def test_counts_reductions(self):
        comm = SerialComm()
        plan = ReductionPlan(comm, 3, 5)
        plan.allreduce_wts(np.zeros(5))
        plan.allreduce_stats(np.zeros((3, 5)))
        plan.allreduce_stats(np.zeros((3, 5)))
        assert plan.n_wts_reductions == 1
        assert plan.n_stats_reductions == 2


N_CYCLES = 4


def _cycles(comm, db, reducer_cls):
    """Init + N_CYCLES cycles; every ``allreduce_into`` call's buffer."""
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    local = block_partition(db, comm.size, comm.rank)
    plan = ReductionPlan(comm, 4, spec.n_stats)
    reducer = reducer_cls(comm, plan)
    clf = initial_classification(
        local, spec, 4, spawn_rng(3), method="sharp",
        n_total_items=db.n_items, reducer=reducer,
    )
    calls = []
    into = comm.allreduce_into

    def counted(buf):
        calls.append(buf)
        return into(buf)

    comm.allreduce_into = counted
    for _ in range(N_CYCLES):
        clf, _wts, _stats = base_cycle(
            local, clf, n_total_items=db.n_items, reducer=reducer
        )
    del comm.allreduce_into
    numbers = np.concatenate([
        clf.log_pi, pack_term_params(clf), clf.scores.w_j,
        [clf.scores.log_marginal_cs, clf.scores.log_lik_obs],
    ])
    return numbers, [buf is plan.buf for buf in calls], [
        buf is plan.wts_buf or buf is plan.stats_buf for buf in calls
    ]


def _accounted(comm, db, reducer_cls):
    """Phase calls and comm-event phases of an instrumented run."""
    rec = Recorder("full", rank=comm.rank, size=comm.size)
    with recording(rec):
        _cycles(comm, db, reducer_cls)
    return rec.phase_calls, [e.phase for e in rec.comm_events_]


def _packed_vs_two_calls(comm, db):
    return _cycles(comm, db, BlockingReducer), _cycles(
        comm, db, TwoCutPointReducer
    )


class TestOnePackedReductionPerCycle:
    """The library cycle makes exactly one ``allreduce_into`` through the
    plan's single buffer; the paper's two cut points (kept by the
    figure reducers) make two — with bitwise the same results."""

    @staticmethod
    def check(per_rank):
        first = per_rank[0][0][0]
        for (packed, whole, _), (two, _, parts) in per_rank:
            assert whole == [True] * N_CYCLES
            assert parts == [True] * (2 * N_CYCLES)
            np.testing.assert_array_equal(packed, two)
            np.testing.assert_array_equal(packed, first)

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_threads_world(self, size):
        db = make_paper_database(150, seed=4)
        self.check(run_spmd_threads(_packed_vs_two_calls, size, db))

    def test_processes_world(self):
        from repro.mpc.procworld import run_spmd_processes

        db = make_paper_database(150, seed=4)
        self.check(run_spmd_processes(_packed_vs_two_calls, 2, db))

    def test_accounting(self):
        """Blocking runs account one ``allreduce_params`` event per cycle
        (``allreduce_wts`` reads 0); the figure reducers both phases."""
        db = make_paper_database(150, seed=4)
        for calls, events in run_spmd_threads(
            _accounted, 2, db, BlockingReducer
        ):
            assert calls["allreduce_params"] == N_CYCLES
            assert "allreduce_wts" not in calls
            assert events == ["allreduce_params"] * N_CYCLES
        for calls, events in run_spmd_threads(
            _accounted, 2, db, TwoCutPointReducer
        ):
            assert calls["allreduce_wts"] == calls["allreduce_params"] == N_CYCLES
            assert events == ["allreduce_wts", "allreduce_params"] * N_CYCLES

    def test_plan_views_share_one_buffer(self):
        plan = ReductionPlan(SerialComm(), 3, 5)
        assert plan.buf.shape == (3 + 2 + 3 * 5,)
        assert plan.wts_buf.base is plan.buf
        assert plan.stats_buf.base is plan.buf
        assert plan.stats_buf.flags.c_contiguous
        wts, stats = plan.allreduce(np.arange(5.0), np.ones((3, 5)))
        assert wts is plan.wts_buf and stats is plan.stats_buf
        np.testing.assert_array_equal(plan.buf[:5], np.arange(5.0))
        assert plan.n_packed_reductions == 1
