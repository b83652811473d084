"""Tests for repro.simnet.simworld — the virtual-time world itself."""

import time

import numpy as np
import pytest

from repro.simnet.machine import meiko_cs2
from repro.simnet.simworld import run_spmd_sim
from repro.simnet.workmodel import WorkModel

MACHINE = meiko_cs2(8)


class TestModeledMode:
    def test_deterministic(self):
        def prog(comm):
            comm.charge(0.01 * (comm.rank + 1))
            comm.allreduce(np.ones(100))
            return comm.wtime()

        a = run_spmd_sim(prog, 5, MACHINE)
        b = run_spmd_sim(prog, 5, MACHINE)
        assert a.clocks == b.clocks
        assert a.results == b.results

    def test_charge_advances_clock(self):
        def prog(comm):
            t0 = comm.wtime()
            comm.charge(0.5)
            return comm.wtime() - t0

        run = run_spmd_sim(prog, 2, MACHINE)
        assert all(r == pytest.approx(0.5) for r in run.results)

    def test_negative_charge_rejected(self):
        def prog(comm):
            comm.charge(-1.0)

        with pytest.raises(RuntimeError, match="negative"):
            run_spmd_sim(prog, 1, MACHINE)

    def test_python_compute_costs_nothing(self):
        """Host work no kernel reports must not move the clock."""
        def prog(comm):
            x = np.random.default_rng(0).random((300, 300))
            for _ in range(3):
                x = x @ x * 1e-3
            comm.barrier()
            return comm.wtime()

        run = run_spmd_sim(prog, 2, MACHINE)
        # Only the barrier's messages should be priced (well under 1s).
        assert all(r < 0.1 for r in run.results)


class TestCausality:
    def test_receiver_waits_for_wire_time(self):
        """recv clock >= sender's send clock + full message cost."""
        nbytes = 1_000_000

        def prog(comm):
            if comm.rank == 0:
                comm.charge(1.0)
                comm.send(np.zeros(nbytes // 8), 1, tag=0)
                return comm.wtime()
            comm.recv(0, 0)
            return comm.wtime()

        run = run_spmd_sim(prog, 2, MACHINE)
        expected_min = (
            1.0
            + MACHINE.send_overhead
            + MACHINE.latency
            + nbytes / MACHINE.bandwidth
        )
        assert run.results[1] >= expected_min

    def test_sender_does_not_block(self):
        """Sends are buffered: the sender pays only its overhead."""
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1_000_000), 1, tag=0)
                return comm.wtime()
            comm.charge(2.0)  # receiver is busy for a long time
            comm.recv(0, 0)
            return comm.wtime()

        run = run_spmd_sim(prog, 2, MACHINE)
        assert run.results[0] < 0.01  # overhead only
        assert run.results[1] >= 2.0

    def test_clock_never_goes_backward(self):
        def prog(comm):
            marks = []
            for i in range(5):
                comm.charge(0.001 * comm.rank)
                comm.barrier()
                marks.append(comm.wtime())
            return marks

        run = run_spmd_sim(prog, 4, MACHINE)
        for marks in run.results:
            assert marks == sorted(marks)

    def test_barrier_aligns_to_slowest(self):
        def prog(comm):
            comm.charge(1.0 if comm.rank == 3 else 0.0)
            comm.barrier()
            return comm.wtime()

        run = run_spmd_sim(prog, 4, MACHINE)
        assert all(r >= 1.0 for r in run.results)


class TestCountedMode:
    def test_work_reports_priced(self):
        """Kernels' work reports become clock charges via the hooks."""
        from repro.util import workhooks

        work = WorkModel()

        def prog(comm):
            workhooks.report("wts", 10_000, 8, 6)
            return comm.wtime()

        run = run_spmd_sim(
            prog, 2, MACHINE, compute_mode="counted", work_model=work
        )
        expected = work.wts_seconds(10_000, 8, 6)
        assert all(r == pytest.approx(expected) for r in run.results)

    def test_real_engine_cycle_priced(self, paper_db, paper_spec):
        from repro.data.partition import block_partition
        from repro.parallel.pcycle import parallel_base_cycle
        from repro.engine.init import initial_classification
        from repro.parallel.reducers import reducer_for
        from repro.util.rng import spawn_rng

        def prog(comm):
            local = block_partition(paper_db, comm.size, comm.rank)
            clf = initial_classification(
                local, paper_spec, 4, spawn_rng(0),
                n_total_items=paper_db.n_items,
                reducer=reducer_for(comm, 4, paper_spec),
            )
            clf, _, _ = parallel_base_cycle(local, clf, paper_db.n_items, comm)
            return comm.wtime()

        run = run_spmd_sim(prog, 4, MACHINE, compute_mode="counted")
        work = WorkModel()
        per_rank_items = paper_db.n_items // 4
        floor = work.cycle_seconds(per_rank_items, 4, paper_spec.n_stats)
        assert all(r >= floor for r in run.results)

    def test_counted_partition_scaling(self, paper_db):
        """Virtual elapsed must shrink with more ranks (counted mode)."""
        from repro.data.partition import block_partition
        from repro.models.registry import ModelSpec
        from repro.models.summary import DataSummary
        from repro.parallel.pcycle import parallel_base_cycle
        from repro.engine.init import initial_classification
        from repro.parallel.reducers import reducer_for
        from repro.util.rng import spawn_rng

        def prog(comm):
            spec = ModelSpec.default_for(
                paper_db.schema, DataSummary.from_database(paper_db)
            )
            local = block_partition(paper_db, comm.size, comm.rank)
            clf = initial_classification(
                local, spec, 4, spawn_rng(0),
                n_total_items=paper_db.n_items,
                reducer=reducer_for(comm, 4, spec),
            )
            for _ in range(3):
                clf, _, _ = parallel_base_cycle(local, clf, paper_db.n_items, comm)
            return None

        # Low-latency machine so compute dominates at this small size.
        machine = meiko_cs2(8, latency=1e-6)
        t2 = run_spmd_sim(prog, 2, machine, compute_mode="counted").elapsed
        t8 = run_spmd_sim(prog, 8, machine, compute_mode="counted").elapsed
        assert t8 < t2 / 2.5


class TestDefaultMode:
    def test_host_time_never_enters_virtual_time(self):
        """Under the default compute mode, host work that reports no
        counted work moves no clock: a rank burning ~50 ms of numpy
        before a barrier leaves every virtual time bitwise unchanged."""
        from repro.util import workhooks

        def prog(comm, burn):
            workhooks.report("wts", 1_000, 4, 6)
            if burn and comm.rank == 1:
                x = np.random.default_rng(0).random(100_000)
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < 0.05:
                    x = np.sqrt(x + 1.0)
            comm.barrier()
            comm.allreduce(np.ones(8))
            return comm.wtime()

        idle = run_spmd_sim(prog, 2, MACHINE, False)
        busy = run_spmd_sim(prog, 2, MACHINE, True)
        assert min(idle.compute_seconds) > 0
        assert busy.clocks == idle.clocks
        assert busy.compute_seconds == idle.compute_seconds
        assert busy.results == idle.results


class TestRunResult:
    def test_elapsed_is_max_clock(self):
        def prog(comm):
            comm.charge(float(comm.rank))
            return None

        run = run_spmd_sim(prog, 4, MACHINE)
        assert run.elapsed == max(run.clocks)
        assert run.elapsed == pytest.approx(3.0)

    def test_stats_and_bytes(self):
        def prog(comm):
            comm.allreduce(np.zeros(128))
            return None

        run = run_spmd_sim(prog, 4, MACHINE)
        assert run.total_bytes > 0
        assert len(run.stats) == 4

    def test_comm_fraction_bounds(self):
        def prog(comm):
            comm.charge(0.1)
            comm.allreduce(np.zeros(8))
            return None

        run = run_spmd_sim(prog, 4, MACHINE)
        assert 0.0 <= run.comm_fraction <= 1.0

    @pytest.mark.parametrize("mode", ["bogus", "measured", "modeled"])
    def test_invalid_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="compute_mode"):
            run_spmd_sim(lambda c: None, 1, MACHINE, compute_mode=mode)

    def test_machine_too_small_rejected(self):
        with pytest.raises(ValueError, match="processors"):
            run_spmd_sim(lambda c: None, 4, meiko_cs2(2))
