"""Failure injection: a crashing rank must take the world down cleanly.

A blocked receive from a dead rank is the classic SPMD hang; the worlds
trip an abort latch instead.  These tests inject failures at the nasty
points — mid-collective, before any communication, on the simulator —
and assert the surviving ranks raise instead of deadlocking.
"""

import numpy as np
import pytest

from repro.mpc.errors import WorldAborted
from repro.mpc.threadworld import run_spmd_threads
from repro.simnet.machine import meiko_cs2
from repro.simnet.simworld import run_spmd_sim


class TestThreadWorldFailures:
    def test_crash_before_any_communication(self):
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("early death")
            comm.recv(0, 0)  # would hang forever without the abort

        with pytest.raises(RuntimeError, match="early death"):
            run_spmd_threads(prog, 3)

    def test_crash_mid_collective(self):
        def prog(comm):
            comm.allreduce(np.ones(4))
            if comm.rank == 1:
                raise ValueError("mid-flight")
            comm.allreduce(np.ones(4))  # peers stuck in round 1
            comm.barrier()

        with pytest.raises(RuntimeError, match="mid-flight"):
            run_spmd_threads(prog, 4)

    def test_crash_inside_barrier(self):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("no barrier for me")
            comm.barrier()

        with pytest.raises(RuntimeError, match="no barrier"):
            run_spmd_threads(prog, 4)

    def test_survivors_see_world_aborted(self):
        seen: dict[int, str] = {}

        def prog(comm):
            if comm.rank == 0:
                raise ValueError("origin")
            try:
                comm.recv(0, 0)
            except WorldAborted as exc:
                seen[comm.rank] = str(exc)
                raise

        with pytest.raises(RuntimeError, match="origin"):
            run_spmd_threads(prog, 3)
        assert set(seen) == {1, 2}
        assert all("rank 0" in msg for msg in seen.values())

    def test_multiple_simultaneous_failures(self):
        def prog(comm):
            raise ValueError(f"rank {comm.rank} failing")

        # The lowest failing rank's error is reported.
        with pytest.raises(RuntimeError, match="rank 0"):
            run_spmd_threads(prog, 3)


class TestSimWorldFailures:
    def test_crash_on_simulated_machine(self):
        def prog(comm):
            comm.charge(0.01)
            if comm.rank == 1:
                raise ValueError("sim crash")
            comm.allreduce(np.ones(8))

        with pytest.raises(RuntimeError, match="sim crash"):
            run_spmd_sim(prog, 3, meiko_cs2(3))

    def test_engine_error_propagates_from_sim(self):
        """A genuine engine validation error inside an SPMD program
        surfaces with its message intact."""
        from repro.data.synth import make_mixed_database
        from repro.parallel.driver import run_pautoclass
        from repro.engine.search import SearchConfig
        from repro.models.registry import ModelSpec
        from repro.models.summary import DataSummary
        from repro.models.normal import NormalTerm

        db, _ = make_mixed_database(
            60, n_real=1, n_discrete=0, missing_rate=0.3, seed=1
        )
        summary = DataSummary.from_database(db)
        # Deliberately wrong: cn term on a column with missing values.
        bad_spec = ModelSpec(
            schema=db.schema, terms=(NormalTerm(0, db.schema[0], summary),)
        )
        cfg = SearchConfig(start_j_list=(2,), max_n_tries=1, init_method="sharp")
        with pytest.raises(RuntimeError, match="single_normal_cm"):
            run_spmd_sim(
                run_pautoclass, 2, meiko_cs2(2), db, cfg, bad_spec,
                compute_mode="counted",
            )
