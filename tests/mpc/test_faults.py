"""Fault injection + collective timeouts at the mpc layer."""

from __future__ import annotations

import pickle
import time

import pytest

from repro.mpc.api import CollectiveConfig
from repro.mpc.errors import WorldAborted
from repro.mpc.faults import (
    FaultInjected,
    FaultInjector,
    FaultSpec,
    current,
    injecting,
    maybe_fire,
)
from repro.mpc.threadworld import run_spmd_threads


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="action"):
            FaultSpec(rank=0, action="explode")
        with pytest.raises(ValueError, match="site"):
            FaultSpec(rank=0, site="nowhere")
        with pytest.raises(ValueError, match="rank"):
            FaultSpec(rank=-1)
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec(rank=0, seconds=-1.0)

    def test_matching(self):
        spec = FaultSpec(rank=1, site="cycle", at_try=2, at_cycle=3)
        assert spec.matches(1, "cycle", 2, 3)
        assert not spec.matches(0, "cycle", 2, 3)
        assert not spec.matches(1, "cycle", 2, 4)
        assert not spec.matches(1, "init", 2, 3)
        init = FaultSpec(rank=1, site="init", at_try=2)
        assert init.matches(1, "init", 2, 0)  # cycle ignored at init


class _FakeComm:
    rank = 0
    clock_kind = "wall"


class TestInjector:
    def test_fires_once_by_default(self):
        inj = FaultInjector(FaultSpec(rank=0, action="kill", site="init"))
        with pytest.raises(FaultInjected):
            inj.fire(_FakeComm(), site="init", try_index=0)
        inj.fire(_FakeComm(), site="init", try_index=0)  # second call: no-op

    def test_repeating_fault(self):
        inj = FaultInjector(
            FaultSpec(rank=0, action="kill", site="init", once=False)
        )
        for _ in range(2):
            with pytest.raises(FaultInjected):
                inj.fire(_FakeComm(), site="init", try_index=0)

    def test_pickle_rearms(self):
        inj = FaultInjector(FaultSpec(rank=0, action="kill", site="init"))
        with pytest.raises(FaultInjected):
            inj.fire(_FakeComm(), site="init", try_index=0)
        clone = pickle.loads(pickle.dumps(inj))
        with pytest.raises(FaultInjected):  # fired-set not carried over
            clone.fire(_FakeComm(), site="init", try_index=0)

    def test_exit_degrades_to_kill_in_process(self):
        # _FakeComm has no hard_exit_supported -> "exit" must not
        # os._exit the test runner, it must raise instead
        inj = FaultInjector(FaultSpec(rank=0, action="exit", site="init"))
        with pytest.raises(FaultInjected):
            inj.fire(_FakeComm(), site="init", try_index=0)

    def test_delay_sleeps_and_continues(self):
        inj = FaultInjector(
            FaultSpec(rank=0, action="delay", site="init", seconds=0.01)
        )
        t0 = time.perf_counter()
        inj.fire(_FakeComm(), site="init", try_index=0)  # no raise
        assert time.perf_counter() - t0 >= 0.005

    def test_ambient_installation(self):
        assert current() is None
        maybe_fire(_FakeComm(), site="init", try_index=0)  # no injector: no-op
        inj = FaultInjector(FaultSpec(rank=0, action="kill", site="init"))
        with injecting(inj):
            assert current() is inj
            with pytest.raises(FaultInjected):
                maybe_fire(_FakeComm(), site="init", try_index=0)
        assert current() is None

    def test_non_spec_rejected(self):
        with pytest.raises(TypeError):
            FaultInjector(("rank 0 dies",))


class TestCollectiveTimeout:
    def test_timeout_config_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            CollectiveConfig(timeout_seconds=0.0)
        with pytest.raises(ValueError, match="timeout"):
            CollectiveConfig(timeout_seconds=-1.0)

    def test_hung_peer_times_out(self):
        # rank 1 never joins the allreduce; rank 0's blocking receive
        # must give up after timeout_seconds instead of hanging forever
        waited = {}

        def prog(comm):
            if comm.rank == 1:
                time.sleep(1.0)  # never reaches the collective in time
                return None
            t0 = time.perf_counter()
            try:
                return comm.allreduce(1.0)
            finally:
                waited["seconds"] = time.perf_counter() - t0

        with pytest.raises(RuntimeError) as err:
            run_spmd_threads(
                prog, 2,
                collectives=CollectiveConfig(timeout_seconds=0.1),
            )
        assert "timed out" in str(err.value)
        # rank 0 gave up at ~timeout, long before the peer woke up
        assert 0.05 <= waited["seconds"] < 0.9

    def test_world_abort_reaches_blocked_peers(self):
        # a killed rank must unblock peers waiting on it
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 dies")
            with pytest.raises(WorldAborted):
                comm.allreduce(1.0)
            raise RuntimeError("observed the abort")  # expected path

        with pytest.raises(RuntimeError):
            run_spmd_threads(prog, 2)
