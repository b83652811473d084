"""Tests for repro.simnet.machine and repro.simnet.costmodel."""

import pytest

from repro.simnet.costmodel import CostModel
from repro.simnet.machine import (
    CS2_EFFECTIVE_MPI_LATENCY,
    CS2_RAW_LATENCY,
    MachineSpec,
    meiko_cs2,
)
from repro.simnet.topology import Ring


class TestMachineSpec:
    def test_meiko_defaults(self):
        m = meiko_cs2()
        assert m.n_processors == 10
        assert m.bandwidth == 50e6
        assert m.latency == CS2_EFFECTIVE_MPI_LATENCY
        assert "Meiko" in m.name

    def test_raw_latency_option(self):
        m = meiko_cs2(latency=CS2_RAW_LATENCY)
        assert m.latency == CS2_RAW_LATENCY

    def test_comm_scale_shrinks_latencies(self):
        full = meiko_cs2()
        scaled = meiko_cs2(comm_scale=0.1)
        assert scaled.latency == pytest.approx(full.latency * 0.1)
        assert scaled.send_overhead == pytest.approx(full.send_overhead * 0.1)
        assert scaled.bandwidth == full.bandwidth  # bytes don't scale

    def test_with_processors(self):
        m = meiko_cs2(10).with_processors(4)
        assert m.n_processors == 4
        assert m.bandwidth == 50e6

    def test_with_topology(self):
        m = meiko_cs2(4).with_topology(Ring(4))
        assert isinstance(m.topology, Ring)

    def test_validation(self):
        with pytest.raises(ValueError):
            meiko_cs2(comm_scale=0.0)


class TestCostModel:
    def make(self):
        return CostModel(
            MachineSpec(
                name="test",
                send_overhead=1e-6,
                recv_overhead=2e-6,
                latency=10e-6,
                per_hop=1e-6,
                bandwidth=1e6,
                reduce_seconds_per_byte=1e-9,
                topology=Ring(4),
            )
        )

    def test_wire_time_formula(self):
        cost = self.make()
        # ring: 0 -> 2 is 2 hops; 1000 bytes at 1 MB/s = 1 ms
        assert cost.wire_time(0, 2, 1000) == pytest.approx(
            10e-6 + 2 * 1e-6 + 1e-3
        )

    def test_self_send_free(self):
        assert self.make().wire_time(1, 1, 10_000) == 0.0

    def test_zero_bytes_latency_only(self):
        assert self.make().wire_time(0, 1, 0) == pytest.approx(11e-6)

    def test_negative_bytes_raises(self):
        with pytest.raises(ValueError):
            self.make().wire_time(0, 1, -1)

    def test_reduce_time_linear(self):
        cost = self.make()
        assert cost.reduce_time(800) == pytest.approx(800e-9)

    def test_expected_allreduce_monotone_in_size(self):
        cost = CostModel(meiko_cs2(10))
        for algo in ("recursive_doubling", "ring", "reduce_bcast"):
            small = cost.expected_allreduce(algo, 4, 64)
            large = cost.expected_allreduce(algo, 10, 64)
            assert large >= small

    def test_expected_allreduce_single_rank_free(self):
        cost = CostModel(meiko_cs2(10))
        assert cost.expected_allreduce("ring", 1, 1024) == 0.0

    def test_expected_barrier(self):
        cost = CostModel(meiko_cs2(8))
        assert cost.expected_barrier("dissemination", 8) > 0
        assert cost.expected_barrier("linear", 1) == 0.0

    def test_unknown_algorithms_raise(self):
        cost = CostModel(meiko_cs2(4))
        with pytest.raises(ValueError):
            cost.expected_allreduce("nope", 4, 8)
        with pytest.raises(ValueError):
            cost.expected_barrier("nope", 4)

    def test_ring_beats_doubling_for_huge_payloads(self):
        """Bandwidth-optimal ring must win once payloads dominate."""
        cost = CostModel(meiko_cs2(8))
        big = 50 * 1024 * 1024
        assert cost.expected_allreduce("ring", 8, big) < cost.expected_allreduce(
            "recursive_doubling", 8, big
        )
