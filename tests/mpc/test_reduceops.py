"""The Allreduce's reduction operator: an elementwise sum."""

import numpy as np

from repro.mpc.threadworld import run_spmd_threads


def _allreduce_all(payloads):
    """Run one allreduce over fixed per-rank payloads; return all ranks."""

    def prog(comm):
        return comm.allreduce(payloads[comm.rank])

    return run_spmd_threads(prog, len(payloads))


class TestCombine:
    def test_sum_arrays(self):
        for out in _allreduce_all([np.array([1.0, 2.0]), np.array([3.0, 4.0])]):
            np.testing.assert_array_equal(out, [4.0, 6.0])


class TestIdentity:
    def test_sum_identity(self):
        x = np.array([5.0, -1.0])
        for out in _allreduce_all([x, np.zeros_like(x)]):
            np.testing.assert_array_equal(out, x)
