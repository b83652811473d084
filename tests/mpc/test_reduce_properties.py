"""Hypothesis property suites for the Allreduce (a sum).

The conformance subsystem (:mod:`repro.verify`) leans on three
invariants of the collective layer, checked here as properties rather
than examples:

* **internal determinism** — every rank of one allreduce gets the same
  *bits*, whatever the arrival order of the messages;
* **exact-arithmetic association-freedom** — when the payload values
  make IEEE addition exact (small integers), every size must agree
  bitwise with the numpy sum: reassociation is only ever a *rounding*
  difference, never a value difference;
* **the pairwise sum** — zero is a bitwise-neutral contribution, and
  swapping two ranks' payloads leaves the bits unchanged (IEEE addition
  commutes; only association moves bits).

Plus the edge cases the engine actually hits: empty payloads (a rank
with zero stats slots), single-rank worlds, and scalar payloads — and
awkward shapes: payloads with fewer elements than ranks and 0-d
ndarrays (which ufuncs silently collapse to numpy scalars).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mpc.threadworld import run_spmd_threads

finite_payload = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(0, 30),
    elements=st.floats(-1e100, 1e100, allow_nan=False),
)


def _allreduce_all(size, payloads):
    """Run one allreduce over fixed per-rank payloads; return all ranks."""

    def prog(comm):
        return np.asarray(comm.allreduce(payloads[comm.rank]))

    return run_spmd_threads(prog, size)


class TestCombineProperties:
    @given(a=finite_payload)
    @settings(max_examples=50, deadline=None)
    def test_identity_is_bitwise_neutral(self, a):
        """Ranks contributing zeros leave the one real payload's bits."""
        zeros = np.zeros_like(a)
        for r in _allreduce_all(3, [a, zeros, zeros]):
            np.testing.assert_array_equal(r, a)

    @given(
        a=st.floats(-1e100, 1e100, allow_nan=False),
        b=st.floats(-1e100, 1e100, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_sum_commutes_bitwise(self, a, b):
        # IEEE addition is commutative (only association reorders bits),
        # so the fixed combine orientation is about *association* only
        ab = _allreduce_all(2, [np.array([a]), np.array([b])])
        ba = _allreduce_all(2, [np.array([b]), np.array([a])])
        assert ab[0][0] == ba[0][0] == a + b


class TestAllreduceProperties:
    @given(
        size=st.integers(1, 6),
        n=st.integers(1, 32),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_internal_determinism(self, size, n, seed):
        """All ranks of one reduction agree to the last bit."""
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-100, 100, size=(size, n))
        payloads = rng.normal(size=(size, n)) * scale
        results = _allreduce_all(size, payloads)
        for r in results[1:]:
            np.testing.assert_array_equal(r, results[0])

    @given(
        size=st.integers(1, 6),
        n=st.integers(1, 32),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_exact_payloads_are_association_free(self, size, n, seed):
        """Small-integer payloads add exactly: every rank must agree
        bitwise with the numpy sum — reassociation only moves rounding,
        and here there is none to move."""
        rng = np.random.default_rng(seed)
        payloads = rng.integers(-1000, 1000, size=(size, n)).astype(
            np.float64
        )
        expected = payloads.sum(axis=0)
        for r in _allreduce_all(size, payloads):
            np.testing.assert_array_equal(r, expected)


class TestEdgeCases:
    def test_empty_payload_every_variant_every_size(self):
        for size in (1, 2, 3, 5):
            payloads = np.empty((size, 0))
            for r in _allreduce_all(size, payloads):
                assert r.shape == (0,)

    def test_single_rank_is_the_identity_bitwise(self):
        rng = np.random.default_rng(99)
        x = rng.normal(size=40) * 10.0 ** rng.integers(-80, 80, size=40)
        (r,) = _allreduce_all(1, x[None, :])
        np.testing.assert_array_equal(r, x)

    def test_scalar_payload(self):
        def prog(comm):
            return comm.allreduce(float(comm.rank + 1))

        assert run_spmd_threads(prog, 4) == [10.0] * 4


class TestEdgeShapes:
    """Payloads with fewer elements than ranks, and 0-d payloads."""

    @given(
        size=st.integers(2, 6),
        n=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_fewer_elements_than_ranks(self, size, n, seed):
        """n_elems <= P: exact integer payloads still sum bitwise and
        keep their shape, even when empty."""
        rng = np.random.default_rng(seed)
        payloads = rng.integers(-1000, 1000, size=(size, n)).astype(
            np.float64
        )
        results = _allreduce_all(size, payloads)
        for r in results:
            assert r.shape == (n,)
            np.testing.assert_array_equal(r, payloads.sum(axis=0))

    def test_multidim_fewer_elements_than_ranks(self):
        for size in (3, 5):
            payloads = [np.arange(2.0).reshape(1, 2) + r for r in range(size)]
            for r in _allreduce_all(size, payloads):
                assert r.shape == (1, 2)
                np.testing.assert_array_equal(r, np.sum(payloads, axis=0))

    def test_zero_element_multidim_keeps_shape(self):
        for size in (2, 4):
            payloads = [np.zeros((0, 3)) for _ in range(size)]
            for r in _allreduce_all(size, payloads):
                assert r.shape == (0, 3)

    def test_0d_ndarray_stays_ndarray_every_algorithm(self):
        """Regression: ufuncs collapse 0-d arrays to numpy scalars, so
        the Allreduce used to return ``np.float64``.  An ndarray in must
        be an ndarray out, through ``allreduce`` and ``allreduce_into``
        alike."""
        def prog(comm):
            x = np.array(comm.rank + 1.5)
            return comm.allreduce(x), comm.allreduce_into(x.copy())

        for size in (1, 3, 4):
            for pair in run_spmd_threads(prog, size):
                for r in pair:
                    assert isinstance(r, np.ndarray), (size, r)
                    assert r.shape == ()
                    assert r == sum(k + 1.5 for k in range(size))

    def test_numpy_scalar_payload(self):
        """np.float64 is *not* an ndarray: scalar in, scalar out."""

        def prog(comm):
            return comm.allreduce(np.float64(comm.rank))

        for r in run_spmd_threads(prog, 3):
            assert not isinstance(r, np.ndarray)
            assert float(r) == 3.0
