"""The tolerance model: bounds, combination, and axis resolution."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.tolerance import (
    BITWISE,
    KERNEL,
    REDUCTION_ORDER,
    Tolerance,
    resolve_tolerance,
)
from repro.verify.trace import TraceMeta


def meta(world="threads", size=2, kernels="fused") -> TraceMeta:
    return TraceMeta(case="t", world=world, size=size, kernels=kernels)


class TestTolerance:
    def test_bitwise_allows_only_equality(self):
        assert BITWISE.allows(1.5, 1.5)
        assert not BITWISE.allows(1.5, 1.5 + 1e-15)
        assert not BITWISE.allows(math.nan, math.nan)
        assert BITWISE.allows(math.inf, math.inf)
        assert not BITWISE.allows(math.inf, -math.inf)

    def test_relative_bound(self):
        tol = Tolerance(rel=1e-9, abs=0.0, label="t")
        assert tol.allows(1.0 + 1e-10, 1.0)
        assert not tol.allows(1.0 + 1e-8, 1.0)

    def test_nan_and_inf_never_conform_loosely(self):
        tol = REDUCTION_ORDER
        assert not tol.allows(math.nan, 1.0)
        assert not tol.allows(1.0, math.nan)
        assert not tol.allows(math.inf, 1e300)

    @given(
        a=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_tolerance_is_reflexive(self, a):
        for tol in (BITWISE, REDUCTION_ORDER, KERNEL):
            assert tol.allows(a, a)

    def test_combined_takes_the_looser_bound(self):
        assert BITWISE.combined(KERNEL) is KERNEL
        assert KERNEL.combined(BITWISE) is KERNEL
        assert REDUCTION_ORDER.combined(REDUCTION_ORDER) is REDUCTION_ORDER
        mixed = Tolerance(rel=1e-12, abs=1.0, label="a").combined(
            Tolerance(rel=1.0, abs=1e-12, label="b")
        )
        assert mixed.rel == 1.0 and mixed.abs == 1.0

    def test_max_err(self):
        abs_err, rel_err = KERNEL.max_err([1.0, 2.0], [1.0, 2.0 + 1e-6])
        assert abs_err == pytest.approx(1e-6)
        assert rel_err == pytest.approx(5e-7)


class TestResolve:
    def test_same_shape_cross_world_is_bitwise(self):
        assert resolve_tolerance(
            meta(world="threads"), meta(world="processes")
        ) is BITWISE

    def test_kernel_axis(self):
        tol = resolve_tolerance(meta(kernels="fused"),
                                meta(kernels="reference"))
        assert tol is KERNEL

    def test_size_axis(self):
        tol = resolve_tolerance(meta(size=1), meta(size=2))
        assert tol is REDUCTION_ORDER

    def test_both_axes_combine(self):
        tol = resolve_tolerance(
            meta(size=1, kernels="reference"), meta(size=4, kernels="fused")
        )
        assert tol.rel == max(KERNEL.rel, REDUCTION_ORDER.rel)
        assert tol.abs == max(KERNEL.abs, REDUCTION_ORDER.abs)
