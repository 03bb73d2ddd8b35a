"""construct._snap_ratio against its definition: the numerator and
denominator of Fraction(x).limit_denominator(bound), for every finite float
and every bound from 1 to 2**40.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flatlink.construct import _snap_ratio  # noqa: E402

_SETTINGS = settings(max_examples=2000, deadline=None)

finite = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),  # includes +-0.0 and subnormals
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(-(2**70), 2**70).map(float),  # integer-valued
    st.integers(-(2**20), 2**20).map(lambda n: n + 0.5),  # midway: ties at bound 1
)
bounds = st.one_of(st.integers(1, 64), st.integers(1, 2**40))


def _reference(x, bound):
    f = Fraction(x).limit_denominator(bound)
    return f.numerator, f.denominator


@_SETTINGS
@given(finite, bounds)
@example(0.0, 1)
@example(-0.0, 7)
@example(5e-324, 2**40)  # the smallest subnormal
@example(-2.2250738585072014e-308, 3)  # the largest subnormal
@example(1e300, 1)
@example(-1e300, 2**40)
@example(2.5, 1)  # midway between two integers
@example(-3.5, 1)
@example(1 / 3, 3)
@example(math.pi, 113)
def test_snap_ratio_matches_limit_denominator(x, bound):
    assert _snap_ratio(x, bound) == _reference(x, bound)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bound", [1, 64])
def test_snap_ratio_rejects_non_finite_like_fraction(x, bound):
    with pytest.raises(Exception) as want:
        Fraction(x)
    with pytest.raises(Exception) as got:
        _snap_ratio(x, bound)
    assert got.type is want.type


def test_snap_ratio_rejects_bound_below_one():
    with pytest.raises(ValueError):
        Fraction(0.5).limit_denominator(0)
    with pytest.raises(ValueError):
        _snap_ratio(0.5, 0)
