"""The det-1 walk (`congruence._det_one_rows`, read as lists of rows) against
the brute-force det-1 ball, over random (m, q, bound), and on pinned cases
that take each branch of the first-row solve: C_1 = 0, gcd(C_0, C_1) not
dividing the right side, and a bound below q, where an axis of the ball is
{0} or {1} or empty.
"""

import itertools
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flatlink.congruence import det_one_walk_size  # noqa: E402
from test_congruence import _ball, _det_one_points, _plain_det  # noqa: E402

MODULI = [2, 3, 4, 5, 7, 9, 25]
BALL_LIMIT = 6000  # brute-force ball points per example


def _axes(q, bound):
    diag = [x for x in range(-bound, bound + 1) if (x - 1) % q == 0]
    off = [x for x in range(-bound, bound + 1) if x % q == 0]
    return diag, off


def _ball_size(m, q, bound):
    diag, off = _axes(q, bound)
    return len(diag) ** m * len(off) ** (m * m - m)


def _det_one_ball(m, q, bound):
    return sorted(rows for rows in _ball(m, q, bound) if _plain_det(rows) == 1)


def _walk_branches(m, q, bound):
    """Which branches the first-row solve takes, read off the ball itself.

    For each set of rows 1..m-1 and each k_2..k_{m-1}, C_j is det with e_j
    as first row; the solve is left with C_0 k_0 + C_1 k_1 = r.
    """
    diag, off = _axes(q, bound)
    cells = [diag if i == j else off for i in range(1, m) for j in range(m)]
    seen = set()
    for entries in itertools.product(*cells):
        rows = [list(entries[i * m : (i + 1) * m]) for i in range(m - 1)]
        C = [_plain_det([[int(i == j) for i in range(m)]] + rows) for j in range(m)]
        if C[1] == 0:
            seen.add("C1 = 0")
        g = math.gcd(C[0], C[1])
        for ks in itertools.product([x // q for x in off], repeat=m - 2):
            r = (1 - C[0]) // q - sum(k * c for k, c in zip(ks, C[2:]))
            if r % g:
                seen.add("gcd does not divide")
    return seen


def _largest_bound(m, q):
    """The largest bound up to 40 whose ball brute force affords."""
    return max(b for b in range(41) if _ball_size(m, q, b) <= BALL_LIMIT)


cases = st.tuples(st.sampled_from([2, 3]), st.sampled_from(MODULI)).flatmap(
    lambda mq: st.tuples(st.just(mq[0]), st.just(mq[1]), st.integers(0, _largest_bound(*mq)))
)


@settings(max_examples=150, deadline=None)
@given(cases)
@example((2, 5, 30))
@example((3, 2, 2))
@example((3, 25, 25))
def test_det_one_points_property(case):
    m, q, bound = case
    assert sorted(_det_one_points(m, q, bound)) == _det_one_ball(m, q, bound)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MODULI), st.data())
def test_det_one_points_property_m4_tiny(q, data):
    # below q every off-diagonal axis is {0}: the ball is diagonal
    bound = data.draw(st.integers(0, q - 1))
    assert sorted(_det_one_points(4, q, bound)) == _det_one_ball(4, q, bound)


@pytest.mark.parametrize(
    "m, q, bound, branch",
    [
        (2, 5, 30, "C1 = 0"),
        (3, 3, 3, "C1 = 0"),
        (2, 2, 7, "gcd does not divide"),
        (3, 2, 2, "gcd does not divide"),
        (3, 4, 4, "gcd does not divide"),
    ],
)
def test_det_one_points_branches(m, q, bound, branch):
    assert branch in _walk_branches(m, q, bound)
    assert sorted(_det_one_points(m, q, bound)) == _det_one_ball(m, q, bound)


@pytest.mark.parametrize(
    "m, q, bound, want",
    [
        (2, 5, 0, []),  # no diagonal entry fits
        (3, 7, 0, []),
        (2, 5, 3, [[[1, 0], [0, 1]]]),  # diagonal axis {1}, off axis {0}
        (3, 7, 6, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]),  # {-6, 1}, {0}
        (2, 2, 1, [[[-1, 0], [0, -1]], [[1, 0], [0, 1]]]),  # {-1, 1}, {0}
    ],
)
def test_det_one_points_bound_below_q(m, q, bound, want):
    assert sorted(_det_one_points(m, q, bound)) == want == _det_one_ball(m, q, bound)


@pytest.mark.parametrize(
    "m, q, bound",
    [(2, 5, 30), (2, 2, 7), (2, 5, 0), (3, 5, 5), (3, 3, 4), (4, 3, 2), (4, 2, 1)],
)
def test_walk_size_is_the_ball_without_one_diagonal_and_one_off_axis(m, q, bound):
    diag, off = _axes(q, bound)
    walk = det_one_walk_size(m, q, bound)
    assert walk * len(diag) * len(off) == sum(1 for _ in _ball(m, q, bound))
