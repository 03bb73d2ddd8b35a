"""qkernel's elimination core and characteristic polynomial against an
independent oracle: sympy over QQ.

Inputs are random rectangular rational matrices up to 6 x 6, with forced
low-rank products and explicit zero rows and columns, so rank-deficient,
inconsistent and singular cases all occur.
"""

import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flatlink.qkernel import (  # noqa: E402
    QMatrix,
    char_poly,
    det,
    inverse,
    kernel_basis,
    rank,
)

from _reference import rref_rows, solve_unique  # noqa: E402

_SETTINGS = settings(max_examples=150, deadline=None)

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def _grid(nr, nc):
    return st.lists(
        st.lists(rationals, min_size=nc, max_size=nc), min_size=nr, max_size=nr
    )


@st.composite
def matrices(draw, square=False):
    nr = draw(st.integers(1, 6))
    nc = nr if square else draw(st.integers(1, 6))
    if draw(st.booleans()):
        # a product through k < min(nr, nc) dimensions has rank at most k
        k = draw(st.integers(1, min(nr, nc)))
        a, b = draw(_grid(nr, k)), draw(_grid(k, nc))
        rows = [
            [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)]
            for i in range(nr)
        ]
    else:
        rows = draw(_grid(nr, nc))
    zero_rows = draw(st.sets(st.integers(0, nr - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, nc - 1), max_size=2))
    return QMatrix(
        [
            [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
            for i, r in enumerate(rows)
        ]
    )


def _q(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def _sym(M: QMatrix):
    return sympy.Matrix([[_q(x) for x in r] for r in M.rows])


def _frac(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _canonical(v) -> tuple:
    """Primitive integer vector, first nonzero entry positive."""
    fs = [_frac(x) for x in v]
    scale = math.lcm(*(f.denominator for f in fs))
    ints = [int(f * scale) for f in fs]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)


@_SETTINGS
@given(matrices(square=True))
def test_det_matches_sympy(M):
    assert det(M) == _frac(_sym(M).det())


@_SETTINGS
@given(matrices())
def test_rank_and_rref_match_sympy(M):
    R, piv = _sym(M).rref()
    rows, pivots = rref_rows(M)
    assert rank(M) == len(piv) == len(pivots)
    assert pivots == list(piv)
    assert rows == [tuple(_frac(x) for x in R.row(i)) for i in range(len(piv))]
    assert all(type(x) is Fraction for r in rows for x in r)


@_SETTINGS
@given(matrices())
def test_kernel_basis_matches_sympy(M):
    S = _sym(M)
    ker = kernel_basis(M)
    null = S.nullspace()
    # same space: right dimension, each vector in the kernel, independent
    assert len(ker) == len(null) == M.ncols - S.rank()
    for v in ker:
        assert S * sympy.Matrix([_q(x) for x in v]) == sympy.zeros(M.nrows, 1)
    if ker:
        assert sympy.Matrix([[_q(x) for x in v] for v in ker]).rank() == len(ker)
    # canonical form: sympy's free-column vectors, made primitive
    assert ker == [_canonical(list(n)) for n in null]


@_SETTINGS
@given(matrices(), st.data())
def test_solve_unique_matches_sympy(M, data):
    b = data.draw(st.lists(rationals, min_size=M.nrows, max_size=M.nrows))
    S = _sym(M)
    bs = sympy.Matrix([_q(x) for x in b])
    try:
        sol, params = S.gauss_jordan_solve(bs)
    except ValueError:  # inconsistent
        with pytest.raises(ValueError):
            solve_unique(M, b)
        return
    if params.shape[0]:
        with pytest.raises(ValueError):
            solve_unique(M, b)
        return
    assert solve_unique(M, b) == tuple(_frac(x) for x in sol)


@_SETTINGS
@given(matrices(square=True))
def test_inverse_matches_sympy(M):
    S = _sym(M)
    if S.det() == 0:
        with pytest.raises(ValueError):
            inverse(M)
        return
    Si = S.inv()
    assert inverse(M) == QMatrix([[_frac(x) for x in Si.row(i)] for i in range(Si.rows)])


@_SETTINGS
@given(matrices(square=True))
def test_char_poly_matches_sympy(M):
    want = _sym(M).charpoly().all_coeffs()  # descending, monic
    assert char_poly(M).coeffs == tuple(_frac(x) for x in reversed(want))


# denominators up to 2^40, drawn per entry, so the LCM that char_poly
# scales by is far larger than any one of them
wide_rationals = st.builds(
    Fraction, st.integers(-(2**20), 2**20), st.integers(1, 2**40)
)


@_SETTINGS
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(wide_rationals, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_char_poly_matches_sympy_wide_denominators(rows):
    M = QMatrix(rows)
    want = _sym(M).charpoly().all_coeffs()
    assert char_poly(M).coeffs == tuple(_frac(x) for x in reversed(want))
