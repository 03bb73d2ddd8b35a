"""Reference routines that only the tests use.

Each is the plain textbook route to something the package decides another
way, kept here so that the tests can hold the package against it:

- the columns and the transpose of a rational matrix (`columns`,
  `transpose`);
- symmetric coordinates (`vec_sym`, `unvec_sym`) for the membership
  systems, and Sylvester's test on a rational matrix
  (`is_positive_definite`), its leading principal minors each taken by
  Gaussian elimination over Q (`fraction_det`);
- membership of a symmetric matrix in a flat or a subspace by its defining
  equation (`flat_contains`, `subspace_contains`);
- reduced row echelon form (`rref_rows`), a unique solve (`solve_unique`),
  the Euclidean gcd (`poly_gcd`), a polynomial at a point (`eval_poly`)
  and at a matrix (`eval_matrix`), all over Q;
- the GL action on projective points, hyperplanes, arrangements and pairs
  (`transform_*`);
- the characteristic polynomial by Faddeev–LeVerrier
  (`faddeev_leverrier_char_poly`), the involution test by the product
  rho^2 (`subspace_from_rho_by_square`) and the intersection by the
  crossing solve alone (`intersect_by_cross`), each the route the package
  used before its closed form.
"""

from fractions import Fraction
from operator import mul
from typing import Sequence

from flatlink.projlink import Arrangement, LinePlanePair, ProjHyperplane, ProjPoint
from flatlink.qkernel import (
    QMatrix,
    QPoly,
    _back_substitute,
    _echelon,
    _int_matrix,
    inverse,
    rat,
)
from flatlink.symspace import (
    FlatX,
    IntersectionKind,
    IntersectionResult,
    SPDPoint,
    SubspaceY,
    _cross,
    _krylov,
    subspace_from_pair,
    sym_dim,
    sym_pairs,
)


def columns(M: QMatrix) -> list[tuple]:
    return [M.col(j) for j in range(M.ncols)]


def transpose(M: QMatrix) -> QMatrix:
    return QMatrix(columns(M))


def vec_sym(M: QMatrix) -> tuple:
    """Upper-triangle coordinates of a symmetric matrix, pair-lex order."""
    return tuple(M[i, j] for i, j in sym_pairs(M.nrows))


def unvec_sym(v: Sequence, m: int) -> QMatrix:
    vs = [rat(x) for x in v]
    if len(vs) != sym_dim(m):
        raise ValueError("wrong length for symmetric coordinates")
    rows = [[None] * m for _ in range(m)]
    for (i, j), x in zip(sym_pairs(m), vs):
        rows[i][j] = x
        rows[j][i] = x
    return QMatrix(rows)


def fraction_det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant over Q by Gaussian elimination with row swaps."""
    a = [[rat(x) for x in r] for r in rows]
    n, d = len(a), Fraction(1)
    for k in range(n):
        i = next((i for i in range(k, n) if a[i][k] != 0), None)
        if i is None:
            return Fraction(0)
        if i != k:
            a[k], a[i] = a[i], a[k]
            d = -d
        d *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return d


def is_positive_definite(M: QMatrix) -> bool:
    """Sylvester's test: M is symmetric and every leading principal minor
    is positive."""
    rows = M.rows
    return M.is_symmetric() and all(
        fraction_det([r[:k] for r in rows[:k]]) > 0 for k in range(1, M.nrows + 1)
    )


def flat_contains(X: FlatX, Z: QMatrix) -> bool:
    """Whether Z is in the span of X: symmetric with tau Z = Z tau^T."""
    return Z.is_symmetric() and X.tau @ Z == Z @ transpose(X.tau)


def subspace_contains(Y: SubspaceY, Z: QMatrix) -> bool:
    """Whether Z is in the span of Y: symmetric with rho Z rho^T = Z."""
    rho = Y.rho
    return Z.is_symmetric() and rho @ Z @ transpose(rho) == Z


def rref_rows(M: QMatrix) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form: (nonzero rows, pivot columns).

    Rows are normalized to leading coefficient 1 with pivot columns cleared,
    so the output is the canonical basis of the row space. Column j of the
    form is the pivot block's solution against column j.
    """
    a = _int_matrix(M)[1]
    pivots, _, d = _echelon(a)
    cols = [_back_substitute(a, pivots, d, j) for j in range(M.ncols)]
    rows = [tuple(Fraction(y[k], d) for y in cols) for k in range(len(pivots))]
    return rows, pivots


def solve_unique(M: QMatrix, b: Sequence) -> tuple:
    """Solve M x = b, requiring a unique solution."""
    bs = [rat(x) for x in b]
    if len(bs) != M.nrows:
        raise ValueError("right-hand side length mismatch")
    n = M.ncols
    a = _int_matrix(QMatrix([r + (x,) for r, x in zip(M.rows, bs)]))[1]
    pivots, _, d = _echelon(a)
    if n in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) != n:
        raise ValueError("linear system is underdetermined")
    return tuple(Fraction(y, d) for y in _back_substitute(a, pivots, d, n))


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a if a.is_zero else a * (1 / a.lead)


def eval_poly(p: QPoly, x) -> Fraction:
    """p(x) over Q, by Horner's rule."""
    x, acc = rat(x), Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def eval_matrix(p: QPoly, M: QMatrix) -> QMatrix:
    """p(M), by Horner's rule."""
    n = M.nrows
    acc = QMatrix([[0] * n for _ in range(n)])
    for c in reversed(p.coeffs):
        acc = acc @ M + c * QMatrix.identity(n)
    return acc


def transform_point(g: QMatrix, p: ProjPoint) -> ProjPoint:
    return ProjPoint(g.apply(p.rep))


def transform_hyperplane(g: QMatrix, h: ProjHyperplane) -> ProjHyperplane:
    # functional pulls back through the inverse: (g.h)(x) = h(g^{-1} x)
    return ProjHyperplane(transpose(inverse(g)).apply(h.functional))


def transform_arrangement(g: QMatrix, arr: Arrangement) -> Arrangement:
    return Arrangement([transform_point(g, p) for p in arr.points])


def transform_pair(g: QMatrix, lp: LinePlanePair) -> LinePlanePair:
    return LinePlanePair(transform_point(g, lp.line), transform_hyperplane(g, lp.plane))


def faddeev_leverrier_char_poly(A: list[list[int]]) -> list[int]:
    """Ascending integer coefficients of det(t I - A) for a square integer A,
    by Faddeev–LeVerrier: with c_0 = 1 the coefficient of t^n,
    B_1 = A, B_k = A B_(k-1) + c_(k-1) A and c_k = -tr(B_k) / k is the
    coefficient of t^(n-k). Every c_k is an integer, so each division is
    exact."""
    n = len(A)
    coeffs = [1]
    B = A
    for k in range(1, n + 1):
        if k > 1:
            c, cols = coeffs[-1], list(zip(*B))
            B = [
                [sum(map(mul, r, col)) + c * x for col, x in zip(cols, r)]
                for r in A
            ]
        coeffs.append(-sum(B[i][i] for i in range(n)) // k)
    return coeffs[::-1]


def subspace_from_rho_by_square(rho: QMatrix) -> SubspaceY:
    """The subspace of rho, checked by R R = d^2 I and tr R = (2 - m) d on
    R = d rho, d > 0 the LCM of rho's denominators; then R + d I supplies
    the line and the plane."""
    if not rho.is_square:
        raise ValueError("rho must be square")
    m = rho.nrows
    d, R = _int_matrix(rho)
    cols = list(zip(*R))
    if any(
        sum(map(mul, r, c)) != (d * d if i == j else 0)
        for i, r in enumerate(R)
        for j, c in enumerate(cols)
    ):
        raise ValueError("rho must be an involution")
    if sum(R[i][i] for i in range(m)) != (2 - m) * d:
        raise ValueError("rho must have eigenvalue signature (+1, -1^(m-1))")
    for i in range(m):
        R[i][i] += d
    i, j = next((i, j) for i in range(m) for j in range(m) if R[i][j])
    return subspace_from_pair([r[j] for r in R], R[i])


def intersect_by_cross(X: FlatX, Y: SubspaceY) -> IntersectionResult:
    """`intersect` read from the crossing solve `_cross` alone, with no
    moment pass: its point is tested for the PD cone by Sylvester's test
    over Q, and the sign is Y.orientation sign(det K), with K the Krylov
    rows w, A^T w, ... of Y's plane, its determinant taken over Q."""
    if X.m != Y.m:
        raise ValueError("dimension mismatch")
    A = _int_matrix(X.tau)[1]
    k, Z, _ = _cross(A, _krylov(A, Y.line, X.m), Y.plane)
    if k != 1:
        return IntersectionResult(IntersectionKind.DEGENERATE, None, k)
    if Z is None or not is_positive_definite(QMatrix(Z)):
        return IntersectionResult(IntersectionKind.EMPTY, None, 1)
    d = fraction_det(_krylov(list(zip(*A)), Y.plane, X.m))
    return IntersectionResult(
        IntersectionKind.TRANSVERSE_POINT,
        SPDPoint(QMatrix(Z)),
        1,
        Y.orientation * ((d > 0) - (d < 0)),
    )
