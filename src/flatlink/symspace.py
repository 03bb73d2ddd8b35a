"""Exact model of H = SL_m(R)/SO(m) as positive-definite symmetric matrices.

Points are stored projectively: a PD matrix up to positive scale, with the
det = 1 normalization deferred (the m-th root of a rational determinant is
usually irrational, and every predicate used here is scale-invariant).

The maximal flat attached to a regular tau is the PD part of the linear
space {Z symmetric : tau Z = Z tau^T}; the geodesic subspace attached to an
involution rho with eigenvalues (-1, ..., -1, 1) is the PD part of
{Z : rho Z rho^T = Z}. Both memberships are linear, so intersection is an
exact kernel computation, against which the tests hold `intersect`. A flat
is its tau, a subspace its line v and plane w, primitive integer vectors,
and the crossing Z solves K^T Z = J^T for the Krylov matrices K of w under
tau^T and J of v under tau: one m x 2m integer echelon gives the kernel
dimension, point and sign (`_cross`). Whether that point exists is also
decided, without the echelon, by the m x m Hankel moment form H = K^T J of
v and w under tau, whose entries are the moments w . A^k v, A = L tau.
One pass over H (`_moment_kind`) tells definite (a crossing), nonsingular
but not definite (Empty), and singular apart; it is the module's only
Hankel test, and its fraction-free pass (`_sylvester`) the module's one
definiteness test, which `SPDPoint` runs too. H is definite exactly when
the point is, so `_cross` only solves. `intersect` runs the pass first,
and the echelon only when H is definite or singular, handing it the
Krylov rows of v the moments were read from; it builds only K's. A
singular H has no point, so there the echelon's kernel dimension
(`_cross_dim`) is all that runs, with no back-substitution. One routine
(`_cell`) makes that decision for `intersect` and for
`intersection_table`, a pattern's cells, which keeps kind and sign only:
definite H is a crossing whose sign the table reads from sign(s_0)^m and
sign det J, as det H = det K det J, and a nonsingular H that is not
definite is Empty. J depends on the flat and the line only, so the table
builds it once per (flat, line), and a cell costs 2m - 1 dot products and
one m x m pass.

The congruence descent's pair step (`_pair_step`) decides its crossings
here too. It takes a pulled-back line and plane, which need no gamma, to
the crossing point and sign, or to None. At m >= 3 it reads their moments
off the powers of A (`_moment_powers`) and tests them with `_moment_kind`;
at m = 2 it tests det H > 0, `_moment_kind`'s verdict on a 2 x 2 form, in
plain ints. A definite form goes to one solve (`_crossing`): `_cross`, a
fault when it finds no point, and Y's orientation bit. It serves
`intersect` and the pair step alike, and `_cross` stays the one source
of points.

This route never consults the projective linking criterion; it is the module
the criterion is tested against.

Symmetric coordinates are ordered lexicographically on index pairs (i, j)
with i <= j throughout.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .qkernel import (
    QMatrix,
    _Record,
    _back_substitute,
    _conjugate,
    _echelon,
    _int_char_poly,
    _int_det,
    _int_matrix,
    _primitive_ints,
    _scaled_ints,
    _sturm_count,
    rat,
    sign,
)


def sym_pairs(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i, m)]


def sym_dim(m: int) -> int:
    return m * (m + 1) // 2


def _sylvester(a: list[list[int]]) -> Optional[bool]:
    """Whether the symmetric integer matrix a is positive definite: True
    when it is, False when it is nonsingular but not, and None when
    det a = 0. The pass works on a in place.

    One fraction-free pass: while no pivot is zero it takes no row swap,
    so the pivots are the leading principal minors, and a is positive
    definite exactly when they are all positive (Sylvester's test). A zero
    pivot only shows that a is not positive definite; the pass then swaps
    in a row with a nonzero entry in that column, as `_echelon` does, and
    goes on to tell det a != 0 from det a = 0. No second pass computes
    det a.
    """
    m, definite, prev = len(a), True, 1
    for k in range(m):
        if a[k][k] <= 0:
            definite = False
            if a[k][k] == 0:
                i = next((i for i in range(k + 1, m) if a[i][k]), None)
                if i is None:  # det a = 0
                    return None
                a[k], a[i] = a[i], a[k]
        p, rk = a[k][k], a[k]
        for i in range(k + 1, m):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, m):
                ri[j] = (p * ri[j] - f * rk[j]) // prev
        prev = p
    return definite


class SPDPoint(_Record):
    """Positive definite symmetric matrix up to positive scale."""

    Z: QMatrix

    def __init__(self, Z: QMatrix):
        """Both checks read Z's integer form L Z, L > 0: a positive scale
        keeps symmetry and multiplies the k-th leading principal minor by
        L^k, so Sylvester's test has the same outcome on L Z as on Z."""
        object.__setattr__(self, "Z", Z)
        if not Z.is_symmetric():
            raise ValueError("point matrix must be symmetric")
        if not _sylvester(_int_matrix(Z)[1]):
            raise ValueError("point matrix must be positive definite")


# ---------------------------------------------------------------------------
# membership systems


def _sym_index(m: int) -> dict[tuple[int, int], int]:
    """Coordinate of the entry Z_ab, for a <= b and a > b alike."""
    index = {}
    for n, (i, j) in enumerate(sym_pairs(m)):
        index[i, j] = index[j, i] = n
    return index


def flat_membership_system(tau: QMatrix) -> QMatrix:
    """System whose kernel is {Z symmetric : tau Z = Z tau^T}.

    tau Z - Z tau^T is antisymmetric for symmetric Z, so the strict upper
    triangle carries all the constraints: row (i, j), i < j, holds the
    coefficients of (tau Z - Z tau^T)_ij = sum_k tau_ik Z_kj - Z_ik tau_jk.
    """
    m = tau.nrows
    index = _sym_index(m)
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            row = [Fraction(0)] * sym_dim(m)
            for k in range(m):
                row[index[k, j]] += tau[i, k]
                row[index[i, k]] -= tau[j, k]
            rows.append(row)
    return QMatrix(rows)


def subspace_membership_system(rho: QMatrix) -> QMatrix:
    """System whose kernel is {Z symmetric : rho Z rho^T = Z}.

    `intersect` does not need it (see `_cross`); it is the reference the
    closed form is checked against.

    Row (i, j), i <= j, holds the coefficients of
    (rho Z rho^T - Z)_ij = sum_{a,b} rho_ia Z_ab rho_jb - Z_ij.
    """
    m = rho.nrows
    index = _sym_index(m)
    rows = []
    for i, j in sym_pairs(m):
        row = [Fraction(0)] * sym_dim(m)
        for a in range(m):
            for b in range(m):
                row[index[a, b]] += rho[i, a] * rho[j, b]
        row[index[i, j]] -= 1
        rows.append(row)
    return QMatrix(rows)


# ---------------------------------------------------------------------------
# the two geodesic objects


class FlatX(_Record):
    """Maximal flat: PD part of the m-dimensional space {Z : tau Z = Z tau^T}
    (the kernel of `flat_membership_system(tau)`), stored as its tau alone."""

    tau: QMatrix

    def __init__(self, tau: QMatrix):
        object.__setattr__(self, "tau", tau)

    @property
    def m(self) -> int:
        return self.tau.nrows

    def transport(self, g: QMatrix) -> "FlatX":
        """The flat of g tau g^{-1}, which is regular semisimple as tau is."""
        return FlatX(_conjugate(_int_matrix(g)[1], *_int_matrix(self.tau)))


def flat_from_tau(tau: QMatrix) -> FlatX:
    """The flat of a regular tau, checked in integers on A = L tau, the form
    tau stores (L > 0 the LCM of its denominators): A's eigenvalues are L
    times tau's, so p(t) = det(t I - A) has p(0) = 0 exactly when tau is
    singular, and as many distinct real roots as tau's characteristic
    polynomial."""
    if not tau.is_square:
        raise ValueError("tau must be square")
    p = _int_char_poly(_int_matrix(tau)[1])
    if p[0] == 0:  # p(0) = (-1)^m det A
        raise ValueError("tau must be invertible")
    if _sturm_count(p) != tau.nrows:
        raise ValueError("tau must have m distinct real eigenvalues")
    return FlatX(tau)


class SubspaceY(_Record):
    """Minset of the involution rho with eigenvalues (-1, ..., -1, 1).

    Y is its line, the +1 eigenvector v, and its plane, the functional w
    cutting out the -1 eigenspace, both canonical primitive int tuples
    (see `subspace_from_pair`), which every consumer reads as they are;
    rho = 2 v w^T / (w.v) - I is derived from them. An entry that is not
    an int raises TypeError: the integer passes would floor a Fraction.
    orientation (+1 or -1) orients Y's solution space relative to
    (v, w); a crossing's sign is this bit times sign det[w | tau^T w | ...]
    (see `_cross`). When Y is moved together with v and w, the bit is
    carried, not recomputed: at odd m, recomputing it from the moved w
    depends on the canonical kernel basis of w, and so flips for some moves.
    """

    line: tuple[int, ...]
    plane: tuple[int, ...]
    orientation: int

    def __init__(self, line: tuple[int, ...], plane: tuple[int, ...], orientation: int):
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "plane", plane)
        object.__setattr__(self, "orientation", orientation)
        if not all(isinstance(x, int) for x in (*line, *plane)):
            raise TypeError("a subspace's line and plane must hold ints")

    @property
    def rho(self) -> QMatrix:
        return involution_for_pair(self.line, self.plane)

    @property
    def m(self) -> int:
        return len(self.line)


def subspace_from_pair(line: Sequence, plane: Sequence) -> SubspaceY:
    """The subspace of `involution_for_pair(line, plane)`, oriented by its
    frame: v v^T, then u_a u_b^T + u_b u_a^T pair-lex, with v and w the
    primitive line and plane and U = (u_a) the canonical kernel basis of w.

    The orientation bit is sign(c) sign(v.w), where
    det[frame | T] = c det[v | T w] for any m - 1 symmetric columns T (see
    `_cross`). With P = [v | U], the frame is P E P^T for
    positive multiples E of the unit symmetric matrices at (0, 0) and
    (a, b), a, b >= 1. Z -> P Z P^T has determinant (det P)^(m+1) on Sym;
    the E miss exactly the m - 1 pair-lex coordinates (0, j), each behind
    all m(m-1)/2 of theirs; and P^T w = (v.w) e_0. So
    sign(c) = (-1)^(m(m-1)^2/2) sign(det P)^m sign(v.w)^(m-1), and the bit
    is (-1)^(m(m-1)^2/2) sign(det[w | U])^m, because det[x | U] is a fixed
    multiple of x.w. For the canonical w, with w_p > 0 its first nonzero
    entry and q entries positive, U's columns are s_f (w_f e_p - w_p e_f),
    f != p in order, s_f < 0 exactly when w_f <= 0: m - q of them. Adding
    sum_f (w_f / w_p) (w_f e_p - w_p e_f) to w leaves (|w|^2 / w_p) e_p, so
    det[w | w_f e_p - w_p e_f] = (|w|^2 / w_p) (-w_p)^(m-1) (-1)^p, and
    sign det[w | U] = (-1)^(m-1+p) (-1)^(m-q) = (-1)^(p+q-1).
    """
    v, w, _ = _pair(line, plane)
    return _integer_subspace(v, w)


def _integer_subspace(v: Sequence[int], w: Sequence[int]) -> SubspaceY:
    """`subspace_from_pair` of an integer line v and plane w with w.v != 0:
    the constructor both public ones end in, with no rational parsing."""
    v, w = _primitive_ints(v), _primitive_ints(w)
    m = len(w)
    p = next(i for i, x in enumerate(w) if x)
    s = (-1) ** (p + sum(x > 0 for x in w) - 1)  # sign det[w | U]
    bit = (-1) ** (m * (m - 1) ** 2 // 2) * s**m
    return SubspaceY(v, w, bit)


def subspace_from_rho(rho: QMatrix) -> SubspaceY:
    """The subspace of rho. With rho^2 = I, (rho + I) / 2 projects onto the
    +1 space; at rank 1 it is v w^T / (w.v): columns span v, rows span w.

    The check runs in integers on M = R + d I = d (rho + I), with R = d rho
    and d > 0 the LCM of rho's denominators: rho is an involution of trace
    2 - m exactly when M has rank one and trace 2 d. Forward: rho^2 = I
    makes rho diagonalizable with eigenvalues +-1, and trace 2 - m leaves
    one +1, so rho + I has rank one and trace 2. Back: a rank-one
    M = x y^T has M^2 = (y.x) M = tr(M) M = 2 d M, so rho = M / d - I has
    rho^2 = M^2 / d^2 - 2 M / d + I = I, and tr rho = 2 - m. M has rank one
    exactly when some entry M_ij is nonzero (one is, as tr M != 0) and
    every 2 x 2 minor through it vanishes, M_ab M_ij = M_aj M_ib: m^2
    products, where rho^2 = I takes m^3. Then column j is v and row i is w,
    already integers, with w.v = M_ij tr(M) != 0.
    """
    if not rho.is_square:
        raise ValueError("rho must be square")
    m = rho.nrows
    d, M = _int_matrix(rho)
    for k in range(m):
        M[k][k] += d
    if sum(M[k][k] for k in range(m)) == 2 * d:
        i, j = next((i, j) for i in range(m) for j in range(m) if M[i][j])
        p, w = M[i][j], M[i]
        if all(x * p == r[j] * y for r in M for x, y in zip(r, w)):
            return _integer_subspace([r[j] for r in M], w)
    raise ValueError(
        "rho must be an involution with eigenvalue signature (+1, -1^(m-1))"
    )


def _pair(line: Sequence, plane: Sequence) -> tuple[list[int], list[int], int]:
    """line and plane scaled to integers by positive factors, with their
    product, which is not zero. Int entries are read as they are; only
    other entries are parsed (`rat`)."""
    if len(line) != len(plane):
        raise ValueError("dimension mismatch")
    v, u = ([x if isinstance(x, int) else rat(x) for x in p] for p in (line, plane))
    v, u = _scaled_ints(v), _scaled_ints(u)
    uv = sum(map(operator.mul, u, v))
    if uv == 0:  # also when either is zero
        raise ValueError("line lies inside the plane")
    return v, u, uv


def involution_for_pair(line: Sequence, plane: Sequence) -> QMatrix:
    """The involution fixing `line` and negating the kernel of `plane`:
    2 v u^T / (u.v) - I, unchanged when v and u are scaled, so it is built
    as (2 v u^T - (u.v) I) / (u.v) from the integer-scaled v and u."""
    v, u, uv = _pair(line, plane)
    rows = [[2 * a * b for b in u] for a in v]
    for i in range(len(v)):
        rows[i][i] -= uv
    return QMatrix._from_ints(uv, rows)


# ---------------------------------------------------------------------------
# intersection


class IntersectionKind(Enum):
    EMPTY = "Empty"
    TRANSVERSE_POINT = "TransversePoint"
    DEGENERATE = "Degenerate"


class IntersectionResult(_Record):
    kind: IntersectionKind
    point: Optional[SPDPoint]
    kernel_dim: int
    sign: Optional[int]  # a TransversePoint's orientation sign: see `_cross`

    def __init__(
        self,
        kind: IntersectionKind,
        point: Optional[SPDPoint],
        kernel_dim: int,
        sign: Optional[int] = None,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "kernel_dim", kernel_dim)
        object.__setattr__(self, "sign", sign)


def _krylov(A: Sequence[Sequence[int]], x: Sequence[int], n: int) -> list[list[int]]:
    """x, A x, ..., A^(n-1) x for an integer matrix A given by its rows."""
    out = [list(x)]
    for _ in range(n - 1):
        out.append([sum(map(operator.mul, r, out[-1])) for r in A])
    return out


def _cross_echelon(
    A: Sequence[Sequence[int]], J: list[list[int]], w: Sequence[int]
) -> tuple[int, Optional[tuple[list[list[int]], list[int], int, int]]]:
    """`_cross`'s one echelon, of the m x 2m integer rows [K^T | J^T], with
    r its number of pivots among the first m columns: the kernel dimension
    m - r + (no pivot past column m), and, when r = m, the echelon rows,
    pivots, permutation sign and last pivot that `_cross` back-substitutes
    (else None)."""
    m = len(w)
    a = [k + j for k, j in zip(_krylov(list(zip(*A)), w, m), J)]
    pivots, sgn, d = _echelon(a)
    r = sum(c < m for c in pivots)
    return m - r + (len(pivots) == r), (a, pivots, sgn, d) if r == m else None


def _cross_dim(A: Sequence[Sequence[int]], J: list[list[int]], w: Sequence[int]) -> int:
    """`_cross`'s kernel dimension, with no back-substitution. At det H = 0
    no point exists (`_moment_kind`), and this is all that tells Empty (1)
    from Degenerate; even at r = m, where `_cross` would solve for a
    singular Z, nothing more runs."""
    return _cross_echelon(A, J, w)[0]


def _cross(
    A: Sequence[Sequence[int]], J: list[list[int]], w: Sequence[int]
) -> tuple[int, Optional[list[list[int]]], Optional[int]]:
    """X ∩ Y in plain integers, from the rows of A = L tau (L > 0 the LCM
    of tau's denominators), the Krylov rows v, A v, A^2 v, ... of Y's +1
    line v (`_krylov(A, v, n)` for some n >= m; the first m are read) and
    Y's plane functional w, v and w scaled to integers, w by a positive
    factor only. The caller has built J's rows for its moments or its
    table, so only K's are built here.

    Y is {Z symmetric : Z w parallel to v}. tau has distinct eigenvalues, so
    every Z with tau Z = Z tau^T is symmetric (Taussky and Zassenhaus), and
    then Z (tau^T)^k w = tau^k Z w. So the crossing with Z w = v solves
    K^T Z = J^T, with K = [w | A^T w | ... | (A^T)^(m-1) w] and
    J = [v | A v | ... | A^(m-1) v] for A = L tau: the powers of L cancel.
    One echelon of the m x 2m integer rows [K^T | J^T] decides it. Let r be
    its number of pivots among the first m columns.

    In tau's eigenbasis x_i the points of X are Z = sum a_i x_i x_i^T, and
    Z w = lam v reads a_i w_i = lam v_i, with w_i = x_i . w and v_i the
    coordinates of v; r = #{i : w_i != 0}. Every a_i with w_i = 0 is free,
    and lam is free exactly when v_i vanishes wherever w_i does, that is
    when J's rows obey K's linear relations and the echelon has no pivot
    past column m. (a, lam) -> Z is injective, so the kernel dimension of
    the joint membership systems is m - r + (len(pivots) == r). When r < m
    it is 1 only with lam = 0, where Z w = 0 and Z is singular: Empty.

    When r = m, back-substitution gives d Z with d the last pivot, and
    det K = (permutation sign) d. X is oriented by its frame
    (Z, tau Z, ..., tau^(m-1) Z) and Y by the frame of `subspace_from_pair`;
    the crossing sign is that of det[Y-frame | tau Z, ..., tau^(m-1) Z] in
    pair-lex coordinates. Z -> Z w mod v maps Sym onto Q^m/<v> with kernel
    Y's space, so that determinant is c det[v | tau Z w | ...] for a
    constant c of Y. On X, tau^k Z w = Z (tau^T)^k w, and Z w = lam v with
    sign(lam) = sign(v.w) because w^T Z w > 0; so the last determinant is
    det Z / lam * det K / L^(m(m-1)/2), with det Z > 0. The orientation bit
    is sign(c) sign(v.w), so the crossing sign is Y.orientation sign(det K).
    Same-sign statements across a family are meaningful; the absolute sign
    is a convention pinned by the m = 2 reference case.

    Returns the kernel dimension; when r = m, the primitive point with
    Z[0][0] >= 0, else None; and with the point, sign(det K). The moment
    form (`_moment_kind`) decides the PD cone, not this solve; where it
    is singular there is no point, and `_cross_dim` reads the kernel
    dimension alone.
    """
    m = len(w)
    k, echelon = _cross_echelon(A, J, w)
    if echelon is None:  # r < m
        return k, None, None
    a, pivots, sgn, d = echelon
    # column j of d Z; Z is symmetric, so these are also its rows
    Z = [_back_substitute(a, pivots, d, m + j) for j in range(m)]
    g = math.gcd(*[x for row in Z for x in row])
    if Z[0][0] < 0:  # a PD matrix has a positive (0, 0) entry
        g = -g
    return 1, [[x // g for x in row] for row in Z], sgn * sign(d)


def _moment_powers(A: Sequence[Sequence[int]]) -> list[list[int]]:
    """A^0, ..., A^(2m-2), each row-major, for A given by its m rows: built
    once per flat, they give a descent point's moments w . A^k v as dot
    products with the outer product of w and v (see `_moment_kind`)."""
    m = len(A)
    cols = list(zip(*A))
    P = [[int(i == j) for i in range(m) for j in range(m)]]
    for _ in range(2 * m - 2):
        rows = [P[-1][i * m : (i + 1) * m] for i in range(m)]
        P.append([sum(map(operator.mul, r, c)) for r in rows for c in cols])
    return P


def _moment_kind(s: list[int]) -> Optional[IntersectionKind]:
    """What the m x m Hankel form H = [s_(j+k)] of the 2m - 1 moments
    s_k = w . A^k v decides, for A = L tau and Y's line v and plane w:
    TransversePoint when H is definite, Empty when H is nonsingular but not
    definite (see `intersection_table`), and None when det H = 0, which
    only `_cross` can decide.

    This is the Hankel (moment) form of Hermite's root-separation method
    (Krein and Naimark, 1936). In tau's eigenbasis x_i, with w_i and v_i
    as in `_cross`, s_k = sum_i mu_i n_i^k for the nodes n_i, A's
    eigenvalues, and mu_i = w_i v_i. So H = V^T diag(mu) V with
    V = [n_i^j], real and invertible because the nodes are real and
    distinct, and by Sylvester's law of inertia H is definite exactly when
    every mu_i is nonzero and all share one sign. That is `_cross`'s
    condition for a point: r = m (every w_i nonzero) and
    a_i = lam v_i / w_i of one strict sign for some lam, that is v_i / w_i,
    or v_i w_i, all nonzero of one sign. A definite H has the sign of its
    (0, 0) entry s_0 = w . v. One pass (`_sylvester`) over sign(s_0) H
    tells the three cases apart.
    """
    m = (len(s) + 1) // 2
    if s[0] < 0:
        s = [-x for x in s]
    definite = _sylvester([s[j : j + m] for j in range(m)])
    if definite is None:
        return None
    return IntersectionKind.TRANSVERSE_POINT if definite else IntersectionKind.EMPTY


def _integer_pair(
    X: FlatX, Y: SubspaceY
) -> tuple[list[list[int]], tuple[int, ...], tuple[int, ...]]:
    """`_cross`'s integers for X and Y: the rows of A = L tau, and Y's line
    and plane as they are."""
    if X.m != Y.m:
        raise ValueError("dimension mismatch")
    return _int_matrix(X.tau)[1], Y.line, Y.plane


def _cell(
    A: Sequence[Sequence[int]], J: list[list[int]], w: Sequence[int]
) -> tuple[IntersectionKind, int, list[int]]:
    """The kind of X ∩ Y and its kernel dimension, decided without a point,
    with the 2m - 1 moments s_k = w . J_k it was read from, for J the
    Krylov rows v, A v, ..., A^(2m-2) v of Y's line.

    One pass over the Hankel form (`_moment_kind`) tells a crossing (H
    definite) and Empty (H nonsingular but not definite, one kernel line;
    see `intersection_table`). At det H = 0 there is no point, and
    `_cross`'s echelon (`_cross_dim`) tells Empty (1) from Degenerate,
    which is never perturbed.
    """
    s = [sum(map(operator.mul, w, x)) for x in J]
    kind = _moment_kind(s)
    if kind is None:  # det H = 0: no point
        k = _cross_dim(A, J, w)
        return (IntersectionKind.EMPTY if k == 1 else IntersectionKind.DEGENERATE), k, s
    return kind, 1, s


def _crossing(
    A: Sequence[Sequence[int]], J: list[list[int]], w: Sequence[int], orientation: int
) -> tuple[list[list[int]], int]:
    """The crossing of a definite moment form: `_cross`'s primitive point
    and the sign, Y's orientation bit times sign(det K). A definite form
    has a point (`_moment_kind`), so a solve without one raises
    ArithmeticError."""
    _, Z, s = _cross(A, J, w)
    if Z is None:
        raise ArithmeticError("definite moment form, but no crossing point")
    return Z, orientation * s


def intersect(X: FlatX, Y: SubspaceY) -> IntersectionResult:
    """Exact intersection of the two PD solution sets.

    The moment form decides the kind (`_cell`): the 2m - 1 moments
    s_k = w . A^k v, A = L tau, one pass over their Hankel matrix H, and at
    det H = 0 the echelon's kernel dimension. Only a definite H, PD as its
    point is, runs the one small integer system on the Krylov rows the
    moments were read from (`_crossing`), for the point and its sign.
    """
    A, v, w = _integer_pair(X, Y)
    J = _krylov(A, v, 2 * len(v) - 1)
    kind, k, _ = _cell(A, J, w)
    if kind is not IntersectionKind.TRANSVERSE_POINT:
        return IntersectionResult(kind, None, k)
    Z, s = _crossing(A, J, w, Y.orientation)
    return IntersectionResult(kind, SPDPoint(QMatrix._from_ints(1, Z)), 1, s)


def _pair_step(X: FlatX, Y: SubspaceY):
    """The congruence descent's pair step: a pulled-back (line, plane) of Y
    -> the crossing (Z', sign) of X with the subspace of that line and
    plane, Z' as primitive integer rows, or None when they do not cross
    transversely. It reads no gamma.

    The moment form of the pair, s_k = plane . A^k line for A = L tau, is
    definite exactly when the crossing is a transverse point, so only then
    does the step run the crossing solve (`_crossing`). At m >= 3 the
    moments are dot products of the outer product of plane and line with
    the powers of A (`_moment_powers`, built once), tested by
    `_moment_kind`. At m = 2, s_0 = plane . line, s_1 = plane . A line and
    s_2 = A^T plane . A line, and the form is definite exactly when
    det H = s_0 s_2 - s_1^2 > 0. Proof: H is definite exactly when
    sign(s_0) H is positive definite, that is (by Sylvester's test,
    `_moment_kind`'s verdict) when s_0 != 0 and det H > 0; and det H > 0
    already forces s_0 s_2 > s_1^2 >= 0, so s_0 != 0. So s_0 s_2 <= s_1^2
    is a miss, with no pass, and a hit hands [line, A line] to the solve.

    The sign carries Y's orientation bit unchanged: with det gamma = 1
    the pulled-back frame relates to (adj(gamma) v, gamma^T w) exactly as
    Y's frame does to (v, w). A bit recomputed from the pulled-back pair,
    or a plane made primitive (which may negate it), flips signs at odd m.
    """
    A = _int_matrix(X.tau)[1]
    orientation = Y.orientation
    m = X.m

    if m == 2:
        (a00, a01), (a10, a11) = A

        def step(line, plane):
            l0, l1 = line
            p0, p1 = plane
            m0, m1 = a00 * l0 + a01 * l1, a10 * l0 + a11 * l1  # A line
            s0 = p0 * l0 + p1 * l1
            s1 = p0 * m0 + p1 * m1
            s2 = (a00 * p0 + a10 * p1) * m0 + (a01 * p0 + a11 * p1) * m1  # A^T plane . A line
            if s0 * s2 <= s1 * s1:  # det H <= 0: not definite
                return None
            return _crossing(A, [[l0, l1], [m0, m1]], plane, orientation)

        return step

    powers = _moment_powers(A)

    def step(line, plane):
        outer = [a * b for a in plane for b in line]
        moments = [sum(map(operator.mul, P, outer)) for P in powers]
        if _moment_kind(moments) is not IntersectionKind.TRANSVERSE_POINT:
            return None
        return _crossing(A, _krylov(A, line, m), plane, orientation)

    return step


def intersection_table(
    flats: Sequence[FlatX], subspaces: Sequence[SubspaceY]
) -> list[list[tuple[IntersectionKind, Optional[int]]]]:
    """`intersect`'s kind and sign on every cell: row i, column j is
    (X_i ∩ Y_j).kind with its sign, None unless TransversePoint.

    Each cell is decided by its moment form, the Hankel matrix
    H = [s_(j+k)] of s_k = w . A^k v, A = L tau (`_cell`). A row forms A's
    integer rows once and builds, for each distinct line v among the
    columns, the Krylov vectors J_k = A^k v for k = 0, ..., 2m - 2; a cell
    then costs 2m - 1 dot products with its plane w, read as stored on Y.
    In `_cross`'s notation H = K^T J, so det H = det K det J.

    - H definite (sign(s_0) H passes Sylvester's test): a TransversePoint.
      A definite H has det H of sign sign(s_0)^m, so the crossing sign
      Y.orientation sign(det K) is Y.orientation sign(s_0)^m sign(det J);
      sign(det J) is taken once per (flat, line), at its first crossing.
    - H not definite but det H != 0: Empty. det K != 0 makes every w_i
      nonzero (r = m, so the kernel is one line) and det J != 0 every v_i,
      so every mu_i = w_i v_i is nonzero and, H not being definite, they
      have mixed signs: the line's a_i = lam v_i / w_i are never all
      positive.
    - det H = 0: H is not definite, so there is no point, and `_cross`'s
      echelon (`_cross_dim`) decides between Degenerate and Empty, on the
      row's J: only it tells a kernel of dimension >= 2 from the one line
      at lam = 0. No point is solved for.

    No point is built: a certificate keeps kind and sign only.
    """
    if len({X.m for X in flats} | {Y.m for Y in subspaces}) > 1:
        raise ValueError("dimension mismatch")
    table = []
    for X in flats:
        m = X.m
        A = _int_matrix(X.tau)[1]
        krylov: dict[tuple, list[list[int]]] = {}
        det_signs: dict[tuple, int] = {}
        row = []
        for Y in subspaces:
            v, w = Y.line, Y.plane
            J = krylov.get(v)
            if J is None:
                J = krylov[v] = _krylov(A, v, 2 * m - 1)
            kind, _, s = _cell(A, J, w)
            if kind is IntersectionKind.TRANSVERSE_POINT:
                if v not in det_signs:
                    det_signs[v] = sign(_int_det(J[:m]))
                row.append((kind, Y.orientation * sign(s[0]) ** m * det_signs[v]))
            else:
                row.append((kind, None))
        table.append(row)
    return table


def intersection_sign(X: FlatX, Y: SubspaceY, at: SPDPoint) -> int:
    """`intersect`'s sign, once `at` is checked to be its point up to
    positive scale. The crossing is what is asked for, so this runs `_cross`
    alone, without `intersect`'s moment pass. `at` is a positive multiple of
    the primitive point Z exactly when its integer scaling is, as both have
    a positive (0, 0) entry: when its primitive entries are Z's; so a Z
    off the PD cone never matches."""
    A, v, w = _integer_pair(X, Y)
    k, Z, s = _cross(A, _krylov(A, v, len(v)), w)
    if k != 1:
        raise ValueError("non-transverse configuration")
    scaled = [x for r in _int_matrix(at.Z)[1] for x in r]
    if Z is None or _primitive_ints(scaled) != tuple(x for r in Z for x in r):
        raise ValueError("point is not the crossing of the flat and the subspace")
    return Y.orientation * s
