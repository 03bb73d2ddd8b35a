"""Rational decomposition, congruence levels, and bounded same-sign runs.

The decomposition solver works in Q[tau]. tau must be cyclic (minimal
polynomial of degree m, as every regular tau is), so its commutant is
Q[tau] and gamma = a b with b commuting with tau reads b^{-1} = p(tau).
Then a = gamma p(tau) commutes with rho exactly when p's m coefficients
solve an m^2 x m integer system, built on the powers of L tau. Let
s_1..s_d span its kernel, read in integers (`qkernel._int_kernel`).
det p(tau) is the product of p(lambda) over tau's m eigenvalues, each a
linear form in p's coefficients. On the span such a form is either zero
or, along p_c = sum_k c^(k-1) s_k, a nonzero polynomial in c of degree
<= d - 1. So the span holds an invertible p(tau) exactly when one of
p_0, ..., p_(m(d-1)) gives one, and the solver answers solved or
no_solution after that bounded scan.

The deep-congruence machinery behind the same-sign statement (double
cosets, p-adic identity neighborhoods) is replaced by what it predicts:
enumerate gamma = I + p^n K inside an entry bound with det = 1, intersect
each moved flat gamma X with Y, and report every transverse sign. Each
crossing is decided as X against the pulled-back gamma^{-1} Y, in integers,
from Y's integer line and plane as stored. The Hankel moment form of the
pulled-back line and plane is definite exactly when they cross
transversely (`symspace._moment_kind`, the pass `intersect` runs first),
so it rules out the misses, nearly every point, without an echelon; a
point whose form is definite builds the Krylov rows of its line and runs
the one Krylov solve `intersect` uses (`symspace._cross`), which gives
the point and the sign.
Each det-1 point of the walk carries gamma and adj(gamma) as one flat
tuple of ints, so the per-point step runs on ints alone.

At m = 2 both steps are closed forms. The walk loops over the second
rows (c, d) directly, whose cofactors are [d, -c], and each point's
adjugate is [[d, -b], [-c, a]]; the moment form is 2 x 2, definite
exactly when det H = s_0 s_2 - s_1^2 > 0, so a point costs a few dozen
integer products and one comparison, with no list and no pass. m >= 3
keeps the generic walk, `_walk_point` and the moment pass.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Optional, Sequence

from .qkernel import (
    QMatrix,
    _Record,
    _echelon,
    _first_row_cofactors,
    _int_det,
    _int_kernel,
    _int_matrix,
    _is_prime,
    _primitive_ints,
    _solve_square,
    det,
    kernel_basis,
)
from .symspace import (
    FlatX,
    IntersectionKind,
    SPDPoint,
    SubspaceY,
    _cross,
    _krylov,
    _moment_kind,
    _moment_powers,
    flat_from_tau,
    subspace_from_rho,
)


class CommutantError(ValueError):
    """The joint commutant of (tau, rho) is larger than the scalars."""


class CongruenceLevel(_Record):
    p: int
    n: int

    def __init__(self, p: int, n: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("level exponent must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p**self.n


class Decomposition(_Record):
    a: QMatrix
    b: QMatrix

    def __init__(self, a: QMatrix, b: QMatrix):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class PtoqResult(_Record):
    kind: str  # "solved" | "no_solution"
    decomposition: Optional[Decomposition]

    def __init__(self, kind: str, decomposition: Optional[Decomposition]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "decomposition", decomposition)


class SignedHit(_Record):
    gamma: QMatrix
    point: SPDPoint
    sign: int

    def __init__(self, gamma: QMatrix, point: SPDPoint, sign: int):
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "sign", sign)


# ---------------------------------------------------------------------------
# linear systems over the m^2 matrix entries


def _intertwine_rows(P: Sequence[Sequence], Q: Sequence[Sequence]) -> list[list]:
    """Equations x P - Q x = 0, unknowns x_{kl} flattened row-major, for P and
    Q given as rows; integer rows give integer equations."""
    m = len(P)
    rows = []
    for i in range(m):
        for j in range(m):
            row = [0] * (m * m)
            for l in range(m):
                row[i * m + l] += P[l][j]
            for k in range(m):
                row[k * m + j] -= Q[i][k]
            rows.append(row)
    return rows


def scalar_commutant_check(tau: QMatrix, rho: QMatrix) -> bool:
    """True iff the only matrices commuting with both are the scalars.

    One integer rank: x commutes with tau exactly when it commutes with
    L tau, so the 2m^2 x m^2 intertwining rows of the two scaled matrices
    have the scalars as kernel exactly when their rank is m^2 - 1.
    """
    if not (tau.is_square and rho.is_square and tau.nrows == rho.nrows):
        raise ValueError("inputs must be square of equal size")
    rows = []
    for M in (tau, rho):
        P = _int_matrix(M)[1]
        rows += _intertwine_rows(P, P)
    return len(_echelon(rows)[0]) == tau.nrows**2 - 1


def ptoq_solve(gamma: QMatrix, tau: QMatrix, rho: QMatrix) -> PtoqResult:
    """Split gamma = a b with [a, rho] = 1 and [b, tau] = 1, exactly.

    tau must be cyclic, so that a = gamma p(tau) (module docstring). With
    G, A = L tau and R the integer multiples of gamma, tau and rho, column
    k of the system is vec(G A^k R - R G A^k); the scaling only rescales
    the unknowns. G A^0, ..., G A^(m-1) are independent exactly when tau is
    cyclic, as G is invertible. The answer is solved or no_solution. A
    derogatory tau or a singular gamma raises ValueError.
    """
    m = gamma.nrows
    if not (gamma.is_square and tau.nrows == m and rho.nrows == m):
        raise ValueError("inputs must be square of equal size")
    G, A, R = (_int_matrix(M)[1] for M in (gamma, tau, rho))
    if _int_det(G) == 0:
        raise ValueError("gamma is singular")
    terms = [G]  # G A^k
    cols = list(zip(*A))
    for _ in range(m - 1):
        terms.append([[sum(map(operator.mul, r, c)) for c in cols] for r in terms[-1]])
    terms = [sum(T, []) for T in terms]  # row-major
    if len(_echelon([list(t) for t in terms])[0]) < m:
        raise ValueError("tau is derogatory: its commutant is larger than Q[tau]")
    eqs = _intertwine_rows(R, R)  # vec(x R - R x)
    rows = [[sum(map(operator.mul, e, t)) for t in terms] for e in eqs]
    ker = _int_kernel(rows)
    if not ker:
        return PtoqResult("no_solution", None)
    for c in range(m * (len(ker) - 1) + 1):
        p = [sum(s[j] * c**k for k, s in enumerate(ker)) for j in range(m)]
        flat = [sum(map(operator.mul, p, entry)) for entry in zip(*terms)]
        Gp = [flat[i : i + m] for i in range(0, m * m, m)]  # G p_c(A)
        if _int_det(Gp) != 0:
            a = _normalize_on_fixed_line(QMatrix(Gp), rho)
            b = a.inverse() @ gamma
            if b @ tau != tau @ b:  # guaranteed by the system
                raise ArithmeticError("a^-1 gamma does not commute with tau")
            return PtoqResult("solved", Decomposition(a=a, b=b))
    return PtoqResult("no_solution", None)


def _normalize_on_fixed_line(a: QMatrix, rho: QMatrix) -> QMatrix:
    """Rescale a so that a v = v on rho's fixed line, when that line exists.

    a commutes with rho, so it preserves the +1 eigenspace; when that space
    is one-dimensional the action there is a nonzero scalar.
    """
    m = rho.nrows
    plus = kernel_basis(rho - QMatrix.identity(m))
    if len(plus) != 1:
        return a
    v = plus[0]
    av = a.apply(v)
    i = next(k for k, x in enumerate(v) if x != 0)
    lam = av[i] / v[i]
    if lam == 0 or av != tuple(lam * x for x in v):
        return a
    return a * (1 / lam)


def decomposition_valid(
    dec: Decomposition, gamma: QMatrix, tau: QMatrix, rho: QMatrix
) -> bool:
    return (
        det(dec.a) != 0
        and dec.a @ dec.b == gamma
        and dec.a @ rho == rho @ dec.a
        and dec.b @ tau == tau @ dec.b
    )


# ---------------------------------------------------------------------------
# congruence levels


def _vp(x: int, p: int) -> int:
    x = abs(x)
    n = 0
    while x % p == 0:
        x //= p
        n += 1
    return n


def min_level_v(v: Sequence, p: int) -> int:
    """Least n with 2v nonzero mod p^n, for v made primitive first."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return 1 + min(_vp(2 * x, p) for x in _primitive_ints(v) if x != 0)


# ---------------------------------------------------------------------------
# bounded enumeration


def _det_one_ranges(q: int, bound: int) -> tuple[range, range]:
    """The k with 1 + q k, and with q k, inside [-bound, bound]."""
    return (
        range(-((bound + 1) // q), (bound - 1) // q + 1),
        range(-(bound // q), bound // q + 1),
    )


def det_one_walk_size(m: int, q: int, bound: int) -> int:
    """How many (rows 1..m-1, k_2..k_{m-1}) choices `_det_one_rows` walks.

    Each choice costs one divisibility test and, when it passes, one
    interval of solutions; so this is the descent's cost before its hits.
    """
    diag, off = (len(r) for r in _det_one_ranges(q, bound))
    return diag ** (m - 1) * off ** ((m - 1) ** 2 + m - 2)


def descent_modulus(level: CongruenceLevel, entry_bound: int) -> int:
    """The modulus a descent walks: p^n, capped where the ball stops shrinking.

    Every q > bound + 1 walks the same ball, {I} or nothing, and
    p^(bit_length + 1) is such a q.
    """
    return level.p ** min(level.n, entry_bound.bit_length() + 1)


def _det_one_rows(m: int, q: int, bound: int):
    """Every integer gamma = I mod q with entries in [-bound, bound] and det 1,
    grouped by rows 1..m-1: yields (rest, heads), rest those rows flattened
    row-major and heads the first rows that complete them, as int tuples.

    Needs q >= 2. det is linear in gamma's first row: det = sum_j gamma_0j C_j
    with C the cofactors of rows 1..m-1. So those rows are walked, C is
    computed once per row set, and the first row is solved for. Rows
    1..m-1 are [0 | I] mod q, so C_0 = 1 mod q (never 0) and C_j = 0 mod q
    for j >= 1. Writing gamma_00 = 1 + q k_0 and gamma_0j = q k_j, det = 1
    reads sum_j k_j C_j = (1 - C_0) / q, an exact division. Each walked
    k_2..k_{m-1} then leaves C_0 k_0 + C_1 k_1 = r, which
    `_first_row_heads` solves in the box, with one extended Euclid per row
    set. The walk is `det_one_walk_size` long, one factor of 2B/q + 1
    shorter than walking every entry but one.
    """
    diag_k, off_k = _det_one_ranges(q, bound)
    if not diag_k:  # no diagonal entry fits: nothing to walk
        return
    diag = [1 + q * k for k in diag_k]
    off = [q * k for k in off_k]
    cells = [diag if i == j else off for i in range(1, m) for j in range(m)]
    tails = [
        (ks, tuple(q * k for k in ks))
        for ks in itertools.product(off_k, repeat=m - 2)
    ]

    def systems():
        for rest in itertools.product(*cells):
            C = _first_row_cofactors([rest[i : i + m] for i in range(0, len(rest), m)])
            rhs, later = (1 - C[0]) // q, C[2:]
            yield C[0], C[1], [rhs - sum(map(operator.mul, ks, later)) for ks, _ in tails]

    solved = _first_row_heads(systems(), q, diag_k, off_k)
    for rest in itertools.product(*cells):
        heads = [(*pair, *tail) for _, tail in tails for pair in next(solved)]
        if heads:
            yield rest, heads


def _first_row_heads(systems, q: int, diag_k: range, off_k: range):
    """The first-row solve of the det-1 walk. For each (c0, c1, rs) of
    systems in turn, c0 = 1 mod q and c1 the first two cofactors of a row
    set, and for each r of rs in turn, yields the (1 + q k_0, q k_1) with
    k_0 in diag_k, k_1 in off_k and c0 k_0 + c1 k_1 = r, ascending in k_1,
    as one list (or an empty tuple).

    Extended Euclid on (c0, c1) runs once per system: with g their gcd,
    it inverts c1 / g modulo w = |c0| / g. If g does not divide r there is
    nothing; otherwise the k_1 form one residue class mod w, each with one
    exact k_0, and the box clips them to an interval. When c1 = 0, w = 1:
    k_0 is one exact quotient and k_1 runs over its whole range. One
    generator serves a whole walk, so a row set costs no call.
    """
    k0_lo, k0_hi, k1_lo, k1_hi = diag_k[0], diag_k[-1], off_k[0], off_k[-1]
    for c0, c1, rs in systems:
        g = math.gcd(c0, c1)
        # c0 k_0 + c1 k_1 = r reads w k_0 + u k_1 = e r / g, with w > 0
        e = 1 if c0 > 0 else -1
        w, u = e * c0 // g, e * c1 // g
        inv = pow(u, -1, w)
        for r in rs:
            if r % g:
                yield ()
                continue
            s = e * r // g
            # k_1 = s inv (mod w) makes k_0 = (s - u k_1) / w exact; k_1 is
            # bounded by off_k, and u k_1 by k_0 in diag_k
            lo, hi = k1_lo, k1_hi
            a, b = s - w * k0_hi, s - w * k0_lo
            if u > 0:
                lo, hi = max(lo, -(-a // u)), min(hi, b // u)
            elif u < 0:
                lo, hi = max(lo, -(b // -u)), min(hi, -a // -u)
            elif not a <= 0 <= b:
                yield ()
                continue
            lo += (s * inv - lo) % w
            if lo > hi:
                yield ()
                continue
            yield [(1 + q * ((s - u * k1) // w), q * k1) for k1 in range(lo, hi + 1, w)]


def _walk_point(gamma: tuple[int, ...], m: int) -> tuple[int, ...]:
    """gamma (det 1, row-major) followed by adj(gamma) row-major: the 2m^2
    ints the pull-back of a descent reads.

    adj(gamma) is d (d gamma^-1) from `qkernel._solve_square`: its last
    pivot d is +-det gamma = +-1, so d^2 = 1 and d (d gamma^-1) =
    gamma^-1 = adj(gamma).
    """
    d, cols = _solve_square([gamma[i : i + m] for i in range(0, m * m, m)])
    return gamma + tuple(d * y[i] for i in range(m) for y in cols)


def _walk_points(m: int, q: int, bound: int):
    """The points of `_det_one_rows` as `_walk_point`s.

    At 2 x 2 the loop runs over the second rows (c, d) directly, with no
    cofactor call and no tails: their cofactors are [d, -c], so det 1
    reads d k_0 - c k_1 = (1 - d) / q, one step of `_first_row_heads` per
    row, and each point is the 8-tuple (a, b, c, d, d, -b, -c, a), gamma
    and the closed form adj [[a, b], [c, d]] = [[d, -b], [-c, a]]. Its
    points, and their order, are those of `_det_one_rows(2, q, bound)`.
    Above, the rows and heads of `_det_one_rows` go through `_walk_point`.
    """
    if m == 2:
        diag_k, off_k = _det_one_ranges(q, bound)
        if not diag_k:  # no diagonal entry fits: nothing to walk
            return
        off = [q * k for k in off_k]
        diag = [1 + q * k for k in diag_k]
        systems = ((d, -c, ((1 - d) // q,)) for c, d in itertools.product(off, diag))
        solved = _first_row_heads(systems, q, diag_k, off_k)
        for (c, d), heads in zip(itertools.product(off, diag), solved):
            for a, b in heads:
                yield (a, b, c, d, d, -b, -c, a)
        return
    for rest, heads in _det_one_rows(m, q, bound):
        for head in heads:
            yield _walk_point(head + rest, m)


def _evaluator(X: FlatX, Y: SubspaceY):
    """The per-point step of a descent: a `_walk_point` of gamma -> the hit
    of gamma X with Y, or None.

    It pulls Y back instead of moving X. gamma X and Y meet in
    gamma (X and gamma^{-1} Y), and gamma^{-1} Y has line adj(gamma) v and
    plane gamma^T w (det gamma = 1), from Y's integer v and w as stored.
    Each point costs two integer mat-vecs and the moment form of the
    pulled-back line and plane, s_k = plane . A^k line for A = L tau. The
    form is definite exactly when the crossing is a transverse point, so
    only then does the point run the crossing solve (`symspace._cross`),
    which stays the only source of the point and the sign; a definite form
    without a point raises ArithmeticError.

    At m >= 3 the moments are 2m - 1 integer dot products of the outer
    product of plane and line against the powers of A
    (`symspace._moment_powers`, built once), tested by one m x m
    fraction-free pass (`symspace._moment_kind`); a definite form builds
    the Krylov rows of its line for the solve. At m = 2 everything is
    plain ints: line, A line, plane and A^T plane give s_0 = plane . line,
    s_1 = plane . A line and s_2 = A^T plane . A line, and the form is
    definite exactly when det H = s_0 s_2 - s_1^2 > 0. Proof: H is
    definite exactly when sign(s_0) H is positive definite, that is (by
    Sylvester's test, `_moment_kind`'s verdict) when s_0 != 0 and
    det(sign(s_0) H) = det H > 0; and det H > 0 already forces
    s_0 s_2 > s_1^2 >= 0, so s_0 != 0. So s_0 s_2 <= s_1^2 is a miss, with
    no pass and no lists, and a definite form hands [line, A line], its
    Krylov rows, to the solve.

    Matrices are built only for a hit. The reported point is
    gamma Z' gamma^T, formed in integers, with Z' the pulled-back point,
    primitive because gamma is unimodular.
    Z -> gamma Z gamma^T has det(gamma)^(m+1) = 1 on Sym and carries X's
    frame (Z', tau Z', ...) to gamma X's at the point, so the sign is taken
    at Z' on gamma^{-1} Y with Y's orientation bit carried back unchanged:
    with det gamma = 1 the pulled-back frame relates to
    (adj(gamma) v, gamma^T w) exactly as Y's frame does to (v, w). A bit
    recomputed from the pulled-back line and plane, or a plane made
    primitive (which may negate it), flips signs at odd m.
    """
    A = _int_matrix(X.tau)[1]
    v, w = Y.line, Y.plane
    m = X.m
    mm = m * m

    def hit(point: tuple[int, ...], J: list[list[int]], plane) -> SignedHit:
        """The hit at a point whose form is definite, J the Krylov rows of
        its line."""
        _, Z, s = _cross(A, J, plane)
        if Z is None:
            raise ArithmeticError("definite moment form, but no crossing point")
        gamma = [point[i : i + m] for i in range(0, mm, m)]
        gZ = [[sum(map(operator.mul, r, z)) for z in Z] for r in gamma]  # Z = Z^T
        moved = [[sum(map(operator.mul, r, g)) for g in gamma] for r in gZ]
        return SignedHit(
            QMatrix._from_ints(1, gamma),
            SPDPoint(QMatrix._from_ints(1, moved)),
            Y.orientation * s,
        )

    if m == 2:
        (a00, a01), (a10, a11) = A
        v0, v1 = v
        w0, w1 = w

        def evaluate(point: tuple[int, ...]) -> Optional[SignedHit]:
            a, b, c, d = point[:4]
            l0, l1 = d * v0 - b * v1, a * v1 - c * v0  # adj(gamma) v
            p0, p1 = a * w0 + c * w1, b * w0 + d * w1  # gamma^T w
            m0, m1 = a00 * l0 + a01 * l1, a10 * l0 + a11 * l1  # A line
            s0 = p0 * l0 + p1 * l1
            s1 = p0 * m0 + p1 * m1
            s2 = (a00 * p0 + a10 * p1) * m0 + (a01 * p0 + a11 * p1) * m1  # A^T plane . A line
            if s0 * s2 <= s1 * s1:  # det H <= 0: not definite
                return None
            return hit(point, [[l0, l1], [m0, m1]], (p0, p1))

        return evaluate

    powers = _moment_powers(A)
    adj_rows = range(mm, 2 * mm, m)

    def evaluate(point: tuple[int, ...]) -> Optional[SignedHit]:
        line = [sum(map(operator.mul, point[i : i + m], v)) for i in adj_rows]
        plane = [sum(map(operator.mul, point[j:mm:m], w)) for j in range(m)]
        outer = [a * b for a in plane for b in line]
        moments = [sum(map(operator.mul, P, outer)) for P in powers]
        if _moment_kind(moments) is not IntersectionKind.TRANSVERSE_POINT:
            return None
        return hit(point, _krylov(A, line, m), plane)

    return evaluate


def enumerate_same_sign(
    tau: QMatrix,
    rho: QMatrix,
    level: CongruenceLevel,
    entry_bound: int,
) -> list[SignedHit]:
    """Every det-1 integer gamma = I mod p^n within the entry bound whose
    transported flat meets the subspace transversely, with its sign.

    Results are sorted by (max absolute entry, entries lex) so reports are
    reproducible. The det-1 walk streams: no point outlives its evaluation
    unless it is a hit.
    """
    if entry_bound < 0:
        raise ValueError("entry bound must be >= 0")
    if not scalar_commutant_check(tau, rho):
        raise CommutantError("joint commutant of (tau, rho) is not scalar")
    X = flat_from_tau(tau)
    Y = subspace_from_rho(rho)
    q = descent_modulus(level, entry_bound)
    evaluate = _evaluator(X, Y)
    mm = X.m * X.m
    hits = []
    for point in _walk_points(X.m, q, entry_bound):
        h = evaluate(point)
        if h is not None:
            gamma = point[:mm]
            hits.append(((max(map(abs, gamma)), gamma), h))
    hits.sort(key=operator.itemgetter(0))
    return [h for _, h in hits]
