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
from Y's integer line and plane as stored, by `symspace`'s pair step
(`symspace._pair_step`): the line and plane, which need no gamma, go to
the crossing point and sign or to None, with the moment test `intersect`
runs first and the solve it uses.
The walk (`_det_one_rows`) yields the det-1 gamma a row set at a time,
rows 1..m-1 with every first row that completes them. For a fixed row set
the pulled-back line and plane are affine in the first row, with
coefficients from first-row cofactors (`_pull_back`), so no point forms
adj(gamma); only a hit forms gamma and its moved point (`_signed_hit`).
At m = 2 every step is a closed form, with the moment test
det H = s_0 s_2 - s_1^2 > 0, and a point costs a few dozen integer
products and one comparison.
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
    det,
    kernel_basis,
)
from .symspace import SPDPoint, _pair_step, flat_from_tau, subspace_from_rho


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


def min_level_v(v: Sequence, p: int) -> int:
    """Least n with 2v nonzero mod p^n, for v made primitive first: 1, or
    2 at p = 2.

    A primitive v has an entry x prime to p. At an odd p, 2x is a unit
    mod p, so n = 1; at p = 2, 2v is 0 mod 2 but 2x is not 0 mod 4. So
    the answer depends on p alone, once p is prime and v is not zero.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not any(v):
        raise ValueError("zero vector has no primitive representative")
    return 2 if p == 2 else 1


# ---------------------------------------------------------------------------
# bounded enumeration


def _det_one_ranges(q: int, bound: int) -> tuple[range, range]:
    """The k with 1 + q k, and with q k, inside [-bound, bound]."""
    return (
        range(-((bound + 1) // q), (bound - 1) // q + 1),
        range(-(bound // q), bound // q + 1),
    )


def det_one_walk_size(m: int, q: int, bound: int) -> int:
    """How many (row set, k_2..k_{m-1}) choices `_det_one_rows` walks, a
    row set being gamma's rows 1..m-1.

    Each choice costs one divisibility test and, when it passes, one
    interval of heads; so this is the descent's cost before its hits.
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
    a row set at a time: yields (rest, heads) for every row set with a
    head, rest the rows 1..m-1 flattened row-major and heads the first rows
    that complete them, as int tuples. This is the descent's one walk.

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

    At 2 x 2 the loop runs over the second rows (c, d) directly, with no
    cofactor call and no tails: their cofactors are [d, -c], so det 1
    reads d k_0 - c k_1 = (1 - d) / q, one step of `_first_row_heads` per
    row.
    """
    diag_k, off_k = _det_one_ranges(q, bound)
    if not diag_k:  # no diagonal entry fits: nothing to walk
        return
    diag = [1 + q * k for k in diag_k]
    off = [q * k for k in off_k]
    if m == 2:
        systems = ((d, -c, ((1 - d) // q,)) for c, d in itertools.product(off, diag))
        solved = _first_row_heads(systems, q, diag_k, off_k)
        for rest, heads in zip(itertools.product(off, diag), solved):
            if heads:
                yield rest, heads
        return
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


def _pull_back(m: int, v: Sequence[int], w: Sequence[int], row_sets):
    """Y's line v and plane w pulled back to every point of a walk: for
    each (rest, heads) of row_sets, as `_det_one_rows` yields them, yields
    (head, rest, adj(gamma) v, gamma^T w) per head, gamma = head + rest.

    For fixed rest rows r_1..r_(m-1) both are affine in the head h. The
    plane is gamma^T w = w_0 h + sum_i w_i r_i. Entry i of the line is
    det(gamma with column i replaced by v), by Cramer's rule with
    det gamma = 1. Along row 0 that determinant is h . C^(i), with h_i
    read as v_0, for C^(i) the `_first_row_cofactors` of the rest rows
    with column i replaced by v_1..v_(m-1). So a row set computes m
    cofactor vectors, and a head costs m^2 + m integer products. At 2 x 2
    that is (d v_0 - b v_1, a v_1 - c v_0) and (a w_0 + c w_1, b w_0 + d w_1).
    """
    if m == 2:
        v0, v1 = v
        w0, w1 = w
        for rest, heads in row_sets:
            c, d = rest
            dv, cv, cw, dw = d * v0, c * v0, c * w1, d * w1
            for head in heads:
                a, b = head
                yield head, rest, (dv - b * v1, a * v1 - cv), (a * w0 + cw, b * w0 + dw)
        return
    w0, v_rest, w_rest = w[0], tuple(v[1:]), w[1:]
    for rest, heads in row_sets:
        rows = [rest[i : i + m] for i in range(0, len(rest), m)]
        line = []  # (coefficients of h, constant) per entry
        for i in range(m):
            C = _first_row_cofactors([r[:i] + (x,) + r[i + 1 :] for r, x in zip(rows, v_rest)])
            line.append((C[:i] + [0] + C[i + 1 :], v[0] * C[i]))
        plane = [sum(map(operator.mul, w_rest, col)) for col in zip(*rows)]
        for h in heads:
            pulled = [sum(map(operator.mul, C, h)) + k for C, k in line]
            yield h, rest, pulled, [w0 * x + p for x, p in zip(h, plane)]


def _signed_hit(gamma: tuple[int, ...], Z: list[list[int]], sign: int) -> SignedHit:
    """The hit of gamma (det 1, row-major) whose pulled-back pair the pair
    step found crossing at Z' = Z. gamma X meets Y in gamma (X and
    gamma^{-1} Y), so the point is gamma Z' gamma^T, formed in integers and
    primitive as gamma is unimodular; Z -> gamma Z gamma^T has
    det(gamma)^(m+1) = 1 on Sym and carries X's frame at Z' to gamma X's,
    so the sign is the step's."""
    m = len(Z)
    rows = [gamma[i : i + m] for i in range(0, m * m, m)]
    gZ = [[sum(map(operator.mul, r, z)) for z in Z] for r in rows]  # Z = Z^T
    moved = [[sum(map(operator.mul, r, g)) for g in rows] for r in gZ]
    return SignedHit(QMatrix._from_ints(1, rows), SPDPoint(QMatrix._from_ints(1, moved)), sign)


def enumerate_same_sign(
    tau: QMatrix,
    rho: QMatrix,
    level: CongruenceLevel,
    entry_bound: int,
) -> list[SignedHit]:
    """Every det-1 integer gamma = I mod p^n within the entry bound whose
    transported flat meets the subspace transversely, with its sign.

    Results are sorted by (max absolute entry, entries lex) so reports are
    reproducible. The det-1 walk streams: no row set outlives its
    evaluation, and no gamma is formed unless it is a hit.
    """
    if entry_bound < 0:
        raise ValueError("entry bound must be >= 0")
    if not scalar_commutant_check(tau, rho):
        raise CommutantError("joint commutant of (tau, rho) is not scalar")
    X = flat_from_tau(tau)
    Y = subspace_from_rho(rho)
    q = descent_modulus(level, entry_bound)
    step = _pair_step(X, Y)
    walk = _det_one_rows(X.m, q, entry_bound)
    hits = []
    for head, rest, line, plane in _pull_back(X.m, Y.line, Y.plane, walk):
        found = step(line, plane)
        if found is not None:
            gamma = head + rest
            hits.append(((max(map(abs, gamma)), gamma), _signed_hit(gamma, *found)))
    hits.sort(key=operator.itemgetter(0))
    return [h for _, h in hits]
