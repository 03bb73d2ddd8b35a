"""Synthesis of certified intersection patterns and rationalization.

The pattern family lives at explicit rational coordinates: every flat's
frame shares the points e_1, ..., e_{m-2} and pinches a thin pair
e_{m-1} -+ eps_i * e_m around e_{m-1}, with eps_i = thinness * i. Every
line-plane pair uses the same line (1, ..., 1, 0) and a plane whose
(m-1)-st coefficient s_j sits strictly between eps_j and eps_{j+1}. Then
pair j links frame i exactly when s_j > eps_i, i.e. exactly when i <= j,
which is the upper-triangular pattern. Certification never trusts this
arithmetic: every cell is decided by both the projective criterion and the
symmetric-space oracle and the two must agree.

Rationalization snaps float targets to bounded-denominator rationals. A
library of small integer symmetric base matrices with certified irreducible
characteristic polynomials is scanned; the base eigenframe (ascending
eigenvalue order) is transported onto the target frame by an exactly
rational conjugator, index-pairing the columns so that orientation data
survive the snap. Floats enter nowhere else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from .projlink import (
    Arrangement,
    GeneralPositionError,
    LinkDecision,
    LinePlanePair,
    link_decision,
)
from .qkernel import (
    IrredCertificate,
    IrredVerdict,
    QMatrix,
    QPoly,
    _conjugate,
    _int_det,
    _int_matrix,
    _scaled_ints,
    _times_inverse,
    char_poly,
    det,
    irreducible_over_Q,
    rank,
    rat,
    sturm_distinct_real_roots,
)
from .symspace import (
    FlatX,
    IntersectionKind,
    SubspaceY,
    flat_from_tau,
    intersect,
    subspace_from_pair,
)


class SynthesisBudgetError(RuntimeError):
    """A retry or search budget ran out before certification succeeded."""


class DegenerateFrameError(ValueError):
    """A rationalization target frame is degenerate: no bound can fix it."""


RETRY_BUDGET = 32
DENOM_BOUND = 64  # first denominator bound of a rationalization


@dataclass(frozen=True)
class CellWitness:
    """Per-cell certificate: criterion verdict, oracle verdict, point sign."""

    link: Optional[str]
    oracle: str
    sign: Optional[int]


@dataclass(frozen=True)
class RationalizedTau:
    tau: QMatrix
    base: QMatrix
    conjugator: QMatrix
    irred: IrredCertificate
    sturm_count: int
    frame_distance: Fraction
    unit_base_det: bool


@dataclass(frozen=True)
class PatternFlat:
    flat: FlatX
    arrangement: Optional[Arrangement] = None
    rationalized: Optional[RationalizedTau] = None


@dataclass(frozen=True)
class PatternSubspace:
    subspace: SubspaceY
    pair: Optional[LinePlanePair] = None


@dataclass(frozen=True)
class Pattern:
    N: int
    m: int
    flats: tuple[PatternFlat, ...]
    subspaces: tuple[PatternSubspace, ...]
    matrix: tuple[tuple[int, ...], ...]
    certificate: tuple[tuple[CellWitness, ...], ...]

    def is_upper_triangular_nonzero_diagonal(self) -> bool:
        return all(
            (self.matrix[i][j] != 0) == (i <= j)
            for i in range(self.N)
            for j in range(self.N)
        )


def pattern_rank(p: Union[Pattern, Sequence[Sequence[int]]]) -> int:
    rows = p.matrix if isinstance(p, Pattern) else p
    return rank(QMatrix(rows))


def tau_for_arrangement(arr: Arrangement) -> QMatrix:
    """A rational matrix whose eigenlines are the frame points, with
    eigenvalue k+1 on column k (ascending along the frame order).

    This is F D F^-1 for the frame matrix F and D = diag(1, ..., m). As D is
    diagonal, scaling a column of F leaves F D F^-1 unchanged, so each column
    is scaled to integers, giving G; G D is G with column k times k + 1, and
    tau = (G D) G^-1 (`_times_inverse`).
    """
    G = list(zip(*(_scaled_ints(c) for c in arr.frame_matrix().columns())))
    GD = [[(k + 1) * x for k, x in enumerate(r)] for r in G]
    return _times_inverse(GD, G, 1)


def _certify_cell(
    flat: PatternFlat, sub: PatternSubspace
) -> Optional[CellWitness]:
    """Decide one cell by both routes; None when they cannot be certified."""
    res = intersect(flat.flat, sub.subspace)
    if res.kind is IntersectionKind.DEGENERATE:
        return None
    if flat.arrangement is not None and sub.pair is not None:
        try:
            decision = link_decision(flat.arrangement, sub.pair)
        except GeneralPositionError:
            return None
        linked = decision is LinkDecision.LINKED
        if linked != (res.kind is IntersectionKind.TRANSVERSE_POINT):
            return None  # routes disagree: treat as uncertified, never pick one
        link_str = decision.value
    else:
        link_str = None
    return CellWitness(link=link_str, oracle=res.kind.value, sign=res.sign)


def _certify_pattern(
    flats: Sequence[PatternFlat], subspaces: Sequence[PatternSubspace]
) -> Optional[tuple[tuple, tuple]]:
    N = len(flats)
    matrix, cert = [], []
    for i in range(N):
        mrow, crow = [], []
        for j in range(N):
            w = _certify_cell(flats[i], subspaces[j])
            if w is None:
                return None
            mrow.append(w.sign if w.sign is not None else 0)
            crow.append(w)
        matrix.append(tuple(mrow))
        cert.append(tuple(crow))
    return tuple(matrix), tuple(cert)


def _pattern_coordinates(N: int, m: int, thinness: Fraction, rotation: Fraction):
    eps = [thinness * i for i in range(1, N + 2)]
    flats = []
    for i in range(N):
        pts = [[1 if r == k else 0 for r in range(m)] for k in range(m - 2)]
        a = [0] * m
        a[m - 2], a[m - 1] = 1, -eps[i]
        b = [0] * m
        b[m - 2], b[m - 1] = 1, eps[i]
        arr = Arrangement(pts + [a, b])
        flats.append(
            PatternFlat(flat=flat_from_tau(tau_for_arrangement(arr)), arrangement=arr)
        )
    line = [1] * (m - 1) + [0]
    subspaces = []
    for j in range(N):
        s_j = eps[j] + rotation * (eps[j + 1] - eps[j])
        plane = [1] * (m - 2) + [s_j, 1]
        pair = LinePlanePair(line, plane)
        subspaces.append(
            PatternSubspace(
                subspace=subspace_from_pair(line, plane),
                pair=pair,
            )
        )
    return flats, subspaces


def synthesize_pattern(
    N: int,
    m: int,
    thinness: Union[Fraction, int, str] = Fraction(1, 4),
    rotation: Union[Fraction, int, str] = Fraction(1, 2),
    retry_budget: int = RETRY_BUDGET,
) -> Pattern:
    """Certified pattern of N flats and N subspaces meeting iff i <= j.

    thinness controls the pinch of the frame pairs, rotation the placement
    of each plane inside its target gap. If certification fails, both are
    halved and the construction retried, up to the retry budget.
    """
    if N < 1 or m < 2:
        raise ValueError("need N >= 1 and m >= 2")
    thinness, rotation = rat(thinness), rat(rotation)
    if thinness <= 0 or rotation <= 0:
        raise ValueError("thinness and rotation must be positive")
    for _ in range(retry_budget):
        flats, subspaces = _pattern_coordinates(N, m, thinness, rotation)
        certified = _certify_pattern(flats, subspaces)
        if certified is not None:
            matrix, cert = certified
            p = Pattern(
                N=N,
                m=m,
                flats=tuple(flats),
                subspaces=tuple(subspaces),
                matrix=matrix,
                certificate=cert,
            )
            if p.is_upper_triangular_nonzero_diagonal() and pattern_rank(p) == N:
                return p
        thinness /= 2
        rotation /= 2
    raise SynthesisBudgetError(
        f"no certified pattern for N={N}, m={m} within {retry_budget} retries"
    )


def certify_pattern_stability(p: Pattern, snapped: Pattern) -> bool:
    """Cellwise equality of the two sign matrices (same shape required)."""
    if p.N != snapped.N or p.m != snapped.m:
        raise ValueError("patterns have different shapes")
    return p.matrix == snapped.matrix


# ---------------------------------------------------------------------------
# base-matrix library for rationalization


@dataclass(frozen=True)
class _BaseEntry:
    tau0: QMatrix
    det: int  # of tau0
    poly: QPoly  # characteristic polynomial of tau0
    cert: IrredCertificate
    frame: tuple  # unit eigenvectors, ascending eigenvalues (floats)


_BASE_CACHE: dict[int, list[_BaseEntry]] = {}
_BASE_BUDGET = 100_000  # candidates scanned per m before the library stops
_BASE_SCAN = 40  # base matrices tried per rationalized tau
_MAX_ROUNDS = 6  # denominator-bound rounds of rationalize_pattern
_TIE = 1e-9  # relative margin by which a later base must beat the best


def _symmetric_int_rows(m: int):
    """Integer symmetric matrices as row lists, ordered by max entry size
    then lex. The stream is endless; its callers cap it."""
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    for B in itertools.count(1):
        for upper in itertools.product(range(-B, B + 1), repeat=len(pairs)):
            if max(abs(x) for x in upper) != B:
                continue
            rows = [[0] * m for _ in range(m)]
            for (i, j), x in zip(pairs, upper):
                rows[i][j] = x
                rows[j][i] = x
            yield rows


def _base_stream(m: int) -> list[_BaseEntry]:
    """The first `_BASE_SCAN` certified-irreducible base matrices for size m
    among the first `_BASE_BUDGET` candidates, computed once per m. When
    the budget runs out first the library is shorter, possibly empty.

    A base is nonsingular, has an irreducible characteristic polynomial and
    has m real roots. The checks run cheapest first, and accept exactly what
    the conjunction in any order accepts:
    1. the integer det must be nonzero. A singular candidate has the root 0,
       so irreducible_over_Q would call it Reducible for every m >= 2;
    2. char_poly, then irreducible_over_Q must certify IRREDUCIBLE;
    3. Sturm's count of distinct real roots must be m. It is: a real
       symmetric matrix has only real eigenvalues, and an irreducible
       polynomial is squarefree. So any other count is an arithmetic fault
       and raises ArithmeticError.
    """
    if m in _BASE_CACHE:
        return _BASE_CACHE[m]
    entries = []
    for rows in itertools.islice(_symmetric_int_rows(m), _BASE_BUDGET):
        d = _int_det(rows)
        if d == 0:
            continue
        tau0 = QMatrix(rows)
        p = char_poly(tau0)
        cert = irreducible_over_Q(p)
        if cert.verdict is not IrredVerdict.IRREDUCIBLE:
            continue
        count = sturm_distinct_real_roots(p)
        if count != m:
            raise ArithmeticError(
                f"symmetric base with irreducible polynomial has Sturm count "
                f"{count}, m={m}"
            )
        frame = tuple(map(tuple, _eigh(rows)[1]))
        entries.append(_BaseEntry(tau0=tau0, det=d, poly=p, cert=cert, frame=frame))
        if len(entries) == _BASE_SCAN:
            break
    _BASE_CACHE[m] = entries
    return entries


def _eigh(a: Sequence[Sequence]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues of a symmetric matrix in ascending order, and unit
    eigenvectors in the same order, by the cyclic Jacobi method (Golub &
    Van Loan, Matrix Computations, 8.5): sweeps of plane rotations, each
    zeroing one off-diagonal entry, until the off-diagonal part is below
    rounding."""
    n = len(a)
    a = [[float(x) for x in row] for row in a]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    total = sum(x * x for row in a for x in row)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(50):
        if sum(a[p][q] ** 2 for p, q in pairs) <= 1e-32 * total:
            break
        for p, q in pairs:
            if a[p][q] == 0.0:
                continue
            theta = (a[q][q] - a[p][p]) / (2 * a[p][q])
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1 / math.hypot(t, 1.0)
            s = t * c
            for row in itertools.chain(a, v):  # columns p, q of a and v
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
            a[p], a[q] = (
                [c * x - s * y for x, y in zip(a[p], a[q])],
                [s * x + c * y for x, y in zip(a[p], a[q])],
            )
    order = sorted(range(n), key=lambda k: a[k][k])
    return [a[k][k] for k in order], [[row[k] for row in v] for k in order]


def _snap_ratio(x: float, bound: int) -> tuple[int, int]:
    """The numerator and denominator of Fraction(x).limit_denominator(bound),
    in ints: walk the continued-fraction convergents of x's exact ratio n/D
    and return the nearer of the last convergent p1/q1 with q1 <= bound and
    the best semiconvergent, the convergent on a tie. The semiconvergent is
    1/(q1 (q0 + k q1)) from p1/q1, and x is d/(q1 D) from it, hence the test.
    """
    n, D = x.as_integer_ratio()
    if bound < 1:
        raise ValueError("max_denominator should be at least 1")
    if D <= bound:
        return n, D
    p0, q0, p1, q1 = 0, 1, 1, 0
    d = D
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    if 2 * d * (q0 + k * q1) <= D:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _snap(x, bound: int) -> Fraction:
    if isinstance(x, Fraction):
        return x.limit_denominator(bound)
    return Fraction(*_snap_ratio(float(x), bound))


def _column_sin_distance(A: Sequence[Sequence], B: Sequence[Sequence]) -> float:
    """Max over paired vectors of the sine of the angle between their lines.

    Computed from the projection residual, not 1 - cos^2, so nearly
    parallel vectors report ~1e-16 rather than ~1e-8.
    """
    worst = 0.0
    for u, v in zip(A, B):
        nu, nv = math.hypot(*u), math.hypot(*v)
        if nu == 0.0 or nv == 0.0:
            return 1.0
        c = sum(map(mul, v, u)) / (nv * nv)
        r = math.hypot(*(x - y * c for x, y in zip(u, v)))
        worst = max(worst, min(1.0, r / nu))
    return worst


def rationalize_tau(
    target_frame: Sequence[Sequence],
    denom_bound: int = DENOM_BOUND,
) -> RationalizedTau:
    """Rational tau with certified irreducible characteristic polynomial
    whose eigenframe approximates the target frame.

    target_frame is a list of m vectors (the desired eigenlines, in order;
    they are index-paired with the base eigenframe's ascending-eigenvalue
    columns, which is what keeps orientation data stable). The conjugator
    is snapped to denominators <= denom_bound, so tau = g tau0 g^{-1} holds
    exactly while the frame distance is a float-measured, rationally
    rounded upper bound. The scan snaps in ints; only a base that becomes
    the best gets a Fraction conjugator. Raises DegenerateFrameError (a
    ValueError) when the target is degenerate, and ValueError when every
    snapped conjugator is singular at this bound.
    """
    m = len(target_frame)
    T = [[float(x) for x in v] for v in target_frame]
    scale = max(1.0, max(abs(x) for v in T for x in v))
    if abs(det(QMatrix([[Fraction(x) for x in v] for v in T]))) < 1e-9 * scale**m:
        raise DegenerateFrameError("target frame is degenerate")

    entries = _base_stream(m)
    if not entries:
        raise SynthesisBudgetError(
            f"no integer symmetric base with certified irreducible "
            f"characteristic polynomial found for m={m} among the first "
            f"{_BASE_BUDGET} candidates"
        )
    T_rows = list(zip(*T))  # the rows of the matrix with columns T
    best = None
    for entry in entries:
        # align the eigenvectors' arbitrary signs with the targets
        F0 = [
            f if sum(map(mul, t, f)) >= 0 else [-x for x in f]
            for t, f in zip(T, entry.frame)
        ]
        # g = T F0^T, with T and F0 holding the vectors as columns
        F0_rows = list(zip(*F0))
        g_float = [[sum(map(mul, t, f)) for f in F0_rows] for t in T_rows]
        top = max(abs(x) for row in g_float for x in row)
        ratios = [[_snap_ratio(x / top, denom_bound) for x in row] for row in g_float]
        # int true division is correctly rounded: float(Fraction(p, q))
        g_snapped = [[p / q for p, q in row] for row in ratios]
        achieved = [[sum(map(mul, row, f)) for row in g_snapped] for f in F0]
        dist = _column_sin_distance(achieved, T)
        # a later base must beat the best by more than rounding: among bases
        # tied in exact arithmetic the first in scan order wins
        if best is not None and dist >= best[0] * (1 - _TIE):
            continue
        g = QMatrix([[Fraction(p, q) for p, q in row] for row in ratios])
        if det(g) == 0:
            continue
        best = (dist, entry, g)
        if dist < 1e-12:
            break
    if best is None:
        # a failed round: rationalize_pattern retries with a larger bound
        raise ValueError(
            f"no invertible snapped conjugator at denominator bound {denom_bound}"
        )
    dist, entry, g = best
    tau = _conjugate(_int_matrix(g)[1], *_int_matrix(entry.tau0))
    p = char_poly(tau)
    count = sturm_distinct_real_roots(p)
    # tau is similar to the base, so both facts the certificate states about
    # the base (irreducible, m real roots) must hold for tau's polynomial
    if p != entry.poly or count != m:
        raise ArithmeticError(
            f"rationalized tau is not similar to its base (Sturm count {count}, m={m})"
        )
    return RationalizedTau(
        tau=tau,
        base=entry.tau0,
        conjugator=g,
        irred=entry.cert,
        sturm_count=count,
        frame_distance=Fraction(math.ceil(dist * 10**9), 10**9),
        unit_base_det=entry.det == 1,
    )


def rationalize_pair(
    target_line: Sequence,
    target_plane: Sequence,
    denom_bound: int = DENOM_BOUND,
) -> tuple[LinePlanePair, SubspaceY]:
    """Snap a (line, plane functional) target to bounded denominators and
    return the pair with its subspace."""
    line = [_snap(x, denom_bound) for x in target_line]
    plane = [_snap(x, denom_bound) for x in target_plane]
    if all(x == 0 for x in line) or all(x == 0 for x in plane):
        raise ValueError("snapped line or plane collapsed to zero")
    if sum(a * b for a, b in zip(line, plane)) == 0:
        raise GeneralPositionError("snapped line lies inside the snapped plane")
    pair = LinePlanePair(line, plane)
    return pair, subspace_from_pair(pair.line.rep, pair.plane.functional)


def rationalize_pattern(
    p: Pattern,
    denom_bound: int = DENOM_BOUND,
    frame_noise: Optional[Sequence[Sequence[Sequence[float]]]] = None,
    pair_noise: Optional[Sequence[tuple]] = None,
) -> tuple[Pattern, int]:
    """Snap a certified pattern to rationalized flats and pairs, growing
    denom_bound by 4x per round until the sign matrix certifies identically.

    frame_noise, when given, holds one float frame (m vectors) per flat to
    use as the snap target instead of the pattern's own frame; pair_noise
    likewise holds (line, plane) float targets per subspace. Snapped cells
    are certified by the oracle alone: the snapped tau has an irreducible
    characteristic polynomial, so there is no rational eigenframe to hand
    to the projective criterion. Returns the snapped pattern and the bound
    that certified. A degenerate target frame raises DegenerateFrameError
    in the first round; any other failed round is retried.
    """
    if denom_bound < 1:
        raise ValueError("denom_bound must be >= 1")
    targets = [
        frame_noise[i] if frame_noise is not None
        else [list(map(float, c)) for c in pf.arrangement.frame_matrix().columns()]
        for i, pf in enumerate(p.flats)
    ]
    pair_targets = [
        pair_noise[j] if pair_noise is not None
        else (list(map(float, ps.subspace.line)), list(map(float, ps.subspace.plane)))
        for j, ps in enumerate(p.subspaces)
    ]

    bound = denom_bound
    for _ in range(_MAX_ROUNDS):
        try:
            flats = []
            for tgt in targets:
                rt = rationalize_tau(tgt, denom_bound=bound)
                # not flat_from_tau: rationalize_tau has certified tau's
                # polynomial IRREDUCIBLE of degree m >= 2 with a Sturm count
                # of m, so tau is invertible with m distinct real eigenvalues
                flats.append(PatternFlat(flat=FlatX(rt.tau), rationalized=rt))
            subspaces = []
            for line_t, plane_t in pair_targets:
                pair, Y = rationalize_pair(line_t, plane_t, denom_bound=bound)
                subspaces.append(PatternSubspace(subspace=Y, pair=pair))
            certified = _certify_pattern(flats, subspaces)
        except DegenerateFrameError:
            raise  # no bound fixes the target: fail now, not after every round
        except (GeneralPositionError, ValueError):
            certified = None
        if certified is not None:
            matrix, cert = certified
            snapped = Pattern(
                N=p.N,
                m=p.m,
                flats=tuple(flats),
                subspaces=tuple(subspaces),
                matrix=matrix,
                certificate=cert,
            )
            if certify_pattern_stability(p, snapped):
                return snapped, bound
        bound *= 4
    raise SynthesisBudgetError(
        f"pattern did not restabilize within {_MAX_ROUNDS} rounds "
        f"(last denominator bound {bound // 4})"
    )
