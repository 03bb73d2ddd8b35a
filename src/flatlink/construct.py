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
flat closes up into a compact torus in the quotient when its tau has a
characteristic polynomial irreducible over Q with m real roots. So each
target frame is snapped column by column, its exact tau (eigenvalue k + 1
on column k, as for an arrangement) is perturbed by E / k for a fixed
integer matrix E with irreducible characteristic polynomial and the round's
denominator bound k, and the perturbed tau is kept only when the Sturm
count m and irreducibility are certified. The
frame order fixes the eigenvalue order, so orientation data survive the
snap. Floats enter nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    irred: IrredCertificate
    sturm_count: int
    frame_distance: Fraction


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


def _frame_tau(columns: Sequence[Sequence]) -> QMatrix:
    """F D F^-1 for the matrix F with these columns (ints or Fractions) and
    D = diag(1, ..., m): eigenvalue k + 1 on column k. As D is diagonal,
    scaling a column of F leaves F D F^-1 unchanged, so each column is
    scaled to integers, giving G; G D is G with column k times k + 1, and
    tau = (G D) G^-1 (`_times_inverse`). A singular F raises ValueError.
    """
    G = list(zip(*map(_scaled_ints, columns)))
    GD = [[(k + 1) * x for k, x in enumerate(r)] for r in G]
    return _times_inverse(GD, G, 1)


def tau_for_arrangement(arr: Arrangement) -> QMatrix:
    """A rational matrix whose eigenlines are the frame points, with
    eigenvalue k+1 on point k (ascending along the frame order):
    `_frame_tau` of the points' primitive integer representatives."""
    return _frame_tau([p.rep for p in arr.points])


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
# rationalization by exact perturbation


_MAX_ROUNDS = 6  # denominator-bound rounds of rationalize_pattern


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


def _perturbation(m: int) -> list[list[int]]:
    """The fixed integer E of `rationalize_tau`: the companion matrix of
    x^m - 2, which sends e_j to e_(j+1) and e_(m-1) to 2 e_0.

    x^m - 2 is irreducible (Eisenstein at 2), and that makes the polynomial
    det(x - tau_target - t E) irreducible over Q(t) for every tau_target:
    it is t^m det(y - E - s tau_target) with y = x / t and s = 1 / t, monic
    in y over Q[s], so a factorization over Q(s) would lie in Q[s][y]
    (Gauss's lemma) and give one of x^m - 2 at s = 0. By Hilbert
    irreducibility a frame's tau is then reducible only for t = 1/k in a
    thin set, not at every k as with an E that has a rational invariant
    line: the symmetric tridiagonal E with diagonal 1, 2, 3 and off-diagonal
    1 sends (1, 1, -1) to twice itself, so a snapped frame with that column
    j has the rational eigenvalue j + 1 + 2/k at every k."""
    return [
        [2 if (i, j) == (0, m - 1) else int(i == j + 1) for j in range(m)]
        for i in range(m)
    ]


def rationalize_tau(
    target_frame: Sequence[Sequence],
    denom_bound: int = DENOM_BOUND,
) -> RationalizedTau:
    """Rational tau near the target frame whose characteristic polynomial is
    certified irreducible over Q with m real roots, so that its flat closes
    up into a compact torus.

    target_frame is a list of m vectors, the desired eigenlines in order.
    Each is divided by its largest entry and snapped to denominators
    <= denom_bound; tau_target = `_frame_tau` of the snapped columns has
    eigenvalue k + 1 on column k, and tau = tau_target + E / denom_bound,
    with E the integer `_perturbation(m)`. frame_distance is the largest
    entry of E / denom_bound, 2 / denom_bound exactly. Raises
    DegenerateFrameError (a ValueError) when the target is degenerate, and
    ValueError, a failed round of `rationalize_pattern`, when the snapped
    frame is singular or when tau's polynomial does not have m Sturm roots
    and an IRREDUCIBLE certificate.
    """
    m = len(target_frame)
    T = [[float(x) for x in v] for v in target_frame]
    scale = max(1.0, max(abs(x) for v in T for x in v))
    if abs(det(QMatrix([[Fraction(x) for x in v] for v in T]))) < 1e-9 * scale**m:
        raise DegenerateFrameError("target frame is degenerate")
    columns = []
    for v in T:
        top = max(map(abs, v))
        columns.append([_snap(x / top, denom_bound) for x in v])
    tau = _frame_tau(columns) + Fraction(1, denom_bound) * QMatrix(_perturbation(m))
    p = char_poly(tau)
    # Sturm first: a wrong count fails the round without the irreducibility
    # test, whose rational-root scan is slow on a reducible polynomial
    count = sturm_distinct_real_roots(p)
    if count != m:
        raise ValueError(
            f"perturbed tau has {count} real roots, m={m}, "
            f"at denominator bound {denom_bound}"
        )
    irred = irreducible_over_Q(p)
    if irred.verdict is not IrredVerdict.IRREDUCIBLE:
        raise ValueError(
            f"perturbed tau is {irred.verdict.value} at denominator bound {denom_bound}"
        )
    return RationalizedTau(
        tau=tau,
        irred=irred,
        sturm_count=count,
        frame_distance=Fraction(2, denom_bound),
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
        else [list(map(float, q.rep)) for q in pf.arrangement.points]
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
