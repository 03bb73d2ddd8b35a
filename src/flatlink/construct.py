"""Synthesis of certified intersection patterns and rationalization.

The pattern family lives at explicit rational coordinates: every flat's
frame shares the points e_1, ..., e_{m-2} and pinches a thin pair
e_{m-1} -+ eps_i * e_m around e_{m-1}, with eps_i = thinness * i. Every
line-plane pair uses the same line (1, ..., 1, 0) and a plane whose
(m-1)-st coefficient s_j sits strictly between eps_j and eps_{j+1}. Then
pair j links frame i exactly when s_j > eps_i, i.e. exactly when i <= j,
which is the upper-triangular pattern. Certification never trusts this
arithmetic: every cell is decided by both the projective criterion and the
symmetric-space oracle and the two must agree. A pattern is certified as
one table (`_certify_pattern`): `symspace.intersection_table` decides every
cell by the oracle, from the cell's Hankel moment form and Krylov vectors
built once per (flat, line), and `projlink.link_decisions` decides each
flat's row by the criterion in integers, with one frame solve per distinct
line. Every pair here shares its line, so each row builds one set of
Krylov vectors and runs one frame solve.

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

from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from .projlink import (
    Arrangement,
    GeneralPositionError,
    LinkDecision,
    LinePlanePair,
    link_decisions,
)
from .qkernel import (
    IrredCertificate,
    IrredVerdict,
    QMatrix,
    _Record,
    _int_det,
    _scaled_ints,
    _times_inverse,
    char_poly,
    irreducible_over_Q,
    rank,
    rat,
    sturm_distinct_real_roots,
)
from .symspace import (
    FlatX,
    IntersectionKind,
    SubspaceY,
    intersection_table,
    subspace_from_pair,
)


class SynthesisBudgetError(RuntimeError):
    """A retry or search budget ran out before certification succeeded."""


class DegenerateFrameError(ValueError):
    """A rationalization target frame is degenerate: no bound can fix it."""


RETRY_BUDGET = 32
DENOM_BOUND = 64  # first denominator bound of a rationalization


class CellWitness(_Record):
    """Per-cell certificate: criterion verdict, oracle verdict, point sign."""

    link: Optional[str]
    oracle: str
    sign: Optional[int]

    def __init__(self, link: Optional[str], oracle: str, sign: Optional[int]):
        object.__setattr__(self, "link", link)
        object.__setattr__(self, "oracle", oracle)
        object.__setattr__(self, "sign", sign)


class RationalizedTau(_Record):
    tau: QMatrix
    irred: IrredCertificate
    sturm_count: int
    frame_distance: Fraction

    def __init__(
        self,
        tau: QMatrix,
        irred: IrredCertificate,
        sturm_count: int,
        frame_distance: Fraction,
    ):
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "irred", irred)
        object.__setattr__(self, "sturm_count", sturm_count)
        object.__setattr__(self, "frame_distance", frame_distance)


class PatternFlat(_Record):
    flat: FlatX
    arrangement: Optional[Arrangement]
    rationalized: Optional[RationalizedTau]

    def __init__(
        self,
        flat: FlatX,
        arrangement: Optional[Arrangement] = None,
        rationalized: Optional[RationalizedTau] = None,
    ):
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "arrangement", arrangement)
        object.__setattr__(self, "rationalized", rationalized)


class PatternSubspace(_Record):
    subspace: SubspaceY
    pair: Optional[LinePlanePair]

    def __init__(self, subspace: SubspaceY, pair: Optional[LinePlanePair] = None):
        object.__setattr__(self, "subspace", subspace)
        object.__setattr__(self, "pair", pair)


class Pattern(_Record):
    N: int
    m: int
    flats: tuple[PatternFlat, ...]
    subspaces: tuple[PatternSubspace, ...]
    matrix: tuple[tuple[int, ...], ...]
    certificate: tuple[tuple[CellWitness, ...], ...]

    def __init__(
        self,
        N: int,
        m: int,
        flats: tuple[PatternFlat, ...],
        subspaces: tuple[PatternSubspace, ...],
        matrix: tuple[tuple[int, ...], ...],
        certificate: tuple[tuple[CellWitness, ...], ...],
    ):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "flats", flats)
        object.__setattr__(self, "subspaces", subspaces)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "certificate", certificate)

    def is_upper_triangular_nonzero_diagonal(self) -> bool:
        return all(
            (self.matrix[i][j] != 0) == (i <= j)
            for i in range(self.N)
            for j in range(self.N)
        )


def pattern_rank(p: Union[Pattern, Sequence[Sequence[int]]]) -> int:
    rows = p.matrix if isinstance(p, Pattern) else p
    return rank(QMatrix(rows))


def _frame_tau(
    columns: Sequence[Sequence],
    E: Optional[Sequence[Sequence[int]]] = None,
    k: int = 1,
) -> QMatrix:
    """F D F^-1 + E / k for the matrix F with these columns (ints or
    Fractions), D = diag(1, ..., m) and an integer E (zero when None): F D
    F^-1 has eigenvalue k + 1 on column k. As D is diagonal, scaling a
    column of F leaves F D F^-1 unchanged, so each column is scaled to
    integers, giving G; then the sum is (k G D + E G) G^-1 / k, one
    `_times_inverse`, where G D is G with column k times k + 1. A singular F
    raises ValueError.
    """
    G = list(zip(*map(_scaled_ints, columns)))
    B = [[k * (c + 1) * x for c, x in enumerate(r)] for r in G]
    if E is not None:
        cols = list(zip(*G))
        B = [
            [b + sum(map(mul, e, c)) for b, c in zip(r, cols)]
            for r, e in zip(B, E)
        ]
    return _times_inverse(B, G, k)


def tau_for_arrangement(arr: Arrangement) -> QMatrix:
    """A rational matrix whose eigenlines are the frame points, with
    eigenvalue k+1 on point k (ascending along the frame order):
    `_frame_tau` of the points' primitive integer representatives."""
    return _frame_tau([p.rep for p in arr.points])


def _certify_pattern(
    flats: Sequence[PatternFlat], subspaces: Sequence[PatternSubspace]
) -> Optional[Pattern]:
    """The N x N pattern of these flats and subspaces with its sign matrix
    and certificate, or None when a cell cannot be certified: a Degenerate
    oracle verdict, a GeneralPositionError, or routes that disagree (never
    pick one).

    The oracle decides every cell from one `intersection_table`. The
    criterion decides a cell when its flat has an arrangement and its
    subspace a pair, a row at a time by `link_decisions`.
    """
    table = intersection_table(
        [pf.flat for pf in flats], [ps.subspace for ps in subspaces]
    )
    paired = [j for j, ps in enumerate(subspaces) if ps.pair is not None]
    matrix, cert = [], []
    for pf, row in zip(flats, table):
        if any(kind is IntersectionKind.DEGENERATE for kind, _ in row):
            return None
        links = [None] * len(row)
        if pf.arrangement is not None:
            try:
                decisions = link_decisions(
                    pf.arrangement, [subspaces[j].pair for j in paired]
                )
            except GeneralPositionError:
                return None
            for j, decision in zip(paired, decisions):
                linked = decision is LinkDecision.LINKED
                if linked != (row[j][0] is IntersectionKind.TRANSVERSE_POINT):
                    return None
                links[j] = decision.value
        matrix.append(tuple(s or 0 for _, s in row))
        cert.append(
            tuple(
                CellWitness(link=link, oracle=kind.value, sign=s)
                for link, (kind, s) in zip(links, row)
            )
        )
    return Pattern(
        N=len(flats),
        m=flats[0].flat.m,
        flats=tuple(flats),
        subspaces=tuple(subspaces),
        matrix=tuple(matrix),
        certificate=tuple(cert),
    )


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
        # not flat_from_tau: F diag(1..m) F^-1 is invertible with the m
        # distinct real eigenvalues 1..m by construction
        flats.append(PatternFlat(flat=FlatX(tau_for_arrangement(arr)), arrangement=arr))
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
        p = _certify_pattern(flats, subspaces)
        if p is not None and p.is_upper_triangular_nonzero_diagonal():  # so of rank N
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
    with E the integer `_perturbation(m)`, formed in one pass by
    `_frame_tau`. The target frame is degenerate when its determinant, exact
    on the floats' dyadic values, is below 1e-9 scale^m, scale the largest
    entry (at least 1). frame_distance is the largest
    entry of E / denom_bound, 2 / denom_bound exactly. Raises
    DegenerateFrameError (a ValueError) when the target is degenerate, and
    ValueError, a failed round of `rationalize_pattern`, when the snapped
    frame is singular or when tau's polynomial does not have m Sturm roots
    and an IRREDUCIBLE certificate.
    """
    m = len(target_frame)
    T = [[float(x) for x in v] for v in target_frame]
    if any(len(v) != m for v in T):
        raise ValueError("target frame must be m vectors of length m")
    scale = max(1.0, max(abs(x) for v in T for x in v))
    # the floats are dyadic: L, a power of two, scales them all to integers
    ratios = [[x.as_integer_ratio() for x in v] for v in T]
    L = max(d for r in ratios for _, d in r)
    D = _int_det([[n * (L // d) for n, d in r] for r in ratios])
    if abs(Fraction(D, L**m)) < 1e-9 * scale**m:
        raise DegenerateFrameError("target frame is degenerate")
    columns = []
    for v in T:
        top = max(map(abs, v))
        columns.append([_snap(x / top, denom_bound) for x in v])
    tau = _frame_tau(columns, _perturbation(m), denom_bound)
    p = char_poly(tau)
    # Sturm first: one integer chain, where the irreducibility test first
    # runs up to 25 distinct-degree factorizations (qkernel._PRIME_BUDGET)
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
    return the pair with its subspace. A snap that collapses the line or
    the plane to zero, or puts the line inside the plane, raises as
    `LinePlanePair` does."""
    line = [_snap(x, denom_bound) for x in target_line]
    plane = [_snap(x, denom_bound) for x in target_plane]
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
            snapped = _certify_pattern(flats, subspaces)
        except DegenerateFrameError:
            raise  # no bound fixes the target: fail now, not after every round
        except ValueError:
            snapped = None
        if snapped is not None and certify_pattern_stability(p, snapped):
            return snapped, bound
        bound *= 4
    raise SynthesisBudgetError(
        f"pattern did not restabilize within {_MAX_ROUNDS} rounds "
        f"(last denominator bound {bound // 4})"
    )
