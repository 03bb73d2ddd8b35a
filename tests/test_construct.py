import math
import random
import time
from fractions import Fraction

import pytest

from flatlink import construct
from flatlink.construct import (
    certify_pattern_stability,
    pattern_rank,
    rationalize_pair,
    rationalize_pattern,
    rationalize_tau,
    synthesize_pattern,
    tau_for_arrangement,
)
from flatlink.projlink import Arrangement, GeneralPositionError, LinePlanePair
from flatlink.qkernel import (
    IrredVerdict,
    QMatrix,
    char_poly,
    det,
    irreducible_over_Q,
    rat,
    sturm_distinct_real_roots,
)
from flatlink.symspace import (
    IntersectionKind,
    flat_from_tau,
    intersect,
    subspace_from_pair,
)

from _reference import columns


def test_single_cell_pattern():
    p = synthesize_pattern(1, 2)
    assert p.N == 1 and p.m == 2
    assert p.matrix[0][0] in (1, -1)
    w = p.certificate[0][0]
    assert w.link == "Linked"
    assert w.oracle == "TransversePoint"
    assert w.sign == p.matrix[0][0]


def test_two_by_two_pattern():
    p = synthesize_pattern(2, 2)
    assert p.matrix[1][0] == 0
    for i, j in [(0, 0), (0, 1), (1, 1)]:
        assert p.matrix[i][j] in (1, -1)
    assert p.certificate[1][0].link == "NotLinked"
    assert p.certificate[1][0].oracle == "Empty"
    assert pattern_rank(p) == 2


def test_four_by_four_m3_pattern():
    p = synthesize_pattern(4, 3)
    assert p.N == 4 and p.m == 3
    assert p.is_upper_triangular_nonzero_diagonal()
    assert pattern_rank(p) == 4
    for i in range(4):
        for j in range(4):
            w = p.certificate[i][j]
            assert (w.link == "Linked") == (w.oracle == "TransversePoint")
            assert (w.link == "Linked") == (i <= j)
    for pf in p.flats:
        # built without flat_from_tau; its checks must still pass
        assert flat_from_tau(pf.flat.tau) == pf.flat


def test_pattern_bad_arguments():
    with pytest.raises(ValueError):
        synthesize_pattern(0, 2)
    with pytest.raises(ValueError):
        synthesize_pattern(1, 1)
    with pytest.raises(ValueError):
        synthesize_pattern(1, 2, thinness=0)
    with pytest.raises(ValueError):
        synthesize_pattern(1, 2, rotation=Fraction(-1, 2))


def test_pattern_retries_oversized_rotation():
    # rotation >= 1 misplaces every plane; halving brings it into range
    p = synthesize_pattern(2, 2, rotation=3)
    assert p.is_upper_triangular_nonzero_diagonal()


def test_pattern_deterministic():
    a = synthesize_pattern(3, 3)
    b = synthesize_pattern(3, 3)
    assert a.matrix == b.matrix
    assert all(x.flat.tau == y.flat.tau for x, y in zip(a.flats, b.flats))


def test_pattern_rank_on_raw_matrices():
    assert pattern_rank([[0]]) == 0
    assert pattern_rank([[1, 1], [0, -1]]) == 2
    assert pattern_rank([[1, 1], [1, 1]]) == 1


def test_tau_for_arrangement_eigenstructure():
    arr = Arrangement([(1, 0), (0, 1)])
    assert tau_for_arrangement(arr) == QMatrix.diagonal([1, 2])

    rng = random.Random(7)
    while True:
        pts = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        try:
            arr = Arrangement(pts)
            break
        except (ValueError, GeneralPositionError):
            continue
    tau = tau_for_arrangement(arr)
    F = arr.frame_matrix()
    for k in range(3):
        col = F.col(k)
        assert tau.apply(col) == tuple(rat(k + 1) * x for x in col)


def _pattern_targets(p):
    frames = (pf.arrangement.frame_matrix() for pf in p.flats)
    return [[[float(F[r, c]) for r in range(p.m)] for c in range(p.m)] for F in frames]


def _E(m):
    """The companion matrix of x^m - 2: e_j -> e_(j+1), e_(m-1) -> 2 e_0."""
    rows = [[0] * m for _ in range(m)]
    for j in range(m - 1):
        rows[j + 1][j] = 1
    rows[0][m - 1] = 2
    return QMatrix(rows)


def _tridiagonal_E(m):
    """Symmetric tridiagonal, diagonal 1..m, off-diagonal entries 1: a
    perturbation with a rational invariant line, since at m = 3 it sends
    (1, 1, -1) to twice itself."""
    return QMatrix(
        [
            [i + 1 if i == j else int(abs(i - j) == 1) for j in range(m)]
            for i in range(m)
        ]
    )


def _reference_target_tau(target, k):
    """The exact tau rationalize_tau perturbs, by Fraction arithmetic: each
    column over its largest entry, snapped by Fraction.limit_denominator,
    then F D F^-1 with D = diag(1..m) and a Fraction inverse."""
    cols = []
    for v in target:
        top = max(abs(float(x)) for x in v)
        cols.append([Fraction(float(x) / top).limit_denominator(k) for x in v])
    F = QMatrix.from_columns(cols)
    return F @ QMatrix.diagonal(range(1, len(target) + 1)) @ F.inverse()


def perturbed_reference(target, k):
    """The tau rationalize_tau returns at bound k when the round certifies."""
    return _reference_target_tau(target, k) + _E(len(target)) * Fraction(1, k)


def assert_irreducible_in_sympy(tau):
    """sympy's factorization, independent of qkernel, finds the
    characteristic polynomial of tau irreducible over Q."""
    sympy = pytest.importorskip("sympy")
    coeffs = [
        sympy.Rational(c.numerator, c.denominator)
        for c in reversed(char_poly(tau).coeffs)
    ]
    _, factors = sympy.Poly(coeffs, sympy.Symbol("t"), domain="QQ").factor_list()
    assert len(factors) == 1 and factors[0][1] == 1


def assert_exact_perturbation(rt, target, k):
    m = len(target)
    assert rt.tau - _reference_target_tau(target, k) == _E(m) * Fraction(1, k)
    assert rt.frame_distance == Fraction(2, k)
    assert rt.irred.verdict is IrredVerdict.IRREDUCIBLE
    assert rt.sturm_count == m == sturm_distinct_real_roots(char_poly(rt.tau))


@pytest.mark.parametrize("denom_bound", [64, 1024])
@pytest.mark.parametrize("m", range(2, 6))
def test_rationalize_tau_matches_fraction_snap_scan(m, denom_bound):
    """rationalize_tau against the Fraction reference: the columns snapped
    one by one, F D F^-1, plus E / denom_bound."""
    rng = random.Random(3000 + m)
    targets = [
        [[rng.uniform(-3, 3) for _ in range(m)] for _ in range(m)] for _ in range(5)
    ]
    pattern_targets = _pattern_targets(synthesize_pattern(3, m))
    certified = 0
    for target in targets + pattern_targets:
        try:
            rt = rationalize_tau(target, denom_bound=denom_bound)
        except ValueError:  # a failed round; it must be one the reference sees
            assert target not in pattern_targets
            p = char_poly(perturbed_reference(target, denom_bound))
            assert (
                irreducible_over_Q(p).verdict is not IrredVerdict.IRREDUCIBLE
                or sturm_distinct_real_roots(p) != m
            )
            continue
        assert_exact_perturbation(rt, target, denom_bound)
        certified += 1
    assert certified >= len(targets) - 1 + len(pattern_targets)


def test_rationalize_tau_matched_frame():
    # an exact rational frame: the snap keeps it, so tau_target has exactly
    # these eigenlines, F diag(1, 2) F^-1 for F = [[2, -1], [1, 2]]
    target = [[2.0, 1.0], [-1.0, 2.0]]
    rt = rationalize_tau(target, denom_bound=64)
    assert_exact_perturbation(rt, target, 64)
    target_tau = QMatrix([[6, -2], [-2, 9]]) * Fraction(1, 5)
    assert rt.tau == target_tau + _E(2) * Fraction(1, 64)


def test_rationalize_tau_recheck_raises(monkeypatch):
    """A Sturm count other than m, or a verdict other than Irreducible, is a
    raised ValueError (a failed round), so it also holds under python -O; a
    wrong count must never reach a certificate."""
    target = [[1.0, 0.0], [0.0, 1.0]]
    monkeypatch.setattr(construct, "sturm_distinct_real_roots", lambda p: p.degree - 1)
    with pytest.raises(ValueError, match="1 real roots, m=2"):
        rationalize_tau(target, denom_bound=64)
    monkeypatch.undo()
    inconclusive = construct.IrredCertificate(IrredVerdict.INCONCLUSIVE, None, ())
    monkeypatch.setattr(construct, "irreducible_over_Q", lambda p: inconclusive)
    with pytest.raises(ValueError, match="Inconclusive at denominator bound 64"):
        rationalize_tau(target, denom_bound=64)


def test_rationalize_tau_axes_target():
    rt = rationalize_tau([[1.0, 0.0], [0.0, 1.0]], denom_bound=64)
    # diag(1, 2) + E/64 with E = [[0, 2], [1, 0]]
    assert rt.tau == QMatrix([[1, "1/32"], ["1/64", 2]])
    assert_exact_perturbation(rt, [[1.0, 0.0], [0.0, 1.0]], 64)


def _rationalize_first_round(target, k):
    """rationalize_tau at bounds k, 4k, ... as rationalize_pattern runs
    them: the first round that certifies."""
    for r in range(construct._MAX_ROUNDS):
        try:
            return rationalize_tau(target, denom_bound=k * 4**r), k * 4**r
        except ValueError:
            continue
    raise AssertionError("no round certified")


@pytest.mark.parametrize("m", range(2, 7))
def test_eigh_matches_numpy(m):
    """The target is numpy's orthonormal eigh frame of an integer symmetric
    matrix: tau's eigenlines, by numpy's eig, are that frame up to sign,
    with eigenvalues near 1..m, within a multiple of 1/k."""
    np = pytest.importorskip("numpy")
    rng = random.Random(4000 + m)
    for _ in range(4):
        S = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                S[i][j] = S[j][i] = rng.randint(-4, 4)
        W, V = np.linalg.eigh(np.array(S, dtype=float))
        if np.diff(W).min() < 1e-3:  # a repeated eigenvalue has no frame
            continue
        target = V.T.tolist()
        rt, k = _rationalize_first_round(target, 1024)
        assert_exact_perturbation(rt, target, k)
        tol = 20 * m / k
        values, vectors = np.linalg.eig(
            np.array([[float(rt.tau[i, j]) for j in range(m)] for i in range(m)])
        )
        assert np.abs(values.imag).max() == 0
        order = np.argsort(values.real)
        assert np.abs(values.real[order] - np.arange(1, m + 1)).max() <= tol
        for v, u in zip(vectors.real[:, order].T, V.T):  # agree up to sign
            v = v / np.linalg.norm(v)
            v = v if np.dot(v, u) >= 0 else -v
            assert np.abs(v - u).max() <= tol


def test_rationalize_tau_m3_small_base():
    """At m = 3, on the orthonormal eigenframe V of a small symmetric
    matrix, the exact tau that E / k perturbs is near V diag(1, 2, 3) V^T:
    nearly symmetric, with entries at most 3."""
    np = pytest.importorskip("numpy")
    V = np.linalg.eigh(np.array([[2, 1, 1], [1, 3, 0], [1, 0, 1]], dtype=float))[1]
    target = V.T.tolist()
    rt = rationalize_tau(target)
    k = construct.DENOM_BOUND
    assert_exact_perturbation(rt, target, k)
    base = rt.tau - _E(3) * Fraction(1, k)
    cells = [(i, j) for i in range(3) for j in range(3)]
    assert all(abs(base[i, j]) <= 3 + Fraction(1, 16) for i, j in cells)
    assert all(abs(base[i, j] - base[j, i]) <= Fraction(1, 16) for i, j in cells)


def _one_cell_pattern(points, line, plane):
    """A certified 1 x 1 pattern on the arrangement of these points."""
    arr = Arrangement(points)
    flat = construct.PatternFlat(
        flat=flat_from_tau(tau_for_arrangement(arr)), arrangement=arr
    )
    sub = construct.PatternSubspace(
        subspace=subspace_from_pair(line, plane), pair=LinePlanePair(line, plane)
    )
    return construct._certify_pattern([flat], [sub])


def _rationalize_in_seconds(p, **kw):
    start = time.perf_counter()
    snapped, bound = rationalize_pattern(p, **kw)
    assert time.perf_counter() - start < 5
    assert certify_pattern_stability(p, snapped)
    return snapped, bound


@pytest.mark.parametrize("j", range(3))
def test_rationalize_pattern_on_invariant_line_of_tridiagonal_E(j):
    """The tridiagonal E sends (1, 1, -1) to twice itself, so with it an
    m = 3 arrangement with that point as column j has the rational
    eigenvalue j + 1 + 2/k at every bound k and fails every round. E has
    no rational invariant line, and the pattern certifies in the first
    round."""
    points = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    points[j] = [1, 1, -1]
    p = _one_cell_pattern(points, [2, 1, 2], [1, 1, 1])
    target = _pattern_targets(p)[0]
    for k in (64, 256, 1024):
        tri = _reference_target_tau(target, k) + _tridiagonal_E(3) * Fraction(1, k)
        assert det(tri - QMatrix.diagonal([j + 1 + Fraction(2, k)] * 3)) == 0
    rationalize_tau(target, denom_bound=64)  # fails fast, before later rounds
    snapped, bound = _rationalize_in_seconds(p)
    assert bound == 64
    assert_exact_perturbation(snapped.flats[0].rationalized, target, 64)
    assert_irreducible_in_sympy(snapped.flats[0].flat.tau)


def test_rationalize_pattern_on_reversed_tridiagonal_E_eigenframe():
    """The orthonormal eigenframe of [[3, 1, 0], [1, 2, 1], [0, 1, 1]], the
    tridiagonal E with its rows and columns reversed, snaps at every bound
    to a frame that S: x -> (-x_2, x_1, -x_0) maps to itself reversed, and
    S E' S = 4 - E' for the tridiagonal E'. So with E' the perturbed tau is
    similar to (4 + 4/k) - itself, its middle eigenvalue is 2 + 2/k, and
    every round fails. Through rationalize_pattern, as the frame target of
    a pattern on nearby integer points, E certifies it."""
    np = pytest.importorskip("numpy")
    V = np.linalg.eigh(np.array([[3, 1, 0], [1, 2, 1], [0, 1, 1]], dtype=float))[1]
    frame = V.T.tolist()
    S = QMatrix([[0, 0, -1], [0, 1, 0], [-1, 0, 0]])
    assert S @ _tridiagonal_E(3) @ S == QMatrix.diagonal([4] * 3) - _tridiagonal_E(3)
    for k in (64, 256, 1024):
        tri = _reference_target_tau(frame, k) + _tridiagonal_E(3) * Fraction(1, k)
        assert det(tri - QMatrix.diagonal([2 + Fraction(2, k)] * 3)) == 0
    points = [[round(56 * x / max(map(abs, v))) for x in v] for v in frame]
    p = _one_cell_pattern(points, [2, 1, 2], [1, 1, 1])
    rationalize_tau(frame, denom_bound=64)  # fails fast, before later rounds
    snapped, bound = _rationalize_in_seconds(p, frame_noise=[frame])
    assert bound == 64
    assert_exact_perturbation(snapped.flats[0].rationalized, frame, 64)
    assert_irreducible_in_sympy(snapped.flats[0].flat.tau)


def test_rationalize_tau_commuting_perturbation_case():
    """At m = 2 the frame (1, -1), (1, 1) is the eigenframe of the all-ones
    matrix, so an all-ones perturbation commutes with tau_target and leaves
    a rational eigenvector: the polynomial is reducible at every bound.
    E = [[0, 2], [1, 0]], with polynomial x^2 - 2, has no rational
    eigenvector."""
    target = [[1.0, -1.0], [1.0, 1.0]]
    for k in (64, 256, 1024):
        ones = _reference_target_tau(target, k) + QMatrix([[1, 1], [1, 1]]) * Fraction(
            1, k
        )
        assert irreducible_over_Q(char_poly(ones)).verdict is IrredVerdict.REDUCIBLE
        assert_exact_perturbation(rationalize_tau(target, denom_bound=k), target, k)


@pytest.mark.parametrize(
    "shape", [(3, 2), (8, 3), (5, 4), (3, 5), (2, 6), (2, 7), (2, 8)]
)
def test_pattern_shapes_rationalize_to_exact_perturbations(shape):
    """What `flatlink pattern N m | rationalize` accepts: every tau is its
    frame's exact tau plus E/k, and sympy factors its polynomial as
    irreducible."""
    p = synthesize_pattern(*shape)
    snapped, bound = rationalize_pattern(p)
    assert snapped.matrix == p.matrix
    for pf, target in zip(snapped.flats, _pattern_targets(p)):
        assert_exact_perturbation(pf.rationalized, target, bound)
        assert_irreducible_in_sympy(pf.flat.tau)


def test_rationalize_tau_degenerate_target():
    with pytest.raises(ValueError):
        rationalize_tau([[1.0, 0.0], [1.0, 0.0]])


def _degenerate_by_fraction_det(target):
    """The degeneracy test on the Fraction values of the floats."""
    T = [[float(x) for x in v] for v in target]
    scale = max(1.0, max(abs(x) for v in T for x in v))
    frame_det = det(QMatrix([[Fraction(x) for x in v] for v in T]))
    return abs(frame_det) < 1e-9 * scale ** len(T)


def test_rationalize_tau_degeneracy_matches_fraction_det():
    """rationalize_tau's integer determinant on the dyadic values against
    the Fraction determinant: near-singular frames at m = 2..5, the last
    vector a combination of the others plus delta times noise, on both
    sides of the 1e-9 scale^m threshold."""
    rng = random.Random(5150)
    verdicts = set()
    for m in range(2, 6):
        for delta in (0.0, 1e-13, 1e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-6):
            for size in (1.0, 1e-3, 40.0):
                T = [[size * rng.uniform(-3, 3) for _ in range(m)] for _ in range(m - 1)]
                c = [rng.uniform(-1, 1) for _ in range(m - 1)]
                T.append([
                    sum(ck * v[i] for ck, v in zip(c, T)) + delta * rng.uniform(-1, 1)
                    for i in range(m)
                ])
                want = _degenerate_by_fraction_det(T)
                try:
                    rationalize_tau(T)
                    got = False
                except construct.DegenerateFrameError:
                    got = True
                except ValueError:  # a failed round: the target passed the test
                    got = False
                assert got == want
                verdicts.add(want)
    assert verdicts == {True, False}


def test_rationalize_pair_examples():
    pair, Y = rationalize_pair([1.0, 1.0], [1.0, 1.0])
    assert pair.line.rep == (1, 1)
    assert Y.rho == QMatrix([[0, 1], [1, 0]])

    pair, Y = rationalize_pair([1, 0, 0], [1, 0, 0])
    assert Y.rho == QMatrix.diagonal([1, -1, -1])

    pair, _ = rationalize_pair([1.0, math.sqrt(2)], [1.0, 0.0], denom_bound=100)
    x, y = pair.line.rep
    assert abs(y / x - math.sqrt(2)) < 1 / 100


def test_rationalize_pair_degenerate():
    with pytest.raises(GeneralPositionError):
        rationalize_pair([1.0, 1.0], [1.0, -1.0])


def test_certify_stability():
    p = synthesize_pattern(2, 2)
    assert certify_pattern_stability(p, p)
    flipped = list(map(list, p.matrix))
    flipped[0][1] = -flipped[0][1]
    q = construct.Pattern(
        p.N, p.m, p.flats, p.subspaces, tuple(map(tuple, flipped)), p.certificate
    )
    assert not certify_pattern_stability(p, q)
    with pytest.raises(ValueError):
        certify_pattern_stability(p, synthesize_pattern(1, 2))


def test_rationalize_pattern_roundtrip():
    p = synthesize_pattern(2, 2)
    snapped, bound = rationalize_pattern(p, denom_bound=64)
    assert snapped.matrix == p.matrix
    assert bound >= 64
    for pf in snapped.flats:
        assert pf.rationalized is not None
        assert pf.rationalized.irred.verdict is IrredVerdict.IRREDUCIBLE
    for pf in p.flats + snapped.flats:
        # built without flat_from_tau; its checks must still pass
        assert flat_from_tau(pf.flat.tau) == pf.flat
    for row in snapped.certificate:
        for w in row:
            assert w.link is None  # oracle-only certification after the snap
            assert w.oracle in ("TransversePoint", "Empty")


def test_rationalize_pattern_rejects_bound_below_one():
    # a bound of 0 never grows (4 * 0): it used to spend every round failing
    with pytest.raises(ValueError):
        rationalize_pattern(synthesize_pattern(1, 2), denom_bound=0)


def test_rationalize_pattern_retries_singular_rounds():
    """At bound 1 the snapped frame of flat 0 of `pattern 2 3` is singular
    (its pinched pair collapses onto one column). That is a failed round
    (ValueError), and the bound grows."""
    p = synthesize_pattern(2, 3)
    target = _pattern_targets(p)[0]
    assert det(QMatrix.from_columns(
        [[Fraction(x / max(map(abs, v))).limit_denominator(1) for x in v]
         for v in target]
    )) == 0
    with pytest.raises(ValueError, match="singular"):
        rationalize_tau(target, denom_bound=1)
    snapped, bound = rationalize_pattern(p, denom_bound=1)
    # bounds 1, 4 and 16 fail; 64 certifies
    assert certify_pattern_stability(p, snapped) and bound == 64


def test_rationalize_pattern_failed_round_grows_bound(monkeypatch):
    """A tau that is not certified in a round fails the round: the next
    round runs every flat again at 4 times the bound."""
    p = synthesize_pattern(2, 2)
    bounds = []
    real = construct.irreducible_over_Q

    def first_round_inconclusive(poly):
        bounds.append(len(bounds))
        if len(bounds) == 2:  # flat 1 in the first round
            return construct.IrredCertificate(IrredVerdict.INCONCLUSIVE, None, ())
        return real(poly)

    monkeypatch.setattr(construct, "irreducible_over_Q", first_round_inconclusive)
    snapped, bound = rationalize_pattern(p, denom_bound=64)
    assert bound == 256 and len(bounds) == 4
    assert certify_pattern_stability(p, snapped)
    for pf, target in zip(snapped.flats, _pattern_targets(p)):
        assert_exact_perturbation(pf.rationalized, target, 256)


def test_rationalize_pattern_degenerate_frame_fails_in_first_round(monkeypatch):
    """No bound fixes a degenerate target, so it is not retried: the error
    is a ValueError (exit 2 on the CLI), raised in the first round."""
    p = synthesize_pattern(2, 2)
    frames = _pattern_targets(p)
    frames[1] = [[1.0, 0.0], [1.0, 0.0]]
    bounds = []
    real = construct.rationalize_tau

    def spy(target, denom_bound):
        bounds.append(denom_bound)
        return real(target, denom_bound=denom_bound)

    monkeypatch.setattr(construct, "rationalize_tau", spy)
    with pytest.raises(construct.DegenerateFrameError, match="degenerate"):
        rationalize_pattern(p, frame_noise=frames)
    assert issubclass(construct.DegenerateFrameError, ValueError)
    assert bounds == [64, 64]  # flat 0, then flat 1 fails


def test_rationalize_pattern_with_noise():
    rng = random.Random(11)
    p = synthesize_pattern(2, 2)

    def wobble(x):
        return float(x) + rng.uniform(-1e-4, 1e-4)

    frames = []
    for pf in p.flats:
        F = pf.arrangement.frame_matrix()
        frames.append(
            [[wobble(F[r, c]) for r in range(p.m)] for c in range(p.m)]
        )
    pairs = []
    for ps in p.subspaces:
        pairs.append(
            (
                [wobble(x) for x in ps.subspace.line],
                [wobble(x) for x in ps.subspace.plane],
            )
        )
    snapped, _ = rationalize_pattern(p, frame_noise=frames, pair_noise=pairs)
    assert certify_pattern_stability(p, snapped)
    for pf in snapped.flats:
        assert flat_from_tau(pf.flat.tau) == pf.flat


def test_snapped_cells_recheck_against_oracle():
    p = synthesize_pattern(2, 3)
    snapped, _ = rationalize_pattern(p)
    for pf in snapped.flats:
        assert flat_from_tau(pf.flat.tau) == pf.flat
    for i in range(p.N):
        for j in range(p.N):
            res = intersect(snapped.flats[i].flat, snapped.subspaces[j].subspace)
            want = (
                IntersectionKind.TRANSVERSE_POINT
                if p.matrix[i][j] != 0
                else IntersectionKind.EMPTY
            )
            assert res.kind is want


@pytest.mark.parametrize("m", range(2, 7))
def test_tau_for_arrangement_matches_fraction_conjugation(m):
    rng = random.Random(1000 + m)
    D = QMatrix.diagonal(range(1, m + 1))
    frames = []
    while len(frames) < 8:
        pts = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(m)]
        try:
            frames.append(Arrangement(pts))
        except (ValueError, GeneralPositionError):
            continue
    for arr in frames:
        F = arr.frame_matrix()
        assert tau_for_arrangement(arr) == F @ D @ F.inverse()
    # the same lines at rational, per-column scales: an Arrangement's points
    # are primitive integers already, so only these show that every column
    # gets scaled
    for arr in frames[:4]:
        scales = [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))
            for _ in range(m)
        ]
        cols = [
            [s * x for x in c] for s, c in zip(scales, columns(arr.frame_matrix()))
        ]
        F = QMatrix.from_columns(cols)
        assert construct._frame_tau(cols) == F @ D @ F.inverse()
