import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from flatlink import construct
from flatlink.construct import (
    Pattern,
    SynthesisBudgetError,
    certify_pattern_stability,
    pattern_rank,
    rationalize_pair,
    rationalize_pattern,
    rationalize_tau,
    synthesize_pattern,
    tau_for_arrangement,
)
from flatlink.projlink import Arrangement, GeneralPositionError
from flatlink.qkernel import (
    IrredVerdict,
    QMatrix,
    char_poly,
    det,
    rat,
    sturm_distinct_real_roots,
)
from flatlink.symspace import flat_from_tau, intersect, IntersectionKind


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


def _float_frame(M):
    return construct._eigh(M)[1]


def _eigh_cases(m):
    """The base library for m <= 5. _base_stream(6) scans over a minute of
    candidates, so m = 6 takes the first 40 with 6 distinct real
    eigenvalues instead."""
    if m < 6:
        return [e.tau0 for e in construct._base_stream(m)]
    simple = (
        M
        for M in map(QMatrix, construct._symmetric_int_rows(m))
        if sturm_distinct_real_roots(char_poly(M)) == m
    )
    return list(itertools.islice(simple, 40))


@pytest.mark.parametrize("m", range(2, 7))
def test_eigh_matches_numpy(m):
    np = pytest.importorskip("numpy")
    for M in _eigh_cases(m):
        values, vectors = construct._eigh(M.to_lists())
        W, V = np.linalg.eigh(np.array(M.to_lists(), dtype=float))
        assert np.abs(np.array(values) - W).max() <= 1e-12
        for v, u in zip(vectors, V.T):  # eigenvectors agree up to sign
            v = np.array(v) if np.dot(v, u) >= 0 else -np.array(v)
            assert np.abs(v - u).max() <= 1e-12
        gram = np.array(vectors) @ np.array(vectors).T
        assert np.abs(gram - np.eye(m)).max() <= 1e-12


def _sturm_first_scan(m):
    """_base_stream's scan with the checks in their earlier order: Sturm
    count first, then irreducibility, on every candidate."""
    entries = []
    for tau0 in map(QMatrix, construct._symmetric_int_rows(m)):
        if len(entries) == construct._BASE_SCAN:
            break
        p = char_poly(tau0)
        if sturm_distinct_real_roots(p) != m:
            continue
        cert = construct.irreducible_over_Q(p)
        if cert.verdict is not IrredVerdict.IRREDUCIBLE:
            continue
        frame = tuple(map(tuple, construct._eigh(tau0.to_lists())[1]))
        entries.append((tau0, p, cert, frame))
    return entries


@pytest.mark.parametrize("m", range(2, 6))
def test_base_stream_matches_sturm_first_scan(m):
    got = [(e.tau0, e.poly, e.cert, e.frame) for e in construct._base_stream(m)]
    assert got == _sturm_first_scan(m)
    assert len(got) == construct._BASE_SCAN
    assert all(e.det == det(e.tau0) for e in construct._base_stream(m))


def test_base_stream_budget(monkeypatch):
    """The scan stops after _BASE_BUDGET candidates and caches what it found;
    an empty library is a budget failure of rationalize_tau."""
    first = construct._base_stream(3)[0]
    candidates = map(QMatrix, construct._symmetric_int_rows(3))
    k = next(k for k, M in enumerate(candidates) if M == first.tau0)
    target = _float_frame(first.tau0.to_lists())
    for budget, found in ((k, []), (k + 1, [first])):
        monkeypatch.setattr(construct, "_BASE_CACHE", {})
        monkeypatch.setattr(construct, "_BASE_BUDGET", budget)
        assert construct._base_stream(3) == found
        assert construct._BASE_CACHE == {3: found}
    assert rationalize_tau(target, denom_bound=64).base == first.tau0
    monkeypatch.setattr(construct, "_BASE_CACHE", {})
    monkeypatch.setattr(construct, "_BASE_BUDGET", k)
    with pytest.raises(SynthesisBudgetError, match="no integer symmetric base"):
        rationalize_tau(target, denom_bound=64)


def test_base_stream_sturm_fault_raises(monkeypatch):
    """Sturm no longer filters: an irreducible symmetric base with a count
    other than m is an arithmetic fault, never a skipped candidate."""
    monkeypatch.setattr(construct, "_BASE_CACHE", {})
    monkeypatch.setattr(construct, "sturm_distinct_real_roots", lambda p: p.degree - 1)
    with pytest.raises(ArithmeticError, match="Sturm count 1, m=2"):
        construct._base_stream(2)
    assert construct._BASE_CACHE == {}


def _pattern_targets(p):
    frames = (pf.arrangement.frame_matrix() for pf in p.flats)
    return [[[float(F[r, c]) for r in range(p.m)] for c in range(p.m)] for F in frames]


def test_rationalize_tau_ties_go_to_scan_order(monkeypatch):
    """Bases tied in exact arithmetic: the first in scan order wins, and
    rounding-sized changes to the distances do not move the choice."""
    targets = _pattern_targets(synthesize_pattern(8, 3, rotation="1/2"))
    bases = [e.tau0 for e in construct._base_stream(3)]
    chosen = [bases.index(rationalize_tau(t).base) for t in targets]
    # flat 3 ties bases 1, 7, 11, 13, 21, 27, 36 and 38, flat 6 bases 6 and
    # 25; the distances agree to 1e-57 in 60-digit arithmetic
    assert chosen[3] == 1 and chosen[6] == 6
    real = construct._column_sin_distance
    for sign in (1, -1):
        flips = itertools.cycle((sign, -sign))
        monkeypatch.setattr(
            construct,
            "_column_sin_distance",
            lambda A, B: real(A, B) * (1 + next(flips) * 1e-15),
        )
        assert [bases.index(rationalize_tau(t).base) for t in targets] == chosen


def _reference_sin_distance(A, B):
    """construct._column_sin_distance with generator sums."""
    worst = 0.0
    for u, v in zip(A, B):
        nu, nv = math.hypot(*u), math.hypot(*v)
        if nu == 0.0 or nv == 0.0:
            return 1.0
        c = sum(x * y for x, y in zip(v, u)) / (nv * nv)
        r = math.hypot(*(x - y * c for x, y in zip(u, v)))
        worst = max(worst, min(1.0, r / nu))
    return worst


def _fraction_snap_scan(target, denom_bound):
    """rationalize_tau's base scan with every conjugator entry snapped by
    Fraction(float).limit_denominator and every sum a generator sum: the
    chosen (distance, base, conjugator), or None when all are singular."""
    m = len(target)
    T = [[float(x) for x in v] for v in target]
    best = None
    for entry in construct._base_stream(m):
        F0 = [
            f if sum(x * y for x, y in zip(t, f)) >= 0 else [-x for x in f]
            for t, f in zip(T, entry.frame)
        ]
        g_float = [
            [sum(t[r] * f[c] for t, f in zip(T, F0)) for c in range(m)]
            for r in range(m)
        ]
        top = max(abs(x) for row in g_float for x in row)
        rows = [
            [Fraction(x / top).limit_denominator(denom_bound) for x in row]
            for row in g_float
        ]
        g_snapped = [[float(x) for x in row] for row in rows]
        achieved = [
            [sum(x * y for x, y in zip(row, f)) for row in g_snapped] for f in F0
        ]
        dist = _reference_sin_distance(achieved, T)
        if best is not None and dist >= best[0] * (1 - construct._TIE):
            continue
        g = QMatrix(rows)
        if det(g) == 0:
            continue
        best = (dist, entry.tau0, g)
        if dist < 1e-12:
            break
    return best


@pytest.mark.parametrize("denom_bound", [64, 1024])
@pytest.mark.parametrize("m", range(2, 6))
def test_rationalize_tau_matches_fraction_snap_scan(m, denom_bound):
    rng = random.Random(3000 + m)
    targets = [
        [[rng.uniform(-3, 3) for _ in range(m)] for _ in range(m)] for _ in range(5)
    ]
    targets += _pattern_targets(synthesize_pattern(3, m))  # exact ties
    targets.append(_float_frame(construct._base_stream(m)[2].tau0.to_lists()))
    for target in targets:
        dist, base, g = _fraction_snap_scan(target, denom_bound)
        rt = rationalize_tau(target, denom_bound=denom_bound)
        assert rt.base == base
        assert rt.conjugator == g
        assert rt.tau == g @ base @ g.inverse()
        assert rt.frame_distance == Fraction(math.ceil(dist * 10**9), 10**9)


def test_rationalize_tau_matched_frame():
    # the target is an exact eigenframe of a small integer symmetric matrix,
    # so some base in the library shares it and the distance collapses
    rt = rationalize_tau(_float_frame([[2, 1], [1, 1]]), denom_bound=1)
    assert rt.tau == rt.conjugator @ rt.base @ rt.conjugator.inverse()
    assert rt.irred.verdict is IrredVerdict.IRREDUCIBLE
    assert rt.sturm_count == 2
    assert rt.frame_distance < Fraction(1, 10**6)
    assert char_poly(rt.tau) == char_poly(rt.base)


def test_rationalize_tau_recheck_raises(monkeypatch):
    """The re-check of the snapped tau is a raised error, so it also holds
    under python -O; a wrong Sturm count must never reach a certificate."""
    import flatlink.construct as construct

    construct._base_stream(2)  # the base library is built with the real count
    monkeypatch.setattr(construct, "sturm_distinct_real_roots", lambda p: p.degree - 1)
    with pytest.raises(ArithmeticError, match="not similar to its base"):
        rationalize_tau(_float_frame([[2, 1], [1, 1]]), denom_bound=1)


def test_rationalize_tau_axes_target():
    rt = rationalize_tau([[1.0, 0.0], [0.0, 1.0]], denom_bound=64)
    # rational axes are never an eigenframe of an irreducible base
    assert rt.frame_distance > 0
    assert rt.irred.verdict is IrredVerdict.IRREDUCIBLE
    assert rt.tau == rt.conjugator @ rt.base @ rt.conjugator.inverse()


def test_rationalize_tau_m3_small_base():
    rt = rationalize_tau(_float_frame([[3, 1, 0], [1, 2, 1], [0, 1, 1]]))
    assert rt.sturm_count == 3
    assert all(
        abs(rt.base[i, j]) <= 3 for i in range(3) for j in range(3)
    )


def test_rationalize_tau_degenerate_target():
    with pytest.raises(ValueError):
        rationalize_tau([[1.0, 0.0], [1.0, 0.0]])


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
    q = dataclasses.replace(p, matrix=tuple(map(tuple, flipped)))
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
    """At bound 1 every snapped conjugator of flat 0 of `pattern 2 3` is
    singular. That is a failed round (ValueError), and the bound grows."""
    p = synthesize_pattern(2, 3)
    target = _pattern_targets(p)[0]
    assert _fraction_snap_scan(target, 1) is None
    with pytest.raises(ValueError, match="no invertible snapped conjugator"):
        rationalize_tau(target, denom_bound=1)
    snapped, bound = rationalize_pattern(p, denom_bound=1)
    assert certify_pattern_stability(p, snapped) and bound == 16


def test_rationalize_pattern_empty_base_library_fails_at_once(monkeypatch):
    calls = []
    monkeypatch.setattr(construct, "_base_stream", lambda m: calls.append(m) or [])
    with pytest.raises(SynthesisBudgetError, match="no integer symmetric base"):
        rationalize_pattern(synthesize_pattern(2, 2))
    assert calls == [2]


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


class _RationalFrame:
    """The two attributes of an Arrangement that tau_for_arrangement reads,
    with rational columns: an Arrangement's columns are primitive integers
    already, so only this frame shows that every column gets scaled."""

    def __init__(self, columns):
        self.m = len(columns)
        self._F = QMatrix.from_columns(columns)

    def frame_matrix(self):
        return self._F


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
    for arr in frames[:4]:  # the same lines at rational, per-column scales
        scales = [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))
            for _ in range(m)
        ]
        cols = [
            [s * x for x in c] for s, c in zip(scales, arr.frame_matrix().columns())
        ]
        frames.append(_RationalFrame(cols))
    for arr in frames:
        F = arr.frame_matrix()
        assert tau_for_arrangement(arr) == F @ D @ F.inverse()
