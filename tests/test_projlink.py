import random
from fractions import Fraction

import pytest

from flatlink import projlink
from flatlink.projlink import (
    Arrangement,
    GeneralPositionError,
    LinkDecision,
    LinePlanePair,
    ProjHyperplane,
    ProjPoint,
    common_flags,
    frame_coefficients,
    in_general_position,
    link_decision,
)
from flatlink.qkernel import QMatrix, det, kernel_basis, rank, sign

from _reference import solve_unique, transform_arrangement, transform_pair


def std_frame(m):
    return Arrangement([[1 if i == j else 0 for j in range(m)] for i in range(m)])


def rnd_config(rng, m, bound=4):
    """Random frame + pair, resampled until constructible and general."""
    while True:
        try:
            arr = Arrangement(
                [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(m)]
            )
            lp = LinePlanePair(
                [rng.randint(-bound, bound) for _ in range(m)],
                [rng.randint(-bound, bound) for _ in range(m)],
            )
        except (ValueError, GeneralPositionError):
            continue
        if in_general_position(arr, lp):
            return arr, lp


def rnd_gl(rng, m, bound=3):
    while True:
        g = QMatrix([[rng.randint(-bound, bound) for _ in range(m)] for _ in range(m)])
        if det(g) != 0:
            return g


def test_canonical_representatives():
    assert ProjPoint([2, -4]).rep == (1, -2)
    assert ProjPoint([-2, 4]).rep == (1, -2)
    assert ProjPoint([Fraction(1, 2), Fraction(1, 3)]).rep == (3, 2)
    assert ProjHyperplane([0, -5, 10]).functional == (0, 1, -2)
    with pytest.raises(ValueError):
        ProjPoint([0, 0])
    # a plane's value is the int dot product of the two representatives
    value = ProjHyperplane([Fraction(1, 2), Fraction(-3, 2)]).eval(ProjPoint([2, 4]))
    assert type(value) is int and value == -5


def test_arrangement_and_pair_invariants():
    with pytest.raises(GeneralPositionError):
        Arrangement([[1, 0], [2, 0]])
    with pytest.raises(GeneralPositionError):
        LinePlanePair([1, 0], [0, 1])  # line inside plane
    arr = std_frame(2)
    assert arr.m == 2


def test_in_general_position_examples():
    arr = std_frame(2)
    lp = LinePlanePair([1, 1], [1, -2])
    assert in_general_position(arr, lp)

    # repeated point: L equals a frame point
    assert not in_general_position(arr, LinePlanePair([1, 0], [1, -2]))

    # plane through a frame point
    assert not in_general_position(arr, LinePlanePair([1, 1], [1, 0]))


LINKED, NOT_LINKED = LinkDecision.LINKED, LinkDecision.NOT_LINKED


def test_simplex_of():
    # the open simplex containing L is labelled by the signs of L's frame
    # coefficients, up to one overall sign
    def simplex_of(arr, L):
        signs = tuple(sign(c) for c in frame_coefficients(arr, L))
        return signs if signs[0] > 0 else tuple(-s for s in signs)

    arr = std_frame(2)
    assert simplex_of(arr, ProjPoint([1, 1])) == (1, 1)
    assert simplex_of(arr, ProjPoint([1, -1])) == (1, -1)
    assert simplex_of(std_frame(3), ProjPoint([1, 2, 3])) == (1, 1, 1)
    # antipodal representatives name the same point, hence the same simplex
    assert simplex_of(arr, ProjPoint([-1, 1])) == (1, -1)
    # and a negative first coefficient flips the label: (1, -3) = -L_1 + 2 L_2
    skew = Arrangement([[1, 1], [1, -1]])
    assert frame_coefficients(skew, ProjPoint([1, -3])) == (-1, 2)
    assert simplex_of(skew, ProjPoint([1, -3])) == (1, -1)
    # a point on a wall lies in no open simplex
    assert 0 in (sign(c) for c in frame_coefficients(arr, ProjPoint([1, 0])))
    with pytest.raises(GeneralPositionError):
        link_decision(arr, LinePlanePair([1, 0], [1, 1]))


def test_plane_meets_simplex():
    # P meets the open simplex containing L exactly when the pair is NotLinked
    arr = std_frame(2)
    assert link_decision(arr, LinePlanePair([1, 1], [1, 1])) is LINKED
    assert link_decision(arr, LinePlanePair([1, 1], [2, -1])) is NOT_LINKED
    arr3 = std_frame(3)
    assert link_decision(arr3, LinePlanePair([1, 1, 1], [1, 1, 1])) is LINKED
    # a plane through a vertex of the simplex
    assert not in_general_position(arr, LinePlanePair([1, 1], [1, 0]))
    with pytest.raises(GeneralPositionError):
        link_decision(arr, LinePlanePair([1, 1], [1, 0]))


@pytest.mark.parametrize("m", range(2, 7))
def test_frame_coefficients_match_solve_unique(m):
    """One integer echelon of [L_1 ... L_m | L] gives the rational solve of
    the frame matrix against L, including zero coefficients (L on a wall)."""
    rng = random.Random(2300 + m)
    done = 0
    while done < 60:
        try:
            arr = Arrangement(
                [[rng.randint(-9, 9) for _ in range(m)] for _ in range(m)]
            )
        except ValueError:  # a zero point, or a dependent frame
            continue
        if done % 3 == 0:  # a combination of fewer than m frame points
            k = rng.randrange(1, m)
            cs = [rng.randint(-3, 3) for _ in range(k)]
            L = [sum(c * p.rep[i] for c, p in zip(cs, arr.points)) for i in range(m)]
        else:
            L = [rng.randint(-9, 9) for _ in range(m)]
        if not any(L):
            continue
        L = ProjPoint(L)
        got = frame_coefficients(arr, L)
        assert got == solve_unique(arr.frame_matrix(), L.rep)
        assert all(type(c) is Fraction for c in got)
        done += 1
    with pytest.raises(ValueError, match="dimension mismatch"):
        frame_coefficients(arr, ProjPoint([1] * (m + 1)))


def test_link_decision_fixed_cases():
    cases = [
        # m = 2: L in the simplex with signs (1, 1), then (1, -1)
        ([1, 1], [1, 1], LINKED),
        ([1, 1], [2, -1], NOT_LINKED),
        ([1, -1], [1, -1], LINKED),
        ([-1, 1], [1, -1], LINKED),  # the same projective point
        ([1, -1], [1, 2], NOT_LINKED),
        ([1, 0], [1, 1], GeneralPositionError),  # line on a wall
        ([1, 1], [1, 0], GeneralPositionError),  # plane through a vertex
        # m = 3
        ([1, 1, 1], [1, 1, 1], LINKED),
        ([1, 2, 3], [1, 1, 1], LINKED),
        ([1, 1, 1], [1, 1, -1], NOT_LINKED),
        ([1, 1, 0], [1, 1, 1], GeneralPositionError),
        ([1, 1, 1], [1, 1, 0], GeneralPositionError),
    ]
    for line, plane, expected in cases:
        arr, lp = std_frame(len(line)), LinePlanePair(line, plane)
        if expected is GeneralPositionError:
            assert not in_general_position(arr, lp)
            with pytest.raises(GeneralPositionError):
                link_decision(arr, lp)
        else:
            assert in_general_position(arr, lp)
            assert link_decision(arr, lp) is expected


def _sign_vector_route(arr, lp):
    """The sign-vector route link_decision replaced, kept as a reference:
    the general-position test, the canonical sign vector of the simplex
    containing L, then P on the signed vertices, each from its own solve."""
    if any(c == 0 for c in frame_coefficients(arr, lp.line)) or any(
        lp.plane.eval(p) == 0 for p in arr.points
    ):
        raise GeneralPositionError("configuration is not in general position")
    sigma = [sign(c) for c in frame_coefficients(arr, lp.line)]
    sigma = [s * sigma[0] for s in sigma]  # first entry +1
    vals = [s * lp.plane.eval(p) for s, p in zip(sigma, arr.points)]
    return LINKED if all(v > 0 for v in vals) or all(v < 0 for v in vals) else NOT_LINKED


@pytest.mark.parametrize("m", range(2, 6))
def test_link_decision_matches_sign_vector_route(m):
    # entries in [-2, 2] put many lines on walls and planes through vertices
    rng = random.Random(1700 + m)
    seen = set()
    for _ in range(300):
        try:
            arr = Arrangement([[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
            lp = LinePlanePair(
                [rng.randint(-2, 2) for _ in range(m)],
                [rng.randint(-2, 2) for _ in range(m)],
            )
        except ValueError:
            continue
        try:
            expected = _sign_vector_route(arr, lp)
        except GeneralPositionError:
            expected = GeneralPositionError
        assert in_general_position(arr, lp) is (expected is not GeneralPositionError)
        if expected is GeneralPositionError:
            with pytest.raises(GeneralPositionError):
                link_decision(arr, lp)
        else:
            assert link_decision(arr, lp) is expected
        seen.add(expected)
    assert seen == {LINKED, NOT_LINKED, GeneralPositionError}


def test_link_decision_solves_for_the_frame_once(monkeypatch):
    calls = []
    solve = projlink._frame_solve

    def counted(arr, L):
        calls.append(L)
        return solve(arr, L)

    monkeypatch.setattr(projlink, "_frame_solve", counted)
    assert link_decision(std_frame(3), LinePlanePair([1, 2, 3], [1, 1, 1])) is LINKED
    assert len(calls) == 1


def test_common_flags_fixed_cases():
    arr = Arrangement([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    lp = LinePlanePair([1, 1, 1], [1, 1, 1])
    l_prime, q = common_flags(arr, lp)
    assert l_prime == ProjPoint([0, 1, -1])
    assert q == ProjHyperplane([0, 1, -1])

    # m=2 edge case: Q vanishes on L alone
    arr2 = std_frame(2)
    lp2 = LinePlanePair([1, 1], [1, -2])
    l_prime2, q2 = common_flags(arr2, lp2)
    assert q2.eval(lp2.line) == 0
    assert lp2.plane.eval(l_prime2) == 0

    # L = e1 repeats the frame point L_1, so L, L_1 span only a line
    with pytest.raises(GeneralPositionError, match="do not span a hyperplane"):
        common_flags(arr, LinePlanePair((1, 0, 0), (1, 1, 1)))
    # the plane x = 0 holds both L_2 = e2 and L_3 = e3
    with pytest.raises(
        GeneralPositionError, match=r"plane contains the line through L_\{m-1\}, L_m"
    ):
        common_flags(arr, LinePlanePair((1, 1, 1), (1, 0, 0)))


def test_common_flags_incidences():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(2, 5)
        arr, lp = rnd_config(rng, m)
        try:
            l_prime, q = common_flags(arr, lp)
        except GeneralPositionError:
            continue
        # L' sits on P and on the line through the last two frame points
        assert lp.plane.eval(l_prime) == 0
        M = QMatrix.from_columns(
            [arr.points[m - 2].rep, arr.points[m - 1].rep, l_prime.rep]
        )
        assert rank(M) == 2
        # Q contains L and the first m-2 frame points
        assert q.eval(lp.line) == 0
        for p in arr.points[: m - 2]:
            assert q.eval(p) == 0


def test_common_flags_matches_kernel_route():
    """Q from the first-row cofactors is the hyperplane the rational kernel
    of [L, L_1, ..., L_{m-2}] gives; at m = 2 that is one row."""
    rng = random.Random(3202)
    for m in range(2, 7):
        compared = 0
        for _ in range(30):
            arr, lp = rnd_config(rng, m)
            rows = [lp.line.rep] + [p.rep for p in arr.points[: m - 2]]
            (normal,) = kernel_basis(QMatrix(rows))
            try:
                _, q = common_flags(arr, lp)
            except GeneralPositionError:
                continue
            assert q == ProjHyperplane(normal)
            compared += 1
        assert compared >= 20
        if m >= 3:
            # L = L_1: the rows are dependent
            L1 = arr.points[0]
            plane = next(
                v for v in ([1] + [0] * (m - 1), [0, 1] + [0] * (m - 2))
                if ProjHyperplane(v).eval(L1) != 0
            )
            with pytest.raises(GeneralPositionError, match="do not span a hyperplane"):
                common_flags(arr, LinePlanePair(L1.rep, plane))


def test_gl_equivariance_and_permutation_invariance():
    rng = random.Random(29)
    for _ in range(60):
        m = rng.randint(2, 4)
        arr, lp = rnd_config(rng, m)
        d = link_decision(arr, lp)

        g = rnd_gl(rng, m)
        garr, glp = transform_arrangement(g, arr), transform_pair(g, lp)
        assert in_general_position(garr, glp)
        assert link_decision(garr, glp) is d

        perm = list(range(m))
        rng.shuffle(perm)
        parr = Arrangement([arr.points[i] for i in perm])
        assert link_decision(parr, lp) is d


def test_scale_invariance():
    arr = Arrangement([[2, 0], [0, -3]])
    lp = LinePlanePair([Fraction(1, 2), Fraction(1, 2)], [5, 5])
    assert arr.points[0] == ProjPoint([1, 0])
    assert link_decision(arr, lp) is LinkDecision.LINKED


def _restrict_to_Q(arr, lp, q):
    """Inductive data inside the hyperplane Q, in kernel-basis coordinates."""
    m = arr.m
    B = QMatrix.from_columns(kernel_basis(QMatrix([q.functional])))

    # point on line(L_{m-1} L_m) where q vanishes
    a, b = arr.points[m - 2], arr.points[m - 1]
    qa, qb = q.eval(a), q.eval(b)
    lpp = [qb * x - qa * y for x, y in zip(a.rep, b.rep)]

    def in_Q_coords(vec):
        # kernel of [B | -vec] gives (w, t) with B w = t vec
        aug_cols = [B.col(j) for j in range(m - 1)] + [tuple(-v for v in vec)]
        ker = kernel_basis(QMatrix.from_columns(aug_cols))
        assert len(ker) == 1 and ker[0][-1] != 0
        return [x / ker[0][-1] for x in ker[0][:-1]]

    new_pts = [in_Q_coords([Fraction(x) for x in p.rep]) for p in arr.points[: m - 2]]
    new_pts.append(in_Q_coords([Fraction(x) for x in lpp]))
    new_line = in_Q_coords([Fraction(x) for x in lp.line.rep])
    # restricted functional: u composed with B
    u = lp.plane.functional
    new_plane = [
        sum(Fraction(u[i]) * B[i, j] for i in range(m)) for j in range(m - 1)
    ]
    return Arrangement(new_pts), LinePlanePair(new_line, new_plane)


def _circle_reduction(arr, lp):
    """m=2 data on the line through the last two frame points.

    Frame: L_{m-1}, L_m in line coordinates. Pair: the point where Q crosses
    the line, against the functional vanishing where P crosses it.
    """
    m = arr.m
    _, q = common_flags(arr, lp)
    a, b = arr.points[m - 2], arr.points[m - 1]
    ua, ub = lp.plane.eval(a), lp.plane.eval(b)
    qa, qb = q.eval(a), q.eval(b)
    # in (s, t) coordinates s*a + t*b: P crosses at (ub, -ua), Q at (qb, -qa)
    sub_arr = Arrangement([[1, 0], [0, 1]])
    sub_lp = LinePlanePair([qb, -qa], [ua, ub])  # (ua, ub) vanishes at (ub, -ua)
    return sub_arr, sub_lp


def test_recursion_consistency_on_the_lines():
    # Linked iff, for every edge of the simplex, the m=2 decision on the
    # line through that edge's vertices (against the two points where P and
    # the complementary hyperplane cross it) is Linked. P meets the simplex
    # exactly when it crosses at least one open edge.
    rng = random.Random(83)
    done = 0
    while done < 40:
        m = rng.randint(3, 5)
        arr, lp = rnd_config(rng, m)
        edge_answers = []
        degenerate = False
        for i in range(m):
            for j in range(i + 1, m):
                order = [k for k in range(m) if k not in (i, j)] + [i, j]
                parr = Arrangement([arr.points[k] for k in order])
                try:
                    sub_arr, sub_lp = _circle_reduction(parr, lp)
                except (GeneralPositionError, ValueError):
                    degenerate = True
                    break
                if not in_general_position(sub_arr, sub_lp):
                    degenerate = True
                    break
                edge_answers.append(link_decision(sub_arr, sub_lp))
            if degenerate:
                break
        if degenerate:
            continue
        main = link_decision(arr, lp)
        if main is LinkDecision.LINKED:
            assert all(a is LinkDecision.LINKED for a in edge_answers)
        else:
            assert any(a is LinkDecision.NOT_LINKED for a in edge_answers)
        done += 1


def test_linked_descends_to_Q():
    # a Linked decision stays Linked on the data cut down into Q; the
    # converse direction is not claimed (and is false in general)
    rng = random.Random(103)
    done = 0
    while done < 15:
        m = rng.randint(3, 4)
        arr, lp = rnd_config(rng, m)
        if link_decision(arr, lp) is not LinkDecision.LINKED:
            continue
        try:
            _, q = common_flags(arr, lp)
            sub_arr, sub_lp = _restrict_to_Q(arr, lp, q)
        except (GeneralPositionError, ValueError, AssertionError):
            continue
        if not in_general_position(sub_arr, sub_lp):
            continue
        assert link_decision(sub_arr, sub_lp) is LinkDecision.LINKED
        done += 1
