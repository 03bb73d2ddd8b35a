"""Pattern certification as one table against the per-cell route it
replaced: `symspace.intersection_table` against `intersect` cell by cell,
`projlink.link_decisions` against `link_decision`, and
`construct._certify_pattern` against the old loop over cells, kept here as
the reference.
"""

import operator
import random
from fractions import Fraction

import pytest

from flatlink import construct, projlink, symspace
from flatlink.construct import (
    CellWitness,
    PatternFlat,
    PatternSubspace,
    rationalize_pattern,
    synthesize_pattern,
    tau_for_arrangement,
)
from flatlink.projlink import (
    Arrangement,
    GeneralPositionError,
    LinePlanePair,
    LinkDecision,
    in_general_position,
    link_decision,
    link_decisions,
)
from flatlink.qkernel import QMatrix, det, sign
from flatlink.symspace import (
    IntersectionKind,
    flat_from_tau,
    intersect,
    intersection_table,
    involution_for_pair,
    subspace_from_pair,
    subspace_from_rho,
)

from _reference import transpose
from test_symspace import rnd_invertible

SHAPES = [(8, 3), (5, 4), (3, 5)]
ROTATIONS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]


def _certify_cell_reference(flat, sub):
    """One cell by both routes, `intersect` and `link_decision`; None when
    they cannot be certified."""
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
            return None
        link_str = decision.value
    else:
        link_str = None
    return CellWitness(link=link_str, oracle=res.kind.value, sign=res.sign)


def _certify_pattern_reference(flats, subspaces):
    N = len(flats)
    matrix, cert = [], []
    for i in range(N):
        mrow, crow = [], []
        for j in range(N):
            w = _certify_cell_reference(flats[i], subspaces[j])
            if w is None:
                return None
            mrow.append(w.sign if w.sign is not None else 0)
            crow.append(w)
        matrix.append(tuple(mrow))
        cert.append(tuple(crow))
    return tuple(matrix), tuple(cert)


@pytest.mark.parametrize("rotation", ROTATIONS, ids=str)
@pytest.mark.parametrize("N,m", SHAPES)
def test_table_matches_per_cell_route(N, m, rotation):
    """On the shape x rotation patterns of the certify workload and on their
    snaps: the same sign matrix and certificate, cell by cell."""
    p = synthesize_pattern(N, m, rotation=rotation)
    snapped, _ = rationalize_pattern(p)
    for q in (p, snapped):
        want = _certify_pattern_reference(q.flats, q.subspaces)
        assert want == (q.matrix, q.certificate)
        certified = construct._certify_pattern(q.flats, q.subspaces)
        assert (certified.matrix, certified.certificate) == want
        assert certified == q
    assert all(w.link is not None for row in p.certificate for w in row)
    assert all(w.link is None for row in snapped.certificate for w in row)


# the passes of `symspace`'s crossing system: the solve, its echelon alone,
# and the back-substitution the solve runs
CROSS_PASSES = ("_cross", "_cross_dim", "_back_substitute")


def _count(monkeypatch, name):
    """The argument tuples of every call to `symspace`'s `name`."""
    calls = []
    fn = getattr(symspace, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(symspace, name, counted)
    return calls


def test_pattern_cells_never_reach_cross(monkeypatch):
    """Every cell of the 9 certify-workload patterns and of their snaps has
    det H != 0, so synthesis, rationalization and certification decide
    them all from the moment form, without the crossing system."""
    calls = [_count(monkeypatch, name) for name in CROSS_PASSES]
    for N, m in SHAPES:
        for rotation in ROTATIONS:
            p = synthesize_pattern(N, m, rotation=rotation)
            snapped, _ = rationalize_pattern(p)
            for q in (p, snapped):
                assert construct._certify_pattern(q.flats, q.subspaces) is not None
    assert calls == [[], [], []]


def _frame_flat(points):
    arr = Arrangement(points)
    return PatternFlat(flat=flat_from_tau(tau_for_arrangement(arr)), arrangement=arr)


def _paired(line, plane):
    return PatternSubspace(
        subspace=subspace_from_pair(line, plane), pair=LinePlanePair(line, plane)
    )


def _cross3(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def test_degenerate_cell_gives_none():
    """Against a synthesized 2 x 2 pattern at m = 3: the plane through the
    frame points P_0 and P_2 and the line P_0 + P_1 make a Degenerate cell
    (the plane sees one eigenline, and the line leaves its span), so the
    pattern with that subspace in either column is not certified."""
    p = synthesize_pattern(2, 3)
    P = [q.rep for q in p.flats[0].arrangement.points]
    line = [a + b for a, b in zip(P[0], P[1])]
    bad = PatternSubspace(subspace=subspace_from_pair(line, _cross3(P[2], P[0])))
    res = intersect(p.flats[0].flat, bad.subspace)
    assert (res.kind, res.kernel_dim) == (IntersectionKind.DEGENERATE, 2)
    assert construct._certify_pattern(p.flats, p.subspaces) is not None
    for subspaces in ([p.subspaces[0], bad], [bad, p.subspaces[1]]):
        assert _certify_pattern_reference(p.flats, subspaces) is None
        assert construct._certify_pattern(p.flats, subspaces) is None


def test_general_position_error_cell_gives_none():
    """Against a synthesized 2 x 2 pattern at m = 3: a plane through the
    frame point P_2 alone makes link_decision raise GeneralPositionError,
    while the oracle calls the cell Empty, so the pattern with that pair in
    either column is not certified."""
    p = synthesize_pattern(2, 3)
    P = [q.rep for q in p.flats[0].arrangement.points]
    line, plane = [1, 2, 3], _cross3(P[2], [1, 1, 1])
    bad = _paired(line, plane)
    assert intersect(p.flats[0].flat, bad.subspace).kind is IntersectionKind.EMPTY
    with pytest.raises(GeneralPositionError):
        link_decision(p.flats[0].arrangement, bad.pair)
    for subspaces in ([p.subspaces[0], bad], [bad, p.subspaces[1]]):
        assert _certify_pattern_reference(p.flats, subspaces) is None
        assert construct._certify_pattern(p.flats, subspaces) is None


def test_disagreeing_routes_give_none():
    """A pair whose subspace is not the pair's own: the criterion says
    NotLinked and the oracle TransversePoint, and no route is picked."""
    flats = [_frame_flat([[1, 0], [0, 1]])]
    linked = _paired([1, 1], [1, 1])
    assert link_decision(flats[0].arrangement, linked.pair) is LinkDecision.LINKED
    wrong = PatternSubspace(subspace=linked.subspace, pair=LinePlanePair([1, 1], [1, -2]))
    assert link_decision(flats[0].arrangement, wrong.pair) is LinkDecision.NOT_LINKED
    assert _certify_pattern_reference(flats, [wrong]) is None
    assert construct._certify_pattern(flats, [wrong]) is None


def _rand_q(rng):
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def _decide_draws(rng, m, n):
    """n general-position (arrangement, pair) instances drawn as the
    criterion-1 test draws them."""
    draws = []
    while len(draws) < n:
        try:
            arr = Arrangement([[_rand_q(rng) for _ in range(m)] for _ in range(m)])
            pair = LinePlanePair(
                [_rand_q(rng) for _ in range(m)], [_rand_q(rng) for _ in range(m)]
            )
        except ValueError:
            continue
        if in_general_position(arr, pair):
            draws.append((arr, pair))
    return draws


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_intersection_table_matches_intersect(m):
    """Every cell of the table of 8 decide-style flats against their 8
    subspaces has intersect's kind and sign. Random pairs rarely link at
    m = 5, so the table also holds, per draw, the subspace with the draw's
    plane through a PD point F D F^T of its flat (F the frame, D a random
    positive diagonal), and a diagonal flat and a subspace whose plane is
    e_1, whose cell is Degenerate for m >= 3."""
    rng = random.Random(4400 + m)
    draws = _decide_draws(rng, m, 8)
    flats = [flat_from_tau(tau_for_arrangement(arr)) for arr, _ in draws]
    flats.append(flat_from_tau(QMatrix.diagonal(range(1, m + 1))))
    subspaces = [
        subspace_from_rho(involution_for_pair(lp.line.rep, lp.plane.functional))
        for _, lp in draws
    ]
    for arr, lp in draws:
        F = arr.frame_matrix()
        D = QMatrix.diagonal([rng.randint(1, 5) for _ in range(m)])
        plane = lp.plane.functional
        subspaces.append(subspace_from_pair((F @ D @ transpose(F)).apply(plane), plane))
    subspaces.append(subspace_from_pair([1] * m, [1] + [0] * (m - 1)))
    table = intersection_table(flats, subspaces)
    assert len(table) == len(flats)
    seen = set()
    for X, row in zip(flats, table):
        assert len(row) == len(subspaces)
        for Y, cell in zip(subspaces, row):
            res = intersect(X, Y)
            assert cell == (res.kind, res.sign)
            transverse = res.kind is IntersectionKind.TRANSVERSE_POINT
            seen.add((res.kind, Y.orientation if transverse else None))
    T, E, D = (
        IntersectionKind.TRANSVERSE_POINT,
        IntersectionKind.EMPTY,
        IntersectionKind.DEGENERATE,
    )
    # the orientation bit is (-1)^(m(m-1)^2/2) sign(det[w | U])^m: always -1
    # at m = 2, always +1 at m = 4, either at odd m
    want = {(E, None), (T, -1 if m == 2 else 1)}
    if m > 2:
        want.add((D, None))
    if m % 2:
        want.add((T, -1))
    assert want <= seen


def _nonzero(rng):
    return rng.choice([-3, -2, -1, 1, 2, 3])


def _eigen_columns(rng, g, shared):
    """Subspaces of five kinds, set by their eigen-coordinates (c, e) for
    the eigenbasis g of the flats: the line is g c and the plane g^-T e, so
    that mu_i = e_i c_i (see `symspace._cross`). Returns (kind, Y) pairs.

    kind 0, every mu_i of one sign: TransversePoint; 1, every mu_i nonzero
    with mixed signs: Empty with det H != 0; 2, e_z = 0 only: the lam = 0
    Empty; 3, e_z = c_z = 0: Degenerate; 4, c_z = 0 only: Empty with
    det J = 0. Kinds 2 to 4 have det H = 0. With `shared`, kinds 0 to 2
    use one line and kinds 3 and 4 another. Else each column draws its own,
    and the kinds take turns past three columns each until the kind-0
    columns have s_0 = v . w of both signs; one shared line can fix that
    sign for every plane of one sign pattern.
    """
    m = g.nrows
    g_dual = transpose(g.inverse())
    z = rng.randrange(m)
    full = [_nonzero(rng) for _ in range(m)]
    holed = [0 if i == z else _nonzero(rng) for i in range(m)]
    columns, s0_signs = [], set()
    while len(columns) < 15 or not (shared or s0_signs == {-1, 1}):
        kind = len(columns) % 5
        if not shared:
            full = [_nonzero(rng) for _ in range(m)]
            holed = [0 if i == z else _nonzero(rng) for i in range(m)]
        c = holed if kind in (3, 4) else full
        signs = [rng.choice([-1, 1]) for _ in range(m)]
        if kind == 0:
            signs = [signs[0]] * m
        elif kind == 1:
            signs[1] = -signs[0]
        e = [s * abs(_nonzero(rng)) * (1 if x >= 0 else -1) for s, x in zip(signs, c)]
        if kind in (2, 3):
            e[z] = 0
        if not sum(map(operator.mul, e, c)):  # the line lies in the plane
            continue
        Y = subspace_from_pair(g.apply(c), g_dual.apply(e))
        if kind == 0:
            s0_signs.add(sign(sum(map(operator.mul, Y.line, Y.plane))))
        columns.append((kind, Y))
    return columns


@pytest.mark.parametrize("shared", [True, False], ids=["shared_lines", "own_lines"])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_intersection_table_moment_route(m, shared, monkeypatch):
    """The table against `intersect` on three flats g D g^-1 sharing a
    random integer eigenbasis g, with one eigenvalue list in three orders,
    and subspaces of five kinds (`_eigen_columns`). Only the det H = 0
    cells reach `_cross`'s echelon (`_cross_dim`), and no cell reaches its
    point solve: no back-substitution runs, not even at r = m (kind 4).
    The transverse cells have
    det J = det[v | tau v | ...] of both signs, as rows 0 and 1 differ by
    one transposition of the eigenvalues, so each row needs its own Krylov
    vectors and the crossing sign needs sign det J. With their own lines
    they also have s_0 = v . w of both signs, which the sign needs at odd
    m."""
    rng = random.Random(5200 + 10 * m + shared)
    g = rnd_invertible(rng, m, bound=2)
    g_inv = g.inverse()
    d = sorted(rng.sample([*range(-6, 0), *range(1, 7)], m))
    orders = [d, [d[1], d[0], *d[2:]], rng.sample(d, m)]
    flats = [flat_from_tau(g @ QMatrix.diagonal(o) @ g_inv) for o in orders]
    columns = _eigen_columns(rng, g, shared)
    subspaces = [Y for _, Y in columns]
    calls = {name: _count(monkeypatch, name) for name in CROSS_PASSES}
    table = intersection_table(flats, subspaces)
    assert {name: len(c) for name, c in calls.items()} == {
        "_cross": 0,
        "_cross_dim": len(flats) * sum(kind >= 2 for kind, _ in columns),
        "_back_substitute": 0,
    }
    monkeypatch.undo()
    T, E, D = (
        IntersectionKind.TRANSVERSE_POINT,
        IntersectionKind.EMPTY,
        IntersectionKind.DEGENERATE,
    )
    want_kinds = [T, E, E, D, E]
    factors = set()
    for X, row in zip(flats, table):
        for (kind, Y), cell in zip(columns, row):
            res = intersect(X, Y)
            assert cell == (res.kind, res.sign)
            assert res.kind is want_kinds[kind]
            if kind == 0:
                J = [Y.line]
                for _ in range(m - 1):
                    J.append(X.tau.apply(J[-1]))
                s0 = sum(map(operator.mul, Y.line, Y.plane))
                factors.add((sign(s0), sign(det(QMatrix.from_columns(J)))))
    assert {d for _, d in factors} == {-1, 1}
    if not shared:
        assert factors == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_intersection_table_rejects_dimension_mismatch():
    X = flat_from_tau(QMatrix.diagonal([1, 2]))
    Y = subspace_from_pair([1, 1, 1], [1, 1, 1])
    with pytest.raises(ValueError, match="dimension"):
        intersection_table([X], [Y])
    assert intersection_table([], []) == []


def test_link_decisions_match_link_decision():
    rng = random.Random(4500)
    for m in (2, 3, 4, 5):
        draws = _decide_draws(rng, m, 6)
        pairs = [lp for _, lp in draws]
        for arr, _ in draws:
            want = []
            for lp in pairs:
                try:
                    want.append(link_decision(arr, lp))
                except GeneralPositionError:
                    want = None
                    break
            if want is None:
                with pytest.raises(GeneralPositionError):
                    link_decisions(arr, pairs)
            else:
                assert link_decisions(arr, pairs) == want


def test_link_decisions_solve_once_per_line(monkeypatch):
    calls = []

    def counted(arr, L):
        calls.append(L)
        return solve(arr, L)

    solve = projlink._frame_solve
    monkeypatch.setattr(projlink, "_frame_solve", counted)
    arr = Arrangement([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    pairs = [LinePlanePair(line, [1, 1, s]) for line in ([1, 2, 3], [2, 4, 6], [1, 1, 1]) for s in (1, 2)]
    assert link_decisions(arr, pairs) == [LinkDecision.LINKED] * 6
    assert calls == [projlink.ProjPoint([1, 2, 3]), projlink.ProjPoint([1, 1, 1])]


def test_synthesis_solves_for_each_frame_once(monkeypatch):
    """Every pair of a synthesized pattern has the line (1, ..., 1, 0), so
    certifying the 8 x 8 pattern solves once per flat: 8 solves, not 64."""
    calls = []

    def counted(arr, L):
        calls.append(L)
        return solve(arr, L)

    solve = projlink._frame_solve
    monkeypatch.setattr(projlink, "_frame_solve", counted)
    p = synthesize_pattern(8, 3)
    assert p.is_upper_triangular_nonzero_diagonal()
    assert len(calls) == 8
