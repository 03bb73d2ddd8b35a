import random
from fractions import Fraction

import pytest

from flatlink.construct import tau_for_arrangement
from flatlink.projlink import (
    Arrangement,
    GeneralPositionError,
    LinkDecision,
    LinePlanePair,
    in_general_position,
    link_decision,
)
from flatlink.qkernel import (
    QMatrix,
    _int_matrix,
    char_poly,
    det,
    kernel_basis,
    rank,
    sign,
)
from flatlink.symspace import (
    FlatX,
    IntersectionKind,
    SPDPoint,
    SubspaceY,
    _moment_kind,
    _moment_powers,
    _pair_step,
    _sylvester,
    flat_from_tau,
    flat_membership_system,
    intersect,
    intersection_sign,
    involution_for_pair,
    subspace_from_pair,
    subspace_from_rho,
    subspace_membership_system,
    sym_dim,
    sym_pairs,
)

from _reference import (
    flat_contains,
    fraction_det,
    is_positive_definite,
    subspace_contains,
    transpose,
    unvec_sym,
    vec_sym,
)

F = Fraction


def rnd_invertible(rng, m, bound=3):
    while True:
        g = QMatrix([[rng.randint(-bound, bound) for _ in range(m)] for _ in range(m)])
        if det(g) != 0:
            return g


def rational_frame_flat(rng, m):
    """tau with rational eigenframe: columns of g, distinct rational eigenvalues."""
    pool = [F(2), F(3), F(1, 2), F(-1), F(5), F(1, 3), F(-2), F(7, 2)]
    vals = rng.sample(pool, m)
    g = rnd_invertible(rng, m)
    tau = g @ QMatrix.diagonal(vals) @ g.inverse()
    return tau, g


def flat_basis(tau):
    """The flat's canonical basis, from the reference membership system."""
    return [unvec_sym(v, tau.nrows) for v in kernel_basis(flat_membership_system(tau))]


def test_sym_coordinate_order():
    assert sym_pairs(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    M = QMatrix([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
    assert vec_sym(M) == (1, 2, 3, 4, 5, 6)
    assert unvec_sym((1, 2, 3, 4, 5, 6), 3) == M


def test_pd_checks():
    assert is_positive_definite(QMatrix([[2, 1], [1, 1]]))
    assert not is_positive_definite(QMatrix([[1, 2], [2, 1]]))
    with pytest.raises(ValueError):
        SPDPoint(QMatrix([[0, 1], [1, 0]]))


SYLVESTER_PINNED = [
    ([[0, 1], [1, 0]], False),  # zero first pivot, nonsingular
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], False),  # zero second pivot
    ([[0, 0], [0, 1]], None),  # zero first column
    ([[1, 1], [1, 1]], None),  # singular after one positive pivot
    ([[-2, 1], [1, -3]], False),  # negative definite
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], True),
    ([[5]], True),
    ([[0]], None),
]


def _symmetric_ints(rng, m):
    """A symmetric integer m x m matrix: plain, B^T B + D (positive
    definite), its negative, or B^T B for a B of rank below m (singular)."""
    kind = rng.choice(["plain", "pd", "nd", "singular"])
    if kind == "plain":
        a = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                a[i][j] = a[j][i] = rng.randint(-4, 4)
        return a
    n = m - 1 if kind == "singular" else m
    B = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    a = [[sum(r[i] * r[j] for r in B) for j in range(m)] for i in range(m)]
    if kind != "singular":
        for i in range(m):
            a[i][i] += rng.randint(1, 3)
    return [[-x for x in r] for r in a] if kind == "nd" else a


def _sylvester_reference(a):
    if is_positive_definite(QMatrix(a)):
        return True
    return None if det(QMatrix(a)) == 0 else False


@pytest.mark.parametrize("a, want", SYLVESTER_PINNED, ids=str)
def test_sylvester_pinned(a, want):
    assert _sylvester_reference(a) is want
    assert _sylvester([r[:] for r in a]) is want


def test_sylvester_matches_reference():
    """The three answers of the one definiteness pass against Sylvester's
    test over Fractions and the determinant, at m = 1..6."""
    rng = random.Random(3201)
    seen = set()
    for m in range(1, 7):
        for _ in range(120):
            a = _symmetric_ints(rng, m)
            want = _sylvester_reference(a)
            assert fraction_det(a) == det(QMatrix(a))
            assert _sylvester([r[:] for r in a]) is want, a
            seen.add((m, want))
    assert all((m, w) in seen for m in range(1, 7) for w in (True, False, None))


def test_flat_from_tau_diagonal():
    X = flat_from_tau(QMatrix.diagonal([2, F(1, 2)]))
    assert flat_basis(X.tau) == [
        QMatrix([[1, 0], [0, 0]]),
        QMatrix([[0, 0], [0, 1]]),
    ]


def test_flat_from_tau_symmetric_case():
    tau = QMatrix([[2, 1], [1, 1]])
    X = flat_from_tau(tau)
    basis = flat_basis(X.tau)
    assert len(basis) == 2
    # solution space is span{I, tau}: check both memberships and the dimension
    assert flat_contains(X, QMatrix.identity(2))
    assert flat_contains(X, tau)
    vecs = [vec_sym(B) for B in basis]
    assert rank(QMatrix(vecs + [vec_sym(QMatrix.identity(2))])) == 2
    assert rank(QMatrix(vecs + [vec_sym(tau)])) == 2


def test_flat_from_tau_rejects():
    with pytest.raises(ValueError):
        flat_from_tau(QMatrix.identity(2))  # repeated eigenvalue
    with pytest.raises(ValueError):
        flat_from_tau(QMatrix([[0, 1], [0, 0]]))  # singular
    with pytest.raises(ValueError):
        flat_from_tau(QMatrix([[0, -1], [1, 0]]))  # complex eigenvalues
    # singular with distinct real eigenvalues: only the invertibility check fails
    with pytest.raises(ValueError, match="invertible"):
        flat_from_tau(QMatrix.diagonal([0, 1]))


def _fraction_route_verdict(tau):
    """flat_from_tau's verdict by the rational route it replaced: char_poly,
    then the Sturm count of the rational chain (Fraction division)."""
    if not tau.is_square:
        return "tau must be square"
    p = char_poly(tau)
    if p.coeffs[0] == 0:
        return "tau must be invertible"
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree >= 1:
        chain.append(chain[-2] % chain[-1] * -1)
    if chain[-1].is_zero:
        chain.pop()

    def variations(signs):
        seq = [x for x in signs if x != 0]
        return sum(1 for a, b in zip(seq, seq[1:]) if a != b)

    count = variations(sign(q.lead) * (-1) ** (q.degree & 1) for q in chain) - (
        variations(sign(q.lead) for q in chain)
    )
    if count != tau.nrows:
        return "tau must have m distinct real eigenvalues"
    return None


def _flat_from_tau_verdict(tau):
    try:
        X = flat_from_tau(tau)
    except ValueError as e:
        return str(e)
    assert X == FlatX(tau)
    return None


def _verdict_draws(rng, m):
    """Random, symmetric, derogatory (a repeated eigenvalue, moved off the
    axes), singular and nonsquare tau, some with rational entries."""
    def q():
        return F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))

    out = []
    for _ in range(12):
        out.append(QMatrix([[q() for _ in range(m)] for _ in range(m)]))
        S = [[q() for _ in range(m)] for _ in range(m)]
        out.append(QMatrix([[S[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]))
        g = rnd_invertible(rng, m)
        vals = [q() for _ in range(m)]
        vals[rng.randrange(m)] = vals[rng.randrange(m)]  # sometimes repeated
        if rng.random() < 0.5:
            vals[0] = vals[-1]
        out.append(g @ QMatrix.diagonal(vals) @ g.inverse())
        vals[rng.randrange(m)] = 0
        out.append(g @ QMatrix.diagonal(vals) @ g.inverse())
        rows = [[q() for _ in range(m)] for _ in range(m)]
        rows[-1] = [2 * x for x in rows[0]]  # singular, random otherwise
        out.append(QMatrix(rows))
    out.append(QMatrix([[q() for _ in range(m + 1)] for _ in range(m)]))
    return out


@pytest.mark.parametrize("m", range(2, 7))
def test_flat_from_tau_matches_fraction_route(m):
    """The integer checks on A = L tau give the verdicts, in the same order
    and with the same messages, as char_poly and the rational Sturm chain."""
    rng = random.Random(2100 + m)
    seen = set()
    for tau in _verdict_draws(rng, m):
        want = _fraction_route_verdict(tau)
        assert _flat_from_tau_verdict(tau) == want, tau
        seen.add(want)
    assert seen == {
        None,
        "tau must be square",
        "tau must be invertible",
        "tau must have m distinct real eigenvalues",
    }


def test_solution_dimension_is_m():
    rng = random.Random(3)
    for m in (2, 3, 4):
        for _ in range(10):
            tau, _ = rational_frame_flat(rng, m)
            assert len(flat_basis(flat_from_tau(tau).tau)) == m


@pytest.mark.parametrize("m", range(2, 8))
def test_orientation_closed_form(m):
    """The orientation bit against the kernel-basis determinant it replaced."""
    rng = random.Random(40 + m)
    for _ in range(40):
        line = [rng.randint(-3, 3) for _ in range(m)]
        plane = [rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(m)]
        try:
            Y = subspace_from_rho(involution_for_pair(line, plane))
        except ValueError:
            continue
        w = Y.plane
        ref = sign(det(QMatrix.from_columns([w, *kernel_basis(QMatrix([w]))])))
        assert Y.orientation == (-1) ** (m * (m - 1) ** 2 // 2) * ref**m


def test_subspace_from_rho_examples():
    Y = subspace_from_rho(QMatrix([[0, 1], [1, 0]]))
    assert Y.line == (1, 1)
    assert Y.plane == (1, 1)

    Y3 = subspace_from_rho(QMatrix.diagonal([1, -1, -1]))
    assert Y3.line == (1, 0, 0)
    assert Y3.plane == (1, 0, 0)

    g = QMatrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    for rho in (
        QMatrix.identity(3),
        QMatrix.diagonal([1, 1, -1]),
        QMatrix([[1, 1], [0, 1]]),
        QMatrix.diagonal([-1, -1]),
        QMatrix.diagonal([-1, -1, -1]),
        QMatrix.identity(2),
        g @ QMatrix.diagonal([1, -1, 1]) @ g.inverse(),  # (+1, +1, -1), not diagonal
        QMatrix([[0, 2], [1, 0]]),  # squares to 2 I
        QMatrix([[1, 0, 0], [0, -1, 0]]),
    ):
        with pytest.raises(ValueError):
            subspace_from_rho(rho)


@pytest.mark.parametrize("m", range(2, 6))
def test_subspace_from_rho_rejects_near_involutions(m):
    """A rational involution is accepted; moving one off-diagonal entry by a
    small amount keeps the trace but not rho^2 = I, and is rejected."""
    rng = random.Random(300 + m)
    eps = F(1, 2**20)
    while True:
        v = [F(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(m)]
        w = [
            F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
            for _ in range(m)
        ]
        if sum(a * b for a, b in zip(v, w)) not in (0, 1, -1, 2, -2):
            break
    rho = involution_for_pair(v, w)
    assert any(x.denominator > 1 for r in rho.rows for x in r)
    assert subspace_from_rho(rho).rho == rho
    near = []
    for i in range(m):
        for j in range(m):
            if i != j:
                rows = rho.to_lists()
                rows[i][j] += eps
                near.append(QMatrix(rows))
    if m >= 3:
        # diag(1, -1, ..., -1) - (eps/2) E_12 squares to I + eps E_12 exactly
        rows = QMatrix.diagonal([1] + [-1] * (m - 1)).to_lists()
        rows[1][2] = -eps / 2
        near.append(QMatrix(rows))
    for X in near:
        assert sum(X[i, i] for i in range(m)) == 2 - m and X @ X != QMatrix.identity(m)
        with pytest.raises(ValueError, match="involution"):
            subspace_from_rho(X)


@pytest.mark.parametrize("m", range(2, 7))
def test_subspace_from_pair_matches_rho(m):
    """The closed form against the rho route and against the eigenvector
    kernels of rho, with line and plane given at negative and non-integer
    scales."""
    rng = random.Random(70 + m)
    I = QMatrix.identity(m)
    done = 0
    while done < 30:
        line = [rng.randint(-4, 4) for _ in range(m)]
        plane = [rng.choice([0, rng.randint(-4, 4)]) for _ in range(m)]
        try:
            rho = involution_for_pair(line, plane)
        except ValueError:
            continue
        (v,) = kernel_basis(rho - I)
        (w,) = kernel_basis(transpose(rho) - I)
        a = F(-rng.randint(1, 6), 7)
        b = F(rng.choice([-1, 1]) * rng.randint(1, 4), 5)
        Y = subspace_from_pair([a * x for x in line], [b * x for x in plane])
        assert Y == subspace_from_rho(rho)
        assert (Y.line, Y.plane) == (v, w)
        assert all(type(x) is int for x in Y.line + Y.plane)
        assert Y.rho == rho
        done += 1


def test_involution_for_pair():
    rho = involution_for_pair([1, 1], [2, -1])
    assert rho == QMatrix([[3, -2], [4, -3]])
    assert rho @ rho == QMatrix.identity(2)
    Y = subspace_from_rho(rho)
    assert Y.line == (1, 1)
    assert Y.plane == (2, -1)
    for line, plane in (([1, 0], [0, 1]), ([0, 0], [1, 1]), ([1, 1], [0, 0])):
        for build in (involution_for_pair, subspace_from_pair):
            with pytest.raises(ValueError, match="inside the plane"):
                build(line, plane)


def test_subspace_refuses_entries_that_are_not_ints():
    """The integer passes read a SubspaceY's line and plane as they are,
    where `//` would floor a Fraction."""
    Y = subspace_from_pair([1, 1], [2, -1])
    assert SubspaceY(Y.line, Y.plane, Y.orientation) == Y
    for line, plane in (((F(1, 2), 1), (2, -1)), ((1, 1), (2.0, -1))):
        with pytest.raises(TypeError):
            SubspaceY(line, plane, 1)


def test_involution_for_pair_rejects_dimension_mismatch():
    for line, plane in (([1, 1], [1, 1, 5]), ([1, 1, 1], [1, 1])):
        for build in (involution_for_pair, subspace_from_pair):
            with pytest.raises(ValueError, match="dimension mismatch"):
                build(line, plane)


@pytest.mark.parametrize("m", range(2, 7))
def test_involution_for_pair_matches_fraction_formula(m):
    """One fraction per entry of the integer-scaled line and plane equals
    2 v_i u_j / (u.v) - delta_ij on the inputs as given: ints, Fractions and
    strings, either sign of u.v."""
    rng = random.Random(2200 + m)

    def entry():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-7, 7)
        x = F(rng.randint(-7, 7), rng.randint(1, 12))
        return x if kind == 1 else str(x)

    done = 0
    while done < 40:
        line, plane = [entry() for _ in range(m)], [entry() for _ in range(m)]
        v, u = [F(x) for x in line], [F(x) for x in plane]
        uv = sum(a * b for a, b in zip(u, v))
        if uv == 0:
            continue
        want = QMatrix(
            [[2 * v[i] * u[j] / uv - (1 if i == j else 0) for j in range(m)] for i in range(m)]
        )
        rho = involution_for_pair(line, plane)
        assert rho == want
        assert all(type(x) is F for r in rho.rows for x in r)
        assert rho @ rho == QMatrix.identity(m)
        done += 1


def test_intersect_transverse_identity():
    X = flat_from_tau(QMatrix.diagonal([2, F(1, 2)]))
    Y = subspace_from_rho(QMatrix([[0, 1], [1, 0]]))
    res = intersect(X, Y)
    assert res.kind is IntersectionKind.TRANSVERSE_POINT
    assert res.kernel_dim == 1
    assert res.point.Z == QMatrix.identity(2)


def test_intersect_empty_case():
    # solution line span{diag(1, -2)} has no PD representative
    X = flat_from_tau(QMatrix.diagonal([2, F(1, 2)]))
    Y = subspace_from_rho(involution_for_pair([1, 1], [2, -1]))
    res = intersect(X, Y)
    assert res.kind is IntersectionKind.EMPTY
    assert res.kernel_dim == 1
    ker = kernel_basis(
        QMatrix(
            list(flat_membership_system(X.tau).rows)
            + list(subspace_membership_system(Y.rho).rows)
        )
    )
    assert [unvec_sym(v, 2) for v in ker] == [QMatrix.diagonal([1, -2])]


def test_intersect_degenerate():
    X = flat_from_tau(QMatrix.diagonal([1, 2, F(1, 2)]))
    Y = subspace_from_rho(QMatrix.diagonal([1, -1, -1]))
    res = intersect(X, Y)
    assert res.kind is IntersectionKind.DEGENERATE
    assert res.kernel_dim == 3
    assert res.point is None
    # w misses some eigenlines of tau^T, so its Krylov matrix is singular:
    # the kernel dimension is m - r, plus 1 when v lies in the span of the
    # eigenlines w sees
    E, D = IntersectionKind.EMPTY, IntersectionKind.DEGENERATE
    for eigenvalues, line, plane, kind, k in [
        ([1, 2, 3], [1, 1, 1], [1, 0, 0], D, 2),
        ([1, 2, 3], [1, 1, 1], [1, 1, 0], E, 1),
        ([1, 2, 3], [1, 1, 0], [1, 1, 0], D, 2),
        ([1, 2], [1, 1], [1, 0], E, 1),
    ]:
        X = flat_from_tau(QMatrix.diagonal(eigenvalues))
        res = intersect(X, subspace_from_rho(involution_for_pair(line, plane)))
        assert (res.kind, res.kernel_dim, res.point, res.sign) == (kind, k, None, None)


def _joint_system_intersection(X, Y):
    """(kind, kernel_dim, point matrix) from the stacked membership systems."""
    joint = flat_membership_system(X.tau).rows + subspace_membership_system(Y.rho).rows
    ker = kernel_basis(QMatrix(joint))
    if len(ker) != 1:
        return IntersectionKind.DEGENERATE, len(ker), None
    Z = unvec_sym(ker[0], X.m)  # primitive, so Z[0, 0] > 0 when Z is PD
    if not is_positive_definite(Z):
        return IntersectionKind.EMPTY, 1, None
    return IntersectionKind.TRANSVERSE_POINT, 1, Z


def test_closed_form_intersect_matches_joint_system():
    rng = random.Random(67)
    seen = set()
    for m in range(2, 6):
        done = 0
        while done < 12:
            tau, frame = rational_frame_flat(rng, m)  # X = {frame D frame^T}
            X = flat_from_tau(tau)
            if done % 2:  # a rational g leaves the basis non-integer
                g = QMatrix(
                    [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)] for _ in range(m)]
                )
                if det(g) == 0:
                    continue
                moved = [g @ B @ transpose(g) for B in flat_basis(X.tau)]
                X, frame = X.transport(g), g @ frame
                if all(x.denominator == 1 for B in moved for r in B.rows for x in r):
                    continue
            plane = [rng.randint(-3, 3) for _ in range(m)]
            if done % 3:  # Y through a PD point of X: Z w is parallel to v
                D = QMatrix.diagonal([rng.randint(1, 5) for _ in range(m)])
                line = (frame @ D @ transpose(frame)).apply(plane)
            else:
                line = [rng.randint(-3, 3) for _ in range(m)]
            try:
                Y = subspace_from_rho(involution_for_pair(line, plane))
            except ValueError:
                continue
            res = intersect(X, Y)
            point = res.point.Z if res.point is not None else None
            assert (res.kind, res.kernel_dim, point) == _joint_system_intersection(X, Y)
            seen.add((m, res.kind))
            done += 1
    kinds = {IntersectionKind.EMPTY, IntersectionKind.TRANSVERSE_POINT}
    assert {(m, k) for m in range(2, 6) for k in kinds} <= seen
    X = flat_from_tau(QMatrix.diagonal([1, 2, 3]))
    Y = subspace_from_rho(QMatrix.diagonal([1, -1, -1]))
    assert _joint_system_intersection(X, Y) == (IntersectionKind.DEGENERATE, 3, None)
    res = intersect(X, Y)
    assert (res.kind, res.kernel_dim, res.point) == (IntersectionKind.DEGENERATE, 3, None)
    # lines and planes built from tau's eigenframe: v from some columns of g,
    # w from some rows of g^{-1} (tau^T's eigenlines), so w's Krylov matrix
    # is singular whenever w misses an eigenline
    singular = set()
    for m in range(2, 6):
        done = 0
        while done < 10:
            tau, g = rational_frame_flat(rng, m)
            X = flat_from_tau(tau)
            gi = g.inverse()
            supports = [
                {j: rng.choice([-2, -1, 1, 3]) for j in rng.sample(range(m), rng.randint(1, m))}
                for _ in range(2)
            ]
            line = [sum(c * g[i, j] for j, c in supports[0].items()) for i in range(m)]
            plane = [sum(c * gi[j, i] for j, c in supports[1].items()) for i in range(m)]
            if done % 4 == 3:  # one side generic
                if rng.randint(0, 1):
                    line = [rng.randint(-3, 3) for _ in range(m)]
                else:
                    plane = [rng.randint(-3, 3) for _ in range(m)]
            try:
                Y = subspace_from_rho(involution_for_pair(line, plane))
            except ValueError:
                continue
            res = intersect(X, Y)
            point = res.point.Z if res.point is not None else None
            assert (res.kind, res.kernel_dim, point) == _joint_system_intersection(X, Y)
            if len(supports[1]) < m and done % 4 != 3:
                singular.add((m, res.kind))
            done += 1
    assert {(m, IntersectionKind.DEGENERATE) for m in range(2, 6)} <= singular
    assert {(m, IntersectionKind.EMPTY) for m in range(2, 6)} <= singular


def test_transverse_point_memberships():
    rng = random.Random(19)
    hits = 0
    while hits < 25:
        m = rng.randint(2, 4)
        tau, _ = rational_frame_flat(rng, m)
        X = flat_from_tau(tau)
        try:
            rho = involution_for_pair(
                [rng.randint(-3, 3) for _ in range(m)],
                [rng.randint(-3, 3) for _ in range(m)],
            )
            Y = subspace_from_rho(rho)
        except ValueError:
            continue
        res = intersect(X, Y)
        if res.kind is not IntersectionKind.TRANSVERSE_POINT:
            continue
        Z = res.point.Z
        assert flat_contains(X, Z)
        assert subspace_contains(Y, Z)
        assert is_positive_definite(Z)
        hits += 1


def test_equivariance_of_flats():
    rng = random.Random(31)
    for _ in range(15):
        m = rng.randint(2, 3)
        tau, _ = rational_frame_flat(rng, m)
        X = flat_from_tau(tau)
        g = rnd_invertible(rng, m)
        Xg = flat_from_tau(g @ tau @ g.inverse())
        gt = transpose(g)
        for B in flat_basis(X.tau):
            assert flat_contains(Xg, g @ B @ gt)
        for B in flat_basis(Xg.tau):
            assert flat_contains(X, g.inverse() @ B @ transpose(g.inverse()))


def test_transport_matches_recomputation():
    rng = random.Random(37)
    tau, _ = rational_frame_flat(rng, 3)
    X = flat_from_tau(tau)
    g = rnd_invertible(rng, 3)
    Xt = X.transport(g)
    Xr = flat_from_tau(g @ tau @ g.inverse())
    assert Xt.tau == Xr.tau
    gt = transpose(g)
    for B in flat_basis(tau):
        assert flat_contains(Xr, g @ B @ gt)
        assert flat_contains(Xt, g @ B @ gt)
    for m in range(2, 6):
        for _ in range(4):
            tau, _ = rational_frame_flat(rng, m)
            g = rnd_invertible(rng, m)
            assert flat_from_tau(tau).transport(g) == flat_from_tau(g @ tau @ g.inverse())


def test_membership_systems_match_their_definition():
    rng = random.Random(41)

    def q():
        return F(rng.randint(-9, 9), rng.randint(1, 5))

    for m in range(2, 6):
        for _ in range(5):
            tau = QMatrix([[q() for _ in range(m)] for _ in range(m)])
            while True:
                line, plane = [q() for _ in range(m)], [q() for _ in range(m)]
                if sum(a * b for a, b in zip(line, plane)) != 0:
                    break
            rho = involution_for_pair(line, plane)
            assert rho @ rho == QMatrix.identity(m)
            Z = unvec_sym([q() for _ in range(sym_dim(m))], m)
            D = tau @ Z - Z @ transpose(tau)
            assert flat_membership_system(tau).apply(vec_sym(Z)) == tuple(
                D[i, j] for i in range(m) for j in range(i + 1, m)
            )
            E = rho @ Z @ transpose(rho) - Z
            assert subspace_membership_system(rho).apply(vec_sym(Z)) == vec_sym(E)


def test_dimension_bookkeeping():
    for m in range(2, 9):
        assert (m - 1) + m * (m - 1) // 2 == sym_dim(m) - 1
    # solution-space dimensions realize the count for small m
    rng = random.Random(43)
    for m in (2, 3, 4):
        tau, _ = rational_frame_flat(rng, m)
        assert len(flat_basis(flat_from_tau(tau).tau)) == m  # contains the anchor too
        rho = involution_for_pair([1] * m, [1] + [0] * (m - 1))
        ker = kernel_basis(subspace_membership_system(rho))
        assert len(ker) == 1 + m * (m - 1) // 2


def test_oracle_matches_link_criterion_smoke():
    rng = random.Random(53)
    checked = 0
    while checked < 50:
        m = rng.randint(2, 4)
        tau, g = rational_frame_flat(rng, m)
        line = [rng.randint(-3, 3) for _ in range(m)]
        plane = [rng.randint(-3, 3) for _ in range(m)]
        try:
            arr = Arrangement([g.col(j) for j in range(m)])
            lp = LinePlanePair(line, plane)
        except (ValueError, GeneralPositionError):
            continue
        if not in_general_position(arr, lp):
            continue
        X = flat_from_tau(tau)
        Y = subspace_from_rho(involution_for_pair(line, plane))
        res = intersect(X, Y)
        assert res.kernel_dim == 1
        linked = link_decision(arr, lp) is LinkDecision.LINKED
        assert linked == (res.kind is IntersectionKind.TRANSVERSE_POINT)
        checked += 1


def test_intersection_sign_reference_case():
    X = flat_from_tau(QMatrix.diagonal([2, F(1, 2)]))
    Y = subspace_from_rho(QMatrix([[0, 1], [1, 0]]))
    res = intersect(X, Y)
    assert intersection_sign(X, Y, res.point) == +1


def test_intersection_sign_swap_flips():
    X = flat_from_tau(QMatrix.diagonal([2, F(1, 2)]))
    Y = subspace_from_rho(QMatrix([[0, 1], [1, 0]]))
    at = intersect(X, Y).point
    flipped = SubspaceY(Y.line, Y.plane, -Y.orientation)
    assert intersection_sign(X, flipped, at) == -intersection_sign(X, Y, at)


# Signs of 40 seeded transverse crossings per m, with Y's orientation and
# with it reversed (the Y-frame of the sign convention, and that frame with
# its first two vectors swapped).
PINNED_SIGNS = {
    2: (
        "+-+++-+-+-+-+-++--+-+++-+++-+++---++++-+",
        "-+---+-+-+-+-+--++-+---+---+---+++----+-",
    ),
    3: (
        "+-++++-+++-+-++--++---+-+-+++-+---+----+",
        "-+----+---+-+--++--+++-+-+---+-+++-++++-",
    ),
    4: (
        "--+-+-+-+--++-+-++-----+---------+-+--+-",
        "++-+-+-+-++--+-+--+++++-+++++++++-+-++-+",
    ),
    5: (
        "----++--+-++-+--+---++-+--+---+-++-+---+",
        "++++--++-+--+-++-+++--+-++-+++-+--+-+++-",
    ),
    6: (
        "+-+-+-++----+++-++++++--+-+--+-+++--+-++",
        "-+-+-+--++++---+------++-+-++-+---++-+--",
    ),
}


def _seeded_crossings(m, seed):
    """Transverse (X, Y, intersect(X, Y)): X from a random integer frame F,
    Y through the PD point F D F^T."""
    rng = random.Random(seed)
    while True:
        try:
            arr = Arrangement([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
        except ValueError:
            continue
        F = arr.frame_matrix()
        D = QMatrix.diagonal([rng.randint(1, 5) for _ in range(m)])
        plane = [rng.randint(-3, 3) for _ in range(m)]
        line = (F @ D @ transpose(F)).apply(plane)
        try:
            Y = subspace_from_rho(involution_for_pair(line, plane))
        except ValueError:
            continue
        X = flat_from_tau(tau_for_arrangement(arr))
        res = intersect(X, Y)
        if res.kind is IntersectionKind.TRANSVERSE_POINT:
            yield X, Y, res


@pytest.mark.parametrize("m", sorted(PINNED_SIGNS))
def test_intersection_sign_pinned(m):
    default, swapped = "", ""
    for X, Y, res in _seeded_crossings(m, 100 + m):
        s = intersection_sign(X, Y, res.point)
        flipped = SubspaceY(Y.line, Y.plane, -Y.orientation)
        t = intersection_sign(X, flipped, res.point)
        assert res.sign == s
        assert intersect(X, flipped).sign == t
        default += "+-"[s < 0]
        swapped += "+-"[t < 0]
        if len(default) == 40:
            break
    assert (default, swapped) == PINNED_SIGNS[m]


@pytest.mark.parametrize("m", [2, 3])
def test_sign_follows_the_stored_plane(m):
    """The sign is homogeneous of degree m in Y's plane: negating the stored
    plane flips it at odd m only, so the sign path must not normalise w."""
    crossings = _seeded_crossings(m, 200 + m)
    for _ in range(10):
        X, Y, res = next(crossings)
        negated = SubspaceY(Y.line, tuple(-x for x in Y.plane), Y.orientation)
        s = intersect(X, negated).sign
        assert s == intersection_sign(X, negated, res.point)
        assert s == (-1) ** m * res.sign


def test_intersection_sign_invariant_under_centralizer():
    # a = [[2,1],[1,2]] commutes with the swap involution and has det 3 > 0
    X = flat_from_tau(QMatrix.diagonal([2, F(1, 2)]))
    Y = subspace_from_rho(QMatrix([[0, 1], [1, 0]]))
    at = intersect(X, Y).point
    s0 = intersection_sign(X, Y, at)

    a = QMatrix([[2, 1], [1, 2]])
    assert a @ Y.rho == Y.rho @ a
    Xa = X.transport(a)
    ata = SPDPoint(a @ at.Z @ transpose(a))
    assert intersect(Xa, Y).kind is IntersectionKind.TRANSVERSE_POINT
    assert intersection_sign(Xa, Y, ata) == s0


def test_intersection_sign_requires_membership():
    X = flat_from_tau(QMatrix.diagonal([2, F(1, 2)]))
    Y = subspace_from_rho(QMatrix([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        intersection_sign(X, Y, SPDPoint(QMatrix([[2, 1], [1, 1]])))


def test_intersection_sign_rejects_non_transverse_point():
    # I lies on both, but the joint kernel is the 3-dim space of diagonals
    X = flat_from_tau(QMatrix.diagonal([1, 2, 3]))
    Y = subspace_from_rho(QMatrix.diagonal([1, -1, -1]))
    assert intersect(X, Y).kernel_dim == 3
    with pytest.raises(ValueError):
        intersection_sign(X, Y, SPDPoint(QMatrix.identity(3)))


# ---------------------------------------------------------------------------
# the moment form against intersect


def _moment_draw(rng, m, kind):
    """(tau, line, plane) of one of five kinds, or None when Y is undefined.

    tau = g S g^-1 with S symmetric, so g p(S) g^T lies on its flat for
    every polynomial p. kind 0: generic line and plane; 1: Y through a PD
    point of the flat; 2: the plane kills an eigenvector (column of g), so
    some mu_i = 0; 3: the line is an eigenline; 4: S a symmetric integer
    matrix, whose eigenvalues are usually irrational, and Y through a PD
    point.
    """
    plane = [rng.randint(-3, 3) for _ in range(m)]
    line = [rng.randint(-3, 3) for _ in range(m)]
    if kind < 4:
        tau, g = rational_frame_flat(rng, m)
        P = g @ QMatrix.diagonal([rng.randint(1, 5) for _ in range(m)]) @ transpose(g)
    else:
        R = QMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
        S = R + transpose(R)
        g = rnd_invertible(rng, m)
        tau = g @ S @ g.inverse()
        try:
            flat_from_tau(tau)
        except ValueError:  # a repeated eigenvalue
            return None
        P = g @ (S @ S + QMatrix.identity(m) * rng.randint(1, 4)) @ transpose(g)
    j = rng.randrange(m)
    e = [g[i, j] for i in range(m)]
    if kind == 2:  # w . e = 0
        ee, re = sum(x * x for x in e), sum(a * b for a, b in zip(plane, e))
        plane = [ee * a - re * b for a, b in zip(plane, e)]
    if kind in (1, 2, 4):
        line = P.apply(plane)
    if kind == 3:
        line = e
    if sum(a * b for a, b in zip(line, plane)) == 0:
        return None
    return tau, line, plane


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_moment_form_decides_transverse(m):
    """The moment form is definite exactly when `intersect` finds a
    transverse point. Each draw is tried with the line and its negative,
    so every transverse draw gives one positive and one negative definite
    form; a plane killing an eigenvector (some mu_i = 0) and a line on an
    eigenline are never transverse."""
    rng = random.Random(401 + m)
    transverse_draws = draws = 0
    while draws < 150:
        kind = draws % 5
        drawn = _moment_draw(rng, m, kind)
        if drawn is None:
            continue
        tau, line, plane = drawn
        draws += 1
        Y = subspace_from_rho(involution_for_pair(line, plane))
        transverse = intersect(flat_from_tau(tau), Y).kind is IntersectionKind.TRANSVERSE_POINT
        powers = _moment_powers(_int_matrix(tau)[1])
        for v in (Y.line, [-x for x in Y.line]):
            outer = [a * b for a in Y.plane for b in v]
            moments = [sum(a * b for a, b in zip(P, outer)) for P in powers]
            assert (_moment_kind(moments) is IntersectionKind.TRANSVERSE_POINT) is transverse
        assert not (transverse and kind in (2, 3))
        transverse_draws += transverse
    assert 20 <= transverse_draws <= draws - 20


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_pair_step_on_own_pair_is_intersect(m):
    """The descent's pair step, handed Y's own line and plane, decides as
    `intersect` does: None exactly when X ∩ Y is not a TransversePoint,
    else `intersect`'s primitive point and sign. The draws fix the line's
    and plane's eigen-coordinates c and e: of one sign in every product
    (a crossing), small, or with many zeros, so all three kinds occur; at
    odd m under orientation bits of both signs (at even m the bit is
    fixed, see `subspace_from_pair`)."""
    rng = random.Random(3700 + m)
    seen, bits = set(), set()
    for _ in range(8):
        tau, g = rational_frame_flat(rng, m)
        X = flat_from_tau(tau)
        g_dual = transpose(g.inverse())
        done = 0
        while done < 6:
            mode = done % 3
            if mode == 0:
                c = [rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(m)]
                e = [abs(y) if x > 0 else -abs(y) for x, y in zip(c, c[::-1])]
            else:
                c = [rng.choice([0, rng.randint(-3, 3)]) for _ in range(m)]
                e = [rng.choice([0, rng.randint(-3, 3)]) for _ in range(m)]
            if not sum(x * y for x, y in zip(c, e)):
                continue
            Y = subspace_from_pair(g.apply(c), g_dual.apply(e))
            res = intersect(X, Y)
            found = _pair_step(X, Y)(Y.line, Y.plane)
            if res.kind is IntersectionKind.TRANSVERSE_POINT:
                Z, s = found
                assert (QMatrix(Z), s) == (res.point.Z, res.sign)
                assert _int_matrix(res.point.Z)[0] == 1  # Z is primitive
            else:
                assert found is None
            seen.add(res.kind)
            bits.add(Y.orientation)
            done += 1
    assert seen == set(IntersectionKind)
    assert len(bits) == 1 + m % 2


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_decide_path_builds_no_fraction_rows(m):
    """A criterion-1 decision reads tau, rho and the crossing point only in
    their stored integer forms: after the oracle route and the sign, the
    Fraction-row cache of each is still empty."""
    rng = random.Random(3150 + m)

    def q():
        return F(rng.randint(-10, 10), rng.randint(1, 10))

    crossings = instances = 0
    while crossings < 4 or instances < 20:
        assert instances < 2000
        try:
            arr = Arrangement([[q() for _ in range(m)] for _ in range(m)])
            lp = LinePlanePair([q() for _ in range(m)], [q() for _ in range(m)])
        except ValueError:
            continue
        if not in_general_position(arr, lp):
            continue
        instances += 1
        tau = tau_for_arrangement(arr)
        X = flat_from_tau(tau)
        rho = involution_for_pair(lp.line.rep, lp.plane.functional)
        Y = subspace_from_rho(rho)
        res = intersect(X, Y)
        linked = link_decision(arr, lp) is LinkDecision.LINKED
        assert linked == (res.kind is IntersectionKind.TRANSVERSE_POINT)
        cached = [tau._rows, rho._rows]
        if linked:
            assert intersection_sign(X, Y, res.point) == res.sign
            cached.append(res.point.Z._rows)
            crossings += 1
        assert cached == [None] * len(cached)
