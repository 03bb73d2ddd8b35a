import itertools
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from flatlink import congruence, symspace
from flatlink.congruence import (
    CommutantError,
    CongruenceLevel,
    Decomposition,
    PtoqResult,
    _det_one_rows,
    _first_row_heads,
    _intertwine_rows,
    _normalize_on_fixed_line,
    _pull_back,
    _signed_hit,
    decomposition_valid,
    enumerate_same_sign,
    min_level_v,
    ptoq_solve,
    scalar_commutant_check,
)
from flatlink.qkernel import (
    QMatrix,
    _conjugate,
    _first_row_cofactors,
    _int_matrix,
    det,
    kernel_basis,
    rank,
)
from flatlink.symspace import (
    IntersectionKind,
    SPDPoint,
    _pair_step,
    flat_from_tau,
    intersect,
    intersection_sign,
    involution_for_pair,
    subspace_from_rho,
)

from _reference import transpose

TAU2 = QMatrix([[2, 1], [1, 1]])
RHO2 = QMatrix([[0, 1], [1, 0]])


def test_congruence_level():
    assert CongruenceLevel(5, 2).modulus == 25
    with pytest.raises(ValueError):
        CongruenceLevel(4, 1)
    with pytest.raises(ValueError):
        CongruenceLevel(5, 0)


def test_ptoq_identity():
    res = ptoq_solve(QMatrix.identity(2), TAU2, RHO2)
    assert res.kind == "solved"
    assert res.decomposition.a == QMatrix.identity(2)
    assert res.decomposition.b == QMatrix.identity(2)


def test_ptoq_singular_gamma_raises():
    with pytest.raises(ValueError):
        ptoq_solve(QMatrix([[1, 2], [2, 4]]), TAU2, RHO2)


def test_ptoq_gamma_in_rho_commutant():
    res = ptoq_solve(RHO2, TAU2, RHO2)
    assert res.kind == "solved"
    assert decomposition_valid(res.decomposition, RHO2, TAU2, RHO2)
    # normalized representative fixes the line of rho pointwise
    assert res.decomposition.a.apply((1, 1)) == (Fraction(1), Fraction(1))


def test_ptoq_commutation_fault_raises(monkeypatch):
    # a normalizer that breaks [a, rho] = 1 leaves a^-1 gamma off tau's
    # commutant; the check must hold under python -O too
    monkeypatch.setattr(
        "flatlink.congruence._normalize_on_fixed_line",
        lambda a, rho: QMatrix([[1, 1], [0, 1]]),
    )
    with pytest.raises(ArithmeticError):
        ptoq_solve(QMatrix.identity(2), TAU2, RHO2)


def _random_involution(rng, m):
    while True:
        line = [rng.randint(-3, 3) for _ in range(m)]
        plane = [rng.randint(-3, 3) for _ in range(m)]
        if all(x == 0 for x in line) or all(x == 0 for x in plane):
            continue
        if sum(a * b for a, b in zip(line, plane)) == 0:
            continue
        return involution_for_pair(line, plane), line, plane


def _random_rho_commuter(rng, rho, line, plane):
    m = rho.nrows
    w = kernel_basis(QMatrix([plane]))
    while True:
        W = [[rng.randint(-2, 2) for _ in range(m - 1)] for _ in range(m - 1)]
        alpha = rng.choice([1, 2, 3, Fraction(1, 2), -1])
        B = QMatrix.from_columns([line] + list(w))
        if det(B) == 0:
            continue
        block = [[0] * m for _ in range(m)]
        block[0][0] = alpha
        for i in range(m - 1):
            for j in range(m - 1):
                block[i + 1][j + 1] = W[i][j]
        a = B @ QMatrix(block) @ B.inverse()
        if det(a) != 0:
            return a


def _random_tau_commuter(rng, tau):
    m = tau.nrows
    while True:
        power = QMatrix.identity(m)
        b = power * rng.randint(-2, 2)
        for _ in range(m - 1):
            power = power @ tau
            b = b + power * rng.randint(-2, 2)
        if det(b) != 0:
            return b


def test_ptoq_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.choice([2, 3])
        rho, line, plane = _random_involution(rng, m)
        while True:
            tau = QMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            if det(tau) != 0:
                break
        a = _random_rho_commuter(rng, rho, line, plane)
        b = _random_tau_commuter(rng, tau)
        gamma = a @ b
        res = ptoq_solve(gamma, tau, rho)
        assert res.kind == "solved"
        assert decomposition_valid(res.decomposition, gamma, tau, rho)
        # rescaling keeps validity
        half = Decomposition(
            a=res.decomposition.a * Fraction(1, 2),
            b=res.decomposition.b * 2,
        )
        assert decomposition_valid(half, gamma, tau, rho)


def test_ptoq_generic_gamma_usually_unsolvable():
    rng = random.Random(9)
    kinds = []
    for _ in range(20):
        while True:
            gamma = QMatrix([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            if det(gamma) != 0:
                break
        res = ptoq_solve(gamma, TAU2, RHO2)
        kinds.append(res.kind)
        if res.kind == "solved":
            assert decomposition_valid(res.decomposition, gamma, TAU2, RHO2)
        else:
            assert res.kind == "no_solution"  # grid is affordable at m = 2
    assert "no_solution" in kinds


# ---------------------------------------------------------------------------
# reference: the search ptoq_solve ran before it decided in Q[tau]


def _ptoq_reference(gamma, tau, rho):
    """Solve for a in the 2m^2 x m^2 system (a commutes with rho, and
    a tau = (gamma tau gamma^-1) a), then look for an invertible kernel
    element: the basis, 64 seeded random combinations, and the grid
    {0..m}^d while (m + 1)^d <= 40000; "undecided" past that."""
    m = gamma.nrows
    moved = _conjugate(_int_matrix(gamma)[1], *_int_matrix(tau))
    rows = _intertwine_rows(tau.rows, moved.rows)
    rows += _intertwine_rows(rho.rows, rho.rows)
    ker = kernel_basis(QMatrix(rows))
    d = len(ker)
    if d == 0:
        return PtoqResult("no_solution", None)
    basis = [QMatrix([list(v[i * m : (i + 1) * m]) for i in range(m)]) for v in ker]

    def combine(coeffs):
        out = basis[0] * coeffs[0]
        for B, c in zip(basis[1:], coeffs[1:]):
            out = out + B * c
        return out

    def finish(a):
        a = _normalize_on_fixed_line(a, rho)
        return PtoqResult("solved", Decomposition(a=a, b=a.inverse() @ gamma))

    for a in basis:
        if det(a) != 0:
            return finish(a)
    rng = random.Random(0)
    for _ in range(64):
        a = combine([rng.randint(-3, 3) for _ in range(d)])
        if det(a) != 0:
            return finish(a)
    if (m + 1) ** d > 40000:
        return PtoqResult("undecided", None)
    for coeffs in itertools.product(range(m + 1), repeat=d):
        a = combine(coeffs)
        if det(a) != 0:
            return finish(a)
    return PtoqResult("no_solution", None)


def _assert_matches_reference(draws):
    """Both solvers give the same kind on every (gamma, tau, rho), and every
    decomposition is valid. Returns the kinds."""
    kinds = []
    for gamma, tau, rho in draws:
        res, ref = ptoq_solve(gamma, tau, rho), _ptoq_reference(gamma, tau, rho)
        assert ref.kind in ("solved", "no_solution")
        assert res.kind == ref.kind
        if res.kind == "solved":
            assert decomposition_valid(res.decomposition, gamma, tau, rho)
            assert decomposition_valid(ref.decomposition, gamma, tau, rho)
        else:
            assert res.decomposition is None
        kinds.append(res.kind)
    return kinds


def test_ptoq_matches_reference_on_criterion_6_draws(monkeypatch):
    import test_acceptance

    draws, results = [], []

    def recording(gamma, tau, rho):
        draws.append((gamma, tau, rho))
        results.append(ptoq_solve(gamma, tau, rho))
        return results[-1]

    monkeypatch.setattr(test_acceptance, "ptoq_solve", recording)
    test_acceptance.test_criterion_6_ptoq_solver()
    assert len(draws) == 250
    kinds = _assert_matches_reference(draws)
    assert kinds == [r.kind for r in results]
    # the last 50 are the crafted non-members: exactly no_solution
    assert kinds == ["solved"] * 200 + ["no_solution"] * 50


def _is_cyclic(tau):
    m = tau.nrows
    powers = [QMatrix.identity(m)]
    for _ in range(m - 1):
        powers.append(powers[-1] @ tau)
    return rank(QMatrix([[x for r in P.rows for x in r] for P in powers])) == m


def _sharing_pair(rng, m):
    """A cyclic tau = F D F^-1 and rho = F S F^-1, where S is -1 on the swap
    of D's first two eigenlines and +-1 on the others: the joint commutant
    is every p(tau) with p(D_0) = p(D_1), of dimension m - 1."""
    while True:
        F = QMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
        if det(F) != 0:
            break
    D = rng.sample(range(-4, 5), m)
    S = [[0] * m for _ in range(m)]
    S[0][1] = S[1][0] = -1
    for i in range(2, m):
        S[i][i] = rng.choice([1, -1])
    Finv = F.inverse()
    return F @ QMatrix.diagonal(D) @ Finv, F @ QMatrix(S) @ Finv


def _seeded_draws(seed, count):
    """count (gamma, tau, rho) at m = 2..4 with cyclic tau, in five shapes
    in turn. A random integer tau against an involution, with a member
    gamma = a b or a random integer gamma. A `_sharing_pair`, whose kernel
    spans can have dimension up to m - 1, with a member, a random integer
    gamma, or an elementary gamma (I plus one off-diagonal entry), whose
    span is often nonzero with every element singular."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        m = rng.choice([2, 3, 4])
        shape = len(draws) % 5
        if shape < 2:
            rho, line, plane = _random_involution(rng, m)
            tau = QMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            if not _is_cyclic(tau):
                continue
            a = _random_rho_commuter(rng, rho, line, plane)
        else:
            tau, rho = _sharing_pair(rng, m)
            while True:
                x = QMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
                a = x + rho @ x @ rho  # commutes with rho, since rho^2 = I
                if det(a) != 0:
                    break
        if shape in (0, 2):
            gamma = a @ _random_tau_commuter(rng, tau)
        elif shape == 4:
            rows = [[int(i == j) for j in range(m)] for i in range(m)]
            i, j = rng.sample(range(m), 2)
            rows[i][j] = rng.choice([1, -1, 2])
            gamma = QMatrix(rows)
        else:
            gamma = QMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            if det(gamma) == 0:
                continue
        draws.append((gamma, tau, rho))
    return draws


def test_ptoq_matches_reference_on_seeded_cyclic_draws():
    kinds = _assert_matches_reference(_seeded_draws(2501, 250))
    assert kinds.count("solved") >= 100 and kinds.count("no_solution") >= 100


@pytest.mark.parametrize(
    "tau",
    [
        QMatrix.identity(2) * 2,
        QMatrix.diagonal([1, 1, 2]),
        QMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]]),  # minimal polynomial (t - 2)^2
    ],
)
def test_ptoq_derogatory_tau_raises(tau):
    m = tau.nrows
    rho = involution_for_pair([1] * m, [1] + [0] * (m - 1))
    with pytest.raises(ValueError, match="derogatory"):
        ptoq_solve(QMatrix.identity(m), tau, rho)


# tau = diag(1, -3, 2) and rho = -(swap of e_2 and e_3) have the joint
# commutant {diag(x, y, y)}; for gamma = diag(1, -1, 4) the kernel is
# {p : -p(-3) = 4 p(2)}, with canonical basis s_1 = 1 - t and s_2 = 5 - t^2
SCAN_TAU = QMatrix.diagonal([1, -3, 2])
SCAN_RHO = QMatrix([[-1, 0, 0], [0, 0, -1], [0, -1, 0]])


def test_ptoq_scan_goes_past_singular_kernel_combinations():
    gamma = QMatrix.diagonal([1, -1, 4])
    powers = [QMatrix.identity(3), SCAN_TAU, SCAN_TAU @ SCAN_TAU]
    cols = []
    for P in powers:
        C = gamma @ P @ SCAN_RHO - SCAN_RHO @ gamma @ P
        cols.append([x for r in C.rows for x in r])
    ker = kernel_basis(QMatrix.from_columns(cols))
    assert ker == [(1, -1, 0), (5, 0, -1)]

    def p_of_tau(c):  # p_c = s_1 + c s_2
        p = [x + c * y for x, y in zip(*ker)]
        return sum((P * x for P, x in zip(powers, p)), QMatrix.diagonal([0] * 3))

    # p_0 = 1 - t vanishes at 1, p_1 = 6 - t - t^2 at -3 and 2: the scan
    # needs c = 2 = d, past the first d values
    assert [det(p_of_tau(c)) for c in range(3)] == [0, 0, -32]
    res = ptoq_solve(gamma, SCAN_TAU, SCAN_RHO)
    assert res.kind == "solved"
    assert decomposition_valid(res.decomposition, gamma, SCAN_TAU, SCAN_RHO)
    # a = gamma p_2(tau) = diag(8, 4, 4), normalized to fix rho's line (0, 1, -1)
    assert res.decomposition.a == QMatrix.diagonal([2, 1, 1])
    assert _ptoq_reference(gamma, SCAN_TAU, SCAN_RHO).kind == "solved"


def test_ptoq_crafted_non_members_are_no_solution():
    # gamma p(tau) commutes with rho only if p(1) = 0 and p(-3) = p(2): a
    # nonzero kernel, every element of it singular
    gamma = QMatrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert ptoq_solve(gamma, SCAN_TAU, SCAN_RHO) == PtoqResult("no_solution", None)
    assert _ptoq_reference(gamma, SCAN_TAU, SCAN_RHO).kind == "no_solution"
    # the necessary 2m^2 x m^2 system has zero kernel (criterion 6's
    # certificate of a non-member), at m = 2..4
    rng = random.Random(2502)
    crafted = 0
    while crafted < 30:
        m = 2 + crafted % 3
        rho = _random_involution(rng, m)[0]
        tau = QMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
        gamma = QMatrix([[rng.randint(-5, 5) for _ in range(m)] for _ in range(m)])
        if not _is_cyclic(tau) or det(gamma) == 0 or det(tau) == 0:
            continue
        rows = _intertwine_rows(tau.rows, (gamma @ tau @ gamma.inverse()).rows)
        rows += _intertwine_rows(rho.rows, rho.rows)
        if kernel_basis(QMatrix(rows)):
            continue
        assert ptoq_solve(gamma, tau, rho) == PtoqResult("no_solution", None)
        crafted += 1


def test_min_level_v():
    assert min_level_v((1, 1), 2) == 2
    assert min_level_v((1, 0), 3) == 1
    assert min_level_v((1, 1), 5) == 1
    assert min_level_v((2, 4), 2) == 2  # canonicalized to (1, 2) first
    with pytest.raises(ValueError):
        min_level_v((0, 0), 5)
    with pytest.raises(ValueError):
        min_level_v((1, 1), 6)


def test_min_level_v_is_minimal():
    from flatlink.projlink import ProjPoint

    cases = [((1, 1), 2), ((3, 6, 12), 3), ((5, 10), 5), ((1, 4), 2)]
    # seeded int and Fraction vectors whose entries share powers of p, so
    # that only the primitive vector has an entry prime to p
    rng = random.Random(38)
    for m in range(2, 7):
        for p in (2, 3, 5, 7, 1009):
            for _ in range(4):
                scale = p ** rng.randint(0, 5) * rng.choice((1, -1, 6))
                ints = [rng.randint(-40, 40) * p ** rng.randint(0, 2) for _ in range(m)]
                if not any(ints):
                    ints[rng.randrange(m)] = 1
                cases.append((tuple(scale * x for x in ints), p))
                cases.append((tuple(Fraction(scale * x, rng.randint(1, 30)) for x in ints), p))
    for v, p in cases:
        n = min_level_v(v, p)
        doubled = [2 * x for x in ProjPoint(v).rep]
        assert any(x % p**n != 0 for x in doubled)
        assert all(x % p ** (n - 1) == 0 for x in doubled)


def test_scalar_commutant_check():
    assert scalar_commutant_check(TAU2, RHO2)
    assert not scalar_commutant_check(TAU2, QMatrix.identity(2))
    assert not scalar_commutant_check(
        QMatrix.diagonal([1, 2]), QMatrix.diagonal([1, -1])
    )


def test_enumerate_tight_bound_only_identity():
    hits = enumerate_same_sign(TAU2, RHO2, CongruenceLevel(5, 1), entry_bound=1)
    assert len(hits) == 1
    assert hits[0].gamma == QMatrix.identity(2)
    assert hits[0].sign in (1, -1)


def test_enumerate_same_sign_and_level_monotonicity():
    shallow = enumerate_same_sign(TAU2, RHO2, CongruenceLevel(5, 1), entry_bound=12)
    assert shallow
    assert len({h.sign for h in shallow}) == 1
    for h in shallow:
        diff = h.gamma - QMatrix.identity(2)
        assert all(int(diff[i, j]) % 5 == 0 for i in range(2) for j in range(2))
        assert int(det(h.gamma)) == 1

    deep = enumerate_same_sign(TAU2, RHO2, CongruenceLevel(5, 2), entry_bound=12)
    shallow_gammas = {h.gamma for h in shallow}
    assert all(h.gamma in shallow_gammas for h in deep)


def test_enumerate_rejects_fat_commutant():
    with pytest.raises(CommutantError):
        enumerate_same_sign(
            QMatrix.diagonal([1, 2]), QMatrix.diagonal([1, -1]),
            CongruenceLevel(5, 1), entry_bound=5,
        )


# ---------------------------------------------------------------------------
# reference: the whole congruence ball, filtered by a plain integer det


def _plain_det(rows):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * x * _plain_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def _ball(m, q, bound):
    """Every integer matrix = I mod q with entries in [-bound, bound]."""
    diag = [x for x in range(-bound, bound + 1) if (x - 1) % q == 0]
    off = [x for x in range(-bound, bound + 1) if x % q == 0]
    cells = [diag if i == j else off for i in range(m) for j in range(m)]
    for entries in itertools.product(*cells):
        yield [list(entries[i * m : (i + 1) * m]) for i in range(m)]


def _det_one_points(m, q, bound):
    """The points of `congruence._det_one_rows`, each as a list of m row lists,
    the form `_ball` yields."""
    for rest, heads in _det_one_rows(m, q, bound):
        for head in heads:
            flat = head + rest
            yield [list(flat[i : i + m]) for i in range(0, m * m, m)]


def _brute_force_hits(tau, rho, q, bound):
    """(gamma, sign) of every transverse det-1 ball point, in report order."""
    X, Y = flat_from_tau(tau), subspace_from_rho(rho)
    hits = []
    for rows in _ball(tau.nrows, q, bound):
        if _plain_det(rows) != 1:
            continue
        moved = X.transport(QMatrix(rows))
        res = intersect(moved, Y)
        if res.kind is IntersectionKind.TRANSVERSE_POINT:
            hits.append((rows, intersection_sign(moved, Y, res.point)))

    def key(hit):
        entries = [x for r in hit[0] for x in r]
        return (max(abs(x) for x in entries), entries)

    return sorted(hits, key=key)


# seeded pairs: linked with hits of both signs, disjoint with two hits, a
# pair whose stored line and plane have v . w < 0, so that every moment form
# of its descent is negative definite (s_0 = w . v is the same for every
# pulled-back pair), and an m = 3 pair with a scalar commutant (its bound-5
# ball has 5,832 points)
LINKED = (QMatrix([[-4, 2], [1, 4]]), involution_for_pair((1, -1), (1, -3)))
DISJOINT = (QMatrix([[-1, -1], [-4, 3]]), involution_for_pair((3, 1), (-2, -1)))
NEGATIVE = (QMatrix([[-4, 3], [1, -1]]), involution_for_pair((-3, 2), (0, -1)))
M3 = (
    QMatrix([[8, 2, 0], [2, -2, -4], [0, -4, -2]]),
    involution_for_pair((0, -3, -1), (1, 3, -1)),
)


@pytest.mark.parametrize(
    "pair, level, bound",
    [
        ((TAU2, RHO2), (5, 1), 6),
        ((TAU2, RHO2), (5, 1), 12),
        ((TAU2, RHO2), (5, 1), 30),
        ((TAU2, RHO2), (5, 2), 30),
        (LINKED, (5, 1), 20),
        (DISJOINT, (5, 1), 20),
        (NEGATIVE, (5, 1), 20),
        (M3, (5, 1), 5),
    ],
    ids=[
        "c7-b6", "c7-b12", "c7-b30", "c7-5:2-b30", "linked-b20", "disjoint-b20",
        "negative-b20", "m3-b5",
    ],
)
def test_enumerate_matches_brute_force(pair, level, bound):
    tau, rho = pair
    level = CongruenceLevel(*level)
    hits = enumerate_same_sign(tau, rho, level, entry_bound=bound)
    got = _gammas_and_signs(hits)
    assert got == _brute_force_hits(tau, rho, level.modulus, bound)
    assert got  # every case has a hit to compare


@pytest.mark.parametrize(
    "m, q, bound",
    [(2, 5, 30), (2, 25, 30), (2, 2, 7), (2, 3, 10), (2, 5, 0), (2, 5, 1),
     (3, 5, 5), (3, 2, 3), (3, 3, 4)],
)
def test_det_one_points_are_the_det_one_ball(m, q, bound):
    want = sorted(rows for rows in _ball(m, q, bound) if _plain_det(rows) == 1)
    assert sorted(_det_one_points(m, q, bound)) == want


C7_B400_HITS = [
    ([[1, 0], [0, 1]], 1),
    ([[-89, -55], [-55, -34]], 1),
    ([[-34, 55], [55, -89]], 1),
]


def _gammas_and_signs(hits):
    return [([[int(x) for x in r] for r in h.gamma.rows], h.sign) for h in hits]


def test_deep_descent_criterion_7_in_seconds():
    """The criterion-7 pair at level (5, 1), bound 400: 13,297 det-1 points,
    three hits, one sign. Walking every entry but one took 4-5 s on a
    2-vCPU Xeon VM."""
    t0 = time.perf_counter()
    hits = enumerate_same_sign(TAU2, RHO2, CongruenceLevel(5, 1), entry_bound=400)
    assert time.perf_counter() - t0 < 3
    assert _gammas_and_signs(hits) == C7_B400_HITS


def test_descent_solves_a_crossing_once_per_hit(monkeypatch):
    """The moment form rules out every miss, so `_cross` runs only on the
    three hits of the bound-400 descent, each with a definite form."""
    calls = []
    cross = symspace._cross

    def counted(A, J, w):
        krylov = symspace._krylov(A, J[0], 2 * len(w) - 1)
        moments = [sum(a * b for a, b in zip(w, x)) for x in krylov]
        assert symspace._moment_kind(moments) is IntersectionKind.TRANSVERSE_POINT
        calls.append(1)
        return cross(A, J, w)

    monkeypatch.setattr(symspace, "_cross", counted)
    hits = enumerate_same_sign(TAU2, RHO2, CongruenceLevel(5, 1), entry_bound=400)
    assert _gammas_and_signs(hits) == C7_B400_HITS
    assert len(calls) == 3


def test_definite_form_without_a_crossing_raises(monkeypatch):
    """The pair step, on the identity's pair (v, w), whose form is definite."""
    monkeypatch.setattr(symspace, "_cross", lambda A, J, w: (1, None, None))
    Y = subspace_from_rho(RHO2)
    step = _pair_step(flat_from_tau(TAU2), Y)
    with pytest.raises(ArithmeticError):
        step(Y.line, Y.plane)


def test_m3_mixed_sign_descent():
    """M3 at level (5, 1), bound 10: six hits, one of them of sign -1."""
    hits = enumerate_same_sign(*M3, CongruenceLevel(5, 1), entry_bound=10)
    assert _gammas_and_signs(hits) == [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
        ([[1, -5, 5], [0, 1, 0], [0, 0, 1]], -1),
        ([[1, 0, 0], [0, 1, 0], [-5, 0, 1]], 1),
        ([[1, 0, 0], [5, 1, 0], [5, 0, 1]], 1),
        ([[1, 0, 0], [0, 1, 0], [-10, 0, 1]], 1),
        ([[1, 0, 0], [5, 1, 0], [10, 0, 1]], 1),
    ]


def test_enumerate_rejects_negative_bound():
    with pytest.raises(ValueError):
        enumerate_same_sign(TAU2, RHO2, CongruenceLevel(5, 1), entry_bound=-1)


# ---------------------------------------------------------------------------
# the descent's pull-back against the forward transport


def _descend_at(X, Y, gamma):
    """The descent's steps on one det-1 gamma (row-major ints): the
    pull-back of its row set, the pair step and the hit, or None."""
    m = X.m
    [(_, _, line, plane)] = _pull_back(m, Y.line, Y.plane, [(gamma[m:], [gamma[:m]])])
    found = _pair_step(X, Y)(line, plane)
    return None if found is None else _signed_hit(gamma, *found)


def _gamma_mod_5(rng, m):
    """A det-1 gamma = I mod 5: a product of elementary matrices I +- 5 E_ij."""
    g = QMatrix.identity(m)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(m), 2)
        E = [[0] * m for _ in range(m)]
        E[i][j] = rng.choice([5, -5])
        g = g @ (QMatrix.identity(m) + QMatrix(E))
    return g


def _flat_and_frame(rng, m):
    """A flat of rational tau = g D g^-1, which is {g L g^T : L diagonal}."""
    while True:
        g = QMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
        if det(g) != 0:
            break
    D = QMatrix.diagonal(rng.sample([1, 2, 3, 5, 7, -1, -2], m))
    return flat_from_tau(g @ D @ g.inverse()), g


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_pullback_sign_matches_forward(m):
    rng = random.Random(71 + m)
    hits = rebuilt_flips = 0
    for _ in range(30):
        X, g = _flat_and_frame(rng, m)
        gamma = _gamma_mod_5(rng, m)
        # Y through a PD point P of gamma X: P w is parallel to v
        L = QMatrix.diagonal([rng.randint(1, 4) for _ in range(m)])
        P = gamma @ g @ L @ transpose(g) @ transpose(gamma)
        plane = [rng.choice([-2, -1, 1, 2]) for _ in range(m)]
        Y = subspace_from_rho(involution_for_pair(P.apply(plane), plane))
        for c in (gamma, _gamma_mod_5(rng, m)):  # the second one mostly misses
            hit = _descend_at(X, Y, tuple(int(x) for r in c.rows for x in r))
            moved = X.transport(c)
            res = intersect(moved, Y)
            if res.kind is not IntersectionKind.TRANSVERSE_POINT:
                assert hit is None
                continue
            assert hit.gamma == c
            assert hit.point.Z == res.point.Z
            assert hit.sign == intersection_sign(moved, Y, res.point)
            hits += 1
            # the sign with the orientation recomputed on the pulled-back subspace
            ci = c.inverse()
            rebuilt = intersection_sign(
                X,
                subspace_from_rho(ci @ Y.rho @ c),
                SPDPoint(ci @ res.point.Z @ transpose(ci)),
            )
            rebuilt_flips += rebuilt != hit.sign
    assert hits >= 20
    if m % 2:  # odd m: only the carried orientation gives the forward sign
        assert rebuilt_flips > 0
    else:
        assert rebuilt_flips == 0


# ---------------------------------------------------------------------------
# row sets: the walk, the pull-back of each row set, and the pair step


def _reported(hits):
    """Everything a descent reports: gamma, point and sign of every hit."""
    return [(h.gamma, h.point.Z, h.sign) for h in hits]


@pytest.mark.parametrize(
    "pair, bound", [((TAU2, RHO2), 30), (M3, 10)], ids=["c7-b30", "m3-b10"]
)
def test_descents_in_a_row_report_what_the_first_does(pair, bound):
    """A descent keeps no state: repeated calls on one level and calls
    alternating between (5, 1) and (5, 2) report the same gamma, points and
    signs as the first call on each level."""
    levels = {n: CongruenceLevel(5, n) for n in (1, 2)}
    first = {
        n: _reported(enumerate_same_sign(*pair, level, entry_bound=bound))
        for n, level in levels.items()
    }
    assert first[1] and first[2]
    for n in (1, 1, 2, 2, 1, 2, 1, 2):
        got = enumerate_same_sign(*pair, levels[n], entry_bound=bound)
        assert _reported(got) == first[n]


def _cofactor_adjugate(rows):
    m = len(rows)
    return [
        [
            (-1) ** (i + j)
            * _plain_det([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            for j in range(m)
        ]
        for i in range(m)
    ]


def _pair_of(gamma, v, w):
    """(adj(gamma) v, gamma^T w), from brute-force cofactors, for gamma's rows."""
    adj = _cofactor_adjugate(gamma)
    return (
        [sum(a * x for a, x in zip(r, v)) for r in adj],
        [sum(g * y for g, y in zip(col, w)) for col in zip(*gamma)],
    )


def _pulled_back(m, q, bound, v, w):
    """(gamma's rows, line, plane) for every point of the walk, with the
    line and plane as `_pull_back` gives them to the pair step."""
    for head, rest, line, plane in _pull_back(m, v, w, _det_one_rows(m, q, bound)):
        flat = head + rest
        yield [list(flat[i : i + m]) for i in range(0, m * m, m)], line, plane


@pytest.mark.parametrize(
    "m, q, bound",
    [(2, 5, 30), (2, 2, 7), (2, 5, 0), (3, 5, 5), (3, 2, 3), (3, 3, 4), (4, 3, 2),
     (4, 2, 1)],
)
def test_walk_points_carry_gamma_and_its_adjugate(m, q, bound):
    """The walk's points are the det-1 ball, and on each the pull-back of
    its row set takes a line and a plane to (adj(gamma) v, gamma^T w)."""
    rng = random.Random(1000 * m + 10 * q + bound)
    v, w = ([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m)] for _ in range(2))
    gammas = []
    for gamma, line, plane in _pulled_back(m, q, bound, v, w):
        assert (list(line), list(plane)) == _pair_of(gamma, v, w)
        gammas.append(gamma)
    assert sorted(gammas) == sorted(
        rows for rows in _ball(m, q, bound) if _plain_det(rows) == 1
    )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_walk_point_adjugate_matches_cofactors(m):
    """The pull-back of one gamma's row set against brute-force cofactors,
    also off the congruence ball."""
    # gamma = I mod 5 has rest rows with C_0 = 1 mod 5; a quarter turn of
    # the first two axes puts gamma's first row in the rest and minus its
    # second row at the head, which makes C_0 = 0 mod 5
    turn = [[0] * m for _ in range(m)]
    turn[0][1], turn[1][0] = -1, 1
    for i in range(2, m):
        turn[i][i] = 1
    turn = QMatrix(turn)
    rng = random.Random(500 + m)
    for k in range(20):
        g = _gamma_mod_5(rng, m)
        if k % 2:
            g = turn @ g
        flat = tuple(int(x) for r in g.rows for x in r)
        gamma = [list(flat[i : i + m]) for i in range(0, m * m, m)]
        v, w = (tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(2))
        [(_, _, line, plane)] = _pull_back(m, v, w, [(flat[m:], [flat[:m]])])
        assert (list(line), list(plane)) == _pair_of(gamma, v, w)


def test_pair_step_takes_pairs_without_gamma():
    """The pulled-back pairs (adj(gamma) v, gamma^T w) of M3's six bound-10
    hits, formed here from cofactors, go through the pair step alone: it
    returns their signs, and gamma Z' gamma^T is the hit's point. A ball
    point that misses gives None."""
    X, Y = flat_from_tau(M3[0]), subspace_from_rho(M3[1])
    step = _pair_step(X, Y)
    signs = []
    for h in enumerate_same_sign(*M3, CongruenceLevel(5, 1), entry_bound=10):
        gamma = [[int(x) for x in r] for r in h.gamma.rows]
        Z, sign = step(*_pair_of(gamma, Y.line, Y.plane))
        assert _signed_hit(tuple(x for r in gamma for x in r), Z, sign) == h
        signs.append(sign)
    assert signs == [1, -1, 1, 1, 1, 1]
    assert step(*_pair_of([[1, 5, 0], [0, 1, 0], [0, 0, 1]], Y.line, Y.plane)) is None


# ---------------------------------------------------------------------------
# the m = 2 closed forms: the row loop, the pair and det H > 0


def _generic_det_one_rows(m, q, bound):
    """The walk as it ran at every m before its 2 x 2 row loop: each row
    set's cofactors by `_first_row_cofactors`, and a tail loop over
    k_2..k_(m-1), empty at m = 2."""
    diag_k, off_k = congruence._det_one_ranges(q, bound)
    if not diag_k:
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
            yield C[0], C[1], [rhs - sum(x * y for x, y in zip(ks, later)) for ks, _ in tails]

    solved = _first_row_heads(systems(), q, diag_k, off_k)
    for rest in itertools.product(*cells):
        heads = [(*pair, *tail) for _, tail in tails for pair in next(solved)]
        if heads:
            yield rest, heads


@pytest.mark.parametrize("q", [2, 3, 5, 7, 25])
@pytest.mark.parametrize("bound", [0, 1, 2, 7, 24, 30])
def test_m2_walk_is_det_one_rows_with_the_closed_form_adjugate(q, bound):
    """The row loop yields the row sets and heads the generic walk does, in
    its order, down to bound 0 and q > bound + 1, where the ball is {I} or
    empty; the closed-form pull-back is (adj(gamma) v, gamma^T w)."""
    got = list(_det_one_rows(2, q, bound))
    assert got == list(_generic_det_one_rows(2, q, bound))
    for gamma, line, plane in _pulled_back(2, q, bound, (2, -3), (1, 4)):
        assert (list(line), list(plane)) == _pair_of(gamma, (2, -3), (1, 4))
    assert sorted(head + rest for rest, heads in got for head in heads) == sorted(
        tuple(x for r in rows for x in r) for rows in _ball(2, q, bound) if _plain_det(rows) == 1
    )
    if q > bound + 1:
        assert got == ([((0, 1), [(1, 0)])] if bound else [])


def _generic_route(A, line, plane):
    """The m >= 3 pair step's moment route at m = 2: the moments of line
    and plane off `_moment_powers`, and `_moment_kind`."""
    outer = [a * b for a in plane for b in line]
    moments = [sum(x * y for x, y in zip(P, outer)) for P in symspace._moment_powers(A)]
    return moments, symspace._moment_kind(moments)


# (tau, line, plane): the seeded pairs, a diagonal tau, whose moment forms
# are singular wherever the pulled-back line or plane loses an eigenvector
# coordinate, and a line and plane with v . w = 0, whose forms all have
# s_0 = w . v = 0 (not a subspace; the pair step reads only the integers)
CLOSED_FORM_CASES = {
    "c7": (TAU2, (1, 1), (1, 1)),
    "linked": (LINKED[0], (1, -1), (1, -3)),
    "disjoint": (DISJOINT[0], (3, 1), (-2, -1)),
    "negative": (NEGATIVE[0], (-3, 2), (0, -1)),
    "diagonal": (QMatrix.diagonal([1, 3]), (2, 1), (1, 1)),
    "s0-zero": (QMatrix([[1, 2], [3, -1]]), (1, 2), (2, -1)),
}


@pytest.mark.parametrize("case", list(CLOSED_FORM_CASES), ids=list(CLOSED_FORM_CASES))
def test_m2_evaluator_matches_the_generic_moment_route(case, monkeypatch):
    """On the pulled-back pair of every walk point at (5, 30) and (2, 9),
    the closed form misses exactly where `_moment_kind` is not
    TransversePoint, and a hit hands `_cross` the generic route's Krylov
    rows and plane."""
    tau, v, w = CLOSED_FORM_CASES[case]
    X = SimpleNamespace(tau=tau, m=2)
    A = _int_matrix(tau)[1]
    Y = SimpleNamespace(line=v, plane=w, orientation=1)
    calls = []

    def recorded(A_, J, plane):
        calls.append((J, list(plane)))
        return 1, [[1, 0], [0, 1]], 1  # a stand-in point: the test is the verdict

    monkeypatch.setattr(symspace, "_cross", recorded)
    step = _pair_step(X, Y)
    singular = hits = 0
    for q, bound in ((5, 30), (2, 9)):
        for gamma, line, plane in _pulled_back(2, q, bound, v, w):
            s, kind = _generic_route(A, line, plane)
            del calls[:]
            found = step(line, plane)
            assert (found is not None) == (kind is IntersectionKind.TRANSVERSE_POINT), gamma
            if found is not None:
                assert calls == [(symspace._krylov(A, line, 2), list(plane))]
                hits += 1
            singular += kind is None
            if case == "s0-zero":
                assert s[0] == 0 and found is None
    if case == "diagonal":
        assert singular and hits
    if case == "c7":
        assert hits


def _moment_coefficients(S0, S1, S2):
    """Integers (a, b) with S1 a + S0 b = S2, or None when there are none."""
    if S0 == 0:
        if S1 == 0:
            return (0, 0) if S2 == 0 else None
        return (S2 // S1, 0) if S2 % S1 == 0 else None
    return next(
        ((a, (S2 - S1 * a) // S0) for a in range(abs(S0)) if (S2 - S1 * a) % S0 == 0), None
    )


@pytest.mark.parametrize("s0", range(-3, 4))
def test_m2_closed_form_is_moment_kind_on_small_moments(s0, monkeypatch):
    """For all (s_0, s_1, s_2) in [-3, 3]^3: s_0 s_2 > s_1^2 exactly when
    `_moment_kind` finds the form definite. The pair step itself is run on
    each triple but (0, 0, s_2 != 0), which no line and plane give at
    m = 2: on line (1, 0), plane (S_0, S_1 - S_0 a) and A = [[a, b], [1, 0]],
    the moments are S_0, S_1 and S_1 a + S_0 b, which reach
    (s_0, 6 s_1, 36 s_2), a form of the same verdict, whenever
    gcd(s_0, 6 s_1) divides 36 s_2."""
    monkeypatch.setattr(symspace, "_cross", lambda A, J, w: (1, [[1, 0], [0, 1]], 1))
    for s1 in range(-3, 4):
        for s2 in range(-3, 4):
            definite = symspace._moment_kind([s0, s1, s2]) is IntersectionKind.TRANSVERSE_POINT
            assert (s0 * s2 > s1 * s1) == definite
            S0, S1, S2 = s0, 6 * s1, 36 * s2
            ab = _moment_coefficients(S0, S1, S2)
            if ab is None:
                assert s0 == s1 == 0 != s2
                continue
            a, b = ab
            X = SimpleNamespace(tau=QMatrix([[a, b], [1, 0]]), m=2)
            Y = SimpleNamespace(line=(1, 0), plane=(S0, S1 - S0 * a), orientation=1)
            assert _generic_route([[a, b], [1, 0]], Y.line, Y.plane)[0] == [S0, S1, S2]
            assert (_pair_step(X, Y)(Y.line, Y.plane) is not None) == definite
