"""The closed forms a criterion-1 decision runs, each against the route it
replaced, kept in `tests/_reference.py`: the characteristic polynomial by
Berkowitz's recurrence against sympy and Faddeev–LeVerrier; `intersect`'s
moment pass against the crossing solve alone, on built cases where a
leading minor of the Hankel form vanishes; the rank-one involution test
against the product rho^2; and `link_decision`'s integer route against
`link_evidence`.
"""

import operator
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flatlink import symspace  # noqa: E402
from flatlink.projlink import (  # noqa: E402
    Arrangement,
    GeneralPositionError,
    LinePlanePair,
    link_decision,
    link_evidence,
)
from flatlink.qkernel import (  # noqa: E402
    QMatrix,
    _int_char_poly,
    _primitive_ints,
    _scaled_ints,
    det,
)
from flatlink.symspace import (  # noqa: E402
    IntersectionKind,
    SPDPoint,
    SubspaceY,
    flat_from_tau,
    intersect,
    intersection_sign,
    subspace_from_pair,
    subspace_from_rho,
)

from _reference import (  # noqa: E402
    faddeev_leverrier_char_poly,
    intersect_by_cross,
    subspace_from_rho_by_square,
    transpose,
)
from test_congruence import _descend_at  # noqa: E402
from test_symspace import rational_frame_flat, rnd_invertible  # noqa: E402

F = Fraction
T, E, D = (
    IntersectionKind.TRANSVERSE_POINT,
    IntersectionKind.EMPTY,
    IntersectionKind.DEGENERATE,
)

# ---------------------------------------------------------------------------
# characteristic polynomial

entries = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-3, 3),
    st.integers(-(2**64), 2**64),
)


@st.composite
def square_int_matrices(draw):
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["full", "upper", "zero_column", "rank_one"]))
    if shape == "upper":
        rows = [[x if j >= i else 0 for j, x in enumerate(r)] for i, r in enumerate(rows)]
    elif shape == "zero_column":
        c = draw(st.integers(0, n - 1))
        rows = [[0 if j == c else x for j, x in enumerate(r)] for r in rows]
    elif shape == "rank_one":
        rows = [[a * b for b in rows[0]] for a in rows[-1]]
    return rows


@settings(max_examples=200, deadline=None)
@given(square_int_matrices())
def test_int_char_poly_matches_sympy(A):
    t = sympy.Symbol("t")
    want = [int(c) for c in reversed(sympy.Matrix(A).charpoly(t).all_coeffs())]
    assert _int_char_poly(A) == want == faddeev_leverrier_char_poly(A)


def test_int_char_poly_fixed():
    assert _int_char_poly([[5]]) == [-5, 1]
    assert _int_char_poly([[2, 1], [1, 1]]) == [1, -3, 1]
    assert _int_char_poly([[0, 1, 0], [0, 0, 1], [0, 0, 0]]) == [0, 0, 0, 1]
    # the companion matrix of t^3 - 2t + 5
    assert _int_char_poly([[0, 0, -5], [1, 0, 2], [0, 1, 0]]) == [5, -2, 0, 1]


# ---------------------------------------------------------------------------
# intersect: the moment pass first


def _hankel(X, Y):
    """The m x m Hankel form [s_(j+k)] of s_k = w . tau^k v, over Q."""
    m = X.m
    x, s = list(Y.line), []
    for _ in range(2 * m - 1):
        s.append(sum(map(operator.mul, Y.plane, x)))
        x = X.tau.apply(x)
    return QMatrix([s[j : j + m] for j in range(m)])


def _leading_minors(H):
    m = H.nrows
    return [det(QMatrix([r[:k] for r in H.rows[:k]])) for k in range(1, m + 1)]


# (nodes, c, e, kind, index of the first zero leading minor or None):
# X = g diag(nodes) g^-1, line g c and plane g^-T e, so that
# s_k = sum_i e_i c_i nodes_i^k (see `symspace._cross`). The second minor is
# sum_(i<j) mu_i mu_j (n_i - n_j)^2, which mu = (3, -8, 6) zeroes at nodes
# 1, 2, 3, and s_0 = sum_i mu_i.
BUILT = {
    "definite": ((1, 2, 3), (1, 1, 1), (1, 2, 3), T, None),
    "mixed_signs": ((1, 2, 3), (1, 1, 1), (1, -1, 1), E, None),
    "second_minor_zero": ((1, 2, 3), (1, 1, 1), (3, -8, 6), E, 1),
    "s0_zero": ((1, 2, 3), (1, 1, 1), (1, -2, 1), E, 0),
    "s0_zero_degenerate": ((1, 2, 3), (1, 1, 0), (1, -1, 0), D, 0),
    "second_minor_zero_degenerate": ((1, 2, 3, 4), (1, 1, 1, 0), (3, -8, 6, 0), D, 1),
    "second_minor_zero_lam0": ((1, 2, 3, 4), (1, 1, 1, 1), (3, -8, 6, 0), E, 1),
    "degenerate": ((1, -2, 3), (1, 1, 0), (1, 1, 0), D, 2),
    "lam0": ((1, -2, 3), (1, 1, 1), (1, 1, 0), E, 2),
    "det_J_zero": ((1, -2, 3), (1, 1, 0), (1, 1, 1), E, 2),
}


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(symspace, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(symspace, name, counted)
    return calls


def _assert_same(got, want):
    assert (got.kind, got.kernel_dim, got.sign) == (want.kind, want.kernel_dim, want.sign)
    assert (got.point is None) == (want.point is None)
    if got.point is not None:
        assert got.point.Z == want.point.Z


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("flip", [1, -1], ids=["plane", "negated_plane"])
@pytest.mark.parametrize("case", sorted(BUILT))
def test_intersect_matches_cross_on_built_cases(case, flip, seed, monkeypatch):
    """Each built case has the kind, kernel dimension, point and sign of the
    crossing solve alone, and the zero leading minor and det H it was built
    for. `_cross` runs exactly when H is definite, and back-substitutes the
    point's m columns; at det H = 0 only its echelon runs (`_cross_dim`),
    with no back-substitution, also at r = m ("det_J_zero"); a nonsingular
    H that is not definite, with a zero leading minor or not, is Empty from
    the moment pass alone. With seed 0 the eigenbasis is the identity."""
    nodes, c, e, kind, zero_minor = BUILT[case]
    m = len(nodes)
    rng = random.Random(9100 + seed)
    g = QMatrix.identity(m) if seed == 0 else rnd_invertible(rng, m)
    X = flat_from_tau(g @ QMatrix.diagonal(nodes) @ g.inverse())
    line = g.apply(c)
    plane = transpose(g.inverse()).apply([flip * x for x in e])
    if sum(map(operator.mul, c, e)):
        Y = subspace_from_pair(line, plane)
    else:  # the line lies in the plane: only a SubspaceY built directly has it
        Y = SubspaceY(_primitive_ints(line), tuple(_scaled_ints(plane)), 1)
    minors = _leading_minors(_hankel(X, Y))
    first_zero = next((k for k, x in enumerate(minors) if x == 0), None)
    assert first_zero == zero_minor
    singular = minors[-1] == 0
    crossings = _count_calls(monkeypatch, "_cross")
    echelons = _count_calls(monkeypatch, "_cross_dim")
    solves = _count_calls(monkeypatch, "_back_substitute")
    got = intersect(X, Y)
    assert (len(crossings), len(echelons)) == (kind is T, singular)
    assert len(solves) == (m if kind is T else 0)
    monkeypatch.undo()
    assert got.kind is kind
    _assert_same(got, intersect_by_cross(X, Y))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_intersect_matches_cross_on_random_pairs(m):
    """Rational-eigenframe flats against lines and planes set by their
    eigen-coordinates c and e: with e_i c_i of one sign (a crossing), with
    small entries, or with many zero entries, so all three kinds occur."""
    rng = random.Random(9200 + m)
    seen = set()
    for _ in range(12):
        tau, g = rational_frame_flat(rng, m)
        X = flat_from_tau(tau)
        g_dual = transpose(g.inverse())
        done = 0
        while done < 12:
            mode = done % 3
            if mode == 0:
                c = [rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(m)]
                e = [rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(m)]
            else:
                c = [rng.choice([0, rng.randint(-3, 3)]) for _ in range(m)]
                e = [rng.choice([0, rng.randint(-3, 3)]) for _ in range(m)]
            if mode == 1:
                e = [abs(y) if x >= 0 else -abs(y) for x, y in zip(c, e)]
            if not sum(map(operator.mul, c, e)):
                continue
            Y = subspace_from_pair(g.apply(c), g_dual.apply(e))
            got = intersect(X, Y)
            _assert_same(got, intersect_by_cross(X, Y))
            seen.add(got.kind)
            done += 1
    assert seen == {T, E, D}


def test_intersection_sign_runs_the_crossing_alone(monkeypatch):
    """intersection_sign solves for the crossing once and never runs the
    moment pass; it accepts any positive multiple of the point and keeps its
    errors."""
    X = flat_from_tau(QMatrix([[2, 1], [1, 1]]))
    Y = subspace_from_rho(QMatrix([[0, 1], [1, 0]]))
    res = intersect(X, Y)
    moments = _count_calls(monkeypatch, "_moment_kind")
    crossings = _count_calls(monkeypatch, "_cross")
    assert intersection_sign(X, Y, SPDPoint(res.point.Z * F(3, 7))) == res.sign
    assert (len(moments), len(crossings)) == (0, 1)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="not the crossing"):
        intersection_sign(X, Y, SPDPoint(QMatrix([[2, 1], [1, 1]])))
    empty = subspace_from_pair([1, 1], [2, -1])
    assert intersect(X, empty).kind is E
    with pytest.raises(ValueError, match="not the crossing"):
        intersection_sign(X, empty, res.point)
    nodes, c, e, _, _ = BUILT["degenerate"]
    X3 = flat_from_tau(QMatrix.diagonal(nodes))
    with pytest.raises(ValueError, match="non-transverse"):
        intersection_sign(X3, subspace_from_pair(c, e), SPDPoint(QMatrix.identity(3)))
    with pytest.raises(ValueError, match="dimension"):
        intersection_sign(X3, Y, res.point)


def _transverse_pairs():
    """The criterion-7 pair at m = 2 and the built definite case at m = 3."""
    X2 = flat_from_tau(QMatrix([[2, 1], [1, 1]]))
    Y2 = subspace_from_rho(QMatrix([[0, 1], [1, 0]]))
    nodes, c, e, _, _ = BUILT["definite"]
    g = rnd_invertible(random.Random(9101), len(nodes))
    X3 = flat_from_tau(g @ QMatrix.diagonal(nodes) @ g.inverse())
    Y3 = subspace_from_pair(g.apply(c), transpose(g.inverse()).apply(e))
    return [(X2, Y2), (X3, Y3)]


@pytest.mark.parametrize("pair", [0, 1], ids=["m2", "m3"])
def test_sylvester_passes_per_crossing(pair, monkeypatch):
    """The moment form decides the PD cone, and `_cross` only solves. A
    transverse `intersect` runs Sylvester's pass twice, on sign(s_0) H and
    in the `SPDPoint` of its point; `intersection_sign`, handed an
    `SPDPoint`, never; a descent hit at m >= 3 twice, on its moment form
    and in the `SPDPoint` of its moved point, and at m = 2 once, in the
    `SPDPoint`, as its form is tested by det H > 0 alone."""
    X, Y = _transverse_pairs()[pair]
    identity = tuple(int(i == j) for i in range(X.m) for j in range(X.m))
    passes = _count_calls(monkeypatch, "_sylvester")
    res = intersect(X, Y)
    assert res.kind is T and len(passes) == 2
    del passes[:]
    assert intersection_sign(X, Y, res.point) == res.sign
    assert len(passes) == 0
    hit = _descend_at(X, Y, identity)
    assert hit is not None and hit.sign == res.sign
    assert len(passes) == (1 if X.m == 2 else 2)


def test_intersect_raises_on_a_definite_form_without_a_point(monkeypatch):
    """A definite moment form is a crossing; a solve that finds no point
    there is an arithmetic fault, raised as the descent raises it, not
    reported as Empty."""
    X, Y = _transverse_pairs()[0]
    monkeypatch.setattr(symspace, "_cross", lambda A, J, w: (1, None, None))
    with pytest.raises(ArithmeticError, match="definite moment form"):
        intersect(X, Y)


# ---------------------------------------------------------------------------
# subspace_from_rho: the rank-one test


@st.composite
def traced_rhos(draw):
    """rho = 2 N / tr N - I for an integer N, a sum of k products x y^T,
    with tr N != 0. Then tr rho = 2 - m always, and rho^2 = I exactly when
    N^2 = tr(N) N: for every N of rank one, and for no N of higher rank,
    as N / tr N would be a projection of that rank with trace 1."""
    m, k = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    vec = st.lists(st.integers(-4, 4), min_size=m, max_size=m)
    pairs = draw(st.lists(st.tuples(vec, vec), min_size=k, max_size=k))
    N = [[sum(x[i] * y[j] for x, y in pairs) for j in range(m)] for i in range(m)]
    tr = sum(N[i][i] for i in range(m))
    assume(tr)
    return QMatrix([[F(2 * N[i][j], tr) - (i == j) for j in range(m)] for i in range(m)])


@settings(max_examples=300, deadline=None)
@given(traced_rhos())
def test_subspace_from_rho_matches_square_test(rho):
    try:
        want = subspace_from_rho_by_square(rho)
    except ValueError:
        with pytest.raises(ValueError, match="involution"):
            subspace_from_rho(rho)
        return
    assert subspace_from_rho(rho) == want


def test_subspace_from_rho_rejects_rank_two_with_the_involution_trace():
    """rho = diag(0, 0, -1, ..., -1) has trace 2 - m, and M = R + d I =
    diag(1, 1, 0, ..., 0) has trace 2 d but rank two: the trace alone would
    pass it. So would its conjugate by g."""
    for m in (2, 3, 4):
        rho = QMatrix.diagonal([0, 0] + [-1] * (m - 2))
        assert sum(rho[i, i] for i in range(m)) == 2 - m
        with pytest.raises(ValueError, match="involution"):
            subspace_from_rho_by_square(rho)
        with pytest.raises(ValueError, match="involution"):
            subspace_from_rho(rho)
    g = QMatrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    rho = g @ QMatrix.diagonal([0, 0, -1]) @ g.inverse()
    assert any(x.denominator > 1 for r in rho.rows for x in r)
    with pytest.raises(ValueError, match="involution"):
        subspace_from_rho(rho)


# ---------------------------------------------------------------------------
# link_decision in integers


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_link_decision_matches_link_evidence(m):
    """The integer route decides as the Fraction evidence does, and raises
    GeneralPositionError on the same pairs: zero entries make lines on walls
    and planes through frame points."""
    rng = random.Random(9300 + m)
    outcomes = set()
    for _ in range(150):
        try:
            arr = Arrangement([[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
            lp = LinePlanePair(
                [rng.randint(-2, 2) for _ in range(m)], [rng.randint(-2, 2) for _ in range(m)]
            )
        except ValueError:
            continue
        try:
            want = link_evidence(arr, lp)[0]
        except GeneralPositionError:
            with pytest.raises(GeneralPositionError):
                link_decision(arr, lp)
            outcomes.add(None)
            continue
        assert link_decision(arr, lp) is want
        outcomes.add(want)
    assert len(outcomes) == 3
