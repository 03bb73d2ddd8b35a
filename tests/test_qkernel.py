import copy
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from flatlink.qkernel import (
    _conjugate,
    _gf_gcd,
    _int_kernel,
    _int_matrix,
    _is_prime,
    IrredVerdict,
    QMatrix,
    QPoly,
    char_poly,
    det,
    inverse,
    irreducible_over_Q,
    isolate_real_roots,
    kernel_basis,
    mat_to_json,
    rank,
    rat,
    rat_str,
    rational_roots,
    sturm_distinct_real_roots,
)

from _reference import eval_matrix, eval_poly, poly_gcd, solve_unique, transpose


def F(a, b=1):
    return Fraction(a, b)


def test_rat_parsing():
    assert rat("3/4") == F(3, 4)
    assert rat("5") == 5
    assert rat(F(7, 2)) == F(7, 2)
    assert rat("0.25") == F(1, 4)
    assert rat("-1.5") == F(-3, 2)
    assert rat_str(F(-3, 4)) == "-3/4"


@pytest.mark.parametrize(
    "text", ["1_0", "1_000/3", "0.2_5", "1 /4", "1/ 4", "3/\t4", "- 1", "1 0"]
)
def test_rat_refuses_separators_and_inner_whitespace(text):
    # Fraction reads "1_0" as 10 from Python 3.11 and "1 /4" as 1/4 from
    # 3.12; refused on every version, so 3.10-3.12 accept the same strings
    with pytest.raises(ValueError, match="inner whitespace"):
        rat(text)


@pytest.mark.parametrize(
    "text", ["\u0663", "\uff11/\uff12", "1\u0660", "\u00a03", "\u09e8/3", "3\u2009"]
)
def test_rat_refuses_non_ascii(text):
    # Fraction matches any Unicode decimal digit: it reads "\u0663"
    # (Arabic-Indic three) as 3 and the full-width "\uff11/\uff12" as 1/2
    with pytest.raises(ValueError, match="only ASCII digits"):
        rat(text)


def test_rat_accepts_surrounding_whitespace():
    assert rat(" 3/4 ") == F(3, 4)
    assert rat("\t-2\n") == -2


@pytest.mark.parametrize("text", ["1e3", "2E-1", "1.5e2", "1e10000000"])
def test_rat_refuses_exponent_notation(text):
    # Fraction would expand the last into a ten-million-digit integer
    with pytest.raises(ValueError, match="exponent notation"):
        rat(text)
    assert rat_str(F(6, 3)) == "2"


def test_matrix_basics():
    A = QMatrix([[1, 2], [3, 4]])
    B = QMatrix([["1/2", 0], [0, "1/2"]])
    assert (A @ B)[0, 1] == 1
    assert (A + A)[1, 0] == 6
    assert transpose(A).col(0) == (1, 2)
    assert A[0, 0] + A[1, 1] == 5
    assert (2 * A)[1, 1] == 8
    with pytest.raises(TypeError):  # `*` is scalar-only; products are `@`
        A * B
    with pytest.raises(ValueError):
        QMatrix([[1, 2], [3]])


def test_det_2x2_fixed():
    # [[2,1],[1,1]] has determinant 1
    assert det(QMatrix([[2, 1], [1, 1]])) == 1


def test_det_known_values():
    assert det(QMatrix([[1, 2], [3, 4]])) == -2
    assert det(QMatrix([[0, 1], [1, 0]])) == -1
    M = QMatrix([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]])
    assert det(M) == F(1, 10) - F(1, 12)
    # singular
    assert det(QMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])) == 0


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        A = QMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        B = QMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        assert det(A @ B) == det(A) * det(B)


def test_rank_and_kernel_canonical_form():
    # rank-1 matrix, kernel spanned by (2, -1) in primitive integer form
    M = QMatrix([[1, 2], [2, 4]])
    assert rank(M) == 1
    assert kernel_basis(M) == [(2, -1)]

    # single row [1 1], kernel (1, -1)
    assert kernel_basis(QMatrix([[1, 1]])) == [(1, -1)]

    # full rank: empty kernel
    assert kernel_basis(QMatrix([[2, 1], [1, 1]])) == []


def test_kernel_vectors_are_primitive_and_ordered():
    rng = random.Random(23)
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        M = QMatrix([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        ker = kernel_basis(M)
        assert len(ker) == nc - rank(M)
        for v in ker:
            assert M.apply(v) == tuple([0] * nr)
            ints = [x.numerator for x in v]
            assert all(x.denominator == 1 for x in v)
            g = 0
            for x in ints:
                g = math.gcd(g, abs(x))
            assert g == 1
            assert next(x for x in ints if x != 0) > 0


def test_int_kernel_is_kernel_basis_in_ints():
    """`kernel_basis` is `_int_kernel` of the integer form, entry by entry,
    and `_int_kernel` hands out plain ints, as `ptoq_solve` reads them."""
    rng = random.Random(29)
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        M = QMatrix(
            [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nc)] for _ in range(nr)]
        )
        ker = _int_kernel(_int_matrix(M)[1])
        assert all(type(x) is int for v in ker for x in v)
        assert [tuple(map(Fraction, v)) for v in ker] == kernel_basis(M)


def test_solve_and_inverse():
    A = QMatrix([[2, 1], [1, 1]])
    x = solve_unique(A, [1, 0])
    assert x == (1, -1)
    Ainv = inverse(A)
    assert A @ Ainv == QMatrix.identity(2)
    assert Ainv == QMatrix([[1, -1], [-1, 2]])
    with pytest.raises(ValueError):
        solve_unique(QMatrix([[1, 2], [2, 4]]), [1, 0])
    with pytest.raises(ValueError):
        solve_unique(QMatrix([[1, 2], [2, 4]]), [1, 1])


def _random_rational_matrix(rng, m, bits):
    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.getrandbits(bits), rng.randint(1, 30))

    return QMatrix([[entry() for _ in range(m)] for _ in range(m)])


@pytest.mark.parametrize("m", range(2, 7))
def test_conjugate_matches_fraction_conjugation(m):
    """_conjugate on _int_matrix forms equals the Fraction product
    g M g^-1, for small and 200-bit numerators and a derogatory M (an
    eigenvalue 3/2 of geometric multiplicity 2, off the axes); g M = tau g
    checks it without any inverse. A singular g is a ValueError."""
    rng = random.Random(500 + m)
    h = _random_rational_matrix(rng, m, 8)
    D = QMatrix.diagonal([Fraction(3, 2)] * 2 + list(range(1, m - 1)))
    derogatory = h @ D @ h.inverse()
    for bits in (4, 200):
        g = _random_rational_matrix(rng, m, bits)
        assert det(g) != 0
        assert g @ g.inverse() == QMatrix.identity(m)
        for M in (_random_rational_matrix(rng, m, bits), derogatory):
            tau = _conjugate(_int_matrix(g)[1], *_int_matrix(M))
            assert tau == g @ M @ g.inverse()
            assert tau @ g == g @ M
    rows = [list(r) for r in _random_rational_matrix(rng, m, 200).rows]
    rows[-1] = [Fraction(3, 7) * x for x in rows[0]]
    with pytest.raises(ValueError):
        _conjugate(_int_matrix(QMatrix(rows))[1], *_int_matrix(derogatory))


# ---------------------------------------------------------------------------
# the stored integer form (L, A)


def _mixed_rational_rows(rng, n, k):
    """n x k rows of Fractions with negative entries, zeros and mixed
    denominators; every third matrix has integer entries only."""
    integral = rng.random() < 1 / 3

    def entry():
        if rng.random() < 0.2:
            return Fraction(0)
        den = 1 if integral else rng.choice((1, 2, 3, 4, 6, 9, 10, 35, 2**61 - 1))
        return Fraction(rng.randint(-(2**40), 2**40), den)

    return [[entry() for _ in range(k)] for _ in range(n)]


def _integer_form_cases():
    rng = random.Random(3100)
    cases = [[[Fraction(0)] * 3] * 2, [[Fraction(-5, 6)]]]
    for n in range(1, 7):
        for k in (1, n, 6):
            for _ in range(3):
                cases.append(_mixed_rational_rows(rng, n, k))
    return cases


@pytest.mark.parametrize("k", [1, -1, 7, -12])
def test_from_ints_reaches_the_parsed_matrix(k):
    """Any integer multiple (k L, k A) of the stored form builds the same
    matrix as the Fraction rows: equal, with one hash, and read the same
    through every view. L is the LCM of the entries' denominators, and A
    = L M."""
    for rows in _integer_form_cases():
        M = QMatrix(rows)
        L, A = _int_matrix(M)
        assert L == math.lcm(*(x.denominator for r in rows for x in r))
        assert A == [[x * L for x in r] for r in rows]
        assert all(isinstance(x, int) for r in A for x in r)
        N = QMatrix._from_ints(k * L, [[k * a for a in r] for r in A])
        assert N == M and hash(N) == hash(M)
        assert N.rows == M.rows == tuple(map(tuple, rows))
        assert repr(N) == repr(M)
        assert N.to_lists() == M.to_lists()
        assert mat_to_json(N) == mat_to_json(M)
        assert _int_matrix(N) == (L, A)
        assert (N.nrows, N.ncols) == (len(rows), len(rows[0]))


def test_integer_arithmetic_matches_fractions():
    """Sum, difference, product and scalar multiples, formed on the integer
    forms, equal the entrywise Fraction results."""
    rng = random.Random(3101)
    for n in range(1, 7):
        a, b = (_mixed_rational_rows(rng, n, n) for _ in range(2))
        A, B = QMatrix(a), QMatrix(b)
        c = Fraction(-7, 12)
        assert (A + B).rows == tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))
        assert (A - B).rows == tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))
        assert (A @ B).rows == tuple(
            tuple(sum(x * y for x, y in zip(r, col)) for col in zip(*b)) for r in a
        )
        assert (A * c).rows == (c * A).rows == tuple(tuple(c * x for x in r) for r in a)
        assert (A - A) == QMatrix([[0] * n] * n)


def test_int_matrix_returns_copies():
    M = QMatrix([[Fraction(1, 2), 3], [-1, Fraction(5, 3)]])
    L, A = _int_matrix(M)
    A[0][0] += 1
    A[1].append(9)
    A.append([0, 0])
    assert _int_matrix(M) == (6, [[3, 18], [-6, 10]])
    assert M.rows == ((Fraction(1, 2), 3), (-1, Fraction(5, 3)))


def test_from_ints_refuses_a_zero_denominator():
    with pytest.raises(ValueError):
        QMatrix._from_ints(0, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        QMatrix._from_ints(0, [[0]])


def test_matrix_stays_immutable():
    M = QMatrix._from_ints(4, [[2, 1], [1, 2]])
    for name in ("rows", "_L", "_A", "_rows", "extra"):
        with pytest.raises(AttributeError):
            setattr(M, name, None)
    assert M.rows == ((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 2)))


def test_copy_and_pickle_round_trip():
    """A matrix copies, deep-copies and pickles to an equal matrix with the
    same hash and integer form, and its Fraction rows stay a lazy view:
    unbuilt after the trip, built on first read, whether or not the
    original had built them."""
    rng = random.Random(3401)
    for rows in [_mixed_rational_rows(rng, n, k) for n, k in ((1, 1), (2, 3), (4, 4))]:
        for built in (False, True):
            M = QMatrix(rows)
            M = QMatrix._from_ints(*_int_matrix(M))  # no Fraction view yet
            if built:
                assert M.rows == tuple(map(tuple, rows))
            for trip in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
                N = trip(M)
                assert type(N) is QMatrix and N == M and hash(N) == hash(M)
                assert _int_matrix(N) == _int_matrix(M)
                assert N._rows is None
                assert N.rows == tuple(map(tuple, rows))
                with pytest.raises(AttributeError):
                    N._L = 1


def test_is_symmetric_reads_the_integer_form():
    S = QMatrix._from_ints(-6, [[2, 3], [3, -4]])
    assert S.is_symmetric()
    assert not QMatrix._from_ints(6, [[2, 3], [1, -4]]).is_symmetric()
    assert not QMatrix([[1, 2, 3], [2, 1, 0]]).is_symmetric()
    assert S._rows is None


def test_char_poly_fixed():
    # [[2,1],[1,1]]: t^2 - 3t + 1
    p = char_poly(QMatrix([[2, 1], [1, 1]]))
    assert p == QPoly([1, -3, 1])


def test_char_poly_properties():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        M = QMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        p = char_poly(M)
        assert p.degree == n
        assert p.lead == 1
        assert p.coeffs[0] == (-1) ** n * det(M)
        assert p.coeffs[n - 1] == -sum(M[i, i] for i in range(n))
        # Cayley-Hamilton
        Z = eval_matrix(p, M)
        assert Z == QMatrix([[0] * n for _ in range(n)])


def test_poly_arithmetic():
    p = QPoly([1, -3, 1])  # t^2 - 3t + 1
    q = QPoly([-1, 1])  # t - 1
    assert (p * q).coeffs == (-1, 4, -4, 1)
    quo, rem = p.divmod(q)
    assert quo == QPoly([-2, 1])
    assert rem == QPoly([-1])
    assert eval_poly(p, F(1, 2)) == F(1, 4) - F(3, 2) + 1
    assert p.derivative() == QPoly([-3, 2])
    assert poly_gcd(p * q, q) == QPoly([-1, 1])


def test_sturm_counts_fixed():
    # t^2 - 3t + 1: two real roots
    assert sturm_distinct_real_roots(QPoly([1, -3, 1])) == 2
    # t^2 + 1: none
    assert sturm_distinct_real_roots(QPoly([1, 0, 1])) == 0
    # t^3 - 2t: three
    assert sturm_distinct_real_roots(QPoly([0, -2, 0, 1])) == 3
    # repeated roots counted once: (t-1)^2
    assert sturm_distinct_real_roots(QPoly([1, -2, 1])) == 1


def test_isolate_real_roots():
    p = QPoly([1, -3, 1])  # roots (3 +- sqrt5)/2, about 0.382 and 2.618
    ivs = isolate_real_roots(p)
    assert len(ivs) == 2
    for lo, hi in ivs:
        assert eval_poly(p, lo) * eval_poly(p, hi) < 0
    assert ivs[0][1] <= ivs[1][0]
    lo0, hi0 = ivs[0]
    assert lo0 < F(382, 1000) + F(1, 100)
    lo1, hi1 = ivs[1]
    assert hi1 > F(2618, 1000) - F(1, 100)


def test_isolation_matches_float_roots():
    rng = random.Random(41)
    for _ in range(200):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        p = QPoly(coeffs)
        if p.degree < 1:
            continue
        sf = p
        g = poly_gcd(p, p.derivative())
        if g.degree >= 1:
            sf = p.divmod(g)[0]
        n = sturm_distinct_real_roots(sf)
        ivs = isolate_real_roots(sf)
        assert len(ivs) == n
        for lo, hi in ivs:
            assert eval_poly(sf, lo) * eval_poly(sf, hi) < 0


def test_rational_roots():
    assert rational_roots(QPoly([-1, 0, 1])) == [-1, 1]
    assert rational_roots(QPoly([1, 0, 1])) == []
    # 2t^2 - 3t + 1 = (2t - 1)(t - 1)
    assert rational_roots(QPoly([1, -3, 2])) == [F(1, 2), 1]
    # t^2(t - 5)
    assert rational_roots(QPoly([0, 0, -5, 1])) == [0, 5]


def test_rational_roots_of_large_coefficients_are_fast():
    """t^2 + 2^61 - 1 has no real root, and t^2 - (2^61 - 1)^2 two integer
    roots; a scan of the divisors of the constant term never returns."""
    n = 2**61 - 1
    t0 = time.perf_counter()
    assert rational_roots(QPoly([n, 0, 1])) == []
    assert rational_roots(QPoly([-n * n, 0, 1])) == [-n, n]
    assert rational_roots(QPoly([n, -n * n - 1, n])) == [F(1, n), n]
    assert time.perf_counter() - t0 < 1


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 20000) if _is_prime(n) != trial(n)] == []
    # strong pseudoprimes to the first 4, 5, 6, 7 and 9 prime bases
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1) and _is_prime(10000000000000061)
    assert _is_prime(3317044064679887385961813)  # the largest prime in range
    assert not _is_prime(3317044064679887385961979)  # 17 * 1709 * ...
    with pytest.raises(ValueError):
        _is_prime(3317044064679887385961981)  # past the deterministic range


def test_irreducible_fixed_cases():
    c = irreducible_over_Q(QPoly([1, -3, 1]))
    assert c.verdict is IrredVerdict.IRREDUCIBLE
    assert c.patterns  # at least one prime examined

    c = irreducible_over_Q(QPoly([-1, 0, 1]))  # t^2 - 1
    assert c.verdict is IrredVerdict.REDUCIBLE
    assert c.witness == -1  # smallest rational root

    # t^4 - 5t^2 + 6 = (t^2 - 2)(t^2 - 3): no rational root, still reducible
    c = irreducible_over_Q(QPoly([6, 0, -5, 0, 1]))
    assert c.verdict is IrredVerdict.REDUCIBLE
    assert isinstance(c.witness, QPoly)
    q, r = QPoly([6, 0, -5, 0, 1]).divmod(c.witness)
    assert r.is_zero and q.degree == 2

    # squarefree failure is a witness: (t-1)^2
    c = irreducible_over_Q(QPoly([1, -2, 1]))
    assert c.verdict is IrredVerdict.REDUCIBLE
    assert isinstance(c.witness, QPoly) and c.witness.degree >= 1

    # linear is irreducible
    c = irreducible_over_Q(QPoly([7, 2]))
    assert c.verdict is IrredVerdict.IRREDUCIBLE


def test_gf_factor_degrees_division_fault_raises(monkeypatch):
    # t^2 - 6 = (t - 1)(t + 1) mod 5, the first usable prime; a gcd that is
    # not a divisor of its input must not feed a factor pattern
    def bad_gcd(a, b, p):
        g = _gf_gcd(a, b, p)
        return g if len(g) < 2 else [2, 1]  # t + 2 divides neither factor

    monkeypatch.setattr("flatlink.qkernel._gf_gcd", bad_gcd)
    with pytest.raises(ArithmeticError):
        irreducible_over_Q(QPoly([-6, 0, 1]))


def test_irreducible_known_quartics():
    # t^4 + 1 factors mod every prime but is irreducible over Q;
    # the subset-sum intersection must still resolve it... it cannot,
    # since every pattern admits degree 2. Inconclusive is the honest verdict.
    c = irreducible_over_Q(QPoly([1, 0, 0, 0, 1]))
    assert c.verdict in (IrredVerdict.INCONCLUSIVE, IrredVerdict.IRREDUCIBLE)
    if c.verdict is IrredVerdict.INCONCLUSIVE:
        # desk check: no monic quadratic factor was found either
        assert c.witness is None

    # t^4 + t + 1 is irreducible mod 2, certified by one prime
    c = irreducible_over_Q(QPoly([1, 1, 0, 0, 1]))
    assert c.verdict is IrredVerdict.IRREDUCIBLE


def test_irreducible_never_lies():
    rng = random.Random(97)
    for _ in range(120):
        a = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1])
        b = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1])
        if a.degree < 1 or b.degree < 1:
            continue
        c = irreducible_over_Q(a * b)
        assert c.verdict is not IrredVerdict.IRREDUCIBLE
