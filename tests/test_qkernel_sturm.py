"""The integer Sturm chain (primitive pseudo-remainders) against the rational
chain it replaces, kept here as the reference, and its root counts and the
rational roots it isolates against sympy.

Every integer member must be a positive multiple of the rational member at
the same place, so both chains show the same signs everywhere: the counts
and the isolating intervals must come out identical.
"""

import random
from fractions import Fraction

import pytest

from flatlink.qkernel import (
    IrredVerdict,
    QPoly,
    _sign_at,
    _sturm_chain,
    cauchy_root_bound,
    irreducible_over_Q,
    isolate_real_roots,
    rational_roots,
    sturm_distinct_real_roots,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _reference import eval_poly  # noqa: E402

_SETTINGS = settings(max_examples=300, deadline=None)


# ---------------------------------------------------------------------------
# the rational reference: the chain by Fraction division


def _ref_chain(p: QPoly) -> list[QPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree >= 1:
        chain.append(chain[-2] % chain[-1] * -1)
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _ref_variations(signs) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _ref_count(p: QPoly) -> int:
    if p.degree == 0:
        return 0
    chain = _ref_chain(p)
    lo = _ref_variations(_sgn(q.lead) * (-1) ** (q.degree & 1) for q in chain)
    hi = _ref_variations(_sgn(q.lead) for q in chain)
    return lo - hi


def _ref_roots_in(chain, lo, hi) -> int:
    return _ref_variations(_sgn(eval_poly(q, lo)) for q in chain) - _ref_variations(
        _sgn(eval_poly(q, hi)) for q in chain
    )


def _ref_isolate(p: QPoly) -> list[tuple[Fraction, Fraction]]:
    if p.degree == 0:
        return []
    chain = _ref_chain(p)
    B = cauchy_root_bound(p)
    out = []

    def split(lo, hi, count):
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        # the package's cuts: 1/2, 5/6, 1/3, 1/4, ... of the width, of
        # which p's degree + 1 include one that is not a root
        later = [Fraction(1, k) for k in range(3, p.degree + 2)]
        ts = [Fraction(1, 2), Fraction(5, 6)] + later
        mid = next(lo + t * (hi - lo) for t in ts if eval_poly(p, lo + t * (hi - lo)))
        left = _ref_roots_in(chain, lo, mid)
        split(lo, mid, left)
        split(mid, hi, count - left)

    split(-B, B, _ref_roots_in(chain, -B, B))
    out.sort(key=lambda iv: iv[0])
    return out


# ---------------------------------------------------------------------------
# inputs


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def int_polys(draw, max_degree=8):
    """Nonzero integer polynomials, ascending, leading coefficient nonzero:
    plain draws, and products with a repeated factor, a factor t (zero
    constant term) or a negative sign."""
    n = draw(st.integers(0, max_degree))
    p = draw(st.lists(st.integers(-20, 20), min_size=n + 1, max_size=n + 1))
    if p[-1] == 0:
        p[-1] = draw(st.sampled_from([-3, -1, 1, 2]))
    kind = draw(st.sampled_from(["plain", "square", "zero", "negative"]))
    if kind == "square":
        f = [draw(st.integers(-4, 4)), draw(st.integers(1, 3))]
        p = _mul(_mul(p, f), f)
    elif kind == "zero":
        p = [0] + p
    elif kind == "negative":
        p = [-c for c in p]
    return p


PINNED = [
    [5],  # degree 0
    [-7],
    [3, 2],  # degree 1
    [3, -2],  # degree 1, negative lead
    [0, 1],  # t
    [0, 0, 0, 4],  # 4 t^3: one root of multiplicity 3
    [1, -2, 1],  # (t - 1)^2
    [-1, 2, -1],  # -(t - 1)^2
    [0, -2, 0, 1],  # t^3 - 2t
    [1, 0, 1],  # no real root
    [-6, 11, -6, 1],  # (t - 1)(t - 2)(t - 3)
    [6, -11, 6, -1],  # the same, negated
    [-1, 0, 0, 0, 0, 1],  # t^5 - 1
    [0, 0, 1, -2, 1],  # t^2 (t - 1)^2
    [4, -12, 13, -6, 1],  # (t - 1)^2 (t - 2)^2
    [1, 0, -3, 0, 1, 0, 0, 0, 7],
]


def _check_positive_multiples(p: list[int]):
    got, ref = _sturm_chain(p), _ref_chain(QPoly(p))
    assert len(got) == len(ref)
    for q, r in zip(got, ref):
        assert all(isinstance(c, int) for c in q)
        assert len(q) == len(r.coeffs)  # same degree, nonzero lead
        k = Fraction(q[-1]) / r.lead
        assert k > 0
        assert [Fraction(c) for c in q] == [k * c for c in r.coeffs]


@pytest.mark.parametrize("p", PINNED, ids=str)
def test_chain_members_are_positive_multiples_pinned(p):
    _check_positive_multiples(p)


@_SETTINGS
@given(int_polys())
def test_chain_members_are_positive_multiples(p):
    _check_positive_multiples(p)


@_SETTINGS
@given(int_polys(), st.fractions(min_value=-30, max_value=30, max_denominator=50))
def test_sign_at_matches_fraction_eval(p, x):
    assert _sign_at(p, x) == _sgn(eval_poly(QPoly(p), x))


@_SETTINGS
@given(int_polys())
def test_sturm_count_matches_reference(p):
    assert sturm_distinct_real_roots(QPoly(p)) == _ref_count(QPoly(p))


def test_sturm_count_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(2107)
    cases = list(PINNED)
    while len(cases) < len(PINNED) + 150:
        n = rng.randint(1, 6)
        p = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([-2, -1, 1, 3])]
        if rng.random() < 0.3:
            f = [rng.randint(-3, 3), 1]
            p = _mul(_mul(p, f), f)
        cases.append(p)
    for p in cases:
        want = len(set(sympy.Poly(list(reversed(p)), t).real_roots()))
        assert sturm_distinct_real_roots(QPoly(p)) == want, p


def test_sturm_count_of_rational_coefficients():
    # rational input goes through primitive_int
    p = QPoly([1])
    for r in (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 7)):
        p = p * QPoly([-r, 1])
    assert sturm_distinct_real_roots(p) == 3
    assert sturm_distinct_real_roots(p * p) == 3
    assert sturm_distinct_real_roots(p * Fraction(-3, 11)) == 3


@_SETTINGS
@given(int_polys(max_degree=6))
def test_isolate_real_roots_matches_reference(p):
    assert isolate_real_roots(QPoly(p)) == _ref_isolate(QPoly(p))


def test_isolate_real_roots_matches_reference_with_rational_cuts():
    # roots at cut points force later cuts: t (t - 1)(t + 1)(t - 2) has
    # B = 3, and its first three cuts, 0, 2 and -1, are roots
    rng = random.Random(77)
    cases = [[0, 2, -1, -2, 1], [0, -1, 0, 1], [0, 0, -9, 0, 4]]
    for _ in range(100):
        roots = [
            Fraction(rng.randint(-12, 12), rng.choice([1, 2, 4, 8]))
            for _ in range(rng.randint(1, 5))
        ]
        p = QPoly([1])
        for r in roots:
            p = p * QPoly([-r, 1])
        cases.append(list(p.primitive_int()))
    for c in cases:
        assert isolate_real_roots(QPoly(c)) == _ref_isolate(QPoly(c)), c


def _check_isolation(roots: list[Fraction]):
    """The contract of `isolate_real_roots` on the product of t - r over
    roots, whose real roots are known: ascending disjoint intervals (lo, hi]
    inside (-B, B], B the Cauchy bound, each holding exactly one root, and
    one interval per distinct root."""
    p = QPoly([1])
    for r in roots:
        p = p * QPoly([-r, 1])
    ints = p.primitive_int()
    B = 1 + Fraction(max(abs(c) for c in ints[:-1]), abs(ints[-1]))
    ivs = isolate_real_roots(p)
    distinct = sorted(set(roots))
    assert len(ivs) == len(distinct), roots
    edge = -B
    for (lo, hi), r in zip(ivs, distinct):
        assert edge <= lo < hi <= B, roots
        assert [x for x in distinct if lo < x <= hi] == [r], roots
        edge = hi


ISOLATION_CASES = [
    [-6, -2, Fraction(1, 8)],  # 8t^3 + 63t^2 + 88t - 12: cuts -6 and -2 are roots
    [-3, -1, Fraction(4, 5), Fraction(3, 2)],  # (t + 3)(t + 1)(5t - 4)(2t - 3)
    [0, 2, 1, -1],  # t (t - 2)(t^2 - 1)
]


@pytest.mark.parametrize("roots", ISOLATION_CASES, ids=str)
def test_isolate_real_roots_contract_pinned(roots):
    _check_isolation(roots)


def test_isolate_real_roots_contract_seeded():
    """Half the products have small integer roots, which the first cuts
    hit more often, and half rational roots."""
    rng = random.Random(3203)
    for i in range(400):
        top, dens = (12, [1, 2, 3, 4, 8]) if i % 2 else (4, [1])
        pool = [
            Fraction(rng.randint(-top, top), rng.choice(dens))
            for _ in range(rng.randint(2, 4))
        ]
        _check_isolation([rng.choice(pool) for _ in range(rng.randint(1, 6))])


def test_roots_and_irreducibility_when_cuts_hit_roots():
    p = QPoly([-12, 88, 63, 8])
    assert rational_roots(p) == [-6, -2, Fraction(1, 8)]
    assert irreducible_over_Q(p).verdict is IrredVerdict.REDUCIBLE


@st.composite
def rooted_polys(draw):
    """An `int_polys` cofactor times up to three planted linear factors
    b t - a, small or of up to 60 bits, so that rational roots with large
    numerators and denominators occur, some of them repeated."""
    p = draw(int_polys(max_degree=4))
    bits = draw(st.sampled_from([4, 60]))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(-(2**bits), 2**bits))
        b = draw(st.integers(1, 2**bits))
        p = _mul(p, [-a, b])
        if draw(st.booleans()):
            p = _mul(p, [-a, b])
    return p


@_SETTINGS
@given(rooted_polys())
def test_rational_roots_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    ground = sympy.Poly(list(reversed(p)), sympy.Symbol("t"), domain="QQ").ground_roots()
    want = sorted(Fraction(int(r.p), int(r.q)) for r in ground)
    assert rational_roots(QPoly(p)) == want


def test_roots_1e300_apart_isolate_without_recursion():
    """(1 - 2 10^300) t^2 + 4 10^150 t - 2 has discriminant 8, so its two
    irrational roots, both near 10^-150, lie about 7 10^-301 apart: a
    thousand halvings of the Cauchy interval, each a level of the former
    recursive bisection, which raised RecursionError."""
    k = 150
    p = QPoly([-2, 4 * 10**k, 1 - 2 * 10 ** (2 * k)])
    ivs = isolate_real_roots(p)
    assert len(ivs) == 2
    (lo0, hi0), (lo1, hi1) = ivs
    assert lo0 < hi0 <= lo1 < hi1
    chain = _sturm_chain(p.primitive_int())
    for lo, hi in ivs:
        assert _sign_at(chain[0], lo) * _sign_at(chain[0], hi) < 0
        assert Fraction(1, 2 * 10**k) < lo < hi < Fraction(2, 10**k)
    assert rational_roots(p) == []
