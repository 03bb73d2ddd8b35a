"""`qkernel._monic_factor_search` against trial division over Q.

The search divides the integer coefficients by each monic quadratic
t^2 + b t + c synthetically. The reference below is the route it
replaced: the same scan, each candidate divided with `QPoly.divmod` over
Q. Both must return the same witness, or None together.
"""

import random
import time

import pytest

from flatlink import qkernel
from flatlink.qkernel import IrredVerdict, QPoly, irreducible_over_Q


def _fraction_search(ints, degrees):
    if ints[-1] != 1 or 2 not in degrees:
        return None
    p = QPoly(ints)
    height = 1 + sum(abs(c) for c in ints)
    low = next(x for x in ints if x)
    cs = [c for d in qkernel._divisors(low) for c in (d, -d)] + [0] * (ints[0] == 0)
    for c in cs:
        for b in range(-height, height + 1):
            cand = QPoly([c, b, 1])
            q, r = p.divmod(cand)
            if r.is_zero and q.degree >= 1:
                return cand
    return None


def _swinnerton_dyer(a, b):
    """(t - sqrt a - sqrt b)(t - sqrt a + sqrt b)(t + sqrt a - sqrt b)
    (t + sqrt a + sqrt b) = t^4 - 2 (a + b) t^2 + (a - b)^2."""
    return (a - b) ** 2, 0, -2 * (a + b), 0, 1


def _monic(rng, deg, height):
    """A monic integer polynomial with a nonzero constant term."""
    head = rng.choice([-1, 1]) * rng.randint(1, height)
    return QPoly([head] + [rng.randint(-height, height) for _ in range(deg - 1)] + [1])


PLANTED = 6  # of the 8 cases at each degree


def _seeded_cases():
    """Monic products of degree 4 to 8: at each degree PLANTED with a
    planted monic quadratic factor, then two with none planted."""
    rng = random.Random(3301)
    cases = []
    for deg in range(4, 9):
        for k in range(8):
            if k < PLANTED:
                p = _monic(rng, 2, 6) * _monic(rng, deg - 2, 4)
            else:
                p = _monic(rng, deg, 4)
            cases.append(p.primitive_int())
    return cases


# the edge paths: a zero constant term (c over the divisors of the lowest
# nonzero coefficient, then 0), a quadratic input (its quotient would be
# constant) and a non-monic input
EDGE_CASES = [
    (QPoly([0, 1]) * QPoly([2, 1, 1]) * QPoly([3, 0, 1])).primitive_int(),
    (2, 3, 1),
    (6, 5, 2, 3),
]


@pytest.mark.parametrize("ints", _seeded_cases() + EDGE_CASES, ids=str)
def test_monic_factor_search_matches_fraction_search(ints):
    deg = len(ints) - 1
    for degrees in ({2}, set(range(deg + 1)), {1, 3}):
        assert qkernel._monic_factor_search(ints, degrees) == _fraction_search(ints, degrees)


def test_planted_factors_are_found():
    """Every planted product has a witness, and every witness divides."""
    for k, ints in enumerate(_seeded_cases()):
        w = qkernel._monic_factor_search(ints, {2})
        assert w is not None or k % 8 >= PLANTED, ints
        if w is not None:
            assert w.degree == 2 and QPoly(ints).divmod(w)[1].is_zero


def _zero_constant_cases():
    """Monic products t^k q p' of degree 4 to 8, k = 1 or 2, with a planted
    monic quadratic q, that with c != 0 in all but the last case per degree
    (there q = t (t + b))."""
    rng = random.Random(3501)
    cases = []
    for deg in range(4, 9):
        for j in range(6):
            k = rng.choice([1, 2]) if deg - 2 - 2 >= 1 else 1
            q = _monic(rng, 2, 9) if j < 5 else QPoly([0, rng.randint(-9, 9), 1])
            p = QPoly([0] * k + [1]) * q * _monic(rng, deg - 2 - k, 4)
            cases.append((p.primitive_int(), q))
    return cases


def test_planted_factors_with_a_zero_constant_term_are_found():
    """A zero constant term used to leave only c = +-1; now every planted
    quadratic is found, c dividing the lowest nonzero coefficient or 0, and
    the witness divides p. The reference scan returns the same witness."""
    c_other = 0
    for ints, planted in _zero_constant_cases():
        assert ints[0] == 0
        w = qkernel._monic_factor_search(ints, {2})
        assert w is not None and w.degree == 2, ints
        assert QPoly(ints).divmod(w)[1].is_zero
        assert w == _fraction_search(ints, {2})
        c_other += w.coeffs[0] not in (-1, 0, 1)
    assert c_other  # some witness needs a c the old scan never tried


@pytest.mark.parametrize("ab", [(2, 3), (1009, 1013)], ids=["SD(2,3)", "SD(1009,1013)"])
def test_monic_factor_search_on_swinnerton_dyer(ab):
    """An irreducible quartic that splits modulo every prime: both searches
    scan to the end and find nothing."""
    ints = _swinnerton_dyer(*ab)
    assert qkernel._monic_factor_search(ints, {2}) is None
    assert _fraction_search(ints, {2}) is None


def test_swinnerton_dyer_1009_1013_in_under_a_second():
    """Its height bound is 4,062, so the search divides by 81,250
    quadratics. The Fraction route took about 3 s on a 2-vCPU VM, the
    integer one 0.05 s."""
    p = QPoly(_swinnerton_dyer(1009, 1013))
    t0 = time.perf_counter()
    cert = irreducible_over_Q(p)
    assert time.perf_counter() - t0 < 1
    assert cert.verdict is IrredVerdict.INCONCLUSIVE
