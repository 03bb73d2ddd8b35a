"""irreducible_over_Q against the earlier attack order, kept here as a
reference: the squarefree test by a Fraction gcd, then the rational-root
scan, then the prime patterns. The library runs the patterns before the
scan and reads the squarefree witness off the integer Sturm chain; every
certificate must be the same.
"""

import random
from fractions import Fraction

import pytest

from flatlink import qkernel
from flatlink.qkernel import (
    IrredCertificate,
    IrredVerdict,
    QPoly,
    irreducible_over_Q,
    rational_roots,
)

from _reference import poly_gcd


def _roots_first(p: QPoly) -> IrredCertificate:
    ints = p.primitive_int()
    deg = len(ints) - 1
    pq = QPoly(ints)
    g = poly_gcd(pq, pq.derivative())
    if g.degree >= 1:
        return IrredCertificate(IrredVerdict.REDUCIBLE, QPoly(g.primitive_int()), ())
    roots = rational_roots(pq)
    if roots and deg > 1:
        return IrredCertificate(IrredVerdict.REDUCIBLE, roots[0], ())
    patterns = []
    allowed = frozenset(range(deg + 1))
    used = examined = 0
    for q in qkernel.primes():
        examined += 1
        if examined > 50 * qkernel._PRIME_BUDGET + 200 or used >= qkernel._PRIME_BUDGET:
            break
        if ints[-1] % q == 0:
            continue
        degs = qkernel._gf_factor_degrees(list(ints), q)
        if degs is None:
            continue
        used += 1
        patterns.append((q, degs))
        if degs == (deg,):
            return IrredCertificate(IrredVerdict.IRREDUCIBLE, q, tuple(patterns))
        allowed &= qkernel._subset_sums(degs)
        if not (allowed & frozenset(range(1, deg))):
            return IrredCertificate(IrredVerdict.IRREDUCIBLE, None, tuple(patterns))
    if deg <= 3:
        return IrredCertificate(IrredVerdict.IRREDUCIBLE, None, tuple(patterns))
    factor = qkernel._monic_factor_search(ints, set(allowed))
    if factor is not None:
        return IrredCertificate(IrredVerdict.REDUCIBLE, factor, tuple(patterns))
    return IrredCertificate(IrredVerdict.INCONCLUSIVE, None, tuple(patterns))


def _random_poly(rng, deg, height=9, monic=False):
    coeffs = [rng.randint(-height, height) for _ in range(deg)]
    lead = 1 if monic else rng.choice([-3, -2, -1, 1, 2, 3, 5])
    return QPoly(coeffs + [lead])


def _cases():
    rng = random.Random(8080)
    cases = {k: [] for k in ("root", "quadratics", "square", "linear", "random")}
    for _ in range(120):
        r, s = rng.randint(-12, 12), rng.randint(1, 6)
        cases["root"].append(QPoly([-r, s]) * _random_poly(rng, rng.randint(1, 5)))
    for _ in range(80):
        a = QPoly([rng.randint(-6, 6), rng.randint(-6, 6), 1])
        b = _random_poly(rng, rng.choice([2, 2, 3]), height=6, monic=True)
        cases["quadratics"].append(a * b)
    for _ in range(80):
        f = _random_poly(rng, rng.randint(1, 2), height=5)
        cases["square"].append(f * f * _random_poly(rng, rng.randint(0, 3), height=5))
    for _ in range(40):
        num = rng.randint(-50, 50)
        den, lead = rng.randint(1, 9), rng.randint(1, 9)
        cases["linear"].append(QPoly([Fraction(num, den), lead]))
    for _ in range(200):
        cases["random"].append(_random_poly(rng, rng.randint(1, 7)))
    return cases


@pytest.mark.parametrize("kind", ["root", "quadratics", "square", "linear", "random"])
def test_irreducible_matches_roots_first_reference(kind):
    polys = _cases()[kind]
    verdicts = set()
    for p in polys:
        got = irreducible_over_Q(p)
        assert got == _roots_first(p), p
        verdicts.add(got.verdict)
        if kind in ("root", "square") and p.degree > 1:
            assert got.verdict is IrredVerdict.REDUCIBLE and got.patterns == ()
            if isinstance(got.witness, QPoly):  # a repeated factor
                assert got.witness.degree >= 1 and (p % got.witness).is_zero
            else:
                assert kind == "root" and got.witness in rational_roots(p)
        if kind == "linear":
            assert got.verdict is IrredVerdict.IRREDUCIBLE
    if kind == "random":  # the draw reaches both sides of the test
        assert {IrredVerdict.REDUCIBLE, IrredVerdict.IRREDUCIBLE} <= verdicts
