"""Exact rational linear algebra and univariate polynomial utilities.

Scalars are `fractions.Fraction` (aliased Rat): always reduced, denominator
positive. A matrix (`QMatrix`) is immutable and stored as one integer
form: L > 0, the LCM of its denominators, and the integer rows of L M.
Its Fraction rows are a view built on first read; sums, products,
inverses and similarities are formed on the integer forms. All
elimination is one fraction-free (Bareiss) forward pass on integer-scaled
rows, so intermediate entries stay minors of the input instead of blowing
up, followed where needed by one integer back-substitution whose divisions
are exact by Cramer's rule: det, rank, kernel_basis, inverse and the
similarity G A G^-1 (`_conjugate`, by `_times_inverse`) are all read off
that pass.
Polynomials are ascending coefficient tuples over Fractions; the private
integer helpers (`_int_char_poly`, the Sturm chain) use ascending int lists.
The characteristic polynomial is Berkowitz's division-free recurrence
(`_int_char_poly`): each leading block's polynomial from the previous one
by matrix-vector products, never a full matrix product.

Real-root counting is by Sturm chains in integers: primitive
pseudo-remainder sequences, whose members are positive multiples of the
rational Sturm chain's, so they show the same signs everywhere and count the
same roots (`_sturm_chain`).
Irreducibility over Q is certified, not factored: factor-degree patterns of
reductions modulo small primes, then a rational-root test. `Inconclusive` is a
legal verdict; no Zassenhaus/van Hoeij style factorization is attempted.

The package's immutable records (`IrredCertificate` here, the flats,
subspaces, points, certificates and patterns elsewhere) derive from one
private base, `_Record`: it reads each record's fields from its annotations
and gives a frozen dataclass's equality, hash, repr and refused assignment,
while each record writes its own `__init__`. No module imports
`dataclasses`, whose import and per-class code generation were most of a
fresh interpreter's set-up.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence, Union

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', '5' or '0.25', and Fractions to
    Fraction.

    Exponent notation is refused: Fraction would expand '1e3000000' into a
    three-million-digit integer, so a short string could take unbounded time.
    Digit separators ('1_0') and whitespace inside the number ('1 /4') are
    refused too: Fraction accepts the first from Python 3.11 and the second
    from 3.12, so the same input would read differently across versions.
    Whitespace around the number is accepted, as by every Fraction.
    Non-ASCII strings are refused: Fraction's pattern matches any Unicode
    decimal digit, so '٣' (Arabic-Indic three) would read as 3 and '１/２'
    (full-width) as 1/2.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not x.isascii():
            raise ValueError(f"{x!r}: only ASCII digits are accepted")
        if "e" in x or "E" in x:
            raise ValueError(f"{x!r}: exponent notation is not accepted")
        if "_" in x or any(c.isspace() for c in x.strip()):
            raise ValueError(
                f"{x!r}: digit separators and inner whitespace are not accepted"
            )
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_str(x: Fraction) -> str:
    """Serialize p/q with the /q omitted when q == 1."""
    x = rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _scaled_ints(v: Sequence) -> list[int]:
    """v (ints or Fractions) times the positive LCM of its denominators."""
    l = math.lcm(*[x.denominator for x in v])
    return [x.numerator * (l // x.denominator) for x in v]


def _primitive_ints(v: Sequence) -> tuple[int, ...]:
    """Coprime integers spanning the line of a rational vector (ints or
    Fractions), first nonzero entry positive."""
    ints = _scaled_ints(v)
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# records


class _Record:
    """Base of the package's immutable records, with a frozen dataclass's
    behaviour and none of its generated code.

    A subclass's fields are its own annotated names, in order, read once
    here. Each subclass writes its own `__init__`, which sets every field
    with `object.__setattr__` in that order and then runs its checks;
    instances refuse any other assignment or deletion. Records are built
    on the decide and certify paths, and a hand-written `__init__` costs
    what the dataclass's generated one did, where one shared `__init__`
    looping over the fields would not. An instance's `__dict__` holds its
    fields and nothing else, in field order, so equality is the same class
    with equal `__dict__`s and the hash is that of its values, the field
    tuple's, as a frozen dataclass's is; the repr is `Name(f=v, ...)`.
    Copying and pickling restore the `__dict__` directly.
    """

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(cls.__annotations__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# matrices


class QMatrix:
    """Immutable rational matrix, stored as one canonical integer form
    (L, A): L > 0 the LCM of the entries' denominators and A = L M, rows
    of ints. L is the least positive integer making L M integral, so
    gcd(L, A's entries) = 1: a prime p dividing L to the power k divides
    the denominator of some entry to the same power, and that entry's
    numerator, times L / denominator, is prime to p. Conversely a
    representation A / L with gcd(L, A) = 1 and L > 0 has that L, so
    every construction of M reaches one (L, A), and equality and hashing
    compare it.

    `QMatrix(rows)` parses the entries as Fractions; the private
    `QMatrix._from_ints(L, A)` takes any nonzero integer L and integer rows
    and divides both by gcd(L, A), with L's sign. The Fraction `rows` are a
    view, built from (L, A) on first read and then cached; integer code
    reads (L, A) through `_int_matrix` and never builds them.
    """

    __slots__ = ("_L", "_A", "_rows")

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(rat(x) for x in row) for row in rows)
        if not rs or not rs[0]:
            raise ValueError("empty matrix")
        w = len(rs[0])
        if any(len(r) != w for r in rs):
            raise ValueError("ragged rows")
        L = math.lcm(*[x.denominator for r in rs for x in r])
        A = tuple(tuple(x.numerator * (L // x.denominator) for x in r) for r in rs)
        self._set(L, A, rs)

    @classmethod
    def _from_ints(cls, L: int, A: Sequence[Sequence[int]]) -> "QMatrix":
        """The matrix A / L, for a nonzero integer L and integer rows A."""
        if L == 0:
            raise ValueError("zero denominator")
        g = math.gcd(L, *(x for r in A for x in r))
        if L < 0:
            g = -g
        M = object.__new__(cls)
        if g == 1:
            M._set(L, tuple(map(tuple, A)), None)
        else:
            M._set(L // g, tuple(tuple(x // g for x in r) for r in A), None)
        return M

    def _set(self, L: int, A: tuple, rows: Optional[tuple]):
        object.__setattr__(self, "_L", L)
        object.__setattr__(self, "_A", A)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("QMatrix is immutable")

    def __reduce__(self):
        """Copies and pickles rebuild the matrix from (L, A), which is
        already canonical, so the Fraction view stays unbuilt: restoring
        the slots would go through `__setattr__`, which refuses."""
        return (QMatrix._from_ints, (self._L, self._A))

    @property
    def rows(self) -> tuple:
        """The entries as Fractions, row-major: A / L, built once."""
        rs = self._rows
        if rs is None:
            L = self._L
            rs = tuple(tuple(Fraction(x, L) for x in r) for r in self._A)
            object.__setattr__(self, "_rows", rs)
        return rs

    # -- construction helpers

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "QMatrix":
        es = [rat(e) for e in entries]
        n = len(es)
        return cls([[es[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "QMatrix":
        cs = [list(c) for c in cols]
        return cls([[cs[j][i] for j in range(len(cs))] for i in range(len(cs[0]))])

    # -- shape and access

    @property
    def nrows(self) -> int:
        return len(self._A)

    @property
    def ncols(self) -> int:
        return len(self._A[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        A = self._A
        return self.is_square and all(
            A[i][j] == A[j][i] for i in range(len(A)) for j in range(i + 1, len(A))
        )

    # -- arithmetic, on the integer forms: A / L + B / K = (K A + L B) / (L K)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._plus(other, -1)

    def _plus(self, other: "QMatrix", s: int) -> "QMatrix":
        self._shape_match(other)
        L, K = self._L, s * other._L
        return QMatrix._from_ints(
            L * K,
            [[K * a + L * b for a, b in zip(ra, rb)] for ra, rb in zip(self._A, other._A)],
        )

    def __mul__(self, c):
        """The scalar multiple; a matrix product is `@`, and `rat` refuses
        a QMatrix here with a TypeError."""
        return self._scaled(rat(c))

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "QMatrix":
        p = c.numerator
        return QMatrix._from_ints(
            self._L * c.denominator, [[p * a for a in r] for r in self._A]
        )

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        ocols = list(zip(*other._A))
        return QMatrix._from_ints(
            self._L * other._L,
            [[sum(map(mul, r, c)) for c in ocols] for r in self._A],
        )

    def _shape_match(self, other: "QMatrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    # -- elimination-backed queries (free functions do the work)

    def inverse(self) -> "QMatrix":
        return inverse(self)

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector, as a tuple."""
        vs = [rat(x) for x in v]
        if len(vs) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(r, vs)) for r in self.rows)

    # -- equality, hashing, display

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix) and self._L == other._L and self._A == other._A
        )

    def __hash__(self):
        return hash((self._L, self._A))

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in r) for r in self.rows)
        return f"QMatrix[{body}]"

    def to_lists(self) -> list:
        return [list(r) for r in self.rows]


def mat_to_json(M: QMatrix) -> list:
    return [[rat_str(x) for x in r] for r in M.rows]


# ---------------------------------------------------------------------------
# fraction-free elimination
#
# One forward pass, `_echelon`, and one back-substitution serve every query.
# After Bareiss elimination, entry (k, j) of the echelon is the minor of the
# integer-scaled, row-permuted input on its first k+1 rows and the columns
# pivots[:k] + [j]; so the last pivot d is the determinant of the pivot
# block. `_back_substitute` solves that block against a column with the
# solution scaled by d: by Cramer's rule each coordinate is again a minor,
# so every division in it is exact.


def _int_matrix(M: QMatrix) -> tuple[int, list[list[int]]]:
    """M's stored form: L > 0, the LCM of all of M's denominators, and
    A = L M as fresh integer lists, which the caller may change."""
    return M._L, [list(r) for r in M._A]


def _echelon(a: list[list[int]]) -> tuple[list[int], int, int]:
    """In-place fraction-free row echelon.

    Returns the pivot columns, the sign of the row permutation and the last
    pivot (1 when there is none).
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r, prev, sgn = 0, 1, 1
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sgn = -sgn
        pc = a[r][c]
        for i in range(r + 1, nrows):
            aic = a[i][c]
            ri, rr = a[i], a[r]
            for j in range(c, ncols):
                ri[j] = (pc * ri[j] - aic * rr[j]) // prev
        pivots.append(c)
        prev = pc
        r += 1
    return pivots, sgn, prev


def _back_substitute(a: list[list[int]], pivots: list[int], d: int, j: int):
    """Integers y with (pivot block) y = d * (column j) of the echelon `a`;
    y[k] is the coordinate at column pivots[k]."""
    r = len(pivots)
    y = [0] * r
    for k in range(r - 1, -1, -1):
        row = a[k]
        s = d * row[j]
        for l in range(k + 1, r):
            s -= row[pivots[l]] * y[l]
        y[k] = s // row[pivots[k]]
    return y


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the signed last pivot."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    a = [list(r) for r in rows]
    pivots, sgn, d = _echelon(a)
    return sgn * d if len(pivots) == len(a) else 0


def _first_row_cofactors(rows: list[Sequence[int]]) -> list[int]:
    """C with det([c] + rows) = c . C for every first row c, for n - 1
    integer rows of length n. So C . r = 0 for each row r, and C = 0
    exactly when the rows are dependent."""
    return [
        (-1) ** j * _int_det([r[:j] + r[j + 1 :] for r in rows])
        for j in range(len(rows) + 1)
    ]


def det(M: QMatrix) -> Fraction:
    """Determinant: det(L M) / L^n."""
    if not M.is_square:
        raise ValueError("determinant of a non-square matrix")
    L, A = _int_matrix(M)
    return Fraction(_int_det(A), L ** len(A))


def rank(M: QMatrix) -> int:
    a = _int_matrix(M)[1]
    return len(_echelon(a)[0])


def _int_kernel(a: list[list[int]]) -> list[tuple[int, ...]]:
    """Canonical basis of the right kernel of the integer rows `a`, which
    it echelons in place: primitive int tuples (first nonzero entry
    positive), ordered by their free-column index in the echelon form."""
    ncols = len(a[0])
    pivots, _, d = _echelon(a)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            # column f = (pivot columns) y / d: y at the pivots, -d at f
            v = dict(zip(pivots, _back_substitute(a, pivots, d, f)))
            v[f] = -d
            basis.append(_primitive_ints([v.get(c, 0) for c in range(ncols)]))
    return basis


def kernel_basis(M: QMatrix) -> list[tuple]:
    """Canonical basis of the right kernel: `_int_kernel` of L M, whose
    kernel is M's, with each entry as a Fraction."""
    return [tuple(map(Fraction, v)) for v in _int_kernel(_int_matrix(M)[1])]


def _solve_square(G: list[list[int]]) -> tuple[int, list[list[int]]]:
    """For a square integer G: the last pivot d and the columns of d G^-1,
    from one pass over [G | I] and n back-substitutions."""
    n = len(G)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(G)]
    pivots, _, d = _echelon(a)
    if pivots[-1] >= n:
        raise ValueError("singular matrix has no inverse")
    return d, [_back_substitute(a, pivots, d, n + j) for j in range(n)]


def inverse(M: QMatrix) -> QMatrix:
    """M^-1 = L (L M)^-1, L the LCM of M's denominators, by `_solve_square`."""
    if not M.is_square:
        raise ValueError("inverse of a non-square matrix")
    L, A = _int_matrix(M)
    d, cols = _solve_square(A)
    return QMatrix._from_ints(d, [[L * y[i] for y in cols] for i in range(M.nrows)])


def _times_inverse(B: list[list[int]], G: list[list[int]], L: int) -> QMatrix:
    """B G^-1 / L for integer B and square integer G with as many columns,
    and L > 0. B (d G^-1) is in integers, so the matrix is built from it
    and d L as they are, with no Fraction. Singular G: ValueError."""
    d, adj = _solve_square(G)
    return QMatrix._from_ints(d * L, [[sum(map(mul, r, c)) for c in adj] for r in B])


def _conjugate(G: list[list[int]], L: int, A: list[list[int]]) -> QMatrix:
    """G A G^-1 / L for square integer G, A and L > 0, by `_times_inverse`;
    a rational M enters as `_int_matrix(M)`, a rational g as any integer
    multiple."""
    cols = list(zip(*A))
    return _times_inverse([[sum(map(mul, r, c)) for c in cols] for r in G], G, L)


def _int_char_poly(A: list[list[int]]) -> list[int]:
    """Ascending integer coefficients of det(t I - A) for a square integer A,
    by Berkowitz's division-free recurrence (Berkowitz 1984; the Samuelson
    expansion). Let p_k be the characteristic polynomial of the leading
    k x k block B, and split the next block as [[B, c], [r, a]]. Then
    p_(k+1)(t) = (t - a) p_k(t) - r adj(t I - B) c, and
    adj(t I - B) = p_k(t) (t I - B)^-1 = p_k(t) sum_j B^j t^(-j-1) is a
    polynomial, so r adj(t I - B) c is the polynomial part of
    p_k(t) sum_(j<k) (r B^j c) t^(-j-1). So p_(k+1) is p_k convolved with
    (1, -a, -r c, -r B c, ..., -r B^(k-1) c) and cut to degree k + 1:
    k - 1 matrix-vector products on B per step, and no division."""
    p = [1]  # descending coefficients of p_k
    for k in range(len(A)):
        B = [r[:k] for r in A[:k]]
        row, x = A[k][:k], [r[k] for r in A[:k]]
        e = [1, -A[k][k]]
        for j in range(k):
            if j:
                x = [sum(map(mul, b, x)) for b in B]
            e.append(-sum(map(mul, row, x)))
        p = [
            sum(e[i] * p[l - i] for i in range(max(0, l - k), min(l, k + 1) + 1))
            for l in range(k + 2)
        ]
    return p[::-1]


def char_poly(M: QMatrix) -> "QPoly":
    """Monic characteristic polynomial det(t·I − M), from `_int_char_poly`.

    With L > 0 the LCM of M's denominators, A = L M is an integer matrix,
    and det(t I − M) = L^(−n) det(L t I − A): the coefficient of t^k in
    det(t I − A) divided by L^(n−k) is that of t^k in det(t I − M).
    """
    if not M.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = M.nrows
    L, A = _int_matrix(M)
    return QPoly([Fraction(c, L ** (n - k)) for k, c in enumerate(_int_char_poly(A))])


# ---------------------------------------------------------------------------
# polynomials


class QPoly:
    """Univariate polynomial over Q, ascending coefficients, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    def __reduce__(self):
        """Copies and pickles rebuild the polynomial, as `QMatrix`'s do."""
        return (QPoly, (self.coeffs,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "QPoly[0]"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            t = "" if (k > 0 and abs(c) == 1) else rat_str(abs(c))
            if k > 1:
                t += f"t^{k}"
            elif k == 1:
                t += "t"
            elif not t:
                t = rat_str(abs(c))
            terms.append(("-" if c < 0 else "+", t))
        s = " ".join(f"{op} {t}" for op, t in terms)
        return "QPoly[" + (s[2:] if s.startswith("+ ") else s) + "]"

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            return QPoly([c * rat(other) for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return QPoly([])
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [_ZERO] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d, lead = other.degree, other.lead
        while len(r) - 1 >= d and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            f = r[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                r[k + i] -= f * c
            r.pop()
        return QPoly(q), QPoly(r)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "QPoly":
        return QPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def primitive_int(self) -> tuple[int, ...]:
        """Integer coefficients with content 1, leading coefficient positive."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        return tuple(reversed(_primitive_ints(self.coeffs[::-1])))


# ---------------------------------------------------------------------------
# Sturm chains


def _neg_prem(f: list[int], g: list[int]) -> list[int]:
    """-r for the primitive pseudo-remainder r of f by g (ascending integer
    coefficients, deg f >= deg g, g nonzero): r is a positive multiple of the
    rational remainder of f by g, and [] when that is zero.

    Dividing by -g instead of g leaves the remainder unchanged, so g is
    taken with a positive leading coefficient lc. Each step cancels the top
    term c of the running remainder by r <- (lc/h) r - (c/h) t^k g,
    h = gcd(lc, c): the multiplier lc/h is positive. Divisions by the content
    keep the result primitive (Collins' primitive PRS, Basu, Pollack and
    Roy, Algorithms in Real Algebraic Geometry, ch. 8)."""
    if g[-1] < 0:
        g = [-c for c in g]
    lc, dg = g[-1], len(g) - 1
    r = list(f)
    for k in range(len(r) - 1 - dg, -1, -1):
        c = r.pop()
        if c:
            h = math.gcd(lc, c)
            a, b = lc // h, c // h
            if a != 1:
                r = [a * x for x in r]
            for i, y in enumerate(g[:-1]):
                r[k + i] -= b * y
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return r
    h = -math.gcd(*r)
    return [x // h for x in r]


def _sturm_chain(p: Sequence[int]) -> list[list[int]]:
    """Sturm chain of a nonzero integer polynomial p (ascending coefficients),
    by primitive pseudo-remainders: p, p' over its content, then
    -prem(p_(k-1), p_k) over its content while the last member has degree
    >= 1; a zero remainder is dropped, so a p with repeated roots ends at a
    multiple of the gcd of p and p'.

    Each member is a positive multiple of the member p_(k+1) = -(p_(k-1) mod
    p_k) of the rational chain: the pseudo-remainder is a positive multiple
    of the remainder (see `_neg_prem`), and the remainder by a positive
    multiple of p_k is the remainder by p_k. So every member has the sign of
    its rational counterpart at +-infinity and at every rational point, and
    the chain counts as the rational one does. Coefficients stay integers,
    and contents are divided out as they appear, instead of the rational
    chain's reduced fractions at every step.
    """
    chain = [list(p)]
    dp = [k * c for k, c in enumerate(p)][1:]  # [] for constant p
    g = math.gcd(*dp)
    q = [c // g for c in dp]
    while q:
        chain.append(q)
        if len(q) == 1:
            break
        q = _neg_prem(chain[-2], q)
    return chain


def _variations(signs: Iterable[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _sturm_count(p: Sequence[int]) -> int:
    """Number of distinct real roots of an integer polynomial of degree >= 1
    (ascending coefficients): the sign variations of its Sturm chain at
    -infinity, sign(lead) (-1)^degree, less those at +infinity."""
    chain = _sturm_chain(p)
    v_lo = _variations((1 if q[-1] > 0 else -1) * (-1) ** (len(q) - 1) for q in chain)
    v_hi = _variations(1 if q[-1] > 0 else -1 for q in chain)
    return v_lo - v_hi


def sturm_distinct_real_roots(p: QPoly) -> int:
    """Number of distinct real roots of p, counted over (−∞, ∞)."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root count")
    if p.degree == 0:
        return 0
    return _sturm_count(p.primitive_int())


def _sign_at(q: list[int], x: Fraction) -> int:
    """sign q(x) for x = a/b, b > 0: that of b^n q(a/b), n = deg q, by
    integer Horner."""
    a, b = x.numerator, x.denominator
    acc, bk = 0, 1
    for c in reversed(q):
        acc = acc * a + c * bk
        bk *= b
    return (acc > 0) - (acc < 0)


def _roots_in(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots in the half-open interval (lo, hi]."""
    v_lo = _variations(_sign_at(q, lo) for q in chain)
    v_hi = _variations(_sign_at(q, hi) for q in chain)
    return v_lo - v_hi


def cauchy_root_bound(p: QPoly) -> Fraction:
    """B with all real roots strictly inside (−B, B)."""
    if p.is_zero or p.degree == 0:
        return _ONE
    lead = abs(p.lead)
    return _ONE + max(abs(c) / lead for c in p.coeffs[:-1])


def isolate_real_roots(p: QPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (lo, hi], one distinct real root in each,
    ordered increasingly."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    return _isolate(_sturm_chain(p.primitive_int()), cauchy_root_bound(p))


def _isolate(chain: list[list[int]], B: Fraction) -> list[tuple[Fraction, Fraction]]:
    """`isolate_real_roots` on the Sturm chain of an integer polynomial of
    degree >= 1, bisecting inside (-B, B], which holds all its real roots.

    The intervals wait on an explicit stack, right half below left, so
    they come out ascending, and roots closer than any recursion limit
    allows (two of them 1e-300 apart take a thousand halvings) cost depth
    in a list, not in frames.
    """
    p = chain[0]
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-B, B, _roots_in(chain, -B, B))]
    while stack:
        lo, hi, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            out.append((lo, hi))
            continue
        # Sturm's theorem needs only that the cut point is not a root of p.
        # The t are distinct and inside (0, 1), so one of the cuts
        # lo + t (hi - lo) misses p's finitely many roots.
        later = (Fraction(1, k) for k in itertools.count(3))
        for t in itertools.chain((Fraction(1, 2), Fraction(5, 6)), later):
            mid = lo + t * (hi - lo)
            if _sign_at(p, mid):
                break
        left = _roots_in(chain, lo, mid)
        stack += [(mid, hi, count - left), (lo, mid, left)]  # left half first
    return out


# ---------------------------------------------------------------------------
# rational roots and irreducibility certificates


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: QPoly) -> list[Fraction]:
    """All rational roots, each listed once, ascending.

    A rational root r/s of the primitive integer p has s | a_n, so two
    distinct such numbers differ by at least 1/a_n^2. Each real root is
    isolated on the one Sturm chain (`_isolate`, inside p's Cauchy bound,
    which also holds p's roots once its zero roots are divided out) and
    its interval (lo, hi] bisected
    below 1/(2 a_n^2) by the Sturm count on (lo, mid]. A cut at the root
    itself keeps it as hi: the count is then positive, as it includes a
    simple root, and at a multiple root every chain member vanishes, so
    the count is that of (lo, oo). The midpoint x of the last interval is
    within 1/(4 a_n^2) of the root, and every other fraction with
    denominator at most |a_n| is more than 1/(2 a_n^2) from x, so the one
    candidate is x.limit_denominator(|a_n|), tested exactly. The work is
    polynomial in the coefficients' bit length, where a scan of the
    divisors of a_0 and a_n is exponential in it.
    """
    ints = list(p.primitive_int())
    roots = set()
    while ints[0] == 0:
        roots.add(_ZERO)
        ints = ints[1:]
    if len(ints) > 1:
        chain = _sturm_chain(ints)
        an = abs(ints[-1])
        width = Fraction(1, 2 * an * an)
        for lo, hi in _isolate(chain, cauchy_root_bound(p)):
            while hi - lo >= width:
                mid = (lo + hi) / 2
                if _roots_in(chain, lo, mid):
                    hi = mid
                else:
                    lo = mid
            x = ((lo + hi) / 2).limit_denominator(an)
            if _sign_at(ints, x) == 0:
                roots.add(x)
    return sorted(roots)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # least strong pseudoprime to all of them


def _is_prime(n: int) -> bool:
    """Trial division by the first 13 primes, then Miller-Rabin to those
    bases, which is deterministic below _MR_LIMIT (Sorenson and Webster,
    2015). Larger n raise ValueError rather than get a probable answer."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} >= {_MR_LIMIT} is not decided")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite this small has a prime factor below 43
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes() -> Iterable[int]:
    n = 2
    while True:
        if _is_prime(n):
            yield n
        n += 1


# GF(p)[t] helpers on ascending int-coefficient lists

def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _gf_trim(out)


def _gf_full_div(a, b, p):
    """Quotient and remainder of a by b over GF(p), b with a nonzero lead."""
    a = a[:]
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv_lead % p
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % p
        a.pop()
    return _gf_trim(q), _gf_trim(a)


def _gf_gcd(a, b, p):
    a, b = _gf_trim(a[:]), _gf_trim(b[:])
    while b:
        a, b = b, _gf_full_div(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [x * inv % p for x in a]
    return a


def _gf_powmod(base, e, f, p):
    result = [1]
    base = _gf_full_div(base, f, p)[1]
    while e:
        if e & 1:
            result = _gf_full_div(_gf_mul(result, base, p), f, p)[1]
        base = _gf_full_div(_gf_mul(base, base, p), f, p)[1]
        e >>= 1
    return result


def _gf_deriv(a, p):
    return _gf_trim([k * c % p for k, c in enumerate(a)][1:])


def _gf_factor_degrees(f: list[int], p: int) -> Optional[tuple[int, ...]]:
    """Factor-degree multiset of a squarefree f over GF(p); None if not squarefree."""
    f = [c % p for c in f]
    f = _gf_trim(f)
    if len(f) - 1 < 1:
        return None
    g = _gf_gcd(f, _gf_deriv(f, p), p)
    if len(g) - 1 >= 1:
        return None
    inv = pow(f[-1], p - 2, p)
    f = [c * inv % p for c in f]
    degrees = []
    h = [0, 1]  # t
    rest = f
    d = 0
    while len(rest) - 1 >= 1:
        d += 1
        if 2 * d > len(rest) - 1:
            degrees.append(len(rest) - 1)
            break
        h = _gf_powmod(h, p, rest, p)
        diff = h[:] + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p  # h - t
        g = _gf_gcd(rest, _gf_trim(diff), p)
        deg_g = len(g) - 1
        if deg_g > 0:
            degrees.extend([d] * (deg_g // d))
            q, r = _gf_full_div(rest, g, p)
            if r:
                raise ArithmeticError(f"gcd over GF({p}) does not divide its input")
            rest = q
            h = _gf_full_div(h, rest, p)[1] if len(rest) - 1 >= 1 else h
    return tuple(sorted(degrees))


class IrredVerdict(Enum):
    IRREDUCIBLE = "Irreducible"
    REDUCIBLE = "Reducible"
    INCONCLUSIVE = "Inconclusive"


class IrredCertificate(_Record):
    verdict: IrredVerdict
    witness: Union[int, Fraction, QPoly, None]
    patterns: tuple[tuple[int, tuple[int, ...]], ...]

    def __init__(
        self,
        verdict: IrredVerdict,
        witness: Union[int, Fraction, QPoly, None],
        patterns: tuple[tuple[int, tuple[int, ...]], ...],
    ):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "patterns", patterns)


def _subset_sums(multiset: tuple[int, ...]) -> frozenset:
    sums = {0}
    for d in multiset:
        sums |= {s + d for s in sums}
    return frozenset(sums)


def _monic_factor_search(ints: tuple[int, ...], degrees: set[int]) -> Optional[QPoly]:
    """Trial division by monic integer quadratics t^2 + b t + c; desk-scale
    confirmation only. Synthetic division by a monic divisor is exact in
    integers, and the remainder is the last two entries it leaves.

    c runs over +-d for the divisors d of the lowest nonzero coefficient,
    then, when the constant term is 0, over c = 0 too: if p = t^k p' with
    p'(0) != 0, a factor with c != 0 is prime to t and divides p', so c
    divides p'(0); one with c = 0 is t (t + b)."""
    if ints[-1] != 1 or 2 not in degrees or len(ints) < 4:
        return None
    height = 1 + sum(abs(c) for c in ints)
    steps = range(len(ints) - 1, 1, -1)
    low = next(x for x in ints if x)
    cs = [c for d in _divisors(low) for c in (d, -d)] + ([0] if ints[0] == 0 else [])
    for c in cs:
        for b in range(-height, height + 1):
            r = list(ints)
            for k in steps:
                r[k - 1] -= b * r[k]
                r[k - 2] -= c * r[k]
            if r[0] == 0 == r[1]:
                return QPoly([c, b, 1])
    return None


_PRIME_BUDGET = 25  # usable primes tried by irreducible_over_Q


def irreducible_over_Q(p: QPoly) -> IrredCertificate:
    """Certified irreducibility test over Q.

    Order of attack: squarefree check (a repeated factor is already a witness),
    factor-degree patterns of reductions modulo the first `_PRIME_BUDGET`
    usable primes (those dividing neither the leading coefficient nor the
    discriminant), then the rational-root scan. Inconclusive is a legal
    outcome.

    The squarefree witness is the last member of the integer Sturm chain,
    a multiple of gcd(p, p') (`_sturm_chain`), made primitive. The patterns
    come before the scan, which is the costly step on large coefficients,
    and this gives the certificates of the scan-first order: a rational root
    r/s of the primitive p has s | lead, so it is a root modulo every usable
    prime, every pattern has a linear factor, and the loop cannot certify a
    p of degree > 1 that the scan would call Reducible.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("irreducibility requires a nonconstant polynomial")
    ints = p.primitive_int()
    deg = len(ints) - 1

    g = _sturm_chain(ints)[-1]
    if len(g) > 1:
        witness = QPoly(QPoly(g).primitive_int())
        return IrredCertificate(IrredVerdict.REDUCIBLE, witness, ())

    patterns: list[tuple[int, tuple[int, ...]]] = []
    allowed = frozenset(range(deg + 1))
    used = 0
    examined = 0
    for q in primes():
        examined += 1
        if examined > 50 * _PRIME_BUDGET + 200:
            break
        if used >= _PRIME_BUDGET:
            break
        if ints[-1] % q == 0:
            continue
        degs = _gf_factor_degrees(list(ints), q)
        if degs is None:  # q divides the discriminant
            continue
        used += 1
        patterns.append((q, degs))
        if degs == (deg,):
            return IrredCertificate(IrredVerdict.IRREDUCIBLE, q, tuple(patterns))
        allowed &= _subset_sums(degs)
        if not (allowed & frozenset(range(1, deg))):
            return IrredCertificate(IrredVerdict.IRREDUCIBLE, None, tuple(patterns))

    roots = rational_roots(p)
    if roots and deg > 1:  # a linear polynomial has its root and is irreducible
        return IrredCertificate(IrredVerdict.REDUCIBLE, roots[0], ())

    if deg <= 3:
        # linear, or no rational root: any factorization would be linear
        return IrredCertificate(IrredVerdict.IRREDUCIBLE, None, tuple(patterns))

    factor = _monic_factor_search(ints, set(allowed))
    if factor is not None:
        return IrredCertificate(IrredVerdict.REDUCIBLE, factor, tuple(patterns))
    return IrredCertificate(IrredVerdict.INCONCLUSIVE, None, tuple(patterns))
