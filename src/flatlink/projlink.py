"""Exact projective geometry in P^{m-1} and the linking decision.

All projective objects carry canonical primitive integer representatives
(entry gcd 1, first nonzero entry positive), so equality, hashing and sign
evaluation are exact. Degenerate configurations raise GeneralPositionError;
nothing in this module perturbs its input.

The linking criterion: writing L = sum c_j L_j and d_j = P(L_j), the sphere
spanned by the frame links the (line, hyperplane) sphere iff the products
sign(c_j) * d_j all have one strict sign, i.e. iff P misses the open simplex
with vertex set {L_1, ..., L_m} that contains L. A zero product is a
degenerate configuration. So one solve for c and m evaluations of P decide
both general position and the link; c depends on the frame and the line
alone, so `link_decisions` decides a row of pairs with one solve per line,
reading every sign from integers; `link_decision` is its one-pair case.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Sequence

from .qkernel import (
    QMatrix,
    _Record,
    _back_substitute,
    _echelon,
    _first_row_cofactors,
    _int_det,
    _primitive_ints,
    rat,
    sign,
)


class GeneralPositionError(ValueError):
    """Raised when an input configuration is degenerate for the requested decision."""


class ProjPoint(_Record):
    """Point of P^{m-1}, canonical primitive integer representative."""

    rep: tuple[int, ...]

    def __init__(self, rep: Sequence):
        object.__setattr__(self, "rep", _primitive_ints([rat(x) for x in rep]))

    @property
    def dim(self) -> int:
        return len(self.rep)


class ProjHyperplane(_Record):
    """Hyperplane of P^{m-1} as a canonical primitive integer functional."""

    functional: tuple[int, ...]

    def __init__(self, functional: Sequence):
        ints = _primitive_ints([rat(x) for x in functional])
        object.__setattr__(self, "functional", ints)

    @property
    def dim(self) -> int:
        return len(self.functional)

    def eval(self, p: ProjPoint) -> int:
        """The functional at p's primitive representative."""
        if len(self.functional) != len(p.rep):
            raise ValueError("dimension mismatch")
        return sum(map(mul, self.functional, p.rep))


class Arrangement(_Record):
    """Projective frame: m points of P^{m-1} in general position."""

    points: tuple[ProjPoint, ...]

    def __init__(self, points: Sequence[ProjPoint]):
        pts = tuple(
            p if isinstance(p, ProjPoint) else ProjPoint(p) for p in points
        )
        m = len(pts)
        if m < 2 or any(p.dim != m for p in pts):
            raise ValueError("need m points of P^{m-1}")
        if _int_det([p.rep for p in pts]) == 0:
            raise GeneralPositionError("frame points are projectively dependent")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return len(self.points)

    def frame_matrix(self) -> QMatrix:
        """Columns are the point representatives, in order."""
        return QMatrix.from_columns([p.rep for p in self.points])


class LinePlanePair(_Record):
    """A point (eigenline) and a hyperplane, with the point off the hyperplane."""

    line: ProjPoint
    plane: ProjHyperplane

    def __init__(self, line, plane):
        ln = line if isinstance(line, ProjPoint) else ProjPoint(line)
        pl = plane if isinstance(plane, ProjHyperplane) else ProjHyperplane(plane)
        if ln.dim != pl.dim:
            raise ValueError("dimension mismatch")
        if pl.eval(ln) == 0:
            raise GeneralPositionError("line lies inside the plane")
        object.__setattr__(self, "line", ln)
        object.__setattr__(self, "plane", pl)

    @property
    def dim(self) -> int:
        return self.line.dim


class LinkDecision(Enum):
    LINKED = "Linked"
    NOT_LINKED = "NotLinked"


# ---------------------------------------------------------------------------
# operations


def _frame_solve(arr: Arrangement, L: ProjPoint) -> tuple[list[int], int]:
    """Integers y and d != 0 with L = sum (y_j / d) L_j (in the canonical
    representatives), from one echelon of the integer rows [L_1 ... L_m | L].
    The frame is independent (an Arrangement invariant), so columns 0..m-1
    are the pivots and back-substitution gives y = d c, d the last pivot."""
    m = arr.m
    if L.dim != m:
        raise ValueError("dimension mismatch")
    a = [list(r) + [x] for r, x in zip(zip(*(p.rep for p in arr.points)), L.rep)]
    pivots, _, d = _echelon(a)
    return _back_substitute(a, pivots, d, m), d


def frame_coefficients(arr: Arrangement, L: ProjPoint) -> tuple[Fraction, ...]:
    """Coefficients c with L = sum c_j L_j (in the canonical representatives):
    `_frame_solve`'s y / d."""
    y, d = _frame_solve(arr, L)
    return tuple(Fraction(x, d) for x in y)


def _signed_vertices(cs: Sequence, values: Sequence) -> LinkDecision:
    """The criterion read from c and the plane values P(L_j): Linked iff the
    products sign(c_j) sign(P(L_j)) all have one strict sign; a zero product
    raises GeneralPositionError. Any c' = k c or values k P(L_j), k != 0,
    give the same decision."""
    signs = {sign(c) * sign(v) for c, v in zip(cs, values)}
    if 0 in signs:
        raise GeneralPositionError("configuration is not in general position")
    return LinkDecision.LINKED if len(signs) == 1 else LinkDecision.NOT_LINKED


def link_evidence(
    arr: Arrangement, lp: LinePlanePair
) -> tuple[LinkDecision, tuple[Fraction, ...], list[int]]:
    """The link decision with what it is read from, from one frame solve:
    the frame coefficients c of L and the plane values P(L_j), integers
    on the primitive representatives."""
    cs = frame_coefficients(arr, lp.line)
    values = [lp.plane.eval(p) for p in arr.points]
    return _signed_vertices(cs, values), cs, values


def in_general_position(arr: Arrangement, lp: LinePlanePair) -> bool:
    """True iff every determinant the linking criterion consults is nonzero.

    Concretely: the frame is independent (Arrangement invariant), L avoids
    every hyperplane spanned by m-1 frame points (all coefficients c_j
    nonzero), and P misses L (LinePlanePair invariant) and every frame
    point.
    """
    cs = frame_coefficients(arr, lp.line)
    return all(c != 0 and lp.plane.eval(p) != 0 for c, p in zip(cs, arr.points))


def link_decision(arr: Arrangement, lp: LinePlanePair) -> LinkDecision:
    """Linked iff the plane misses the open simplex containing the line.

    The signed vertices sign(c_j) L_j, for L = sum c_j L_j, span that
    simplex, so this is: the signed vertex values sign(c_j) P(L_j) all have
    one strict sign. A zero value means L lies on a wall (c_j = 0) or P
    passes through a vertex, and raises GeneralPositionError. It is the one
    pair of `link_decisions`, so its signs are read from integers.
    """
    return link_decisions(arr, [lp])[0]


def link_decisions(
    arr: Arrangement, pairs: Sequence[LinePlanePair]
) -> list[LinkDecision]:
    """`link_decision` of the frame against each pair, in order, with one
    frame solve per distinct line: the coefficients c depend on the frame
    and the line alone, so pairs that share a line share them. The criterion
    reads signs only, so it runs in integers: c = y / d from the solve, and
    P(L_j) is the dot product of the plane's and the point's primitive
    representatives. y stands in for c, as the common factor sign(d) flips
    every product at once and so changes no decision. The first degenerate
    pair raises GeneralPositionError."""
    reps = [p.rep for p in arr.points]
    scaled: dict[ProjPoint, list[int]] = {}
    decisions = []
    for lp in pairs:
        y = scaled.get(lp.line)
        if y is None:
            y = scaled[lp.line] = _frame_solve(arr, lp.line)[0]
        values = [sum(map(mul, lp.plane.functional, r)) for r in reps]
        decisions.append(_signed_vertices(y, values))
    return decisions


def common_flags(arr: Arrangement, lp: LinePlanePair) -> tuple[ProjPoint, ProjHyperplane]:
    """The two flags shared by the boundary spheres of the two configurations.

    Returns (L', Q): L' is where P crosses the line through the last two
    frame points, Q is the hyperplane through L and the first m-2 frame
    points. For m = 2 the hyperplane Q degenerates to the functional
    vanishing on L alone. Q's functional is the first-row cofactors of
    [L, L_1, ..., L_{m-2}], zero exactly when those rows are dependent.
    """
    if lp.dim != arr.m:
        raise ValueError("dimension mismatch")
    m = arr.m
    u = lp.plane
    a, b = arr.points[m - 2], arr.points[m - 1]
    ua, ub = u.eval(a), u.eval(b)
    coords = [ub * x - ua * y for x, y in zip(a.rep, b.rep)]
    if all(c == 0 for c in coords):
        raise GeneralPositionError("plane contains the line through L_{m-1}, L_m")
    l_prime = ProjPoint(coords)

    rows = [lp.line.rep] + [p.rep for p in arr.points[: m - 2]]
    normal = _first_row_cofactors(rows)
    if not any(normal):
        raise GeneralPositionError("L, L_1, ..., L_{m-2} do not span a hyperplane")
    q = ProjHyperplane(normal)
    if q.eval(l_prime) == 0:
        raise GeneralPositionError("shared flags collide: L' lies on Q")
    return l_prime, q
