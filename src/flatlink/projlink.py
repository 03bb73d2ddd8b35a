"""Exact projective geometry in P^{m-1} and the linking decision.

All projective objects carry canonical primitive integer representatives
(entry gcd 1, first nonzero entry positive), so equality, hashing and sign
evaluation are exact. Degenerate configurations raise GeneralPositionError;
nothing in this module perturbs its input.

The linking criterion: writing L = sum c_j L_j and d_j = P(L_j), the sphere
spanned by the frame links the (line, hyperplane) sphere iff the products
sign(c_j) * d_j all have one strict sign, i.e. iff P misses the open simplex
with vertex set {L_1, ..., L_m} that contains L.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .qkernel import (
    QMatrix,
    _primitive_ints,
    inverse,
    kernel_basis,
    rat,
    sign,
    solve_unique,
)


class GeneralPositionError(ValueError):
    """Raised when an input configuration is degenerate for the requested decision."""


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^{m-1}, canonical primitive integer representative."""

    rep: tuple[int, ...]

    def __init__(self, rep: Sequence):
        object.__setattr__(self, "rep", _primitive_ints([rat(x) for x in rep]))

    @property
    def dim(self) -> int:
        return len(self.rep)

    def __repr__(self):
        return f"ProjPoint{self.rep}"


@dataclass(frozen=True)
class ProjHyperplane:
    """Hyperplane of P^{m-1} as a canonical primitive integer functional."""

    functional: tuple[int, ...]

    def __init__(self, functional: Sequence):
        ints = _primitive_ints([rat(x) for x in functional])
        object.__setattr__(self, "functional", ints)

    @property
    def dim(self) -> int:
        return len(self.functional)

    def eval(self, p: ProjPoint) -> Fraction:
        if len(self.functional) != len(p.rep):
            raise ValueError("dimension mismatch")
        return Fraction(sum(a * b for a, b in zip(self.functional, p.rep)))

    def __repr__(self):
        return f"ProjHyperplane{self.functional}"


@dataclass(frozen=True)
class Arrangement:
    """Projective frame: m points of P^{m-1} in general position."""

    points: tuple[ProjPoint, ...]

    def __init__(self, points: Sequence[ProjPoint]):
        pts = tuple(
            p if isinstance(p, ProjPoint) else ProjPoint(p) for p in points
        )
        m = len(pts)
        if m < 2 or any(p.dim != m for p in pts):
            raise ValueError("need m points of P^{m-1}")
        if QMatrix.from_columns([p.rep for p in pts]).det() == 0:
            raise GeneralPositionError("frame points are projectively dependent")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return len(self.points)

    def frame_matrix(self) -> QMatrix:
        """Columns are the point representatives, in order."""
        return QMatrix.from_columns([p.rep for p in self.points])


@dataclass(frozen=True)
class LinePlanePair:
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


@dataclass(frozen=True)
class SignVector:
    """Open-simplex label: m signs, canonicalized so the first entry is +1."""

    signs: tuple[int, ...]

    def __init__(self, signs: Sequence[int]):
        ss = tuple(int(s) for s in signs)
        if any(s not in (1, -1) for s in ss):
            raise ValueError("signs must be +1 or -1")
        if ss and ss[0] == -1:
            ss = tuple(-s for s in ss)
        object.__setattr__(self, "signs", ss)

    def __iter__(self):
        return iter(self.signs)

    def __len__(self):
        return len(self.signs)


class LinkDecision(Enum):
    LINKED = "Linked"
    NOT_LINKED = "NotLinked"


# ---------------------------------------------------------------------------
# operations


def frame_coefficients(arr: Arrangement, L: ProjPoint) -> tuple[Fraction, ...]:
    """Coefficients c with L = sum c_j L_j (in the canonical representatives)."""
    if L.dim != arr.m:
        raise ValueError("dimension mismatch")
    return solve_unique(arr.frame_matrix(), L.rep)


def in_general_position(arr: Arrangement, lp: LinePlanePair) -> bool:
    """True iff every determinant the linking criterion consults is nonzero.

    Concretely: the frame is independent (Arrangement invariant), L avoids
    every hyperplane spanned by m-1 frame points (all coefficients c_j
    nonzero), and P misses L and every frame point. A hyperplane together
    with any point it misses already spans, so no further check is needed.
    """
    if lp.dim != arr.m:
        raise ValueError("dimension mismatch")
    cs = frame_coefficients(arr, lp.line)
    if any(c == 0 for c in cs):
        return False
    if any(lp.plane.eval(p) == 0 for p in arr.points):
        return False
    return lp.plane.eval(lp.line) != 0  # Arrangement/pair invariants imply the rest


def simplex_of(arr: Arrangement, L: ProjPoint) -> SignVector:
    """Sign vector of the open simplex (vertex set L_1..L_m) containing L."""
    cs = frame_coefficients(arr, L)
    if any(c == 0 for c in cs):
        raise GeneralPositionError("point lies on a wall hyperplane V_i")
    return SignVector([sign(c) for c in cs])


def plane_meets_simplex(
    P: ProjHyperplane, arr: Arrangement, sigma: SignVector
) -> bool:
    """Does P meet the closed simplex labeled by sigma other than trivially?

    Evaluates P on the signed vertices sigma_j * L_j; P misses the open
    simplex iff those values all share one strict sign.
    """
    if len(sigma) != arr.m:
        raise ValueError("sign vector length mismatch")
    vals = [s * P.eval(p) for s, p in zip(sigma, arr.points)]
    if any(v == 0 for v in vals):
        raise GeneralPositionError("plane passes through a vertex")
    return not (all(v > 0 for v in vals) or all(v < 0 for v in vals))


def link_decision(arr: Arrangement, lp: LinePlanePair) -> LinkDecision:
    """Linked iff the plane misses the open simplex containing the line."""
    if not in_general_position(arr, lp):
        raise GeneralPositionError("configuration is not in general position")
    sigma = simplex_of(arr, lp.line)
    if plane_meets_simplex(lp.plane, arr, sigma):
        return LinkDecision.NOT_LINKED
    return LinkDecision.LINKED


def common_flags(arr: Arrangement, lp: LinePlanePair) -> tuple[ProjPoint, ProjHyperplane]:
    """The two flags shared by the boundary spheres of the two configurations.

    Returns (L', Q): L' is where P crosses the line through the last two
    frame points, Q is the hyperplane through L and the first m-2 frame
    points. For m = 2 the hyperplane Q degenerates to the functional
    vanishing on L alone.
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
    ker = kernel_basis(QMatrix(rows))
    if len(ker) != 1:
        raise GeneralPositionError("L, L_1, ..., L_{m-2} do not span a hyperplane")
    q = ProjHyperplane(ker[0])
    if q.eval(l_prime) == 0:
        raise GeneralPositionError("shared flags collide: L' lies on Q")
    return l_prime, q


# ---------------------------------------------------------------------------
# GL action


def transform_point(g: QMatrix, p: ProjPoint) -> ProjPoint:
    return ProjPoint(g.apply(p.rep))


def transform_hyperplane(g: QMatrix, h: ProjHyperplane) -> ProjHyperplane:
    # functional pulls back through the inverse: (g.h)(x) = h(g^{-1} x)
    return ProjHyperplane(inverse(g).transpose().apply(h.functional))


def transform_arrangement(g: QMatrix, arr: Arrangement) -> Arrangement:
    return Arrangement([transform_point(g, p) for p in arr.points])


def transform_pair(g: QMatrix, lp: LinePlanePair) -> LinePlanePair:
    return LinePlanePair(transform_point(g, lp.line), transform_hyperplane(g, lp.plane))
