"""Flag parametrization of the sphere at infinity and associated subspaces.

A unit-speed geodesic ray leaving the basepoint in direction Z (symmetric,
trace zero) converges to a boundary point recorded here as the descending
eigenvalue list of Z together with the flag of partial sums of eigenspaces.
The unit normalization sum(lambda_i^2) = 1 is kept symbolic: the direction
matrix is stored unnormalized and its squared norm recorded, since the scale
never enters any predicate.

Subspaces are rational and canonicalized by the reduced echelon basis of
their row space, so equality is literal equality of generator matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .qkernel import (
    QMatrix,
    QPoly,
    char_poly,
    det,
    isolate_real_roots,
    kernel_basis,
    poly_gcd,
    rank,
    rational_roots,
    rref_rows,
)


def canonical_subspace(generators: QMatrix) -> QMatrix:
    """Canonical column-generator matrix of the span of the given columns."""
    rows, _ = rref_rows(generators.transpose())
    if not rows:
        raise ValueError("zero subspace has no generator matrix")
    return QMatrix(rows).transpose()


def subspace_dim(generators: QMatrix) -> int:
    return rank(generators)


def same_subspace(a: QMatrix, b: QMatrix) -> bool:
    return canonical_subspace(a) == canonical_subspace(b)


def intersect_subspaces(a: QMatrix, b: QMatrix) -> Optional[QMatrix]:
    """Intersection of two column spans; None when it is zero."""
    cols_a = [a.col(j) for j in range(a.ncols)]
    cols_b = [tuple(-x for x in b.col(j)) for j in range(b.ncols)]
    ker = kernel_basis(QMatrix.from_columns(cols_a + cols_b))
    gens = []
    for v in ker:
        coeffs = v[: a.ncols]
        vec = tuple(
            sum(c * col[i] for c, col in zip(coeffs, cols_a))
            for i in range(a.nrows)
        )
        if any(x != 0 for x in vec):
            gens.append(vec)
    if not gens:
        return None
    return canonical_subspace(QMatrix.from_columns(gens))


def sum_subspaces(parts: Sequence[QMatrix]) -> QMatrix:
    cols = []
    for p in parts:
        cols.extend(p.col(j) for j in range(p.ncols))
    return canonical_subspace(QMatrix.from_columns(cols))


@dataclass(frozen=True)
class Flag:
    """Strictly nested proper rational subspaces, canonical generators."""

    subspaces: tuple[QMatrix, ...]

    def __init__(self, subspaces: Sequence[QMatrix]):
        canon = tuple(canonical_subspace(s) for s in subspaces)
        dims = [subspace_dim(s) for s in canon]
        if any(d2 <= d1 for d1, d2 in zip(dims, dims[1:])):
            raise ValueError("flag dimensions must strictly increase")
        for small, big in zip(canon, canon[1:]):
            joined = sum_subspaces([small, big])
            if subspace_dim(joined) != subspace_dim(big):
                raise ValueError("flag subspaces must be nested")
        if canon and dims[-1] == canon[-1].nrows:
            raise ValueError("the full space is not listed in a proper flag")
        object.__setattr__(self, "subspaces", canon)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(subspace_dim(s) for s in self.subspaces)


@dataclass(frozen=True)
class DecompSphere:
    """Block sizes of a direct-sum decomposition, for join bookkeeping."""

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        ds = tuple(int(d) for d in dims)
        if not ds or any(d < 1 for d in ds):
            raise ValueError("need r >= 1 positive block sizes")
        object.__setattr__(self, "dims", ds)


# an eigenvalue entry is an exact rational, or (squarefree factor, isolating
# interval) when irrational
EigenEntry = Union[Fraction, tuple[QPoly, tuple[Fraction, Fraction]]]


@dataclass(frozen=True)
class BoundaryPoint:
    direction: QMatrix
    eigenvalues: tuple[EigenEntry, ...]
    multiplicities: tuple[int, ...]
    flag: Optional[Flag]
    norm_squared: Fraction
    exact: bool
    float_flag: tuple = ()

    def __post_init__(self):
        if self.exact:
            s = sum(
                (l * k for l, k in zip(self.eigenvalues, self.multiplicities)),
                Fraction(0),
            )
            assert s == 0


def _squarefree_decomposition(p: QPoly) -> list[tuple[QPoly, int]]:
    """Yun's algorithm: [(q, k)] with the q squarefree, coprime, p ~ prod q^k."""
    a = poly_gcd(p, p.derivative())
    if a.degree < 1:
        return [(p.monic(), 1)]
    b = p.divmod(a)[0]
    c = p.derivative().divmod(a)[0]
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree >= 1:
        ai = poly_gcd(b, d)
        if ai.degree >= 1:
            out.append((ai, i))
        b = b.divmod(ai)[0] if ai.degree >= 1 else b
        c = d.divmod(ai)[0] if ai.degree >= 1 else d
        d = c - b.derivative()
        i += 1
    return out


def direction_to_boundary(Zdir: QMatrix, exact: bool = True) -> BoundaryPoint:
    """Boundary point of the ray in direction Zdir.

    With exact=True (default) the characteristic polynomial must split over
    Q; eigenvalues come out as exact rationals and the flag as exact partial
    sums of eigenspaces. With exact=False irrational eigenvalues are
    returned as (squarefree factor, isolating interval) certificates and the
    flag as floating-point generators, tagged exact=False.
    """
    if not Zdir.is_symmetric():
        raise ValueError("direction must be symmetric")
    if Zdir.trace() != 0:
        raise ValueError("direction must have trace zero")
    m = Zdir.nrows
    if all(x == 0 for row in Zdir.rows for x in row):
        raise ValueError("direction must be nonzero")
    p = char_poly(Zdir)
    norm_sq = sum(
        (Zdir[i, j] * Zdir[j, i] for i in range(m) for j in range(m)),
        Fraction(0),
    )

    sf_parts = _squarefree_decomposition(p)
    roots = rational_roots(p)
    rational_mult = {}
    for r in roots:
        for q, k in sf_parts:
            if q.eval(r) == 0:
                rational_mult[r] = k
    if sum(rational_mult.values()) == m:
        # rational split: fully exact
        desc = sorted(rational_mult, reverse=True)
        eigenspaces = [
            QMatrix.from_columns(
                kernel_basis(Zdir - QMatrix.diagonal([lam] * m))
            )
            for lam in desc
        ]
        partial: list[QMatrix] = []
        acc: list[QMatrix] = []
        for E in eigenspaces[:-1]:
            acc.append(E)
            partial.append(sum_subspaces(acc))
        return BoundaryPoint(
            direction=Zdir,
            eigenvalues=tuple(desc),
            multiplicities=tuple(rational_mult[l] for l in desc),
            flag=Flag(partial),
            norm_squared=norm_sq,
            exact=True,
        )

    if exact:
        raise ValueError(
            "characteristic polynomial does not split over Q; "
            "call with exact=False for certified intervals"
        )

    # certified intervals for every distinct eigenvalue, descending
    sf = sf_parts[0][0]
    for q, _ in sf_parts[1:]:
        sf = sf * q
    intervals = isolate_real_roots(sf)
    entries: list[EigenEntry] = []
    mults: list[int] = []
    for lo, hi in reversed(intervals):
        hit_rat = next((r for r in roots if lo < r <= hi), None)
        factor, mult = next(
            (q, k)
            for q, k in sf_parts
            if (hit_rat is not None and q.eval(hit_rat) == 0)
            or (hit_rat is None and q.eval(lo) * q.eval(hi) < 0)
        )
        if hit_rat is not None:
            entries.append(hit_rat)
        else:
            entries.append((factor, (lo, hi)))
        mults.append(mult)

    evals, evecs = np.linalg.eigh(np.array(Zdir.to_lists(), dtype=float))
    order = np.argsort(evals)[::-1]  # descending, grouped by certified intervals
    cum = np.cumsum(mults)[:-1]
    float_flag = tuple(
        tuple(map(tuple, evecs[:, order[:k]].T.tolist())) for k in cum
    )
    return BoundaryPoint(
        direction=Zdir,
        eigenvalues=tuple(entries),
        multiplicities=tuple(mults),
        flag=None,
        norm_squared=norm_sq,
        exact=False,
        float_flag=float_flag,
    )


def sphere_dim(d: Union[DecompSphere, Sequence[int]]) -> int:
    """Dimension of the decomposition sphere by the join rule.

    join(A, B) has dim A + dim B + 1 with the empty sphere at -1; the
    sphere is the (r-2)-sphere of scales joined with each block's own
    sphere of dimension n(n+1)/2 - 2.
    """
    dims = d.dims if isinstance(d, DecompSphere) else DecompSphere(d).dims
    r = len(dims)
    total = r - 2
    for n in dims:
        total += (n * (n + 1) // 2 - 2) + 1
    return total


def is_associated(V: QMatrix, arrangement: Sequence[QMatrix]) -> bool:
    """Is V spanned by its intersections with the decomposition blocks?"""
    m = V.nrows
    blocks = list(arrangement)
    if sum(subspace_dim(U) for U in blocks) != m or subspace_dim(
        sum_subspaces(blocks)
    ) != m:
        raise ValueError("blocks must form a direct-sum decomposition")
    parts = [intersect_subspaces(V, U) for U in blocks]
    gens = [p for p in parts if p is not None]
    if not gens:
        return False
    return subspace_dim(sum_subspaces(gens)) == subspace_dim(V)


def flag_preserved_by(tau: QMatrix, flag: Flag) -> bool:
    """Does tau map every flag subspace onto itself?"""
    if det(tau) == 0:
        raise ValueError("tau must be invertible")
    for S in flag.subspaces:
        image = tau @ S
        stacked = QMatrix.from_columns(
            [S.col(j) for j in range(S.ncols)]
            + [image.col(j) for j in range(image.ncols)]
        )
        if rank(stacked) != subspace_dim(S):
            return False
    return True


def common_associated_subspaces(
    dec_a: Sequence[QMatrix], dec_b: Sequence[QMatrix]
) -> list[QMatrix]:
    """Proper nonzero subspaces associated to both decompositions.

    Candidates are pairwise block intersections, the blocks themselves, and
    spans of two candidates; this is exhaustive for a pair of
    (1, m-1)-decompositions of Q^3 in general position, the case the
    two-flags statement is about. A pairwise intersection of dimension >= 2
    between distinct blocks means infinitely many common subspaces and is
    rejected.
    """
    m = dec_a[0].nrows
    pool: list[QMatrix] = []
    for U in list(dec_a) + list(dec_b):
        pool.append(canonical_subspace(U))
    for A in dec_a:
        for B in dec_b:
            C = intersect_subspaces(A, B)
            if C is None:
                continue
            if subspace_dim(C) >= 2:
                # a shared plane carries infinitely many common lines
                raise ValueError("degenerate configuration: blocks share a plane")
            pool.append(C)
    seen = set()
    candidates = []
    for S in pool:
        if S.rows not in seen:
            seen.add(S.rows)
            candidates.append(S)
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            S = sum_subspaces([candidates[i], candidates[j]])
            if S.rows not in seen and subspace_dim(S) < m:
                seen.add(S.rows)
                candidates.append(S)

    out = []
    for S in candidates:
        if not 1 <= subspace_dim(S) < m:
            continue
        if is_associated(S, dec_a) and is_associated(S, dec_b):
            out.append(S)
    out.sort(key=lambda S: (subspace_dim(S), S.rows))
    return out
