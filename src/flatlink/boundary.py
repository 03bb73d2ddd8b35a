"""Flags, block decompositions and their associated subspaces.

Points of the sphere at infinity are recorded by flags of rational
subspaces. This module decides when a subspace is associated with a
direct-sum decomposition (spanned by its intersections with the blocks),
when a matrix preserves a flag, and which subspaces are associated with
both of two decompositions; `sphere_dim` gives a decomposition sphere's
dimension by the join rule.

Association is a dimension count. The blocks U_i form a direct sum, so the
spaces V ∩ U_i are independent, and V is spanned by them exactly when
sum_i dim(V ∩ U_i) = dim V, with dim(V ∩ U) = dim V + dim U - rank[V | U].
So it takes ranks only, and no intersection is built.

Subspaces are rational and canonicalized by the reduced echelon basis of
their row space, so equality is literal equality of generator matrices,
and a canonical generator matrix has as many columns as its dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .qkernel import QMatrix, det, kernel_basis, rank, rref_rows


def _hstack(parts: Sequence[QMatrix]) -> QMatrix:
    """The columns of all parts side by side: [A | B | ...]."""
    if len({p.nrows for p in parts}) != 1:
        raise ValueError("subspaces of different ambient dimensions")
    return QMatrix([sum(rows, ()) for rows in zip(*(p.rows for p in parts))])


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
    images = (a.apply(v[: a.ncols]) for v in kernel_basis(_hstack([a, -b])))
    gens = [vec for vec in images if any(vec)]
    if not gens:
        return None
    return canonical_subspace(QMatrix.from_columns(gens))


def sum_subspaces(parts: Sequence[QMatrix]) -> QMatrix:
    return canonical_subspace(_hstack(parts))


@dataclass(frozen=True)
class Flag:
    """Strictly nested proper rational subspaces, canonical generators."""

    subspaces: tuple[QMatrix, ...]

    def __init__(self, subspaces: Sequence[QMatrix]):
        canon = tuple(canonical_subspace(s) for s in subspaces)
        dims = [s.ncols for s in canon]
        if any(d2 <= d1 for d1, d2 in zip(dims, dims[1:])):
            raise ValueError("flag dimensions must strictly increase")
        for small, big in zip(canon, canon[1:]):
            if rank(_hstack([small, big])) != big.ncols:
                raise ValueError("flag subspaces must be nested")
        if canon and dims[-1] == canon[-1].nrows:
            raise ValueError("the full space is not listed in a proper flag")
        object.__setattr__(self, "subspaces", canon)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.ncols for s in self.subspaces)


@dataclass(frozen=True)
class DecompSphere:
    """Block sizes of a direct-sum decomposition, for join bookkeeping."""

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        ds = tuple(int(d) for d in dims)
        if not ds or any(d < 1 for d in ds):
            raise ValueError("need r >= 1 positive block sizes")
        object.__setattr__(self, "dims", ds)


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
    """Is V spanned by its intersections with the decomposition blocks?

    By the dimension count sum_i dim(V ∩ U_i) = dim V, with
    dim(V ∩ U) = dim V + dim U - rank[V | U]. A zero V is not associated.
    """
    blocks = list(arrangement)
    dims = [rank(U) for U in blocks]
    if sum(dims) != V.nrows or rank(_hstack(blocks)) != V.nrows:
        raise ValueError("blocks must form a direct-sum decomposition")
    d = rank(V)
    if d == 0:
        return False
    meets = sum(d + du - rank(_hstack([V, U])) for U, du in zip(blocks, dims))
    return meets == d


def flag_preserved_by(tau: QMatrix, flag: Flag) -> bool:
    """Does tau map every flag subspace onto itself?"""
    if det(tau) == 0:
        raise ValueError("tau must be invertible")
    for S in flag.subspaces:
        if rank(_hstack([S, tau @ S])) != S.ncols:
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
            if C.ncols >= 2:
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
            if S.rows not in seen and S.ncols < m:
                seen.add(S.rows)
                candidates.append(S)

    out = []
    for S in candidates:
        if not 1 <= S.ncols < m:
            continue
        if is_associated(S, dec_a) and is_associated(S, dec_b):
            out.append(S)
    out.sort(key=lambda S: (S.ncols, S.rows))
    return out
