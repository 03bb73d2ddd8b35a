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

Every decision is an integer rank. A subspace is carried as its columns,
each scaled to integers by a positive factor (which changes no span), and
the rank of several subspaces together is one fraction-free echelon pass
(`qkernel._echelon`) over all their vectors. `flag_preserved_by` maps those
vectors by L·tau, L > 0 the LCM of tau's denominators, in integers. A
decomposition is validated once per call (`_decomposition`), whichever of
`is_associated` and `common_associated_subspaces` takes it.

Malformed input is a `ValueError`: an empty decomposition, blocks or
subspaces of different ambient dimensions, blocks that do not form a direct
sum, and a non-square, singular or wrongly sized tau. The common-subspace
search raises these, and a zero block, before it builds any candidate.

Subspaces are rational and canonicalized by the reduced echelon basis of
their row space, so equality is literal equality of generator matrices,
and a canonical generator matrix has as many columns as its dimension.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Optional, Sequence, Union

from .qkernel import (
    QMatrix,
    _Record,
    _back_substitute,
    _echelon,
    _int_det,
    _int_matrix,
    rank,
)

Vectors = list[list[int]]


def _columns(M: QMatrix) -> Vectors:
    """M's columns, each scaled to integers by the least positive factor:
    column j of L M over gcd(L, column j)."""
    L, A = _int_matrix(M)
    return [[x // g for x in c] for c in zip(*A) for g in (math.gcd(L, *c),)]


def _rank(*parts: Vectors) -> int:
    """Dimension of the span of all the parts' vectors together."""
    return len(_echelon([list(v) for p in parts for v in p])[0])


def _one_ambient(parts: Sequence[QMatrix]) -> int:
    ms = {p.nrows for p in parts}
    if len(ms) != 1:
        raise ValueError("subspaces of different ambient dimensions")
    return ms.pop()


def _reduced(a: Vectors, pivots: list[int], d: int) -> tuple[QMatrix, Vectors]:
    """From `_echelon`'s output on some vectors: the canonical generator
    matrix of their span and its columns times |d| in integers.

    Coordinate i of the k-th reduced echelon vector is y[k] / d, where y
    solves the pivot block against column i (`_back_substitute`).
    """
    if not pivots:
        raise ValueError("zero subspace has no generator matrix")
    ys = [_back_substitute(a, pivots, d, i) for i in range(len(a[0]))]
    s = 1 if d > 0 else -1
    vecs = [[s * y[k] for y in ys] for k in range(len(pivots))]
    return QMatrix._from_ints(d, ys), vecs


def _canonical(vecs: Vectors) -> tuple[QMatrix, Vectors]:
    a = [list(v) for v in vecs]
    pivots, _, d = _echelon(a)
    return _reduced(a, pivots, d)


def _intersection(A: Vectors, B: Vectors) -> Vectors:
    """Integer vectors spanning span A ∩ span B, by Zassenhaus' rule: the
    rows (a, a) and (b, 0) span {(a + b, a)}, whose echelon rows with a
    zero left half carry a basis of the intersection on their right."""
    m = len(A[0])
    a = [v + v for v in A] + [w + [0] * m for w in B]
    pivots = _echelon(a)[0]
    return [a[k][m:] for k, p in enumerate(pivots) if p >= m]


def canonical_subspace(generators: QMatrix) -> QMatrix:
    """Canonical column-generator matrix of the span of the given columns."""
    return _canonical(_columns(generators))[0]


def subspace_dim(generators: QMatrix) -> int:
    return rank(generators)


def same_subspace(a: QMatrix, b: QMatrix) -> bool:
    return canonical_subspace(a) == canonical_subspace(b)


def intersect_subspaces(a: QMatrix, b: QMatrix) -> Optional[QMatrix]:
    """Intersection of two column spans; None when it is zero."""
    _one_ambient([a, b])
    gens = _intersection(_columns(a), _columns(b))
    return _canonical(gens)[0] if gens else None


def sum_subspaces(parts: Sequence[QMatrix]) -> QMatrix:
    _one_ambient(parts)
    return _canonical([v for p in parts for v in _columns(p)])[0]


class Flag(_Record):
    """Strictly nested proper rational subspaces, canonical generators."""

    subspaces: tuple[QMatrix, ...]

    def __init__(self, subspaces: Sequence[QMatrix]):
        subspaces = list(subspaces)
        if subspaces:
            _one_ambient(subspaces)
        canon = [_canonical(_columns(s)) for s in subspaces]
        dims = [S.ncols for S, _ in canon]
        if any(d2 <= d1 for d1, d2 in zip(dims, dims[1:])):
            raise ValueError("flag dimensions must strictly increase")
        for (_, small), (big, big_vecs) in zip(canon, canon[1:]):
            if _rank(small, big_vecs) != big.ncols:
                raise ValueError("flag subspaces must be nested")
        if canon and dims[-1] == canon[-1][0].nrows:
            raise ValueError("the full space is not listed in a proper flag")
        object.__setattr__(self, "subspaces", tuple(S for S, _ in canon))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.ncols for s in self.subspaces)


class DecompSphere(_Record):
    """Block sizes of a direct-sum decomposition, for join bookkeeping."""

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        ds = tuple(int(d) for d in dims)
        if not ds or any(d < 1 for d in ds):
            raise ValueError("need r >= 1 positive block sizes")
        object.__setattr__(self, "dims", ds)


def sphere_dim(d: Union[DecompSphere, Sequence[int]]) -> int:
    """Dimension of the decomposition sphere: sum n(n+1)/2 - 2 over the
    block sizes n.

    By the join rule (join(A, B) has dim A + dim B + 1, the empty sphere
    -1) the sphere is the (r-2)-sphere of scales joined with each block's
    own sphere of dimension n(n+1)/2 - 2. The r joins add r and the
    scales r - 2; with the blocks' -2r that leaves sum n(n+1)/2 - 2.
    """
    dims = d.dims if isinstance(d, DecompSphere) else DecompSphere(d).dims
    return sum(n * (n + 1) // 2 for n in dims) - 2


def _decomposition(arrangement: Sequence[QMatrix]) -> tuple[int, list[tuple[Vectors, int]]]:
    """The ambient dimension m and each block's integer columns with its
    dimension, once the blocks are checked to form a direct sum of Q^m:
    their dimensions add up to m and together they span it."""
    arrangement = list(arrangement)
    if not arrangement:
        raise ValueError("a decomposition needs at least one block")
    m = _one_ambient(arrangement)
    blocks = [_columns(U) for U in arrangement]
    dims = [_rank(U) for U in blocks]
    if sum(dims) != m or _rank(*blocks) != m:
        raise ValueError("blocks must form a direct-sum decomposition")
    return m, list(zip(blocks, dims))


def _associated(vecs: Vectors, d: int, blocks: list[tuple[Vectors, int]]) -> bool:
    """The dimension count for a nonzero span of dimension d."""
    return sum(d + du - _rank(vecs, U) for U, du in blocks) == d


def is_associated(V: QMatrix, arrangement: Sequence[QMatrix]) -> bool:
    """Is V spanned by its intersections with the decomposition blocks?

    By the dimension count sum_i dim(V ∩ U_i) = dim V, with
    dim(V ∩ U) = dim V + dim U - rank[V | U]. A zero V is not associated.
    """
    m, blocks = _decomposition(arrangement)
    if V.nrows != m:
        raise ValueError("subspaces of different ambient dimensions")
    vecs = _columns(V)
    d = _rank(vecs)
    return d > 0 and _associated(vecs, d, blocks)


def flag_preserved_by(tau: QMatrix, flag: Flag) -> bool:
    """Does tau map every flag subspace onto itself?

    Decided for L·tau in integers, L > 0, which maps each span as tau does.
    """
    if not tau.is_square:
        raise ValueError("tau must be square")
    _, A = _int_matrix(tau)
    if _int_det(A) == 0:
        raise ValueError("tau must be invertible")
    if flag.subspaces and flag.subspaces[0].nrows != len(A):
        raise ValueError("tau and the flag act on different dimensions")
    for S in flag.subspaces:
        vecs = _columns(S)
        images = [[sum(map(mul, r, v)) for r in A] for v in vecs]
        if _rank(vecs, images) != S.ncols:
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
    m, blocks_a = _decomposition(dec_a)
    m_b, blocks_b = _decomposition(dec_b)
    if m_b != m:
        raise ValueError("decompositions of different ambient dimensions")
    if any(du == 0 for _, du in blocks_a + blocks_b):
        raise ValueError("zero subspace has no generator matrix")
    pool = [_canonical(U) for U, _ in blocks_a + blocks_b]
    for A, _ in blocks_a:
        for B, _ in blocks_b:
            gens = _intersection(A, B)
            if len(gens) >= 2:
                # a shared plane carries infinitely many common lines
                raise ValueError("degenerate configuration: blocks share a plane")
            if gens:
                pool.append(_canonical(gens))
    seen = set()
    candidates = []
    for S, vecs in pool:
        if S not in seen:
            seen.add(S)
            candidates.append((S, vecs))
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a = [list(v) for v in candidates[i][1] + candidates[j][1]]
            pivots, _, d = _echelon(a)
            if len(pivots) == m:  # the whole space is no candidate
                continue
            S, vecs = _reduced(a, pivots, d)
            if S not in seen:
                seen.add(S)
                candidates.append((S, vecs))

    out = [
        S
        for S, vecs in candidates
        if S.ncols < m
        and _associated(vecs, S.ncols, blocks_a)
        and _associated(vecs, S.ncols, blocks_b)
    ]
    out.sort(key=lambda S: (S.ncols, S.rows))
    return out
