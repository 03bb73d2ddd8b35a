"""boundary against its earlier Fraction implementation, kept here as a
reference: every subspace query went through a `QMatrix` of the stacked
generators (`_ref_hstack`) and a rational rank or reduced echelon form, and
flag preservation through the `Fraction` product tau @ S. The library
decides by integer ranks over positively scaled columns; on the same inputs
it must return the same verdicts and canonical matrices, and raise the same
exception types.
"""

import random
from fractions import Fraction

import pytest

from flatlink import boundary
from flatlink.boundary import (
    Flag,
    canonical_subspace,
    common_associated_subspaces,
    flag_preserved_by,
    intersect_subspaces,
    is_associated,
    sum_subspaces,
)
from flatlink.qkernel import QMatrix, det, kernel_basis, rank

from _reference import columns, rref_rows, transpose

# ---------------------------------------------------------------------------
# the reference


def _ref_hstack(parts):
    if len({p.nrows for p in parts}) != 1:
        raise ValueError("subspaces of different ambient dimensions")
    return QMatrix([sum(rows, ()) for rows in zip(*(p.rows for p in parts))])


def _ref_canonical_subspace(generators):
    rows, _ = rref_rows(transpose(generators))
    if not rows:
        raise ValueError("zero subspace has no generator matrix")
    return transpose(QMatrix(rows))


def _ref_intersect_subspaces(a, b):
    images = (a.apply(v[: a.ncols]) for v in kernel_basis(_ref_hstack([a, b * -1])))
    gens = [vec for vec in images if any(vec)]
    if not gens:
        return None
    return _ref_canonical_subspace(QMatrix.from_columns(gens))


def _ref_sum_subspaces(parts):
    return _ref_canonical_subspace(_ref_hstack(parts))


def _ref_flag(subspaces):
    canon = tuple(_ref_canonical_subspace(s) for s in subspaces)
    dims = [s.ncols for s in canon]
    if any(d2 <= d1 for d1, d2 in zip(dims, dims[1:])):
        raise ValueError("flag dimensions must strictly increase")
    for small, big in zip(canon, canon[1:]):
        if rank(_ref_hstack([small, big])) != big.ncols:
            raise ValueError("flag subspaces must be nested")
    if canon and dims[-1] == canon[-1].nrows:
        raise ValueError("the full space is not listed in a proper flag")
    return canon


def _ref_is_associated(V, arrangement):
    blocks = list(arrangement)
    dims = [rank(U) for U in blocks]
    if sum(dims) != V.nrows or rank(_ref_hstack(blocks)) != V.nrows:
        raise ValueError("blocks must form a direct-sum decomposition")
    d = rank(V)
    if d == 0:
        return False
    meets = sum(d + du - rank(_ref_hstack([V, U])) for U, du in zip(blocks, dims))
    return meets == d


def _ref_flag_preserved_by(tau, flag_subspaces):
    if det(tau) == 0:
        raise ValueError("tau must be invertible")
    for S in flag_subspaces:
        if rank(_ref_hstack([S, tau @ S])) != S.ncols:
            return False
    return True


def _ref_common_associated_subspaces(dec_a, dec_b):
    m = dec_a[0].nrows
    pool = []
    for U in list(dec_a) + list(dec_b):
        pool.append(_ref_canonical_subspace(U))
    for A in dec_a:
        for B in dec_b:
            C = _ref_intersect_subspaces(A, B)
            if C is None:
                continue
            if C.ncols >= 2:
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
            S = _ref_sum_subspaces([candidates[i], candidates[j]])
            if S.rows not in seen and S.ncols < m:
                seen.add(S.rows)
                candidates.append(S)
    out = []
    for S in candidates:
        if not 1 <= S.ncols < m:
            continue
        if _ref_is_associated(S, dec_a) and _ref_is_associated(S, dec_b):
            out.append(S)
    out.sort(key=lambda S: (S.ncols, S.rows))
    return out


def _outcome(f, *args):
    """f's value, or the type of what it raised."""
    try:
        return "value", f(*args)
    except Exception as e:  # the exception type is the compared outcome
        return "raised", type(e)


def _agree(f, ref, *args):
    got, want = _outcome(f, *args), _outcome(ref, *args)
    assert got == want, (args, got, want)
    return want


# ---------------------------------------------------------------------------
# seeded inputs: rational entries, zero and redundant columns


def _rat(rng):
    return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 4, 6]))


def _combination(rng, cols):
    m = len(cols[0])
    coeffs = [_rat(rng) for _ in cols]
    return tuple(sum((c * v[i] for c, v in zip(coeffs, cols)), Fraction(0)) for i in range(m))


def _pad(rng, cols):
    """cols, maybe with a zero column and a redundant one, shuffled."""
    cols = list(cols)
    if rng.random() < 0.3:
        cols.append((0,) * len(cols[0]))
    if rng.random() < 0.4:
        cols.append(_combination(rng, cols))
    rng.shuffle(cols)
    return cols


def _matrix(rng, m, k):
    cols = [tuple(_rat(rng) for _ in range(m)) for _ in range(k)]
    return QMatrix.from_columns(_pad(rng, cols))


def _frame(rng, m):
    while True:
        g = [tuple(_rat(rng) for _ in range(m)) for _ in range(m)]
        if det(QMatrix.from_columns(g)) != 0:
            return g


def _sizes(rng, m):
    sizes, left = [], m
    while left:
        sizes.append(rng.randint(1, left))
        left -= sizes[-1]
    return sizes


def _blocks(rng, frame):
    """A decomposition of the frame's columns, blocks padded by `_pad`,
    and now and then malformed."""
    m = len(frame)
    blocks, at = [], 0
    for s in _sizes(rng, m):
        blocks.append(frame[at : at + s])
        at += s
    blocks = [QMatrix.from_columns(_pad(rng, b)) for b in blocks]
    fault = rng.random()
    if fault < 0.06 and len(blocks) >= 2:  # two blocks overlap
        blocks[1] = QMatrix.from_columns(columns(blocks[1]) + [blocks[0].col(0)])
    elif fault < 0.1:  # a zero block
        blocks.insert(rng.randint(0, len(blocks)), QMatrix.from_columns([(0,) * m]))
    elif fault < 0.13:  # a block missing
        blocks.pop()
    return blocks


def _decomposition_pair(rng, m):
    """Two decompositions whose frames share some columns or pieces of them,
    so that their common associated subspaces are often not empty."""
    g = _frame(rng, m)
    while True:
        h = []
        for v, w in zip(g, g[1:] + g[:1]):
            r = rng.random() * m
            if r < 1:
                h.append(v)
            elif r < 2:
                h.append(_combination(rng, [v, w]))
            else:
                h.append(tuple(_rat(rng) for _ in range(m)))
        if det(QMatrix.from_columns(h)) != 0:
            return _blocks(rng, g), _blocks(rng, h)


def _flag_input(rng, m):
    """Generator matrices of a nested chain, padded, and now and then not a
    proper flag (not nested, not increasing, or ending in the whole space)."""
    vecs = [tuple(_rat(rng) for _ in range(m)) for _ in range(m)]
    dims = sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
    if rng.random() < 0.7:
        dims = [d for d in dims if d < m] or [1]
    subs = [QMatrix.from_columns(_pad(rng, vecs[:d])) for d in dims]
    fault = rng.random()
    if fault < 0.08 and len(subs) >= 2:
        subs[0] = _matrix(rng, m, subs[0].ncols)
    elif fault < 0.12 and len(subs) >= 2:
        subs.reverse()
    return subs


def _eigen_tau(rng, m):
    """A rational tau with a rational eigenframe, and the generators of a
    flag of prefixes of that frame, which tau preserves."""
    g = _frame(rng, m)
    vals = [rng.choice([2, 3, Fraction(1, 2), Fraction(-5, 3)]) for _ in range(m)]
    G = QMatrix.from_columns(g)
    tau = G @ QMatrix.diagonal(vals) @ G.inverse()
    dims = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
    return tau, [QMatrix.from_columns(_pad(rng, g[:d])) for d in dims]


# ---------------------------------------------------------------------------
# the comparisons


@pytest.mark.parametrize("m", range(2, 6))
def test_canonical_sum_and_intersection_match_reference(m):
    rng = random.Random(2300 + m)
    for _ in range(80):
        a = _matrix(rng, m, rng.randint(1, m))
        b = _matrix(rng, m, rng.randint(1, m))
        if rng.random() < 0.3:  # share a vector
            b = QMatrix.from_columns(columns(b) + [_combination(rng, columns(a))])
        _agree(canonical_subspace, _ref_canonical_subspace, a)
        _agree(intersect_subspaces, _ref_intersect_subspaces, a, b)
        _agree(sum_subspaces, _ref_sum_subspaces, [a, b])
    zero = QMatrix.from_columns([(0,) * m, (0,) * m])
    assert _agree(canonical_subspace, _ref_canonical_subspace, zero) == ("raised", ValueError)
    other = _matrix(rng, m + 1, 1)
    assert _agree(sum_subspaces, _ref_sum_subspaces, [zero, other]) == ("raised", ValueError)
    assert _agree(intersect_subspaces, _ref_intersect_subspaces, zero, other) == ("raised", ValueError)


@pytest.mark.parametrize("m", range(2, 6))
def test_is_associated_matches_reference(m):
    rng = random.Random(2400 + m)
    verdicts = set()
    for _ in range(120):
        blocks = _blocks(rng, _frame(rng, m))
        if blocks and rng.random() < 0.5:  # pieces of blocks, so association is not rare
            cols = [_combination(rng, columns(U)) for U in rng.sample(blocks, rng.randint(1, len(blocks)))]
            V = QMatrix.from_columns(_pad(rng, cols))
        else:
            V = _matrix(rng, m, rng.randint(1, m))
        if rng.random() < 0.03:
            V = _matrix(rng, m + 1, 1)
        verdicts.add(_agree(is_associated, _ref_is_associated, V, blocks))
    assert verdicts == {("value", True), ("value", False), ("raised", ValueError)}


@pytest.mark.parametrize("m", range(2, 6))
def test_flag_matches_reference(m):
    rng = random.Random(2500 + m)
    outcomes = set()
    for _ in range(120):
        subs = _flag_input(rng, m)
        got = _outcome(lambda s: Flag(s).subspaces, subs)
        assert got == _outcome(_ref_flag, subs)
        outcomes.add(got[0])
    assert outcomes == {"value", "raised"}
    mixed = [_matrix(rng, m, 1), _matrix(rng, m + 1, 2)]
    assert _agree(lambda s: Flag(s).subspaces, _ref_flag, mixed) == ("raised", ValueError)


@pytest.mark.parametrize("m", range(2, 6))
def test_flag_preserved_by_matches_reference(m):
    rng = random.Random(2600 + m)
    verdicts = set()
    for _ in range(100):
        tau, subs = _eigen_tau(rng, m)
        try:
            flag = Flag(subs if rng.random() < 0.5 else _flag_input(rng, m))
        except ValueError:
            continue
        kind = rng.random()
        if kind < 0.05:  # singular
            tau = QMatrix.from_columns(columns(tau)[:-1] + [tau.col(0)])
        elif kind < 0.08:  # not square
            tau = QMatrix(tau.rows[:-1])
        elif kind < 0.11:  # another size
            tau = QMatrix.identity(m + 1)
        elif kind < 0.3:  # a random rational tau
            tau = _matrix(rng, m, m) if rng.random() < 0.5 else QMatrix([[_rat(rng) for _ in range(m)] for _ in range(m)])
        got = _outcome(flag_preserved_by, tau, flag)
        assert got == _outcome(_ref_flag_preserved_by, tau, flag.subspaces)
        verdicts.add(got)
    assert {("value", True), ("value", False), ("raised", ValueError)} <= verdicts


@pytest.mark.parametrize("m", range(2, 6))
def test_common_associated_subspaces_matches_reference(m):
    rng = random.Random(2700 + m)
    found = 0
    outcomes = set()
    for _ in range(25):
        dec_a, dec_b = _decomposition_pair(rng, m)
        if not dec_a or not dec_b:  # the reference raised IndexError there
            continue
        got = _agree(common_associated_subspaces, _ref_common_associated_subspaces, dec_a, dec_b)
        outcomes.add(got[0])
        found += got[0] == "value" and len(got[1]) > 0
    assert outcomes == {"value", "raised"}
    assert found >= 3


def test_common_associated_subspaces_validates_each_decomposition_once(monkeypatch):
    """One call validates each decomposition once, and calls no public
    is_associated."""
    dec_a = [
        QMatrix.from_columns([(1, 2, 0)]),
        QMatrix.from_columns([(0, 1, 1), (1, 0, -1)]),
    ]
    dec_b = [
        QMatrix.from_columns([(1, 1, 1)]),
        QMatrix.from_columns([(1, -1, 0), (0, 1, Fraction(-1, 2))]),
    ]
    validated = []
    real = boundary._decomposition

    def counting(arrangement):
        validated.append(arrangement)
        return real(arrangement)

    def forbidden(*args):
        raise AssertionError("common_associated_subspaces calls is_associated")

    monkeypatch.setattr(boundary, "_decomposition", counting)
    monkeypatch.setattr(boundary, "is_associated", forbidden)
    out = common_associated_subspaces(dec_a, dec_b)
    assert [len(v) for v in validated] == [2, 2]
    assert validated[0] is dec_a and validated[1] is dec_b
    assert out == _ref_common_associated_subspaces(dec_a, dec_b)
    assert [S.ncols for S in out] == [1, 2]
