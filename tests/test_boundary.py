import random
from fractions import Fraction

import pytest

from flatlink import boundary
from flatlink.boundary import (
    DecompSphere,
    Flag,
    canonical_subspace,
    common_associated_subspaces,
    flag_preserved_by,
    intersect_subspaces,
    is_associated,
    same_subspace,
    sphere_dim,
    subspace_dim,
    sum_subspaces,
)
from flatlink.projlink import (
    Arrangement,
    GeneralPositionError,
    LinePlanePair,
    common_flags,
    in_general_position,
)
from flatlink.qkernel import QMatrix, det, kernel_basis

from _reference import columns

F = Fraction


def span(*cols):
    return QMatrix.from_columns(list(cols))


def test_canonical_subspace():
    a = span((2, 4, 0), (1, 1, 1))
    b = span((1, 1, 1), (1, 3, -1))
    assert same_subspace(a, b)
    assert subspace_dim(a) == 2
    assert canonical_subspace(a) == canonical_subspace(b)
    with pytest.raises(ValueError):
        canonical_subspace(span((0, 0, 0)))


def test_subspace_operations():
    e12 = span((1, 0, 0), (0, 1, 0))
    e23 = span((0, 1, 0), (0, 0, 1))
    both = intersect_subspaces(e12, e23)
    assert same_subspace(both, span((0, 1, 0)))
    assert intersect_subspaces(span((1, 0, 0)), span((0, 1, 0))) is None
    assert subspace_dim(sum_subspaces([e12, e23])) == 3


def test_flag_invariants():
    f = Flag([span((1, 0, 0)), span((1, 0, 0), (0, 1, 0))])
    assert f.dims == (1, 2)
    with pytest.raises(ValueError):
        Flag([span((1, 0, 0)), span((0, 1, 0), (0, 0, 1))])  # not nested
    with pytest.raises(ValueError):
        Flag([span((1, 0), (0, 1))])  # full space listed
    with pytest.raises(ValueError):
        Flag([span((1, 0, 0), (0, 1, 0)), span((1, 0, 0))])  # decreasing


def _compositions(m):
    """Every ordered tuple of positive block sizes with sum m."""
    if m == 0:
        return [()]
    return [(k,) + rest for k in range(1, m + 1) for rest in _compositions(m - k)]


def test_sphere_dim():
    for m in range(2, 9):
        assert sphere_dim([m]) == m * (m + 1) // 2 - 2
    # the join rule: the (r-2)-sphere of scales joined with each block's
    # sphere of dimension n(n+1)/2 - 2, each join adding 1
    for m in range(1, 9):
        for dims in _compositions(m):
            total = len(dims) - 2
            for n in dims:
                total += (n * (n + 1) // 2 - 2) + 1
            assert sphere_dim(dims) == sphere_dim(DecompSphere(dims)) == total
    assert sphere_dim([1]) == -1
    assert sphere_dim([1, 1]) == 0
    assert sphere_dim(DecompSphere([2, 1])) == 2
    with pytest.raises(ValueError):
        DecompSphere([])
    with pytest.raises(ValueError):
        DecompSphere([0, 2])


def test_sphere_dim_matches_flat_boundary():
    # the full sphere of the decomposition into m lines is the boundary of
    # the (m-1)-flat: an (m-2)-sphere
    for m in range(2, 9):
        assert sphere_dim([1] * m) == m - 2


def test_is_associated():
    lines = [span((1, 0, 0)), span((0, 1, 0)), span((0, 0, 1))]
    assert is_associated(lines[0], lines)
    assert not is_associated(span((1, 1, 0)), lines)
    assert is_associated(span((1, 0, 0), (0, 1, 0)), lines)
    with pytest.raises(ValueError):
        is_associated(span((1, 0, 0)), lines[:2])  # not a decomposition
    # redundant columns inside a block are fine; overlapping blocks are not
    blocks = [span((1, 0, 0), (2, 0, 0)), span((0, 1, 0), (0, 0, 1), (0, 1, 1))]
    assert is_associated(span((1, 0, 0), (0, 1, 1)), blocks)
    assert not is_associated(span((1, 1, 0)), blocks)
    assert not is_associated(span((0, 0, 0)), blocks)  # a zero V
    with pytest.raises(ValueError):
        is_associated(span((1, 0, 0)), [span((1, 0, 0), (0, 1, 0)), span((0, 1, 0), (0, 0, 1))])
    with pytest.raises(ValueError):
        is_associated(span((0, 0, 0)), [span((1, 0, 0)), span((2, 0, 0)), span((0, 1, 0))])


def _span_of_intersections(V, blocks):
    """The definition is_associated used to compute, kept as a reference: V
    is the span of its intersections with the blocks, built as subspaces."""
    parts = [P for P in (intersect_subspaces(V, U) for U in blocks) if P is not None]
    return bool(parts) and subspace_dim(sum_subspaces(parts)) == subspace_dim(V)


def _redundant(rng, U):
    """U with one more column, a combination of its own."""
    extra = U.apply([rng.randint(-2, 2) for _ in range(U.ncols)])
    return QMatrix.from_columns(columns(U) + [extra])


@pytest.mark.parametrize("m", range(2, 6))
def test_is_associated_matches_span_of_intersections(m, monkeypatch):
    rng = random.Random(1900 + m)
    cases = []
    for _ in range(60):
        blocks = _random_decomposition(rng, m)
        blocks = [_redundant(rng, U) if rng.random() < 0.3 else U for U in blocks]
        k = rng.randint(1, m)
        cols = []
        for _ in range(k):
            if rng.random() < 0.6:  # a vector inside one block
                U = rng.choice(blocks)
                cols.append(U.apply([rng.randint(-2, 2) for _ in range(U.ncols)]))
            else:
                cols.append(tuple(rng.randint(-2, 2) for _ in range(m)))
        if rng.random() < 0.3:  # a dependent column
            cols.append(tuple(a - b for a, b in zip(cols[0], cols[-1])))
        cases.append((QMatrix.from_columns(cols), blocks))
    cases.append((QMatrix.from_columns([(0,) * m]), _random_decomposition(rng, m)))
    expected = [_span_of_intersections(V, blocks) for V, blocks in cases]
    assert True in expected and False in expected

    def forbidden(*args):
        raise AssertionError("is_associated builds no subspace")

    monkeypatch.setattr(boundary, "intersect_subspaces", forbidden)
    monkeypatch.setattr(boundary, "canonical_subspace", forbidden)
    assert [is_associated(V, blocks) for V, blocks in cases] == expected
    assert expected[-1] is False  # the zero V


def test_flag_preserved_by():
    f = Flag([span((1, 0, 0)), span((1, 0, 0), (0, 1, 0))])
    assert flag_preserved_by(QMatrix.identity(3), f)
    assert flag_preserved_by(QMatrix.diagonal([1, 2, 3]), f)
    cyc = QMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert not flag_preserved_by(cyc, f)
    with pytest.raises(ValueError):
        flag_preserved_by(QMatrix([[0, 0, 0], [0, 1, 0], [0, 0, 1]]), f)


_LINES = [span((1, 0, 0)), span((0, 1, 0)), span((0, 0, 1))]


@pytest.mark.parametrize(
    "dec_a, dec_b",
    [
        ([], _LINES),  # an empty decomposition
        (_LINES, []),
        ([span((1, 0)), span((0, 1))], _LINES),  # mixed ambient dimensions
        ([span((1, 0, 0)), span((0, 1, 0), (0, 0, 1)), span((1, 0))], _LINES),
        ([span((1, 0, 0), (0, 1, 0)), span((0, 1, 0), (0, 0, 1))], _LINES),  # not a direct sum
        (_LINES, _LINES[:2]),
        ([span((1, 0, 0)), span((0, 0, 0)), span((0, 1, 0), (0, 0, 1))], _LINES),  # a zero block
    ],
)
def test_common_associated_subspaces_rejects_malformed(dec_a, dec_b, monkeypatch):
    """A ValueError, raised before any candidate is built."""

    def forbidden(*args):
        raise AssertionError("a candidate was built")

    monkeypatch.setattr(boundary, "_reduced", forbidden)
    monkeypatch.setattr(boundary, "_intersection", forbidden)
    with pytest.raises(ValueError):
        common_associated_subspaces(dec_a, dec_b)


@pytest.mark.parametrize(
    "tau, match",
    [
        (QMatrix([[1, 0, 0], [0, 1, 0]]), "square"),
        (QMatrix([[1, 0], [0, 1], [1, 1]]), "square"),
        (QMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]), "invertible"),
        (QMatrix([[F(1, 2), 1], [1, 2]]), "invertible"),
        (QMatrix([[2, 1], [1, 1]]), "dimensions"),
        (QMatrix.identity(4), "dimensions"),
    ],
)
def test_flag_preserved_by_rejects_malformed_tau(tau, match):
    f = Flag([span((1, 0, 0)), span((1, 0, 0), (0, 1, 0))])
    with pytest.raises(ValueError, match=match):
        flag_preserved_by(tau, f)


def _random_flag(rng, m):
    dims = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
    while True:
        cols = [
            tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(max(dims))
        ]
        try:
            return Flag(
                [QMatrix.from_columns(cols[:d]) for d in dims]
            )
        except ValueError:
            continue


def _random_decomposition(rng, m):
    """Random rational direct-sum decomposition with random block sizes."""
    while True:
        g = QMatrix(
            [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        )
        if det(g) != 0:
            break
    sizes = []
    left = m
    while left:
        s = rng.randint(1, left)
        sizes.append(s)
        left -= s
    blocks = []
    at = 0
    for s in sizes:
        blocks.append(QMatrix.from_columns([g.col(at + j) for j in range(s)]))
        at += s
    return blocks


def test_association_iff_preservation_sampled():
    # tau acts with distinct scalars on the blocks; a flag is preserved
    # exactly when each member is associated to the block decomposition
    rng = random.Random(71)
    for _ in range(60):
        m = rng.randint(2, 4)
        blocks = _random_decomposition(rng, m)
        scalars = rng.sample([2, 3, 5, 7, 11], len(blocks))
        cols = []
        vals = []
        for U, s in zip(blocks, scalars):
            for j in range(U.ncols):
                cols.append(U.col(j))
                vals.append(s)
        gmat = QMatrix.from_columns(cols)
        tau = gmat @ QMatrix.diagonal(vals) @ gmat.inverse()
        flag = _random_flag(rng, m)
        lhs = flag_preserved_by(tau, flag)
        rhs = all(is_associated(S, blocks) for S in flag.subspaces)
        assert lhs == rhs


def test_common_associated_subspaces_two_flags():
    # the two decomposition spheres share exactly two flags: L' and Q
    rng = random.Random(131)
    done = draws = 0
    while done < 20:
        # 4 of the first 24 draws are skipped; a function that raises on
        # every input must fail here, not redraw forever
        assert draws - done <= 50, f"{draws - done} draws skipped"
        draws += 1
        try:
            arr = Arrangement(
                [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            )
            lp = LinePlanePair(
                [rng.randint(-4, 4) for _ in range(3)],
                [rng.randint(-4, 4) for _ in range(3)],
            )
        except (ValueError, GeneralPositionError):
            continue
        if not in_general_position(arr, lp):
            continue
        try:
            l_prime, q = common_flags(arr, lp)
        except GeneralPositionError:
            continue
        dec_a = [
            span(arr.points[0].rep),
            span(arr.points[1].rep, arr.points[2].rep),
        ]
        dec_b = [
            span(lp.line.rep),
            QMatrix.from_columns(kernel_basis(QMatrix([lp.plane.functional]))),
        ]
        try:
            commons = common_associated_subspaces(dec_a, dec_b)
        except ValueError:
            continue
        assert len(commons) == 2
        line_part = [S for S in commons if subspace_dim(S) == 1]
        plane_part = [S for S in commons if subspace_dim(S) == 2]
        assert len(line_part) == 1 and len(plane_part) == 1
        assert same_subspace(line_part[0], span(l_prime.rep))
        q_sub = QMatrix.from_columns(kernel_basis(QMatrix([q.functional])))
        assert same_subspace(plane_part[0], q_sub)
        done += 1
