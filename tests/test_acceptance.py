"""Acceptance suite: one test per headline property, one line each.

Every test prints a single PASS line with its measured scale; tolerances
and instance counts are pinned here and must not be loosened.
"""

import functools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from flatlink.boundary import (
    DecompSphere,
    Flag,
    common_associated_subspaces,
    flag_preserved_by,
    is_associated,
    same_subspace,
    sphere_dim,
    subspace_dim,
)
from flatlink.congruence import (
    CongruenceLevel,
    _intertwine_rows,
    decomposition_valid,
    enumerate_same_sign,
    min_level_v,
    ptoq_solve,
    scalar_commutant_check,
)
from flatlink.construct import (
    pattern_rank,
    rationalize_pattern,
    synthesize_pattern,
    tau_for_arrangement,
)
from flatlink.projlink import (
    Arrangement,
    GeneralPositionError,
    LinkDecision,
    LinePlanePair,
    common_flags,
    in_general_position,
    link_decision,
)
from flatlink.qkernel import (
    IrredVerdict,
    QMatrix,
    char_poly,
    det,
    kernel_basis,
    sturm_distinct_real_roots,
)
from flatlink.symspace import (
    IntersectionKind,
    flat_from_tau,
    intersect,
    involution_for_pair,
    subspace_from_rho,
)
from test_construct import assert_irreducible_in_sympy, perturbed_reference


def _rand_q(rng):
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def test_criterion_1_link_criterion_matches_oracle():
    # >= 500 general-position instances per m in {2,3,4,5}, exact agreement,
    # total runtime under 60 s
    rng = random.Random(20240817)
    t0 = time.time()
    total = 0
    for m in (2, 3, 4, 5):
        done = 0
        while done < 500:
            try:
                arr = Arrangement(
                    [[_rand_q(rng) for _ in range(m)] for _ in range(m)]
                )
                pair = LinePlanePair(
                    [_rand_q(rng) for _ in range(m)],
                    [_rand_q(rng) for _ in range(m)],
                )
            except ValueError:
                continue
            if not in_general_position(arr, pair):
                continue
            linked = link_decision(arr, pair) is LinkDecision.LINKED
            X = flat_from_tau(tau_for_arrangement(arr))
            Y = subspace_from_rho(
                involution_for_pair(pair.line.rep, pair.plane.functional)
            )
            res = intersect(X, Y)
            assert res.kind is not IntersectionKind.DEGENERATE
            assert linked == (res.kind is IntersectionKind.TRANSVERSE_POINT)
            done += 1
        total += done
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"PASS criterion-1: {total} instances agree exactly in {elapsed:.1f}s")


def test_criterion_2_pattern_theorem_desk_analog():
    t_all = []
    for N, m in [(2, 2), (4, 3), (8, 3), (4, 4)]:
        t0 = time.time()
        p = synthesize_pattern(N, m)
        dt = time.time() - t0
        assert dt < 120
        assert p.is_upper_triangular_nonzero_diagonal()
        assert pattern_rank(p) == N
        for i in range(N):
            for j in range(N):
                w = p.certificate[i][j]
                assert (w.link == "Linked") == (w.oracle == "TransversePoint")
        t_all.append(f"({N},{m}) {dt:.1f}s")
    print(f"PASS criterion-2: certified patterns {', '.join(t_all)}")


def test_criterion_3_exactly_two_common_subspaces():
    rng = random.Random(3301)
    done = draws = 0
    while done < 100:
        # 53 of the first 153 draws are skipped; a function that raises on
        # every input must fail here, not redraw forever
        assert draws - done <= 200, f"{draws - done} draws skipped"
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
            dec_a = [
                QMatrix.from_columns([arr.points[0].rep]),
                QMatrix.from_columns([arr.points[1].rep, arr.points[2].rep]),
            ]
            dec_b = [
                QMatrix.from_columns([lp.line.rep]),
                QMatrix.from_columns(
                    kernel_basis(QMatrix([lp.plane.functional]))
                ),
            ]
            commons = common_associated_subspaces(dec_a, dec_b)
        except (ValueError, GeneralPositionError):
            continue
        assert len(commons) == 2
        lines = [S for S in commons if subspace_dim(S) == 1]
        planes = [S for S in commons if subspace_dim(S) == 2]
        assert len(lines) == 1 and len(planes) == 1
        assert same_subspace(lines[0], QMatrix.from_columns([l_prime.rep]))
        assert same_subspace(
            planes[0],
            QMatrix.from_columns(kernel_basis(QMatrix([q.functional]))),
        )
        done += 1
    print("PASS criterion-3: 100 instances give exactly the two shared subspaces")


def _random_decomposition(rng, m):
    while True:
        g = QMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
        if det(g) != 0:
            break
    sizes = []
    left = m
    while left:
        s = rng.randint(1, left)
        sizes.append(s)
        left -= s
    blocks, at = [], 0
    for s in sizes:
        blocks.append(QMatrix.from_columns([g.col(at + j) for j in range(s)]))
        at += s
    return blocks


def _random_flag(rng, m):
    dims = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
    while True:
        cols = [
            tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(max(dims))
        ]
        try:
            return Flag([QMatrix.from_columns(cols[:d]) for d in dims])
        except ValueError:
            continue


def test_criterion_4_associated_iff_preserved():
    checked = 0
    for m in (3, 4):
        rng = random.Random(400 + m)
        for _ in range(500):
            blocks = _random_decomposition(rng, m)
            scalars = rng.sample([2, 3, 5, 7, 11], len(blocks))
            cols, vals = [], []
            for U, s in zip(blocks, scalars):
                for j in range(U.ncols):
                    cols.append(U.col(j))
                    vals.append(s)
            gmat = QMatrix.from_columns(cols)
            tau = gmat @ QMatrix.diagonal(vals) @ gmat.inverse()
            flag = _random_flag(rng, m)
            assert flag_preserved_by(tau, flag) == all(
                is_associated(S, blocks) for S in flag.subspaces
            )
            checked += 1
    print(f"PASS criterion-4: {checked} flags, zero counterexamples")


@functools.cache
def _criterion_5_snaps():
    """Criterion 5's 100 random patterns: (pattern, float frames, snapped
    pattern, bound) each."""
    rng = random.Random(5005)
    runs = []
    for _ in range(100):
        N = rng.randint(1, 3)
        m = rng.choice([2, 3])
        p = synthesize_pattern(
            N,
            m,
            thinness=Fraction(1, rng.randint(3, 6)),
            rotation=Fraction(rng.randint(1, 2), 3),
        )

        def wobble(x):
            return float(x) + rng.uniform(-1e-6, 1e-6)

        frames = []
        for pf in p.flats:
            F = pf.arrangement.frame_matrix()
            frames.append([[wobble(F[r, c]) for r in range(m)] for c in range(m)])
        pairs = [
            (
                [wobble(x) for x in ps.subspace.line],
                [wobble(x) for x in ps.subspace.plane],
            )
            for ps in p.subspaces
        ]
        snapped, bound = rationalize_pattern(p, frame_noise=frames, pair_noise=pairs)
        runs.append((p, frames, snapped, bound))
    return runs


def test_criterion_5_rationalization_survives_snapping():
    stable = 0
    for p, frames, snapped, bound in _criterion_5_snaps():
        assert snapped.matrix == p.matrix
        for pf, frame in zip(snapped.flats, frames):
            assert pf.rationalized.irred.verdict is IrredVerdict.IRREDUCIBLE
            assert pf.rationalized.sturm_count == p.m
            assert pf.flat.tau == perturbed_reference(frame, bound)
        stable += 1

    # Sturm counter against a floating eigensolver, 1e-8 clustering
    rng = random.Random(5006)
    for k in range(200):
        m = rng.choice([2, 3, 4, 5])
        if k % 4 == 0:  # force repeated eigenvalues
            M = QMatrix.diagonal([rng.choice([1, 2, 2, 3]) for _ in range(m)])
        else:
            entries = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(m)]
            M = QMatrix(
                [
                    [entries[min(i, j)][max(i, j)] for j in range(m)]
                    for i in range(m)
                ]
            )
        exact = sturm_distinct_real_roots(char_poly(M))
        evals = sorted(np.linalg.eigvalsh(np.array(M.to_lists(), dtype=float)))
        clusters = 1 + sum(
            1 for a, b in zip(evals, evals[1:]) if b - a > 1e-8
        )
        assert exact == clusters
    print(
        f"PASS criterion-5: {stable}/100 patterns stable under snapping; "
        "200 Sturm counts match the eigensolver"
    )


def test_criterion_5_snapped_taus_irreducible_in_sympy():
    """Every tau criterion 5 accepts is irreducible over Q by an independent
    factorization."""
    count = 0
    for _, _, snapped, _ in _criterion_5_snaps():
        for pf in snapped.flats:
            assert_irreducible_in_sympy(pf.flat.tau)
            count += 1
    print(f"PASS criterion-5 oracle: {count} snapped taus irreducible in sympy")


def _random_involution_data(rng, m):
    while True:
        line = [rng.randint(-3, 3) for _ in range(m)]
        plane = [rng.randint(-3, 3) for _ in range(m)]
        if all(x == 0 for x in line) or all(x == 0 for x in plane):
            continue
        if sum(a * b for a, b in zip(line, plane)) == 0:
            continue
        return involution_for_pair(line, plane), line, plane


def _random_member(rng, m, tau, rho, line, plane):
    w = kernel_basis(QMatrix([plane]))
    while True:
        B = QMatrix.from_columns([line] + list(w))
        if det(B) == 0:
            return None
        block = [[0] * m for _ in range(m)]
        block[0][0] = rng.choice([1, 2, Fraction(1, 2), -1])
        for i in range(m - 1):
            for j in range(m - 1):
                block[i + 1][j + 1] = rng.randint(-2, 2)
        a = B @ QMatrix(block) @ B.inverse()
        if det(a) == 0:
            continue
        power = QMatrix.identity(m)
        b = power * rng.randint(-2, 2)
        for _ in range(m - 1):
            power = power @ tau
            b = b + power * rng.randint(-2, 2)
        if det(b) != 0:
            return a, b


def test_criterion_6_ptoq_solver():
    rng = random.Random(606)
    solved = 0
    while solved < 200:
        m = rng.choice([2, 3])
        rho, line, plane = _random_involution_data(rng, m)
        while True:
            tau = QMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            if det(tau) != 0:
                break
        member = _random_member(rng, m, tau, rho, line, plane)
        if member is None:
            continue
        a, b = member
        gamma = a @ b
        res = ptoq_solve(gamma, tau, rho)
        assert res.kind == "solved"
        assert decomposition_valid(res.decomposition, gamma, tau, rho)
        solved += 1

    # crafted non-members: the necessary linear system has zero kernel,
    # checked directly, so any returned decomposition would be a lie
    crafted = 0
    while crafted < 50:
        m = 2
        rho, line, plane = _random_involution_data(rng, m)
        while True:
            tau = QMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            if det(tau) != 0:
                break
        gamma = QMatrix([[rng.randint(-5, 5) for _ in range(m)] for _ in range(m)])
        if det(gamma) == 0:
            continue
        rows = _intertwine_rows(tau.rows, (gamma @ tau @ gamma.inverse()).rows)
        rows += _intertwine_rows(rho.rows, rho.rows)
        if kernel_basis(QMatrix(rows)):
            continue  # not certifiably a non-member; resample
        res = ptoq_solve(gamma, tau, rho)
        assert res.kind in ("no_solution", "undecided")
        assert res.decomposition is None
        crafted += 1
    print("PASS criterion-6: 200 members decomposed exactly, 50 non-members rejected")


def _commutant_reference(tau, rho):
    """The form scalar_commutant_check had: `Fraction` rows of x P - P x for
    P = tau and P = rho, and a kernel_basis of dimension 1."""
    rows = []
    for P in (tau, rho):
        m = P.nrows
        for i in range(m):
            for j in range(m):
                row = [Fraction(0)] * (m * m)
                for l in range(m):
                    row[i * m + l] += P[l, j]
                for k in range(m):
                    row[k * m + j] -= P[i, k]
                rows.append(row)
    return len(kernel_basis(QMatrix(rows))) == 1


def test_criterion_6_scalar_commutant_matches_kernel_reference(monkeypatch):
    """scalar_commutant_check, one integer rank, against the reference on
    every (tau, rho) criterion 6 hands to ptoq_solve, and on derogatory tau
    (a repeated eigenvalue, minimal polynomial of degree < m). Against the
    involutions criterion 6 draws, these derogatory tau keep a non-scalar
    joint commutant every time, so random integer rho are added to reach
    the scalar verdict as well."""
    pairs = []
    solve = ptoq_solve

    def recording(gamma, tau, rho):
        pairs.append((tau, rho))
        return solve(gamma, tau, rho)

    monkeypatch.setitem(globals(), "ptoq_solve", recording)
    test_criterion_6_ptoq_solver()
    assert len(pairs) == 250
    rng = random.Random(607)
    derogatory = [
        QMatrix.identity(2) * 3,
        QMatrix.diagonal([1, 1, 2]),
        QMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]]),
        QMatrix.identity(3) * -1,
        QMatrix.diagonal([1, 1, 2, 3]),
        QMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]),
    ]
    for tau in derogatory:
        m = tau.nrows
        for _ in range(10):
            pairs.append((tau, _random_involution_data(rng, m)[0]))
        for _ in range(5):
            rho = QMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            pairs.append((tau, rho))
        pairs.append((tau, QMatrix.identity(m)))
    verdicts = [scalar_commutant_check(tau, rho) for tau, rho in pairs]
    assert verdicts == [_commutant_reference(tau, rho) for tau, rho in pairs]
    assert True in verdicts[:250] and False in verdicts[250:]
    assert True in verdicts[250:]


def test_criterion_7_same_sign_descent():
    t0 = time.time()
    tau = QMatrix([[2, 1], [1, 1]])
    rho = QMatrix([[0, 1], [1, 0]])
    Y = subspace_from_rho(rho)
    n = min_level_v(Y.line, 5)
    hits = enumerate_same_sign(tau, rho, CongruenceLevel(5, n), entry_bound=30)
    assert hits, "the base intersection itself must appear"
    assert len({h.sign for h in hits}) == 1
    for h in hits:
        diff = h.gamma - QMatrix.identity(2)
        assert all(int(diff[i, j]) % 5**n == 0 for i in range(2) for j in range(2))

    # NotLinked pair: rational-frame flat with a plane that misses its simplex
    tau2 = tau_for_arrangement(Arrangement([(1, 0), (0, 1)]))
    rho2 = involution_for_pair((1, 1), (2, -1))
    assert (
        intersect(flat_from_tau(tau2), subspace_from_rho(rho2)).kind
        is IntersectionKind.EMPTY
    )
    n2 = min_level_v(subspace_from_rho(rho2).line, 5)
    empty = enumerate_same_sign(tau2, rho2, CongruenceLevel(5, n2), entry_bound=30)
    assert empty == []
    elapsed = time.time() - t0
    assert elapsed < 300
    print(
        f"PASS criterion-7: level (5,{n}) bound 30, {len(hits)} hits one sign, "
        f"disjoint pair empty, {elapsed:.1f}s"
    )


def test_criterion_7_larger_ball():
    # the det-1 points are enumerated directly, so a ball of 7.6 M grid
    # points at level (5,1) and bound 130 is affordable
    t0 = time.time()
    tau = QMatrix([[2, 1], [1, 1]])
    rho = QMatrix([[0, 1], [1, 0]])
    hits = enumerate_same_sign(tau, rho, CongruenceLevel(5, 1), entry_bound=130)
    assert [h.gamma for h in hits] == [
        QMatrix.identity(2),
        QMatrix([[-89, -55], [-55, -34]]),
        QMatrix([[-34, 55], [55, -89]]),
    ]
    assert len({h.sign for h in hits}) == 1
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"PASS criterion-7 larger ball: level (5,1) bound 130, 3 hits one sign, {elapsed:.1f}s")


def test_criterion_8_sphere_dimension_formulas():
    for m in range(2, 9):
        assert sphere_dim(DecompSphere([m])) == m * (m + 1) // 2 - 2
    assert sphere_dim(DecompSphere([1])) == -1  # S(R) is empty
    print("PASS criterion-8: join formula matches for m <= 8 and S(R) is empty")
