import dataclasses

import numpy as np
import pytest

from tatevec import exactla, splitting
from tatevec.exactla import (
    FieldSpec,
    Matrix,
    extend_basis,
    factor_through,
    hstack,
    image_basis,
    intersect_columns,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve_linear,
    span_contains,
    vstack,
)
from tatevec.generators import rand_filtered_space, rand_matrix
from tatevec.spaces import FilteredSpace
from tatevec.splitting import (
    QuotientLevel,
    SESLadder,
    lift_splitting,
    quotient_level,
    split_filtered_ses,
    topological_complement,
)

GF2 = FieldSpec(2)
GF5 = FieldSpec(5)


def M(field, data):
    return Matrix(field, data)


def ladder_from_rows(i1, p1, i2, p2, f, g, h, pi1):
    return SESLadder(i1=i1, p1=p1, i2=i2, p2=p2, f=f, g=g, h=h, pi1=pi1)


class TestLiftSplitting:
    def test_worked_gf2_instance(self):
        # k -> k^2 -> k rows, g shears the complement into the kernel line
        one = Matrix.identity(GF2, 1)
        ladder = ladder_from_rows(
            i1=M(GF2, [[1], [0]]),
            p1=M(GF2, [[0, 1]]),
            i2=M(GF2, [[1], [0]]),
            p2=M(GF2, [[0, 1]]),
            f=one,
            g=M(GF2, [[1, 1], [0, 1]]),
            h=one,
            pi1=M(GF2, [[1, 0]]),
        )
        pi2, s1, s2 = lift_splitting(ladder)
        assert pi2 == M(GF2, [[1, 1]])
        assert pi2 @ ladder.i2 == one
        assert ladder.f @ pi2 == ladder.pi1 @ ladder.g

    def test_block_diagonal_needs_no_correction(self):
        ladder = ladder_from_rows(
            i1=M(GF5, [[1], [0]]),
            p1=M(GF5, [[0, 1]]),
            i2=M(GF5, [[1], [0]]),
            p2=M(GF5, [[0, 1]]),
            f=M(GF5, [[2]]),
            g=M(GF5, [[2, 0], [0, 3]]),
            h=M(GF5, [[3]]),
            pi1=M(GF5, [[1, 0]]),
        )
        pi2, _, _ = lift_splitting(ladder)
        assert pi2 == M(GF5, [[1, 0]])

    def test_zero_cokernel_column(self):
        # C2 = 0: the section is the unique empty map, pi2 inverts i2
        ladder = ladder_from_rows(
            i1=M(GF2, [[1], [0]]),
            p1=M(GF2, [[0, 1]]),
            i2=Matrix.identity(GF2, 2),
            p2=Matrix.zeros(GF2, 0, 2),
            f=M(GF2, [[1, 0]]),
            g=M(GF2, [[1, 0], [0, 0]]),
            h=Matrix.zeros(GF2, 1, 0),
            pi1=M(GF2, [[1, 0]]),
        )
        pi2, s1, s2 = lift_splitting(ladder)
        assert s2.shape == (2, 0)
        assert pi2 @ ladder.i2 == Matrix.identity(GF2, 2)

    def test_rejects_non_commuting_square(self):
        one = Matrix.identity(GF2, 1)
        ladder = ladder_from_rows(
            i1=M(GF2, [[1], [0]]),
            p1=M(GF2, [[0, 1]]),
            i2=M(GF2, [[0], [1]]),
            p2=M(GF2, [[1, 0]]),
            f=one,
            g=Matrix.identity(GF2, 2),
            h=one,
            pi1=M(GF2, [[1, 0]]),
        )
        with pytest.raises(ValueError):
            lift_splitting(ladder)

    def test_random_ladders_commute(self):
        rng = np.random.default_rng(23)
        field = GF5
        for _ in range(40):
            a, c = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            n = a + c
            # build row 2 in split coordinates, then scramble by a change of basis
            from tatevec.exactla import inverse, is_invertible

            while True:
                T = Matrix(field, rng.integers(0, 5, size=(n, n)))
                if is_invertible(T):
                    break
            i2 = T @ Matrix(field, np.vstack([np.eye(a, dtype=np.int64), np.zeros((c, a), np.int64)]))
            p2 = Matrix(field, np.hstack([np.zeros((c, a), np.int64), np.eye(c, dtype=np.int64)])) @ inverse(T)
            i1, p1 = i2, p2
            f = Matrix.identity(field, a)
            h = Matrix.identity(field, c)
            g = Matrix.identity(field, n)
            # any valid splitting of row 1: solve pi1 on the basis [i1 | K]
            K = T @ Matrix(field, np.vstack([np.zeros((a, c), np.int64), np.eye(c, dtype=np.int64)]))
            B = hstack([i1, K])
            pi1 = Matrix(field, inverse(B).data[:a, :])
            pi2, s1, s2 = lift_splitting(
                ladder_from_rows(i1=i1, p1=p1, i2=i2, p2=p2, f=f, g=g, h=h, pi1=pi1)
            )
            assert ladder_ok(field, i2, p2, f, g, pi1, pi2, s1, s2, h)


# (message, ladder over GF(2)) with every product and dimension check passing:
# only the one rank condition named fails, so the elimination that needs it
# must report it.  Rows are k -> k^2 -> k unless a map below breaks them.
_I1, _P1, _PI1 = [[1], [0]], [[0, 1]], [[1, 0]]
BROKEN_LADDERS = [
    # a non-injective i1 has no left inverse
    ("pi1 does not split row 1", dict(i1=[[0], [0]], f=[[1]], g=[[0, 0], [0, 1]], h=[[1]])),
    # i2 = 0 makes the left square hold with f = 0; i2 is decided first
    ("row 2: inclusion is not injective",
     dict(i2=[[0], [0]], f=[[0]], g=[[1, 0], [0, 1]], h=[[1]])),
    ("f is not surjective", dict(f=[[0]], g=[[0, 0], [0, 1]], h=[[1]])),
    ("row 1: projection is not surjective", dict(p1=[[0, 0]], f=[[1]], g=[[1, 0], [0, 1]], h=[[0]])),
    ("row 2: projection is not surjective", dict(p2=[[0, 0]], f=[[1]], g=[[1, 0], [0, 0]], h=[[0]])),
]


@pytest.mark.parametrize("message,maps", BROKEN_LADDERS, ids=[m for m, _ in BROKEN_LADDERS])
def test_broken_ladder_names_its_defect(message, maps):
    rows = {"i1": _I1, "p1": _P1, "i2": _I1, "p2": _P1, "pi1": _PI1, **maps}
    with pytest.raises(ValueError, match=f"^{message}$"):
        lift_splitting(SESLadder(**{k: M(GF2, v) for k, v in rows.items()}))


def scrambled_ladder(rng, field, a1, c1, a2, c2):
    """Split rows 0 -> k^a -> k^(a+c) -> k^c -> 0 in random bases; in split
    coordinates g is [[f, x], [0, h]] with f onto and pi1 is [I, y]."""
    rows = []
    for a, c in ((a1, c1), (a2, c2)):
        while True:
            T = rand_matrix(rng, field, a + c, a + c)
            T_inv = inverse(T)
            if T_inv is not None:
                break
        rows.append((T, T_inv, M(field, T.data[:, :a]), M(field, T_inv.data[a:])))
    (T1, T1_inv, i1, p1), (T2, T2_inv, i2, p2) = rows
    while True:
        f = rand_matrix(rng, field, a1, a2)
        if rank(f) == a1:
            break
    h = rand_matrix(rng, field, c1, c2)
    g_split = vstack([hstack([f, rand_matrix(rng, field, a1, c2)]), hstack([Matrix.zeros(field, c1, a2), h])])
    g = T1 @ g_split @ T2_inv
    pi1 = hstack([Matrix.identity(field, a1), rand_matrix(rng, field, a1, c1)]) @ T1_inv
    return SESLadder(i1=i1, p1=p1, i2=i2, p2=p2, f=f, g=g, h=h, pi1=pi1)


def test_rref_calls_per_lift(monkeypatch):
    # a basis completion of i2, one factor_through, the kernel of pi1 and the
    # two inverses p S that decide the projections; the ladder's ranks are
    # read off these (its own rank checks made 10 calls)
    count = 0

    def counted(X, _real=exactla.rref):
        nonlocal count
        count += 1
        return _real(X)

    rng = np.random.default_rng(5)
    ladders = []
    for _ in range(20):
        a1, c1, c2 = (int(x) for x in rng.integers(0, 4, size=3))
        ladders.append(scrambled_ladder(rng, GF5, a1, c1, a1 + int(rng.integers(0, 3)), c2))
    for module in (exactla, splitting):
        monkeypatch.setattr(module, "rref", counted)
    for ladder in ladders:
        count = 0
        pi2, s1, s2 = lift_splitting(ladder)
        assert count == 5
        assert ladder_ok(GF5, ladder.i2, ladder.p2, ladder.f, ladder.g, ladder.pi1, pi2, s1, s2, ladder.h)


def ladder_ok(field, i2, p2, f, g, pi1, pi2, s1, s2, h):
    return (
        pi2 @ i2 == Matrix.identity(field, i2.cols)
        and f @ pi2 == pi1 @ g
        and p2 @ s2 == Matrix.identity(field, p2.rows)
        and (pi2 @ s2).is_zero()
        and g @ s2 == s1 @ h
    )


def monomial_space(field=GF2):
    # k[t]/t^3, flags span{t, t^2} > span{t^2} > 0
    U1 = M(field, [[0, 0], [1, 0], [0, 1]])
    U2 = M(field, [[0], [0], [1]])
    return FilteredSpace(field, 3, [U1, U2, Matrix.zeros(field, 3, 0)])


class TestSplitFilteredSES:
    def test_monomial_projection(self):
        B = monomial_space()
        A = M(GF2, [[0], [0], [1]])  # span{t^2}
        cert = split_filtered_ses(B, A)
        assert cert.pi == M(GF2, [[0, 0, 1]])
        assert all(cert.flag_ok)

    def test_whole_space(self):
        B = monomial_space()
        cert = split_filtered_ses(B, Matrix.identity(GF2, 3))
        assert cert.pi == Matrix.identity(GF2, 3)

    def test_zero_subspace(self):
        B = monomial_space()
        cert = split_filtered_ses(B, Matrix.zeros(GF2, 3, 0))
        assert cert.pi.shape == (0, 3)

    def test_random_instances(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            field = GF2 if trial % 2 == 0 else GF5
            p = field.p
            n = int(rng.integers(1, 9))
            nested = sorted({int(x) for x in rng.integers(0, n, size=3)}, reverse=True)
            base = image_basis(Matrix(field, rng.integers(0, p, size=(n, n))))
            flags = [base.take_cols(range(min(d, base.cols))) for d in nested]
            flags.append(Matrix.zeros(field, n, 0))
            B = FilteredSpace(field, n, flags)
            A = image_basis(Matrix(field, rng.integers(0, p, size=(n, int(rng.integers(1, n + 1))))))
            cert = split_filtered_ses(B, A)
            assert cert.pi @ A == Matrix.identity(field, A.cols)
            for k, U in enumerate(B.flags):
                moved = A @ (cert.pi @ U)
                assert span_contains(intersect_columns(A, U), moved)

    @pytest.mark.parametrize(
        "A",
        [
            M(GF2, [[1, 1], [0, 0], [1, 1]]),  # dependent columns
            M(GF2, [[0, 0], [1, 0], [0, 1]]).take_cols([0, 0]),  # a repeated column
            Matrix.zeros(GF2, 3, 1),
            M(GF2, [[1], [0]]),  # two rows in a 3-dimensional space
            Matrix.identity(GF2, 4),
        ],
    )
    def test_rejects_dependent_or_misshapen_A(self, A):
        with pytest.raises(ValueError, match="A must be given by independent columns in B"):
            split_filtered_ses(monomial_space(), A)

    def test_rref_calls_per_call(self, monkeypatch):
        # per level a completion of U (none at the zero flag) and one rref of
        # [qcoord A | I]; theta and the flag checks are products.  The
        # terminal level's pivots tell whether A is independent.  With a
        # completion of A's image per level, a factor_through per lift and a
        # span_contains per flag it made 5L - 2 calls.  The complement adds
        # the kernel of pi.
        count = 0

        def counted(X, _real=exactla.rref):
            nonlocal count
            count += 1
            return _real(X)

        rng = np.random.default_rng(5)
        instances = []
        for _ in range(4):
            B = rand_filtered_space(rng, GF5, 24, 8)
            instances.append((B, image_basis(rand_matrix(rng, GF5, B.dim, int(rng.integers(1, B.dim + 1))))))
        for module in (exactla, splitting):
            monkeypatch.setattr(module, "rref", counted)
        for B, A in instances:
            assert B.flags[-1].cols == 0
            count = 0
            split_filtered_ses(B, A)
            assert count == 2 * len(B.flags) - 1
            count = 0
            topological_complement(B, A)
            assert count == 2 * len(B.flags)

    def test_theta_is_the_canonical_factorization(self, monkeypatch):
        # at every lift the closed-form theta equals the canonical solution
        # of f theta = alpha that factor_through gives
        real, lifts = splitting._lift, []

        def recorded(theta, *rest):
            out = real(theta, *rest)
            lifts.append((theta, out[0]))
            return out

        monkeypatch.setattr(splitting, "_lift", recorded)
        nonzero = 0
        for B, A, _ in reference_instances(59):
            lifts.clear()
            split_filtered_ses(B, A)
            levels = [quotient_level(B.dim, A, U) for U in B.flags]
            assert len(lifts) == len(levels) - 1
            pi = levels[0].incl_coords
            for prev, cur, (theta, lifted) in zip(levels, levels[1:], lifts):
                alpha = pi @ ((prev.qcoord @ cur.Q) @ cur.E)
                assert theta == factor_through(prev.acoord @ cur.R, alpha)
                nonzero += not theta.is_zero()
                pi = lifted
        assert nonzero


class TestTopologicalComplement:
    def test_two_dim_example(self):
        B = FilteredSpace(GF2, 2, [M(GF2, [[0], [1]]), Matrix.zeros(GF2, 2, 0)])
        A = M(GF2, [[1], [1]])
        out = topological_complement(B, A)
        assert rank(hstack([A, out.S])) == 2
        assert intersect_columns(A, out.S).cols == 0
        assert all(out.flag_ok)

    def test_zero_subspace_gives_everything(self):
        B = monomial_space()
        out = topological_complement(B, Matrix.zeros(GF2, 3, 0))
        assert out.S.cols == 3

    def test_open_subspace_has_discrete_complement(self):
        B = monomial_space()
        A = hstack([B.flags[0], M(GF2, [[1], [0], [0]])])  # contains U_1, open
        out = topological_complement(B, image_basis(A))
        assert out.S.cols == 0 or rank(hstack([image_basis(A), out.S])) == 3

    def test_rank_additivity_random(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            U1 = image_basis(Matrix(GF5, rng.integers(0, 5, size=(n, max(n // 2, 1)))))
            B = FilteredSpace(GF5, n, [U1, Matrix.zeros(GF5, n, 0)])
            A = image_basis(Matrix(GF5, rng.integers(0, 5, size=(n, int(rng.integers(1, n + 1))))))
            out = topological_complement(B, A)
            assert A.cols + out.S.cols == n
            assert intersect_columns(A, out.S).cols == 0


def reference_instances(seed, count=30):
    """`random_instances`, then (B, A) pairs of rand_filtered_space(24, 8)
    over GF(2) and GF(5)."""
    yield from random_instances(seed, count)
    rng = np.random.default_rng(seed)
    for trial in range(6):
        field = (GF2, GF5)[trial % 2]
        B = rand_filtered_space(rng, field, 24, 8)
        a = int(rng.integers(0, B.dim + 1))
        A = image_basis(rand_matrix(rng, field, B.dim, a)) if a else Matrix.zeros(field, B.dim, 0)
        yield B, A, rng


def ref_quotient_level(n, A, U):
    """The three-elimination form of `quotient_level`: a completion of U,
    rref(qcoord A) and a completion of A's image in B/U."""
    Q, _, qcoord = extend_basis(U, n)
    M = qcoord @ A
    Rm, pivots = rref(M)
    R = Matrix.identity(A.field, A.cols).take_cols(pivots)
    acoord = Matrix(A.field, Rm.data[: len(pivots)])
    incl = M.take_cols(pivots)
    E, incl_coords, proj = extend_basis(incl, Q.cols)
    return QuotientLevel(qcoord, Q, acoord, R, incl, incl_coords, E, proj, tuple(pivots))


def random_instances(seed, count=30):
    """(B, A) pairs over GF(2), GF(5) and GF(65521); A has 0..n columns."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        field = FieldSpec((2, 5, 65521)[trial % 3])
        B = rand_filtered_space(rng, field, max_dim=9, max_flags=5)
        a = int(rng.integers(0, B.dim + 1))
        A = image_basis(rand_matrix(rng, field, B.dim, a)) if a else Matrix.zeros(field, B.dim, 0)
        yield B, A, rng


class TestQuotientLevel:
    def test_exact_identities(self):
        for B, A, _ in random_instances(41):
            field, n = B.field, B.dim
            # every flag (the zero flag included) and the whole space
            for U in B.flags + [Matrix.identity(field, n)]:
                lvl = quotient_level(n, A, U)
                r, q = lvl.incl.cols, lvl.Q.cols
                assert q == n - U.cols
                assert lvl.qcoord @ lvl.Q == Matrix.identity(field, q)
                assert lvl.acoord @ lvl.R == Matrix.identity(field, r)
                assert lvl.qcoord @ A == lvl.incl @ lvl.acoord
                assert lvl.incl_coords @ lvl.incl == Matrix.identity(field, r)
                assert lvl.proj @ lvl.E == Matrix.identity(field, lvl.E.cols)
                assert (lvl.proj @ lvl.incl).is_zero()
                # A meet U has dimension a - r: acoord's kernel is the meet
                assert r == A.cols - intersect_columns(A, U).cols

    def test_matches_three_elimination_form(self):
        for B, A, _ in reference_instances(61):
            n = B.dim
            for U in B.flags + [Matrix.identity(B.field, n)]:
                lvl, ref = quotient_level(n, A, U), ref_quotient_level(n, A, U)
                for field in dataclasses.fields(QuotientLevel):
                    got, want = getattr(lvl, field.name), getattr(ref, field.name)
                    assert got == want, field.name
                    if isinstance(got, Matrix):
                        assert got.data.dtype == np.int64 and not got.data.flags.writeable

    def test_edge_levels(self):
        field, n = GF5, 4
        A = M(field, [[1, 0], [2, 1], [0, 3], [0, 0]])
        whole = quotient_level(n, A, Matrix.identity(field, n))  # B/U = 0
        assert whole.Q.shape == (4, 0) and whole.incl.shape == (0, 0) and whole.acoord.shape == (0, 2)
        zero = quotient_level(n, A, Matrix.zeros(field, n, 0))  # B/U = B
        assert zero.Q == Matrix.identity(field, n) and zero.qcoord == Matrix.identity(field, n)
        assert zero.incl == A and zero.R == Matrix.identity(field, 2)
        U = M(field, [[0, 0], [0, 0], [1, 0], [0, 1]])
        empty = quotient_level(n, Matrix.zeros(field, n, 0), U)  # A = 0
        assert empty.incl.shape == (2, 0) and empty.E == Matrix.identity(field, 2)


def meet_flag_ok(A, pi, U):
    """The reference check on a retraction: pi(U) inside A meet U."""
    return span_contains(intersect_columns(A, U), A @ (pi @ U))


def meet_complement_ok(A, pi, S, U):
    """The reference check on its complement: (1 - A pi)(U) inside S meet U."""
    if not U.cols:
        return True
    proj_S = Matrix.identity(A.field, A.rows) - A @ pi
    return span_contains(intersect_columns(S, U), proj_S @ U)


def random_retraction(rng, A):
    """A retraction pi with pi A = I along a random complement of A."""
    field, n = A.field, A.rows
    while True:
        C = rand_matrix(rng, field, n, n - A.cols)
        T = inverse(hstack([A, C]))
        if T is not None:
            return Matrix(field, T.data[: A.cols])


class TestMeetReferences:
    def test_certificates_agree_with_meet_checks(self):
        for B, A, _ in random_instances(43):
            cert = split_filtered_ses(B, A)
            assert cert.flag_ok == tuple(meet_flag_ok(A, cert.pi, U) for U in B.flags)
            out = topological_complement(B, A)
            assert out.flag_ok == tuple(meet_complement_ok(A, out.pi, out.S, U) for U in B.flags)
            assert rank(hstack([A, out.S])) == B.dim

    def test_same_booleans_on_arbitrary_retractions(self):
        # not every retraction is flag-compatible: every form of the check
        # must say False on the same flags, the level's products included
        # (qcoord A pi U = 0, and acoord pi U = 0, which split_filtered_ses
        # reads since qcoord A = incl acoord with incl injective)
        seen = set()
        for B, A, rng in reference_instances(47, count=60):
            pi = random_retraction(rng, A)
            S = kernel_basis(pi)
            for U in B.flags:
                ok = span_contains(U, A @ (pi @ U))
                assert ok == meet_flag_ok(A, pi, U) == meet_complement_ok(A, pi, S, U)
                lvl = quotient_level(B.dim, A, U)
                assert ok == (lvl.qcoord @ (A @ (pi @ U))).is_zero() == (lvl.acoord @ (pi @ U)).is_zero()
                seen.add(ok)
        assert seen == {True, False}

    def test_continuity_test_agrees_with_meet(self):
        seen = set()
        for B, A, rng in random_instances(53, count=45):
            for U in B.flags:
                lvl = quotient_level(B.dim, A, U)
                meet = intersect_columns(A, U)
                coords = solve_linear(A, meet) if meet.cols else Matrix.zeros(B.field, A.cols, 0)
                f = rand_matrix(rng, B.field, 1, A.cols)
                kills = (f @ coords).is_zero()
                assert kills == (f @ lvl.R @ lvl.acoord == f)
                seen.add(kills)
        assert seen == {True, False}
