import copy
import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tatevec import exactla
from tatevec.duality import self_dual_decompose
from tatevec.exactla import (
    FieldMismatchError,
    FieldSpec,
    Matrix,
    MatrixStack,
    ShapeMismatchError,
    block_diag,
    complement_basis,
    extend_basis,
    factor_through,
    hstack,
    image_basis,
    intersect_columns,
    inverse,
    is_invertible,
    kernel_basis,
    kron,
    pad_buckets,
    rank,
    rref,
    rref_stack,
    solve_linear,
    span_contains,
    vstack,
)
from tatevec.generators import rand_filtered_space, rand_invertible
from tatevec.serialize import parse_matrix

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
LARGEST_PRIME = 3037000493  # the largest p with (p-1)^2 + (p-1) < 2^63


def M(field, data):
    return Matrix(field, data)


class TestFieldSpec:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 101, 2**31 - 1):
            assert FieldSpec(p).p == p

    def test_rejects_moduli_past_the_int64_bound(self):
        # the largest prime with (p-1)^2 + (p-1) < 2^63 is accepted
        assert FieldSpec(3037000493).p == 3037000493
        # 10^18 + 3 is prime; rejected before the primality test
        for p in (3037000507, 10**18 + 3, 2**61 - 1):
            with pytest.raises(ValueError, match="too large"):
                FieldSpec(p)

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 100])
    def test_rejects_composites(self, p):
        with pytest.raises(ValueError):
            FieldSpec(p)

    def test_primality_agrees_with_trial_division_below_200000(self):
        n = np.arange(200000)
        prime = n >= 2
        for d in range(2, 448):  # 447^2 < 200000 < 448^2
            prime &= (n % d != 0) | (n == d)
        assert [exactla._is_prime(x) for x in range(200000)] == prime.tolist()

    @pytest.mark.parametrize("n", [2047, 3277, 1373653, 25326001, 561, 1105, 41041])
    def test_strong_pseudoprimes_and_carmichael_numbers_are_composite(self, n):
        # strong pseudoprimes to base 2 (2047, 3277), bases 2, 3 (1373653)
        # and bases 2, 3, 5 (25326001); Carmichael numbers
        assert not exactla._is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec(n)

    def test_primality_next_to_the_largest_admitted_prime(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        top = 3037000493
        near = range(top - 40, top + 1)
        assert [exactla._is_prime(n) for n in near] == [trial(n) for n in near]
        assert sum(map(exactla._is_prime, near)) > 1 and exactla._is_prime(top)

    def test_inverse(self):
        f = FieldSpec(7)
        for a in range(1, 7):
            assert (a * f.inv(a)) % 7 == 1


class TestMatrixBasics:
    def test_entries_reduced_mod_p(self):
        m = Matrix.from_entries(GF3, 1, 3, [3, 4, -1])
        assert m.data.tolist() == [[0, 1, 2]]

    def test_immutable(self):
        m = M(GF2, [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 0
        with pytest.raises(AttributeError):
            m.field = GF3
        with pytest.raises(AttributeError):
            m.data = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(AttributeError):
            del m.data
        assert m.data.tolist() == [[1, 0], [0, 1]]

    def test_matmul_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            M(GF2, [[1]]) @ M(GF3, [[1]])

    @pytest.mark.parametrize("order", [1, -1])
    def test_block_diag_field_mismatch(self, order):
        blocks = [M(GF5, [[3]]), M(GF2, [[1]])][::order]
        with pytest.raises(FieldMismatchError):
            block_diag(blocks)

    @pytest.mark.parametrize("p", [5, LARGEST_PRIME])
    def test_sums_and_differences_stay_reduced(self, p):
        field = FieldSpec(p)
        A, B = M(field, [[p - 1, 0, 2]]), M(field, [[p - 1, 3, 1]])
        assert (A + B).data.tolist() == [[p - 2, 3, 3]]
        assert (A - B).data.tolist() == [[0, p - 3, 1]]
        for C in (A + B, A - B):
            assert C.field == field and C.data.dtype == np.int64 and not C.data.flags.writeable

    @pytest.mark.parametrize("op,sign", [(operator.add, "+"), (operator.sub, "-")])
    def test_sums_and_differences_check_operands(self, op, sign):
        with pytest.raises(ShapeMismatchError, match=rf"^\(1, 2\) \{sign} \(2, 1\)$"):
            op(M(GF5, [[1, 2]]), M(GF5, [[1], [2]]))
        with pytest.raises(FieldMismatchError, match=r"^GF\(5\) vs GF\(3\)$"):
            op(M(GF5, [[1]]), M(GF3, [[1]]))

    @pytest.mark.parametrize("join", [hstack, vstack, block_diag])
    def test_joins_need_one_field(self, join):
        with pytest.raises(FieldMismatchError, match=f"^mixed fields in {join.__name__}$"):
            join([M(GF5, [[1]]), M(GF5, [[2]]), M(GF3, [[1]])])
        assert join([M(GF5, [[7]])]) == M(GF5, [[2]])

    def test_block_diag_of_no_blocks(self):
        assert block_diag([], GF5) == Matrix.zeros(GF5, 0, 0)
        with pytest.raises(ValueError, match="^block_diag of empty list needs an explicit field$"):
            block_diag([])

    def test_block_diag_and_negation_stay_reduced(self):
        D = block_diag([M(GF5, [[3, 4]]), M(GF5, [[1], [2]])])
        assert D.data.tolist() == [[3, 4, 0], [0, 0, 1], [0, 0, 2]]
        N = -M(GF5, [[0, 1, 4]])
        assert N.data.tolist() == [[0, 4, 1]]
        for A in (D, N):
            assert A.field == GF5 and A.data.dtype == np.int64 and not A.data.flags.writeable

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            M(GF2, [[1, 0]]) @ M(GF2, [[1, 0]])

    def test_json_round_trip(self):
        m = M(GF5, [[1, 2, 3], [4, 0, 1]])
        assert parse_matrix(GF5, m.to_json()) == m

    @pytest.mark.parametrize("p", [2**31 - 1, 3037000493])
    def test_matmul_exact_past_int64_accumulation(self, p):
        # 4 * (p-1)^2 >= 2^63, so an int64 dot product would wrap
        field = FieldSpec(p)
        A = Matrix(field, np.full((4, 4), p - 1, dtype=np.int64))
        assert (A @ A).data.dtype == np.int64
        assert (A @ A).data.tolist() == [[4] * 4] * 4

    def test_zero_dim_matrices(self):
        z = Matrix.zeros(GF2, 0, 3)
        assert (z @ M(GF2, [[1], [0], [1]])).shape == (0, 1)
        assert Matrix.identity(GF2, 0).shape == (0, 0)


class TestSolveLinear:
    def test_free_variable_zero(self):
        # GF(2): x1 + x2 = 1, canonical solution puts the free variable to 0.
        X = solve_linear(M(GF2, [[1, 1]]), M(GF2, [[1]]))
        assert X == M(GF2, [[1], [0]])

    def test_identity_system(self):
        X = solve_linear(M(GF2, [[1, 0], [0, 1]]), M(GF2, [[1], [0]]))
        assert X == M(GF2, [[1], [0]])

    def test_inconsistent(self):
        assert solve_linear(M(GF2, [[1, 1], [1, 1]]), M(GF2, [[1], [0]])) is None

    def test_multi_rhs(self):
        A = M(GF5, [[1, 2], [3, 4]])
        B = Matrix.identity(GF5, 2)
        X = solve_linear(A, B)
        assert A @ X == B

    @pytest.mark.parametrize("p", [2, 3, 5, 101])
    def test_random_consistent_systems(self, p):
        field = FieldSpec(p)
        rng = np.random.default_rng(p)
        for _ in range(50):
            m, n, k = rng.integers(1, 7, size=3)
            A = Matrix(field, rng.integers(0, p, size=(m, n)))
            X0 = Matrix(field, rng.integers(0, p, size=(n, k)))
            B = A @ X0
            X = solve_linear(A, B)
            assert X is not None and A @ X == B


class TestSubspaceBasis:
    def test_kernel_obvious(self):
        K = kernel_basis(M(GF2, [[1, 1]]))
        assert K == M(GF2, [[1], [1]])

    def test_kernel_orthogonality_and_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, n = rng.integers(1, 7, size=2)
            A = Matrix(GF5, rng.integers(0, 5, size=(m, n)))
            K = kernel_basis(A)
            assert (A @ K).is_zero()
            assert K.cols + rank(A) == n
            assert rank(K) == K.cols

    def test_image_dependent_column(self):
        # GF(5): column 2 = 2 * column 1.
        B = image_basis(M(GF5, [[2, 4], [1, 2]]))
        assert B == M(GF5, [[2], [1]])

    def test_complement_greedy_rule(self):
        # Oracle: e1 is outside span{(1,1,0),(0,0,1)} and is tested first,
        # so the greedy completion is {e1} (frozen from the rank oracle run).
        S = M(GF2, [[1, 0], [1, 0], [0, 1]])
        assert span_contains(S, M(GF2, [[1], [0], [0]])) is False
        C = complement_basis(S, 3)
        assert C == M(GF2, [[1], [0], [0]])

    def test_complement_deterministic_and_direct_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(0, n + 1))
            A = Matrix(GF2, rng.integers(0, 2, size=(n, max(k, 1))))
            S = image_basis(A) if k else Matrix.zeros(GF2, n, 0)
            C1 = complement_basis(S, n)
            C2 = complement_basis(S, n)
            assert C1 == C2
            assert rank(hstack([S, C1])) == n
            assert S.cols + C1.cols == n

    def test_complement_rejects_dependent_columns(self):
        with pytest.raises(ValueError):
            complement_basis(M(GF2, [[1, 1], [1, 1]]), 2)


class TestFactorThrough:
    def test_projection(self):
        theta = factor_through(M(GF2, [[1, 1]]), M(GF2, [[1]]))
        assert theta == M(GF2, [[1], [0]])

    def test_identity_factor(self):
        alpha = M(GF2, [[1, 0], [1, 1]])
        assert factor_through(Matrix.identity(GF2, 2), alpha) == alpha

    def test_gf3_pivot_solution(self):
        f = M(GF3, [[1, 0, 2]])
        theta = factor_through(f, M(GF3, [[2]]))
        assert theta == M(GF3, [[2], [0], [0]])
        assert f @ theta == M(GF3, [[2]])

    def test_rejects_non_surjective(self):
        with pytest.raises(ValueError):
            factor_through(M(GF2, [[1, 1], [1, 1]]), M(GF2, [[1], [1]]))


class TestKron:
    def test_identity_factor(self):
        A = M(GF2, [[1, 1]])
        B = Matrix.identity(GF2, 2)
        assert kron(A, B) == M(GF2, [[1, 0, 1, 0], [0, 1, 0, 1]])

    def test_scalars(self):
        assert kron(M(GF2, [[1]]), M(GF2, [[1]])) == M(GF2, [[1]])
        assert kron(M(GF3, [[2]]), M(GF3, [[2]])) == M(GF3, [[1]])

    def test_gf2_products_stay_zero_one(self):
        ones = Matrix(GF2, np.ones((16, 16), dtype=np.int64))
        K = kron(ones, ones)
        assert K.shape == (256, 256) and K.data.dtype == np.int64
        assert np.array_equal(K.data, np.ones((256, 256), dtype=np.int64))
        assert not K.data.flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1000))
    def test_mixed_product_law(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.choice([2, 3, 5]))
        field = FieldSpec(p)
        a, b, c, d, e, f = (int(x) for x in rng.integers(1, 4, size=6))
        A1 = Matrix(field, rng.integers(0, p, size=(a, b)))
        A2 = Matrix(field, rng.integers(0, p, size=(b, c)))
        B1 = Matrix(field, rng.integers(0, p, size=(d, e)))
        B2 = Matrix(field, rng.integers(0, p, size=(e, f)))
        assert kron(A1 @ A2, B1 @ B2) == kron(A1, B1) @ kron(A2, B2)


class TestHelpers:
    def test_rref_pivots(self):
        R, piv = rref(M(GF2, [[0, 1, 1], [1, 1, 0]]))
        assert piv == [0, 1]
        assert R == M(GF2, [[1, 0, 1], [0, 1, 1]])

    def test_inverse(self):
        A = M(GF5, [[1, 2], [3, 4]])
        Ai = inverse(A)
        assert Ai is not None and A @ Ai == Matrix.identity(GF5, 2)
        assert inverse(M(GF5, [[1, 2], [2, 4]])) is None
        assert is_invertible(Matrix.identity(GF2, 0))

    def test_intersection(self):
        A = M(GF2, [[1, 0], [0, 1], [0, 0]])
        B = M(GF2, [[0, 1], [1, 0], [1, 0]])
        I = intersect_columns(A, B)
        assert I.cols == 1
        assert span_contains(A, I) and span_contains(B, I)

    def test_intersection_with_zero(self):
        A = M(GF2, [[1], [0]])
        Z = Matrix.zeros(GF2, 2, 0)
        assert intersect_columns(A, Z).cols == 0


# ---------------------------------------------------------------------------
# Reference implementations: the row loop and greedy rank tests that the
# single-echelon kernel replaced.  The kernel must agree with them exactly.
# ---------------------------------------------------------------------------


def ref_rref(A):
    p = A.field.p
    R = A.data.copy()
    m, n = R.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = -1
        for i in range(r, m):
            if R[i, c] != 0:
                pivot = i
                break
        if pivot == -1:
            continue
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
        R[r] = (R[r] * A.field.inv(int(R[r, c]))) % p
        for i in range(m):
            if i != r and R[i, c] != 0:
                R[i] = (R[i] - R[i, c] * R[r]) % p
        pivots.append(c)
        r += 1
    return Matrix(A.field, R), pivots


def ref_rank(A):
    return len(ref_rref(A)[1])


def ref_solve(A, B):
    R, pivots = ref_rref(hstack([A, B]))
    n = A.cols
    if any(c >= n for c in pivots):
        return None
    X = np.zeros((n, B.cols), dtype=np.int64)
    for r, c in enumerate(pivots):
        X[c] = R.data[r, n:]
    return Matrix(A.field, X)


def ref_kernel(A):
    R, pivots = ref_rref(A)
    n = A.cols
    free = [c for c in range(n) if c not in pivots]
    K = np.zeros((n, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        K[fc, j] = 1
        for r, pc in enumerate(pivots):
            K[pc, j] = -R.data[r, fc]
    return Matrix(A.field, K)


def ref_greedy_cols(S, P):
    """Columns of P, in order, that raise the rank of the running span."""
    current, chosen = S, []
    r = ref_rank(S)
    for j in range(P.cols):
        if r == P.rows:
            break  # the span is everything; no column raises its rank
        cand = hstack([current, P.col(j)])
        if ref_rank(cand) == r + 1:
            current, r = cand, r + 1
            chosen.append(j)
    return chosen


def ref_complement(S, n):
    if ref_rank(S) != S.cols:
        raise ValueError("dependent")
    return Matrix.identity(S.field, n).take_cols(ref_greedy_cols(S, Matrix.identity(S.field, n)))


def ref_inverse(A):
    if A.rows != A.cols:
        return None
    X = ref_solve(A, Matrix.identity(A.field, A.rows))
    if X is None or ref_rank(A) != A.rows:
        return None
    return X


def ref_extend_basis(S, n):
    """The two eliminations `extend_basis` replaced: complete S, then invert [S | E]."""
    E = ref_complement(S, n)
    X = inverse(hstack([S, E]))
    return E, Matrix(S.field, X.data[: S.cols]), Matrix(S.field, X.data[S.cols :])


def ref_span_contains(S, V):
    return V.cols == 0 or ref_rank(hstack([S, V])) == ref_rank(S)


PRIMES = [2, 5, 101, 65521]
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (3, 9), (9, 3), (7, 7), (12, 5)]
# column counts past the 8- and 64-bit boundaries of the packed GF(2) rows
WIDE_SHAPES = [(2, 63), (3, 64), (5, 65), (40, 130)]


def _matrices(p, count=3):
    """Seeded full-rank-ish, rank-deficient and sparse matrices of every shape."""
    field = FieldSpec(p)
    rng = np.random.default_rng(p)
    for m, n in SHAPES + WIDE_SHAPES if p == 2 else SHAPES:
        for _ in range(count):
            yield Matrix(field, rng.integers(0, p, size=(m, n)))
            k = int(rng.integers(0, min(m, n) + 1))
            yield Matrix(field, rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n)) % p)
            mask = rng.random((m, n)) < 0.25
            yield Matrix(field, rng.integers(0, p, size=(m, n)) * mask)


def _independent(A):
    return A.take_cols(ref_rref(A)[1])


@pytest.mark.parametrize("p", PRIMES)
class TestKernelMatchesReference:
    def test_rref(self, p):
        for A in _matrices(p):
            assert rref(A) == ref_rref(A)

    def test_solve_and_kernel(self, p):
        rng = np.random.default_rng(p + 1)
        for A in _matrices(p):
            B = Matrix(A.field, rng.integers(0, p, size=(A.rows, 2)))
            for rhs in (B, A @ Matrix(A.field, rng.integers(0, p, size=(A.cols, 2)))):
                assert solve_linear(A, rhs) == ref_solve(A, rhs)
            assert kernel_basis(A) == ref_kernel(A)

    def test_complement(self, p):
        for A in _matrices(p):
            S = _independent(A)
            assert complement_basis(S, S.rows) == ref_complement(S, S.rows)

    def test_complement_dependent_input(self, p):
        for A in _matrices(p):
            if ref_rank(A) == A.cols:
                continue
            with pytest.raises(ValueError, match="dependent"):
                ref_complement(A, A.rows)
            with pytest.raises(ValueError, match="dependent"):
                complement_basis(A, A.rows)
            with pytest.raises(ValueError, match="dependent"):
                extend_basis(A, A.rows)

    def test_extend_basis(self, p):
        field = FieldSpec(p)
        empty = [Matrix.zeros(field, n, 0) for n in (0, 1, 4)]
        for S in [_independent(A) for A in _matrices(p)] + empty + [Matrix.identity(field, 4)]:
            assert extend_basis(S, S.rows) == ref_extend_basis(S, S.rows)

    def test_inverse(self, p):
        for A in _matrices(p):
            assert inverse(A) == ref_inverse(A)

    def test_span_contains(self, p):
        rng = np.random.default_rng(p + 2)
        for A in _matrices(p):
            inside = A @ Matrix(A.field, rng.integers(0, p, size=(A.cols, 2)))
            other = Matrix(A.field, rng.integers(0, p, size=(A.rows, 1)))
            for V in (inside, other, hstack([inside, other]), Matrix.zeros(A.field, A.rows, 0)):
                assert span_contains(A, V) == ref_span_contains(A, V)

    def test_intersection_needs_no_closing_elimination(self, p):
        # with A and B independent, A K_top is what the old closing
        # image_basis returned
        def old(A, B):
            if not A.cols or not B.cols:
                return Matrix.zeros(A.field, A.rows, 0)
            K = kernel_basis(hstack([A, -B]))
            return image_basis(A @ Matrix(A.field, K.data[: A.cols]))

        field = FieldSpec(p)
        rng = np.random.default_rng(p + 4)
        met = 0
        for A in _matrices(p):
            A = _independent(A)
            for b in sorted({0, 1, A.rows // 2 + 1, A.rows}):
                drawn = Matrix(field, rng.integers(0, p, size=(A.rows, b)))
                # B drawn, and B sharing A's first column
                for B in (drawn, hstack([A.take_cols(range(min(A.cols, 1))), drawn])):
                    B = _independent(B)
                    meet = intersect_columns(A, B)
                    assert meet == old(A, B)
                    met += meet.cols > 0
        assert met > 50

    def test_self_dual_f_completion(self, p):
        # F is the greedy completion of K inside phi^{-1}(K-perp)
        field = FieldSpec(p)
        rng = np.random.default_rng(p + 3)
        checked = 0
        for _ in range(30):
            V = rand_filtered_space(rng, field, max_dim=8, max_flags=4)
            phi = rand_invertible(rng, field, V.dim)
            try:
                out = self_dual_decompose(V, phi, V.flags[0])
            except ValueError:
                continue  # L is no c-lattice
            P = ref_inverse(phi) @ ref_kernel(out.K.T)
            assert out.F == P.take_cols(ref_greedy_cols(out.K, P))
            checked += 1
        assert checked >= 20


class TestPackedGF2:
    def test_matches_the_general_loop(self):
        # the general loop, itself checked against the reference above, on
        # row and column counts around the 8- and 64-bit boundaries
        rng = np.random.default_rng(11)
        for m in (0, 1, 7, 8, 9, 33, 70):
            for n in (0, 1, 8, 9, 63, 64, 65, 129):
                k = int(rng.integers(0, min(m, n) + 1))
                for a in (
                    rng.integers(0, 2, size=(m, n)),
                    rng.integers(0, 2, size=(m, k)) @ rng.integers(0, 2, size=(k, n)) % 2,
                    rng.integers(0, 2, size=(m, n)) * (rng.random((m, n)) < 0.05),
                ):
                    R, pivots = exactla._rref_gf2(a)
                    want, want_pivots = exactla._rref_modp(a, GF2)
                    assert R.dtype == np.int64 and R.shape == (m, n)
                    assert np.array_equal(R, want) and pivots == want_pivots

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 40),
        st.integers(0, 140),
        st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_general_loop_on_any_shape(self, m, n, density, seed):
        # sparse, empty and full matrices, with some rows and columns zeroed
        rng = np.random.default_rng(seed)
        a = (rng.random((m, n)) < density).astype(np.int64)
        a[rng.random(m) < 0.2] = 0
        a[:, rng.random(n) < 0.2] = 0
        R, pivots = exactla._rref_gf2(a)
        want, want_pivots = exactla._rref_modp(a, GF2)
        assert R.dtype == np.int64 and np.array_equal(R, want) and pivots == want_pivots

    @pytest.mark.parametrize("n", [8, 16, 64])
    @pytest.mark.parametrize("m", [2, 9, 33])
    def test_all_ones_carries_into_no_other_row(self, m, n):
        # every row is cleared by a full-width copy of the pivot row, so a
        # carry out of a row's top bit would flip bit 0 of the row above
        R, pivots = exactla._rref_gf2(np.ones((m, n), dtype=np.int64))
        assert pivots == [0] and R[0].all() and not R[1:].any()

    @pytest.mark.parametrize("n", [3, 9, 64, 70])
    def test_anti_diagonal_swaps_at_every_step(self, n):
        R, pivots = exactla._rref_gf2(np.eye(n, dtype=np.int64)[::-1])
        assert pivots == list(range(n)) and np.array_equal(R, np.eye(n, dtype=np.int64))

    def test_a_column_set_only_above_the_current_row_is_skipped(self):
        # columns 1-9 have their 1s in row 0 only, so the second pivot is 69
        a = np.zeros((12, 70), dtype=np.int64)
        a[0, :10] = 1
        a[1, 69] = a[5, 69] = a[5, 3] = 1
        R, pivots = exactla._rref_gf2(a)
        want, want_pivots = exactla._rref_modp(a, GF2)
        assert pivots == want_pivots == [0, 3, 69] and np.array_equal(R, want)

    def test_jump_from_the_first_to_the_last_of_200_columns(self):
        a = np.zeros((12, 200), dtype=np.int64)
        a[3, 0] = a[5, 199] = a[7, 0] = a[7, 199] = 1
        R, pivots = exactla._rref_gf2(a)
        want = np.zeros_like(a)
        want[0, 0] = want[1, 199] = 1
        assert pivots == [0, 199] and np.array_equal(R, want)

    def test_stack_padded_past_64_columns(self):
        rng = np.random.default_rng(64)
        shapes = [(5, 70), (9, 65), (3, 130), (0, 80), (12, 20), (12, 140), (7, 0)]
        _check_stack(GF2, [A for m, n in shapes for A in _matrices_of_shape(GF2, m, n, rng)], 12, 140)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_golden_outputs_never_reach_the_general_loop(self, monkeypatch, tmp_path, capsys, seed):
        from test_golden import GOLDEN, _digests, _outputs, _stdout

        general, packed = exactla._rref_modp, exactla._rref_gf2
        calls = {"general": 0, "packed": 0}

        class GeneralLoopOverGF2(Exception):
            pass

        def checked_general(data, field):
            if field.p == 2:
                calls["general"] += 1
                raise GeneralLoopOverGF2(data.shape)
            return general(data, field)

        def counted_packed(data):
            calls["packed"] += 1
            return packed(data)

        monkeypatch.setattr(exactla, "_rref_modp", checked_general)
        monkeypatch.setattr(exactla, "_rref_gf2", counted_packed)
        got = _digests(_outputs(tmp_path, lambda *argv: _stdout(capsys, *argv), 2, seed))
        assert got == GOLDEN[(2, seed)]
        assert calls["general"] == 0 and calls["packed"] > 0


# ---------------------------------------------------------------------------
# The data path: the public constructor reduces, `Matrix._of` trusts
# ---------------------------------------------------------------------------


class TestDataPath:
    def test_public_constructor_reduces(self):
        m = Matrix(GF5, [[-1, 7], [5, -10]])
        assert m.data.tolist() == [[4, 2], [0, 0]]
        src = np.array([[-3, 2**40]], dtype=np.int64)
        m = Matrix(GF5, src)
        assert m.data.tolist() == [[2, 2**40 % 5]]
        assert m.data.dtype == np.int64 and not m.data.flags.writeable
        src[0, 0] = 1  # the matrix holds its own reduced copy
        assert m.data.tolist() == [[2, 2**40 % 5]]

    @pytest.mark.parametrize("data", [[1, 2], [[[1]]], 3])
    def test_public_constructor_rejects_non_2d(self, data):
        with pytest.raises(ShapeMismatchError):
            Matrix(GF5, data)

    @pytest.mark.parametrize("p", [2, 5, 65521, LARGEST_PRIME])
    def test_kron_matches_numpy(self, p):
        field = FieldSpec(p)
        rng = np.random.default_rng(p)
        shapes = [(0, 0), (0, 3), (2, 0), (1, 1), (2, 3), (3, 2), (4, 4)] + [(16, 16)] * (p == 2)
        for sa in shapes:
            for sb in shapes:
                a = rng.integers(0, p, size=sa)
                b = rng.integers(0, p, size=sb)
                if p == LARGEST_PRIME and a.size and b.size:
                    a.flat[0] = b.flat[0] = p - 1  # the largest product, (p-1)^2
                K = kron(Matrix(field, a), Matrix(field, b))
                want = np.kron(a, b) % p
                assert K.shape == want.shape and K.data.dtype == np.int64
                assert np.array_equal(K.data, want)

    @pytest.mark.parametrize("p", [2, 65521, LARGEST_PRIME])
    def test_json_entries_are_builtin_ints(self, p):
        rng = np.random.default_rng(p)
        m = Matrix(FieldSpec(p), rng.integers(0, p, size=(3, 4)))
        for A in (m, m.T, m.take_cols([2, 0]), Matrix.zeros(m.field, 0, 3)):
            entries = A.to_json()["entries"]
            assert all(type(x) is int for x in entries)
            assert entries == [int(x) for x in A.data.reshape(-1)]

    @pytest.mark.parametrize("p,seed", [(2, 1), (65521, 1)])
    def test_golden_outputs_under_checked_trusted_constructor(self, monkeypatch, tmp_path, capsys, p, seed):
        from test_golden import GOLDEN, _digests, _outputs, _stdout

        trusted = Matrix._of.__func__
        calls = []

        def checked(cls, field, arr):
            out = trusted(cls, field, arr)
            d = out.data
            assert d.ndim == 2 and d.dtype == np.int64 and not d.flags.writeable
            assert d.size == 0 or (int(d.min()) >= 0 and int(d.max()) < field.p)
            calls.append(d.shape)
            return out

        monkeypatch.setattr(Matrix, "_of", classmethod(checked))
        got = _digests(_outputs(tmp_path, lambda *argv: _stdout(capsys, *argv), p, seed))
        assert got == GOLDEN[(p, seed)]
        assert calls


# ---------------------------------------------------------------------------
# Stacks: MatrixStack, pad_buckets and rref_stack against the per-matrix
# operations, in both layouts (one part, and buckets of like sizes)
# ---------------------------------------------------------------------------


GF65521 = FieldSpec(65521)
# sizes of which a table pads into one part under the default `_ROOM`, and
# into several buckets once `_ROOM` is 0 (`_sizes` makes its first item 17)
STACK_SIZES = [0, 1, 1, 2, 2, 3, 9]


@pytest.fixture(params=["one part", "buckets"])
def layout(request, monkeypatch):
    if request.param == "buckets":
        monkeypatch.setattr(exactla, "_ROOM", 0)
    return request.param


def _sizes(rng, shape):
    sizes = rng.choice(STACK_SIZES, size=shape)
    sizes.reshape(-1)[0] = 17
    return sizes


def _table(rng, field, rows, cols):
    """Random matrices of shapes (rows[i], cols[i]) as nested lists over the
    two axes of the table."""
    return [
        [Matrix(field, rng.integers(0, field.p, size=(r, c))) for r, c in zip(rr, cc)]
        for rr, cc in zip(rows.tolist(), cols.tolist())
    ]


def _stack(field, table, layout=None):
    S = MatrixStack.of(field, table, (len(table), len(table[0])))
    assert layout is None or (S.slot is None) == (layout == "one part")
    return S


def _transposed(table):
    return tuple(tuple(row[c].T for row in table) for c in range(len(table[0])))


def _as_tuples(table):
    return tuple(tuple(row) for row in table)


class TestMatrixStack:
    def test_products_match_matmul(self, layout):
        rng = np.random.default_rng(5)
        for _ in range(6):
            r, k, c = (_sizes(rng, (3, 4)) for _ in range(3))
            A, B = _table(rng, GF65521, r, k), _table(rng, GF65521, k, c)
            P = _stack(GF65521, A, layout) @ _stack(GF65521, B, layout)
            assert P.field == GF65521
            assert P.matrices() == tuple(tuple(a @ b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))

    def test_broadcast_products_match_matmul(self, layout):
        # a 1 x n table against an m x 1 table: every pair (r, c) composes
        # through the common inner size 3
        rng = np.random.default_rng(6)
        for _ in range(4):
            rows, cols = _sizes(rng, (1, 8)), _sizes(rng, (6, 1))
            A = _table(rng, GF65521, rows, np.full((1, 8), 3))
            B = _table(rng, GF65521, np.full((6, 1), 3), cols)
            P = _stack(GF65521, A) @ _stack(GF65521, B)
            assert P.rows.shape == (6, 8) and (P.slot is None) == (layout == "one part")
            assert P.matrices() == tuple(tuple(a @ row[0] for a in A[0]) for row in B)

    def test_inner_padding_past_the_other_matrix_is_dropped(self, layout):
        # the first two columns of a table whose last column is 9 wide keep
        # its padding, past the rows of the matrices they are multiplied by
        rng = np.random.default_rng(7)
        r, k = _sizes(rng, (3, 3)), np.minimum(_sizes(rng, (3, 3)), 2)
        k[:, -1] = 9
        big = _stack(GF65521, _table(rng, GF65521, r, k), layout)
        A = big[:, :2]
        assert A._bound()[1] == 9
        B = _table(rng, GF65521, k[:, :2], _sizes(rng, (3, 2)))
        want = tuple(tuple(a @ b for a, b in zip(ra, rb)) for ra, rb in zip(A.matrices(), B))
        assert (A @ _stack(GF65521, B)).matrices() == want

    def test_products_exact_past_int64_accumulation(self):
        # rows 1 on of a table whose row 0 holds 2 x 2 matrices: each inner
        # dimension is 1, (p-1)^2 fits int64, but the padding is 2 wide and
        # 2 (p-1)^2 does not
        p = LARGEST_PRIME
        field = FieldSpec(p)
        rng = np.random.default_rng(13)
        table = [[Matrix(field, np.full((2, 2), p - 1))] * 3]
        table += [[Matrix(field, [[x]]) for x in row] for row in ([p - 1, p - 2, 1], rng.integers(0, p, 3).tolist())]
        S = _stack(field, table)
        assert S[1:]._bound() == (2, 2)
        for T, rows in ((S, table), (S[1:], table[1:])):
            assert (T @ T).matrices() == tuple(tuple(a @ a for a in row) for row in rows)
        assert table[1][0] @ table[1][0] == Matrix(field, [[1]])

    @pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["copy", "deepcopy", "pickle"])
    def test_copies_and_pickles_are_equal_and_read_only(self, layout, dup):
        rng = np.random.default_rng(14)
        r, c = _sizes(rng, (3, 4)), _sizes(rng, (3, 4))
        S = _stack(GF65521, _table(rng, GF65521, r, c), layout)
        A = S.matrices()[2][3]
        assert dup(A) == A and not dup(A).data.flags.writeable
        again = dup(S)
        assert again.field == S.field and again.matrices() == S.matrices()
        assert (again.slot is None) == (layout == "one part")
        assert not any(P.flags.writeable for P in again.parts)

    def test_differs(self, layout):
        rng = np.random.default_rng(8)
        r, c = _sizes(rng, (3, 4)), _sizes(rng, (3, 4))
        r[1, 2], c[1, 2] = 2, 3
        r[2, 3], c[2, 3] = 9, 1
        table = _table(rng, GF65521, r, c)
        S = _stack(GF65521, table, layout)
        assert not S.differs(S).any()
        assert not S.differs(_stack(GF65521, [list(row) for row in table], layout)).any()
        # a 2 x 3 and a 3 x 2 zero matrix differ in shape only; a 9 x 1
        # matrix with one entry changed differs in that entry only
        table[1][2] = Matrix.zeros(GF65521, 2, 3)
        data = table[2][3].data.copy()
        data[4, 0] = (data[4, 0] + 1) % 65521
        for (r, c), A in (((1, 2), Matrix.zeros(GF65521, 3, 2)), ((2, 3), Matrix(GF65521, data))):
            other = [list(row) for row in table]
            other[r][c] = A
            want = np.zeros((3, 4), dtype=bool)
            want[r, c] = True
            assert np.array_equal(_stack(GF65521, table, layout).differs(_stack(GF65521, other, layout)), want)

    def test_views(self, layout):
        rng = np.random.default_rng(9)
        r, c = _sizes(rng, (4, 3)), _sizes(rng, (4, 3))
        table = _table(rng, GF65521, r, c)
        table[1][1] = Matrix.zeros(GF65521, 2, 2)
        S = _stack(GF65521, table, layout)
        assert S.matrices() == _as_tuples(table)
        assert S.T.matrices() == _transposed(table)
        assert S.T.T.matrices() == _as_tuples(table)
        assert S[1:3, ::2].matrices() == tuple(tuple(row[::2]) for row in table[1:3])
        assert S[2].matrices() == tuple(table[2])
        assert S[:, 1].matrices() == tuple(row[1] for row in table)
        assert [B.tolist() for B in S[-1, -1].blocks()] == [table[-1][-1].data.tolist()]
        want = np.array([[not A.is_zero() for A in row] for row in table])
        assert np.array_equal(S.nonzero(), want)
        assert np.array_equal(S.T.nonzero(), want.T)

    def test_blocks_round_trip(self, layout):
        rng = np.random.default_rng(10)
        r, c = _sizes(rng, (3, 5)), _sizes(rng, (3, 5))
        S = _stack(GF65521, _table(rng, GF65521, r, c), layout)
        for blocks in (S.blocks(), S.T.blocks(), S[1:].blocks()):
            assert all(B.dtype == np.int64 and not B.flags.writeable for B in blocks)
        again = MatrixStack.of(GF65521, S.matrices(), (3, 5))
        assert again.matrices() == S.matrices()
        entries = np.concatenate([B.reshape(-1) for B in S.blocks()])
        flat = MatrixStack.from_entries(GF65521, S.rows, S.cols, entries)
        assert [B.tolist() for B in flat.blocks()] == [B.tolist() for B in S.blocks()]

    def test_parts_and_views_stay_read_only(self, layout):
        rng = np.random.default_rng(11)
        r, k, c = (_sizes(rng, (3, 4)) for _ in range(3))
        S = _stack(GF65521, _table(rng, GF65521, r, k), layout)
        entries = np.concatenate([B.reshape(-1) for B in S.blocks()])
        made = {
            "of": S,
            "from_entries": MatrixStack.from_entries(GF65521, S.rows, S.cols, entries),
            "index": S[1:, ::2],
            "T": S.T,
            "matmul": S @ _stack(GF65521, _table(rng, GF65521, k, c), layout),
        }
        for name, X in made.items():
            views = list(X.parts) + [A.data for row in X.matrices() for A in row]
            assert not any(V.flags.writeable for V in views), name
            with pytest.raises(ValueError):
                X.parts[0][...] = 0


class TestPadBuckets:
    def test_one_bucket_within_room(self):
        rng = np.random.default_rng(11)
        rows, cols = _sizes(rng, (3, 4)), _sizes(rng, (3, 4))
        assert pad_buckets(rows, cols) == [(None, (int(rows.max()), int(cols.max())))]

    @pytest.mark.parametrize("room", [0, exactla._ROOM])
    def test_no_item_padded_past_twice_its_size(self, monkeypatch, room):
        monkeypatch.setattr(exactla, "_ROOM", room)
        rng = np.random.default_rng(12)
        for _ in range(20):
            sizes = [rng.choice([0, 1, 2, 3, 5, 8, 33, 300], size=(6, 7)) for _ in range(int(rng.integers(1, 4)))]
            buckets = pad_buckets(*sizes)
            need = np.prod([np.maximum(s, 1) for s in sizes], axis=0).sum()
            tops = tuple(int(s.max()) for s in sizes)
            if buckets == [(None, tops)]:
                padded = sizes[0].size * math.prod(t or 1 for t in tops)
                assert padded <= max(room, 2 ** len(sizes) * need)
                continue
            held = np.sort(np.concatenate([at for at, _ in buckets]))
            assert np.array_equal(held, np.arange(sizes[0].size))
            for at, bucket_tops in buckets:
                for s, top in zip(sizes, bucket_tops):
                    items = s.reshape(-1)[at]
                    assert top == items.max() and (top <= 2 * items).all()


STACK_PRIMES = [2, 3, 65521, LARGEST_PRIME]


def _low_rank(field, rng, m, k, n):
    """An m x n matrix of rank at most k, multiplied exactly."""
    p = field.p
    return Matrix(field, rng.integers(0, p, size=(m, k))) @ Matrix(field, rng.integers(0, p, size=(k, n)))


def _matrices_of_shape(field, m, n, rng):
    """A random, a low-rank and a sparse m x n matrix."""
    p = field.p
    yield Matrix(field, rng.integers(0, p, size=(m, n)))
    yield _low_rank(field, rng, m, int(rng.integers(0, min(m, n) + 1)), n)
    yield Matrix(field, rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < 0.25))


def _check_stack(field, mats, R, C):
    """rref_stack of mats zero-padded to R x C against rref of each."""
    data = np.zeros((len(mats), R, C), dtype=np.int64)
    for i, A in enumerate(mats):
        data[i, : A.rows, : A.cols] = A.data
    E, pivots = rref_stack(field, data)
    assert E.shape == data.shape and E.dtype == np.int64 and len(pivots) == len(mats)
    for i, A in enumerate(mats):
        want, want_pivots = rref(A)
        assert np.array_equal(E[i, : A.rows, : A.cols], want.data)
        assert not E[i, A.rows :].any() and not E[i, :, A.cols :].any()
        assert pivots[i] == want_pivots
    return E, pivots


@pytest.mark.parametrize("p", STACK_PRIMES)
class TestRrefStack:
    def test_like_shapes(self, p):
        field = FieldSpec(p)
        for m, n in [(1, 1), (3, 5), (5, 3), (4, 4)]:
            _check_stack(field, list(_matrices_of_shape(field, m, n, np.random.default_rng(p + m))), m, n)

    def test_padded_at_the_bottom_and_the_right(self, p):
        field = FieldSpec(p)
        rng = np.random.default_rng(p)
        shapes = [(1, 4), (3, 2), (0, 3), (4, 0), (2, 6), (5, 5)]
        mats = [A for m, n in shapes for A in _matrices_of_shape(field, m, n, rng)]
        _check_stack(field, mats, 6, 7)

    @pytest.mark.parametrize("shape", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)])
    def test_empty(self, p, shape):
        E, pivots = rref_stack(FieldSpec(p), np.zeros(shape, dtype=np.int64))
        assert E.shape == shape and E.dtype == np.int64
        assert pivots == [[]] * shape[0]

    def test_all_zero(self, p):
        field = FieldSpec(p)
        _, pivots = _check_stack(field, [Matrix.zeros(field, 3, 5)] * 4, 3, 5)
        assert pivots == [[]] * 4

    def test_every_rank_below_the_smaller_side(self, p):
        # the elimination stops at the largest rank, before min(m, n) steps
        field = FieldSpec(p)
        rng = np.random.default_rng(p + 1)
        mats = [_low_rank(field, rng, 4, k, 6) for k in (0, 1, 2, 3, 3, 2)]
        mats.append(Matrix(field, np.vstack([rng.integers(0, p, size=(2, 6)), np.zeros((2, 6), dtype=np.int64)])))
        _, pivots = _check_stack(field, mats, 4, 6)
        assert max(len(piv) for piv in pivots) < 4

