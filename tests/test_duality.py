import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tatevec import duality, exactla, spaces, splitting
from tatevec.exactla import FieldSpec, Matrix, image_basis, is_invertible, spans_equal
from tatevec.duality import (
    bidual_check,
    dual_object,
    ev_witness,
    extend_functional,
    self_dual_decompose,
)
from tatevec.generators import rand_selfdual, rand_tate
from tatevec.spaces import (
    FilteredSpace,
    FinVect,
    IndLCObj,
    IndTower,
    LinMap,
    TateObj,
    Tower,
    constant_tower,
    laurent_tate,
    materialize,
    polynomial_indtower,
    power_series_tower,
    tate_from_finvect,
)

GF2 = FieldSpec(2)
GF5 = FieldSpec(5)


def M(field, data):
    return Matrix(field, data)


def random_tower(field, rng, depth=4, max_dim=5):
    dims = [int(d) for d in rng.integers(0, max_dim + 1, size=depth)]
    maps = [
        Matrix(field, rng.integers(0, field.p, size=(dims[i], dims[i + 1])))
        for i in range(depth - 1)
    ]
    return Tower.from_prefix(field, dims, maps)


def random_indtower(field, rng, depth=4, max_dim=5):
    dims = [int(d) for d in rng.integers(0, max_dim + 1, size=depth)]
    maps = [
        Matrix(field, rng.integers(0, field.p, size=(dims[i + 1], dims[i])))
        for i in range(depth - 1)
    ]
    return IndTower.from_prefix(field, dims, maps)


class TestDualObject:
    def test_power_series_dual_is_padding_inclusions(self):
        d = dual_object(power_series_tower(GF2))
        assert isinstance(d, IndTower)
        pre = materialize(d, 3)
        assert pre.dims == (1, 2, 3)
        assert pre.maps[0] == M(GF2, [[1], [0]])
        # pairing oracle: <phi, g v> = <g^T phi, v> on all basis pairs
        g = power_series_tower(GF2).transition(2)
        for i in range(2):
            for j in range(3):
                phi = Matrix.identity(GF2, 2).col(i)
                v = Matrix.identity(GF2, 3).col(j)
                assert (phi.T @ (g @ v)) == ((g.T @ phi).T @ v)

    def test_laurent_dual_swaps_parts(self):
        lt = laurent_tate(GF2)
        d = dual_object(lt)
        a, b = materialize(lt, 4), materialize(d, 4)
        assert b.c.dims == a.d.dims
        assert b.d.dims == a.c.dims
        assert b.c.maps[0] == a.d.maps[0].T
        assert b.d.maps[0] == a.c.maps[0].T

    def test_dual_of_zero(self):
        assert dual_object(FinVect(0)) == FinVect(0)

    def test_linmap_transpose(self):
        f = LinMap(FinVect(2), FinVect(3), M(GF5, [[1, 2], [3, 4], [0, 1]]))
        d = dual_object(f)
        assert d.src.dim == 3 and d.dst.dim == 2
        assert d.mat == f.mat.T

    def test_contravariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b, c = (int(x) for x in rng.integers(1, 5, size=3))
            F = M(GF5, rng.integers(0, 5, size=(c, b)))
            G = M(GF5, rng.integers(0, 5, size=(b, a)))
            assert (F @ G).T == G.T @ F.T

    def test_invertible_iff_dual_invertible(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            A = M(GF2, rng.integers(0, 2, size=(n, n)))
            assert is_invertible(A) == is_invertible(A.T)


class TestBidualCheck:
    def test_power_series(self):
        rep = bidual_check(power_series_tower(GF2), 6)
        assert rep.ok and len(rep.witness.pairings) == 6

    def test_laurent(self):
        assert bidual_check(laurent_tate(GF2), 4).ok

    def test_identity_pairings_not_ranked(self, monkeypatch):
        # every pairing of the witness is an identity, so nothing is
        # eliminated: the check compares the prefixes and builds them
        X = rand_tate(np.random.default_rng(0), GF2, depth=6)
        calls = []
        real = exactla.rref
        for module in (exactla, duality, spaces):
            monkeypatch.setattr(module, "rref", lambda A: calls.append(A.shape) or real(A))
        rep = bidual_check(X, 6)
        assert rep.ok and len(rep.witness.pairings) == 12
        assert calls == []

    def test_finvect(self):
        assert bidual_check(FinVect(3), 1).ok

    def test_indlc(self):
        obj = IndLCObj.from_list(GF2, [power_series_tower(GF2), constant_tower(GF2, 2)])
        assert bidual_check(obj, 3).ok

    def test_random_objects_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            t = random_tower(GF5, rng)
            assert bidual_check(t, 4).ok
            i = random_indtower(GF2, rng)
            assert bidual_check(i, 4).ok
            assert bidual_check(TateObj(t, random_indtower(GF5, rng)), 4).ok

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(1, 5),
        st.lists(st.integers(0, 5), min_size=2, max_size=5),
        st.integers(0, 10**9),
    )
    def test_involution_property(self, p, depth, dims, seed):
        field = FieldSpec(p)
        rng = np.random.default_rng(seed)
        depth = min(depth, len(dims))
        maps = [
            Matrix(field, rng.integers(0, p, size=(dims[i], dims[i + 1])))
            for i in range(len(dims) - 1)
        ]
        t = Tower.from_prefix(field, dims, maps)
        assert bidual_check(t, depth).ok


def laurent_window():
    # basis (t^-2, t^-1, 1, t); flags span{1,t} > span{t} > 0
    U1 = M(GF2, [[0, 0], [0, 0], [1, 0], [0, 1]])
    U2 = M(GF2, [[0], [0], [0], [1]])
    return FilteredSpace(GF2, 4, [U1, U2, Matrix.zeros(GF2, 4, 0)])


class TestSelfDualDecompose:
    def test_residue_pairing_window(self):
        V = laurent_window()
        # residue pairing <t^a, t^b> = delta(a+b, -1): antidiagonal
        phi = M(GF2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
        L = M(GF2, [[0, 0], [0, 0], [1, 0], [0, 1]])
        out = self_dual_decompose(V, phi, L)
        assert spans_equal(out.K, L)
        negative = M(GF2, [[1, 0], [0, 1], [0, 0], [0, 0]])
        assert spans_equal(out.D, negative)
        assert out.F.cols == 0
        assert is_invertible(out.change_of_basis)
        assert is_invertible(out.iso)

    def test_canonical_pairing_recovers_planted(self):
        d = 2
        field = GF5
        phi = Matrix(field, np.block([
            [np.zeros((d, d), dtype=np.int64), np.eye(d, dtype=np.int64)],
            [np.eye(d, dtype=np.int64), np.zeros((d, d), dtype=np.int64)],
        ]))
        Lcols = np.zeros((2 * d, d), dtype=np.int64)
        for i in range(d):
            Lcols[d + i, i] = 1
        L = Matrix(field, Lcols)
        V = FilteredSpace(field, 2 * d, [L, Matrix.zeros(field, 2 * d, 0)])
        out = self_dual_decompose(V, phi, L)
        planted_D = Matrix(field, np.vstack([np.eye(d, dtype=np.int64), np.zeros((d, d), dtype=np.int64)]))
        assert spans_equal(out.K, L)
        assert spans_equal(out.D, planted_D)

    def test_two_dim_hand_computation(self):
        V = FilteredSpace(GF2, 2, [M(GF2, [[1], [0]]), Matrix.zeros(GF2, 2, 0)])
        phi = M(GF2, [[0, 1], [1, 0]])
        L = M(GF2, [[1], [0]])
        out = self_dual_decompose(V, phi, L)
        assert out.K == M(GF2, [[1], [0]])
        assert out.D == M(GF2, [[0], [1]])

    def test_rejects_singular_pairing(self):
        V = laurent_window()
        with pytest.raises(ValueError):
            self_dual_decompose(V, Matrix.zeros(GF2, 4, 4), V.flags[0])

    def test_rejects_non_lattice(self):
        V = laurent_window()
        phi = Matrix.identity(GF2, 4)
        notL = M(GF2, [[1], [0], [0], [0]])
        with pytest.raises(ValueError):
            self_dual_decompose(V, phi, notL)

    def test_seven_eliminations(self, monkeypatch):
        # inverse(phi), the lattice check's first flag, kernel(L^T), the
        # intersection's kernel, the completion of K, kernel(K^T), rref([K | P])
        calls = []
        real = exactla.rref
        for module in (exactla, duality, spaces):
            monkeypatch.setattr(module, "rref", lambda X: calls.append(X.shape) or real(X))
        for p in (2, 5, 65521):
            rng = np.random.default_rng(p)
            for _ in range(20):
                planted = rand_selfdual(rng, FieldSpec(p))
                calls.clear()
                self_dual_decompose(planted.space, planted.pairing, planted.lattice)
                assert len(calls) == 7


def cubic_window():
    # k[t]/t^3 in monomial basis (1, t, t^2); flags span{t,t^2} > span{t^2} > 0
    U1 = M(GF2, [[0, 0], [1, 0], [0, 1]])
    U2 = M(GF2, [[0], [0], [1]])
    return FilteredSpace(GF2, 3, [U1, U2, Matrix.zeros(GF2, 3, 0)])


class TestExtendFunctional:
    def test_worked_instance(self):
        B = cubic_window()
        A = M(GF2, [[1], [1], [0]])  # span{1 + t}
        f = M(GF2, [[1]])
        g = extend_functional(B, A, f, 3)
        # the greedy complement of A's class is spanned by {1, t^2}, so the
        # extension vanishes there and g(t) = 1 in monomial coordinates
        assert g == M(GF2, [[0, 1, 0]])
        assert g @ A == f

    def test_zero_functional(self):
        B = cubic_window()
        A = M(GF2, [[1], [1], [0]])
        g = extend_functional(B, A, Matrix.zeros(GF2, 1, 1), 1)
        assert g.is_zero()

    def test_identity_extension(self):
        B = cubic_window()
        A = Matrix.identity(GF2, 3)
        f = M(GF2, [[1, 0, 1]])
        assert extend_functional(B, A, f, 3) == f

    def test_rejects_bad_witness(self):
        B = cubic_window()
        A = M(GF2, [[0, 0], [1, 0], [0, 1]])  # span{t, t^2} = U_1
        f = M(GF2, [[1, 0]])  # does not kill A meet U_1 = A
        with pytest.raises(ValueError):
            extend_functional(B, A, f, 1)

    def test_random_extensions(self):
        rng = np.random.default_rng(12)
        field = GF5
        for _ in range(40):
            n = int(rng.integers(1, 7))
            nested = sorted({int(x) for x in rng.integers(0, n + 1, size=2)}, reverse=True)
            base = image_basis(Matrix(field, rng.integers(0, 5, size=(n, n))))
            flags = [base.take_cols(range(min(d, base.cols))) for d in nested]
            flags.append(Matrix.zeros(field, n, 0))
            F = FilteredSpace(field, n, flags)
            A = image_basis(Matrix(field, rng.integers(0, 5, size=(n, int(rng.integers(1, n + 1))))))
            k = int(rng.integers(1, len(F.flags) + 1))
            from tatevec.exactla import intersect_columns, kernel_basis, solve_linear

            meet = intersect_columns(A, F.flags[k - 1])
            # a functional on A that kills the meet
            coords = solve_linear(A, meet)
            ann = kernel_basis(coords.T).T if meet.cols else Matrix.identity(field, A.cols)
            if ann.rows == 0:
                continue
            weights = Matrix(field, rng.integers(0, 5, size=(1, ann.rows)))
            f = weights @ ann
            g = extend_functional(F, A, f, k)
            assert g @ A == f
            Uk = F.flags[k - 1]
            assert not Uk.cols or (g @ Uk).is_zero()

    def test_rref_calls(self, monkeypatch):
        # rank(A), the completion of U_k and one rref of [qcoord A | I];
        # at the zero flag B/U_k = B needs no completion
        calls = []
        real = exactla.rref
        for module in (exactla, duality, splitting):
            monkeypatch.setattr(module, "rref", lambda X: calls.append(X.shape) or real(X))
        B = cubic_window()
        A = M(GF2, [[1], [1], [0]])
        for k, f, want in ((1, Matrix.zeros(GF2, 1, 1), 3), (2, M(GF2, [[1]]), 3), (3, M(GF2, [[1]]), 2)):
            calls.clear()
            g = extend_functional(B, A, f, k)
            assert g @ A == f and len(calls) == want


class TestEvWitness:
    def test_laurent(self):
        w = ev_witness(laurent_tate(GF2), 3)
        assert w.U.shape == (6, 3)
        assert w.checked

    def test_finvect_as_tate(self):
        w = ev_witness(tate_from_finvect(GF2, FinVect(2)), 2)
        assert w.U.cols == 2 and w.U.rows == 2

    def test_purely_discrete(self):
        t = TateObj(constant_tower(GF2, 0), polynomial_indtower(GF2))
        w = ev_witness(t, 3)
        assert w.U.cols == 0
