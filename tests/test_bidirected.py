import numpy as np
import pytest

from tatevec.bidirected import (
    BidirectedGrid,
    GridValidationError,
    PairingEntry,
    PairingFamily,
    SESWitness,
    assemble_pairing,
    chain_colimit,
    chain_limit,
    check_pd_intertwine,
    check_split,
    dual_grid,
    grid_decomposition,
    kappa_check,
    split_grid,
    validate_grid,
)
from tatevec.duality import dual_object
from tatevec.exactla import FieldSpec, Matrix, is_invertible, rank
from tatevec.generators import rand_grid, rand_pairings
from tatevec.spaces import materialize

GF2 = FieldSpec(2)
GF5 = FieldSpec(5)


def M(field, data):
    return Matrix(field, data)


def tiny_grid():
    # 1x1 grid: V = k, W = k, cell = k^2 with inj = e1, surj = second coord
    field = GF2
    G = BidirectedGrid(field, [[2]], [[]], [])
    W = SESWitness(
        Vdims=[1],
        Vmaps=[],
        Wdims=[1],
        Wmaps=[],
        inj=[[M(field, [[1], [0]])]],
        surj=[[M(field, [[0, 1]])]],
    )
    return G, W


class TestValidateGrid:
    def test_planted_grid_passes(self):
        rng = np.random.default_rng(1)
        planted = rand_grid(rng, GF2, m=3, n=3)
        assert validate_grid(planted.grid, planted.witness).ok

    def test_corrupted_square_is_named(self):
        rng = np.random.default_rng(2)
        planted = rand_grid(rng, GF5, m=2, n=2, max_part=2, constant_systems=True)
        G = planted.grid
        corrupted = G.right[0][0].data.copy()
        corrupted[0, 0] = (corrupted[0, 0] + 1) % 5
        G2 = BidirectedGrid(GF5, G.dims, [[Matrix(GF5, corrupted)], G.right[1]], G.up)
        rep = validate_grid(G2, planted.witness)
        assert not rep.ok
        assert any("(1,1)" in v for v in rep.violations)

    def test_1x1_vacuous_squares(self):
        G, W = tiny_grid()
        assert validate_grid(G).ok
        assert validate_grid(G, W).ok


class TestSplitGrid:
    def test_1x1_deterministic(self):
        G, W = tiny_grid()
        B = split_grid(G, W).basis[0][0]
        assert is_invertible(B)
        assert B @ W.inj[0][0] == M(GF2, [[1], [0]])

    def test_scramble_and_recover_2x2(self):
        rng = np.random.default_rng(7)
        planted = rand_grid(rng, GF2, m=2, n=2)
        S = split_grid(planted.grid, planted.witness)
        assert check_split(planted.grid, planted.witness, S.basis, S.inverse) == S

    def test_inclusion_V_trivial_W(self):
        # V dims (1,2) with inclusion, W = 0: right maps become the inclusion
        field = GF2
        inc = M(field, [[1], [0]])
        G = BidirectedGrid(field, [[1, 2]], [[inc]], [])
        W = SESWitness(
            Vdims=[1, 2],
            Vmaps=[inc],
            Wdims=[0],
            Wmaps=[],
            inj=[[Matrix.identity(field, 1), Matrix.identity(field, 2)]],
            surj=[[Matrix.zeros(field, 0, 1), Matrix.zeros(field, 0, 2)]],
        )
        S = split_grid(G, W)
        from tatevec.exactla import inverse

        got = S.basis[0][1] @ G.right[0][0] @ inverse(S.basis[0][0])
        assert got == inc

    def test_tampered_inverse_cell_is_named(self):
        rng = np.random.default_rng(7)
        planted = rand_grid(rng, GF5, m=2, n=3, max_part=2, constant_systems=True)
        S = split_grid(planted.grid, planted.witness)
        inverse = [list(row) for row in S.inverse]
        bad = inverse[1][2].data.copy()
        bad[0, 0] = (bad[0, 0] + 1) % 5
        inverse[1][2] = Matrix(GF5, bad)
        with pytest.raises(AssertionError, match=r"^split check failed: inverse wrong at \(2,3\)$"):
            check_split(planted.grid, planted.witness, S.basis, inverse)

    def test_invalid_grid_raises_with_report(self):
        rng = np.random.default_rng(2)
        planted = rand_grid(rng, GF5, m=2, n=2, max_part=2, constant_systems=True)
        G = planted.grid
        corrupted = G.right[0][0].data.copy()
        corrupted[0, 0] = (corrupted[0, 0] + 1) % 5
        G2 = BidirectedGrid(GF5, G.dims, [[Matrix(GF5, corrupted)], G.right[1]], G.up)
        with pytest.raises(GridValidationError) as err:
            split_grid(G2, planted.witness)
        assert err.value.report == validate_grid(G2, planted.witness)
        assert not err.value.report.ok

    def test_many_random_grids(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            field = GF2 if trial % 2 == 0 else GF5
            planted = rand_grid(rng, field)
            S = split_grid(planted.grid, planted.witness)
            assert check_split(planted.grid, planted.witness, S.basis, S.inverse) == S


class TestDecomposition:
    def test_profiles_and_opens(self):
        rng = np.random.default_rng(13)
        planted = rand_grid(rng, GF2, m=2, n=2)
        dec = grid_decomposition(split_grid(planted.grid, planted.witness))
        cpre = materialize(dec.tate.cLattice, planted.grid.m)
        dpre = materialize(dec.tate.dLattice, planted.grid.n)
        assert cpre.dims == planted.Wdims
        assert dpre.dims == planted.Vdims
        sizes = [u.cols for u in dec.opens]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == planted.Wdims[-1]  # the whole compact block
        for U, proj in zip(dec.opens, dec.pi):
            assert (proj @ U).is_zero()
            assert U.cols == U.rows - rank(proj)

    def test_purely_discrete_grid(self):
        rng = np.random.default_rng(17)
        field = GF2
        inc = M(field, [[1], [0]])
        G = BidirectedGrid(field, [[1, 2]], [[inc]], [])
        W = SESWitness(
            Vdims=[1, 2],
            Vmaps=[inc],
            Wdims=[0],
            Wmaps=[],
            inj=[[Matrix.identity(field, 1), Matrix.identity(field, 2)]],
            surj=[[Matrix.zeros(field, 0, 1), Matrix.zeros(field, 0, 2)]],
        )
        dec = grid_decomposition(split_grid(G, W))
        assert all(u.cols == 0 for u in dec.opens)

    def test_purely_compact_grid(self):
        field = GF2
        proj = M(field, [[1, 0]])  # W_2 -> W_1 drops a coordinate
        G = BidirectedGrid(field, [[1], [2]], [[], []], [[proj]])
        W = SESWitness(
            Vdims=[0],
            Vmaps=[],
            Wdims=[1, 2],
            Wmaps=[proj],
            inj=[[Matrix.zeros(field, 1, 0)], [Matrix.zeros(field, 2, 0)]],
            surj=[[Matrix.identity(field, 1)], [Matrix.identity(field, 2)]],
        )
        dec = grid_decomposition(split_grid(G, W))
        # the first open is the whole compact window
        assert dec.opens[0].cols == W.Wdims[-1] == 2


class TestChainHelpers:
    def test_limit_of_chain_is_deepest(self):
        rng = np.random.default_rng(19)
        dims = [2, 3, 3]
        maps = [Matrix(GF5, rng.integers(0, 5, size=(2, 3))), Matrix.identity(GF5, 3)]
        lim = chain_limit(GF5, dims, maps)
        assert lim.basis.cols == 3
        # projections are compatible with the chain
        assert lim.projections[0] == maps[0] @ lim.projections[1]

    def test_colimit_of_chain_is_last(self):
        rng = np.random.default_rng(20)
        dims = [3, 2]
        maps = [Matrix(GF5, rng.integers(0, 5, size=(2, 3)))]
        col = chain_colimit(GF5, dims, maps)
        assert col.reps.cols == 2
        assert col.injections[0] == col.injections[1] @ maps[0]


class TestKappa:
    def test_identity_on_random_grids(self):
        rng = np.random.default_rng(23)
        for trial in range(15):
            field = GF2 if trial % 2 == 0 else GF5
            planted = rand_grid(rng, field, m=int(rng.integers(1, 4)), n=int(rng.integers(1, 4)))
            cert = kappa_check(split_grid(planted.grid, planted.witness))
            assert cert.ok
            assert is_invertible(cert.matrix)

    def test_1x1(self):
        G, W = tiny_grid()
        cert = kappa_check(split_grid(G, W))
        assert cert.ok


class TestDualGrid:
    def test_double_dual_is_identity(self):
        rng = np.random.default_rng(29)
        planted = rand_grid(rng, GF2, m=2, n=3)
        out = dual_grid(split_grid(planted.grid, planted.witness))
        back = dual_grid(split_grid(out.grid, out.witness))
        G, B = planted.grid, back.grid
        assert B.dims == G.dims
        for r in range(G.m):
            for c in range(G.n - 1):
                assert B.right[r][c] == G.right[r][c]
        for r in range(G.m - 1):
            for c in range(G.n):
                assert B.up[r][c] == G.up[r][c]

    def test_certificate_holds(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            planted = rand_grid(rng, GF5, m=2, n=2, max_part=3)
            out = dual_grid(split_grid(planted.grid, planted.witness))
            assert out.certificate_ok

    def test_decomposition_duality_levelwise(self):
        rng = np.random.default_rng(37)
        planted = rand_grid(rng, GF2, m=3, n=2)
        G, W = planted.grid, planted.witness
        out = dual_grid(split_grid(G, W))
        dec = grid_decomposition(split_grid(G, W))
        dec2 = grid_decomposition(split_grid(out.grid, out.witness))
        want = dual_object(dec.tate)
        got_c = materialize(dec2.tate.cLattice, G.n)
        want_c = materialize(want.cLattice, G.n)
        assert got_c.dims == want_c.dims and got_c.maps == want_c.maps
        got_d = materialize(dec2.tate.dLattice, G.m)
        want_d = materialize(want.dLattice, G.m)
        assert got_d.dims == want_d.dims and got_d.maps == want_d.maps


class TestPairings:
    def test_zero_family_passes(self):
        rng = np.random.default_rng(41)
        planted = rand_grid(rng, GF2, m=2, n=2, constant_systems=True)
        S = split_grid(planted.grid, planted.witness)
        d = planted.grid.dims[0][0]
        entries = [
            [PairingEntry((r, c), Matrix.zeros(GF2, d, d * d)) for c in range(2)]
            for r in range(2)
        ]
        out = assemble_pairing(S, PairingFamily("product", entries))
        assert out.ok
        assert all(lvl.matrix.is_zero() for lvl in out.induced)

    def test_1x1_unital_multiplication(self):
        field = GF2
        G = BidirectedGrid(field, [[1]], [[]], [])
        W = SESWitness(
            Vdims=[0],
            Vmaps=[],
            Wdims=[1],
            Wmaps=[],
            inj=[[Matrix.zeros(field, 1, 0)]],
            surj=[[Matrix.identity(field, 1)]],
        )
        mu = PairingFamily("product", [[PairingEntry((0, 0), M(field, [[1]]))]])
        out = assemble_pairing(split_grid(G, W), mu)
        assert out.ok and out.induced[0].matrix == M(field, [[1]])

    def test_plant_and_recover(self):
        rng = np.random.default_rng(43)
        fx = rand_pairings(rng, GF2, m=2, n=2)
        planted_split = fx.planted.planted_split
        out = assemble_pairing(planted_split, fx.mu)
        assert out.ok and not out.violations
        v = fx.planted.Vdims[0]
        d = v + fx.planted.Wdims[0]
        idx = [i * d + j for i in range(v, d) for j in range(v, d)]
        want = Matrix(GF2, fx.mu_hat.data[v:, :].take(idx, axis=1))
        for lvl in out.induced:
            assert lvl.matrix == want

        cout = assemble_pairing(planted_split, fx.lam)
        assert cout.ok
        tgt = [i * d + j for i in range(v) for j in range(v)]
        want_c = Matrix(GF2, fx.lam_hat.data.take(tgt, axis=0)[:, :v])
        for lvl in cout.induced:
            assert lvl.matrix == want_c

    def test_pd_intertwine_and_corruption(self):
        rng = np.random.default_rng(47)
        fx = rand_pairings(rng, GF5, m=2, n=2)
        split = fx.planted.planted_split
        rep = check_pd_intertwine(split, fx.mu, fx.lam, fx.pd)
        assert rep.ok and rep.checked == 4

        # corrupt one entry of one window: the offending cell must be named
        r, c = 1, 0
        bad = fx.mu.at(r, c).matrix.data.copy()
        bad[0, 0] = (bad[0, 0] + 1) % 5
        entries = [
            [
                PairingEntry((rr, cc), Matrix(GF5, bad) if (rr, cc) == (r, c) else fx.mu.at(rr, cc).matrix)
                for cc in range(2)
            ]
            for rr in range(2)
        ]
        mu_bad = PairingFamily("product", entries)
        rep2 = check_pd_intertwine(split, mu_bad, fx.lam, fx.pd)
        assert not rep2.ok
        assert any(f"({r + 1},{c + 1})" in v for v in rep2.violations)
