import copy
import itertools
import pickle

import numpy as np
import pytest

from tatevec import bidirected, exactla
from tatevec.bidirected import (
    BidirectedGrid,
    GridReport,
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
    dual_grid_check,
    exchange_normal_form,
    grid_decomposition,
    kappa_check,
    split_grid,
    validate_grid,
)
from tatevec.duality import dual_object
from tatevec.exactla import (
    FieldSpec,
    Matrix,
    block_diag,
    extend_basis,
    hstack,
    image_basis,
    inverse,
    is_invertible,
    kernel_basis,
    rank,
    solve_linear,
    vstack,
)
from tatevec.generators import rand_grid, rand_invertible, rand_matrix, rand_pairings
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


def corrupted_square():
    # a 2x2 grid whose square at (1,1) no longer commutes, with its witness
    rng = np.random.default_rng(2)
    planted = rand_grid(rng, GF5, m=2, n=2, max_part=2, constant_systems=True)
    G = planted.grid
    corrupted = G.right[0][0].data.copy()
    corrupted[0, 0] = (corrupted[0, 0] + 1) % 5
    return BidirectedGrid(GF5, G.dims, [[Matrix(GF5, corrupted)], G.right[1]], G.up), planted.witness


class TestValidateGrid:
    def test_planted_grid_passes(self):
        rng = np.random.default_rng(1)
        planted = rand_grid(rng, GF2, m=3, n=3)
        assert validate_grid(planted.grid, planted.witness).ok

    def test_corrupted_square_is_named(self):
        rep = validate_grid(*corrupted_square())
        assert not rep.ok
        assert any("(1,1)" in v for v in rep.violations)

    def test_1x1_vacuous_squares(self):
        G, W = tiny_grid()
        assert validate_grid(G, W).ok

    def test_witness_of_another_table_shape(self):
        G = rand_grid(np.random.default_rng(3), GF5, m=2, n=2).grid
        W = rand_grid(np.random.default_rng(3), GF5, m=2, n=3).witness
        with pytest.raises(exactla.ShapeMismatchError, match=r"^a \(2, 3\) witness of a \(2, 2\) grid$"):
            validate_grid(G, W)

    def test_identities_are_products_of_stacks(self, monkeypatch):
        # every identity of validate_grid and check_split is a product of
        # stacks over all cells, and validate_grid completes and inverts the
        # cells in two stacked eliminations, not two per cell
        planted = rand_grid(np.random.default_rng(0), FieldSpec(65521), m=4, n=4)
        G, W = planted.grid, planted.witness
        S = split_grid(G, W)
        calls = {"matmul": 0, "elimination": 0}

        def counted(kind, real):
            def call(*args):
                calls[kind] += 1
                return real(*args)

            return call

        monkeypatch.setattr(Matrix, "__matmul__", counted("matmul", Matrix.__matmul__))
        for name, real in [(name, getattr(exactla, name)) for name in ("rref", "rref_stack")]:
            for module in (exactla, bidirected):
                monkeypatch.setattr(module, name, counted("elimination", real))
        assert validate_grid(G, W).ok
        assert calls["matmul"] == 0 and calls["elimination"] <= 2
        calls.update(matmul=0, elimination=0)
        again = check_split(G, W, S.basis, S.inverse)
        assert (again.basis, again.inverse) == (S.basis, S.inverse)
        assert calls == {"matmul": 0, "elimination": 0}


class TestCheckingConstructors:
    """The shape checks of the public constructors, which library callers
    reach and the generators and the parser do not."""

    def test_ragged_grid(self):
        with pytest.raises(ValueError, match="^ragged grid$"):
            BidirectedGrid(GF2, [[1, 1], [1]], [[Matrix.zeros(GF2, 1, 1)], []], [[Matrix.zeros(GF2, 1, 1)]])

    def test_grid_map_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^up map at \(1,2\) has the wrong shape$"):
            # the up map into (1,2) must be 2 x 2
            BidirectedGrid(GF2, [[1, 2], [1, 2]], [[M(GF2, [[1], [0]])]] * 2, [[Matrix.identity(GF2, 1)] * 2])

    def test_dimension_past_int64_fits_no_map(self):
        # a dimension of 2^63 or more reads as -1, which no map's shape equals
        with pytest.raises(ValueError, match=r"^right map at \(1,1\) has the wrong shape$"):
            BidirectedGrid(GF2, [[1, 2**63]], [[Matrix.zeros(GF2, 1, 1)]], [])

    def test_witness_needs_a_cell(self):
        with pytest.raises(ValueError, match="^a witness needs at least one cell$"):
            SESWitness([], [], [1], [], [[]], [[]])

    def test_witness_V_map_of_the_wrong_shape(self):
        inj = [[M(GF2, [[1], [0]]), M(GF2, [[1, 0], [0, 1], [0, 0]])]]
        surj = [[M(GF2, [[0, 1]]), M(GF2, [[0, 0, 1]])]]
        with pytest.raises(ValueError, match="^V map 1 has the wrong shape$"):
            SESWitness([1, 2], [Matrix.identity(GF2, 1)], [1], [], inj, surj)


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
        again = check_split(planted.grid, planted.witness, S.basis, S.inverse)
        assert (again.basis, again.inverse) == (S.basis, S.inverse)

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

    @pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["copy", "deepcopy", "pickle"])
    def test_copies_and_pickles_are_equal_and_read_only(self, dup):
        planted = rand_grid(np.random.default_rng(7), GF5, m=2, n=3)
        S = split_grid(planted.grid, planted.witness)
        S.basis  # cached views are copied along
        again = dup(S)
        assert (again.basis, again.inverse) == (S.basis, S.inverse)
        assert (again.grid.right, again.witness.inj) == (S.grid.right, S.witness.inj)
        stacks = (again.basis_stack, again.inverse_stack, again.grid.up_stack, again.witness.surj_stack)
        assert not any(P.flags.writeable for X in stacks for P in X.parts)
        assert not any(B.data.flags.writeable for row in again.basis for B in row)
        check_split(again.grid, again.witness, again.basis, again.inverse)

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
        G, W = corrupted_square()
        with pytest.raises(GridValidationError) as err:
            split_grid(G, W)
        assert err.value.report == validate_grid(G, W)
        assert not err.value.report.ok

    def test_many_random_grids(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            field = GF2 if trial % 2 == 0 else GF5
            planted = rand_grid(rng, field)
            S = split_grid(planted.grid, planted.witness)
            again = check_split(planted.grid, planted.witness, S.basis, S.inverse)
            assert (again.basis, again.inverse) == (S.basis, S.inverse)


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


    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_one_kernel_basis_per_cutoff_after_the_first(self, monkeypatch, m):
        # the first cutoff's open subspace is all of W_m, so its basis is
        # the identity below V_n and needs no elimination
        planted = rand_grid(np.random.default_rng(m), FieldSpec(65521), m=m, n=3)
        S = split_grid(planted.grid, planted.witness)
        real, shapes = bidirected.kernel_basis, []
        monkeypatch.setattr(bidirected, "kernel_basis", lambda A: shapes.append(A.shape) or real(A))
        dec = grid_decomposition(S)
        v_n, w_m = planted.Vdims[-1], planted.Wdims[-1]
        assert shapes == [(w, w_m) for w in planted.Wdims[:-1]]
        assert dec.opens[0] == vstack([Matrix.zeros(S.grid.field, v_n, w_m), Matrix.identity(S.grid.field, w_m)])
        for U, U_grid, proj in zip(dec.opens, dec.opens_grid, dec.pi):
            assert U_grid == S.inverse[-1][-1] @ U
            assert (proj @ U).is_zero() and U.cols == U.rows - rank(proj)


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
        out = dual_grid(planted.grid, planted.witness)
        back = dual_grid(out.grid, out.witness)
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
            out = dual_grid(planted.grid, planted.witness)
            assert out.certificate_ok and dual_grid_check(planted.witness, out.witness)

    def test_decomposition_duality_levelwise(self):
        rng = np.random.default_rng(37)
        planted = rand_grid(rng, GF2, m=3, n=2)
        G, W = planted.grid, planted.witness
        out = dual_grid(G, W)
        dec = grid_decomposition(split_grid(G, W))
        dec2 = grid_decomposition(split_grid(out.grid, out.witness))
        want = dual_object(dec.tate)
        got_c = materialize(dec2.tate.cLattice, G.n)
        want_c = materialize(want.cLattice, G.n)
        assert got_c.dims == want_c.dims and got_c.maps == want_c.maps
        got_d = materialize(dec2.tate.dLattice, G.m)
        want_d = materialize(want.dLattice, G.m)
        assert got_d.dims == want_d.dims and got_d.maps == want_d.maps

    def test_invalid_grid_raises_with_report(self):
        G, W = corrupted_square()
        with pytest.raises(GridValidationError) as err:
            dual_grid(G, W)
        assert err.value.report == validate_grid(G, W)
        assert not err.value.report.ok


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

    def test_level_without_an_in_grid_window_is_skipped(self):
        # row 1 records no window and row 2's are kept: only level 2 is induced
        fx = rand_pairings(np.random.default_rng(43), GF2, m=2, n=2)
        entries = [[None, None], [fx.mu.at(1, 0), fx.mu.at(1, 1)]]
        out = assemble_pairing(fx.planted.planted_split, PairingFamily("product", entries))
        full = assemble_pairing(fx.planted.planted_split, fx.mu)
        assert out.ok and out.skipped == ("cell (1,1): no window recorded", "cell (1,2): no window recorded")
        assert [lvl.index for lvl in out.induced] == [2]
        assert out.induced[0] == full.induced[1]

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

    def test_pd_intertwine_skips_misshapen_windows(self):
        fx = rand_pairings(np.random.default_rng(0), GF2, m=2, n=3)
        split = fx.planted.planted_split
        planted = check_pd_intertwine(split, fx.mu, fx.lam, fx.pd)
        assert planted.ok
        # the product window at (1,2) one column short; the coproduct window at its target is kept
        e = fx.mu.at(0, 1)
        assert fx.lam.at(*e.target) is not None
        entries = [list(row) for row in fx.mu.entries]
        entries[0][1] = PairingEntry(e.target, Matrix(GF2, e.matrix.data[:, 1:]))
        rep = check_pd_intertwine(split, PairingFamily("product", entries), fx.lam, fx.pd)
        assert rep.ok and rep.checked == planted.checked - 1
        assert rep.skipped == planted.skipped + ("cell (1,2): window shapes do not line up under reflection",)
        # a witness matrix of the wrong shape is reported, and its cells are not multiplied
        f = [list(row) for row in fx.pd.f]
        f[0][1] = Matrix(GF2, f[0][1].data[:, 1:])
        rep = check_pd_intertwine(split, fx.mu, fx.lam, bidirected.GridDualityWitness(f, fx.pd.g))
        assert rep.violations == ("duality witness at (1,2) is not an isomorphism pair",)


# ---------------------------------------------------------------------------
# Exact references: the elimination-based implementations that the closed
# forms and the shared eliminations replace.  The library must agree with
# them byte for byte.
# ---------------------------------------------------------------------------

FIELDS = [FieldSpec(p) for p in (2, 5, 101, 65521)]
LARGEST_PRIME = 3037000493  # the largest p with (p-1)^2 + (p-1) < 2^63
# the grid references also run at the largest prime, where every product
# with an inner dimension of 2 or more must fall back to Python ints
GRID_FIELDS = FIELDS + [FieldSpec(LARGEST_PRIME)]


def ref_chain_limit(field, dims, maps):
    """Limit as the canonical kernel basis of [I -f_1 0 ...; 0 I -f_2 ...]."""
    total, k = sum(dims), len(dims)
    if k == 1:
        basis = Matrix.identity(field, total)
    else:
        rows = []
        for i in range(k - 1):
            blocks = []
            for j in range(k):
                if j == i:
                    blocks.append(Matrix.identity(field, dims[i]))
                elif j == i + 1:
                    blocks.append(-maps[i])
                else:
                    blocks.append(Matrix.zeros(field, dims[i], dims[j]))
            rows.append(hstack(blocks))
        basis = kernel_basis(vstack(rows))
    offs = np.cumsum([0] + dims)
    projections = tuple(Matrix(field, basis.data[offs[i] : offs[i + 1]]) for i in range(k))
    return basis, projections


def ref_chain_colimit(field, dims, maps):
    """Colimit as the greedy completion of the relation columns in the block sum."""
    total, k = sum(dims), len(dims)
    offs = np.cumsum([0] + dims).tolist()
    if k == 1 or total == 0:
        rel = Matrix.zeros(field, total, 0)
    else:
        cols = []
        for i in range(k - 1):
            block = np.zeros((total, dims[i]), dtype=np.int64)
            block[offs[i] : offs[i + 1], :] = np.eye(dims[i], dtype=np.int64)
            block[offs[i + 1] : offs[i + 2], :] = (-maps[i]).data
            cols.append(Matrix(field, block))
        rel = hstack(cols)
    reps, _, classes = extend_basis(image_basis(rel), total)
    injections = []
    for i in range(k):
        block = np.zeros((total, dims[i]), dtype=np.int64)
        block[offs[i] : offs[i + 1], :] = np.eye(dims[i], dtype=np.int64)
        injections.append(classes @ Matrix(field, block))
    return classes, reps, tuple(injections), rel


def ref_validate_grid(G, W):
    """Validation with a separate rank of inj and of surj per cell."""
    bad = []
    for r in range(G.m - 1):
        for c in range(G.n - 1):
            if G.up[r][c + 1] @ G.right[r + 1][c] != G.right[r][c] @ G.up[r][c]:
                bad.append(f"square at ({r + 1},{c + 1}) does not commute")
    misshapen = False
    for r in range(G.m):
        for c in range(G.n):
            inj, surj = W.inj[r][c], W.surj[r][c]
            cell = f"({r + 1},{c + 1})"
            if inj.shape != (G.dims[r][c], W.Vdims[c]) or surj.shape != (W.Wdims[r], G.dims[r][c]):
                bad.append(f"witness shapes wrong at {cell}")
                misshapen = True
                continue
            if rank(inj) != W.Vdims[c]:
                bad.append(f"inclusion not injective at {cell}")
            if rank(surj) != W.Wdims[r]:
                bad.append(f"projection not surjective at {cell}")
            if not (surj @ inj).is_zero():
                bad.append(f"composite V -> W nonzero at {cell}")
            if W.Vdims[c] + W.Wdims[r] != G.dims[r][c]:
                bad.append(f"cell dimension is not |V|+|W| at {cell}")
    if misshapen:
        return GridReport(False, tuple(bad))
    for r in range(G.m):
        for c in range(G.n - 1):
            if G.right[r][c] @ W.inj[r][c] != W.inj[r][c + 1] @ W.Vmaps[c]:
                bad.append(f"inclusion not natural for right map at ({r + 1},{c + 1})")
            if W.surj[r][c + 1] @ G.right[r][c] != W.surj[r][c]:
                bad.append(f"projection not natural for right map at ({r + 1},{c + 1})")
    for r in range(G.m - 1):
        for c in range(G.n):
            if G.up[r][c] @ W.inj[r + 1][c] != W.inj[r][c]:
                bad.append(f"inclusion not natural for up map at ({r + 1},{c + 1})")
            if W.surj[r][c] @ G.up[r][c] != W.Wmaps[r] @ W.surj[r + 1][c]:
                bad.append(f"projection not natural for up map at ({r + 1},{c + 1})")
    return GridReport(not bad, tuple(bad))


def ref_split_grid(G, W):
    """Split by eliminating every cell afresh, after the reference validation."""
    assert ref_validate_grid(G, W).ok
    field = G.field

    def upper(v, w, off):
        out = np.eye(v + w, dtype=np.int64)
        out[:v, v:] = off.data
        return Matrix(field, out)

    C = [[None] * G.n for _ in range(G.m)]
    C_inv = [[None] * G.n for _ in range(G.m)]
    for r in range(G.m):
        for c in range(G.n):
            inj, surj = W.inj[r][c], W.surj[r][c]
            E, inj_coords, _ = extend_basis(inj, G.dims[r][c])
            C[r][c] = vstack([inj_coords, surj])
            C_inv[r][c] = hstack([inj, E @ inverse(surj @ E)])

    def correct(r, c, v, w, off):
        C[r][c] = upper(v, w, off) @ C[r][c]
        C_inv[r][c] = C_inv[r][c] @ upper(v, w, -off)

    for c in range(G.n - 1):
        v2, v = W.Vdims[c + 1], W.Vdims[c]
        M = (C[0][c + 1] @ G.right[0][c] @ C_inv[0][c]).data
        correct(0, c + 1, v2, W.Wdims[0], -Matrix(field, M[:v2, v:]))
    for r in range(G.m - 1):
        for c in range(G.n):
            v = W.Vdims[c]
            M = (C[r][c] @ G.up[r][c] @ C_inv[r + 1][c]).data
            correct(r + 1, c, v, W.Wdims[r + 1], Matrix(field, M[:v, v:]))
    return check_split(G, W, C, C_inv)


def ref_dual_grid(G, W):
    """Both the grid and its dual validated and split from scratch, certified
    by comparing the two decompositions."""
    out = dual_grid(G, W)
    G2, W2 = out.grid, out.witness
    dec, dec2 = grid_decomposition(ref_split_grid(G, W)), grid_decomposition(ref_split_grid(G2, W2))
    want = dual_object(dec.tate)
    got_c, want_c = materialize(dec2.tate.cLattice, G.n), materialize(want.cLattice, G.n)
    got_d, want_d = materialize(dec2.tate.dLattice, G.m), materialize(want.dLattice, G.m)
    ok = got_c.dims == want_c.dims and got_c.maps == want_c.maps
    ok = ok and got_d.dims == want_d.dims and got_d.maps == want_d.maps
    detail = "dual decomposition matches dualized decomposition levelwise" if ok else (
        "dual decomposition disagrees with the dualized decomposition"
    )
    return ok, detail


def _rand_chain(rng, field, direct):
    k = int(rng.integers(1, 6))
    dims = [int(d) for d in rng.integers(0, 7, size=k)]
    if direct:  # maps[i]: X_{i+1} -> X_{i+2}
        maps = [Matrix(field, rng.integers(0, field.p, size=(dims[i + 1], dims[i]))) for i in range(k - 1)]
    else:  # maps[i]: X_{i+2} -> X_{i+1}
        maps = [Matrix(field, rng.integers(0, field.p, size=(dims[i], dims[i + 1]))) for i in range(k - 1)]
    return dims, maps


MUTATIONS = ("zero_inj_column", "bump_surj", "nonzero_composite", "wrong_dims", "wide_V", "misshapen")


def _mutate(rng, G, W, kind):
    """A copy of W with one planted defect, or None if the grid has no room for it."""
    field = G.field
    inj = [list(row) for row in W.inj]
    surj = [list(row) for row in W.surj]
    Vdims, Vmaps = list(W.Vdims), list(W.Vmaps)
    r, c = int(rng.integers(0, G.m)), int(rng.integers(0, G.n))
    v, w = W.Vdims[c], W.Wdims[r]
    if kind == "zero_inj_column":
        if v == 0:
            return None
        data = inj[r][c].data.copy()
        data[:, int(rng.integers(0, v))] = 0
        inj[r][c] = Matrix(field, data)
    elif kind == "bump_surj":
        if w == 0:
            return None
        data = surj[r][c].data.copy()
        data[int(rng.integers(0, w)), int(rng.integers(0, G.dims[r][c]))] += 1
        surj[r][c] = Matrix(field, data)
    elif kind == "nonzero_composite":
        if v == 0 or w == 0:
            return None
        # a row of the retraction onto span inj sends some column of inj to 1
        _, inj_coords, _ = extend_basis(inj[r][c], G.dims[r][c])
        data = surj[r][c].data.copy()
        data[int(rng.integers(0, w))] += inj_coords.data[int(rng.integers(0, v))]
        surj[r][c] = Matrix(field, data)
    elif kind == "wrong_dims":
        # drop the last V_c coordinate in every cell of column c, consistently
        if v == 0:
            return None
        Vdims[c] -= 1
        for rr in range(G.m):
            inj[rr][c] = Matrix(field, inj[rr][c].data[:, :-1])
        if c < G.n - 1:
            Vmaps[c] = Matrix(field, Vmaps[c].data[:, :-1])
        if c > 0:
            Vmaps[c - 1] = Matrix(field, Vmaps[c - 1].data[:-1, :])
    elif kind == "wide_V":
        # |W_r| + 1 more V_c coordinates, all sent to 0, so |V_c| > |cell| in
        # every cell of column c of the widest W_r
        extra = max(W.Wdims) + 1
        Vdims[c] += extra
        for rr in range(G.m):
            inj[rr][c] = hstack([inj[rr][c], Matrix.zeros(field, G.dims[rr][c], extra)])
        if c < G.n - 1:
            Vmaps[c] = hstack([Vmaps[c], Matrix.zeros(field, Vdims[c + 1], extra)])
        if c > 0:
            Vmaps[c - 1] = vstack([Vmaps[c - 1], Matrix.zeros(field, extra, Vdims[c - 1])])
    else:  # misshapen: one extra zero column on one inclusion
        inj[r][c] = hstack([inj[r][c], Matrix.zeros(field, G.dims[r][c], 1)])
    return SESWitness(Vdims, Vmaps, list(W.Wdims), list(W.Wmaps), inj, surj)


class TestAgainstReferences:
    def test_chain_limits_and_colimits(self):
        rng = np.random.default_rng(101)
        seen = set()
        for trial in range(640):
            field = FIELDS[trial % 4]
            dims, maps = _rand_chain(rng, field, direct=False)
            lim = chain_limit(field, dims, maps)
            assert (lim.basis, lim.projections) == ref_chain_limit(field, dims, maps)
            dims, maps = _rand_chain(rng, field, direct=True)
            col = chain_colimit(field, dims, maps)
            classes, reps, injections, rel = ref_chain_colimit(field, dims, maps)
            assert (col.classes, col.reps, col.injections) == (classes, reps, injections)
            assert (col.classes @ rel).is_zero()  # the classes identify x with f_i(x)
            seen.add((len(dims), 0 in dims))
        assert {(1, False), (1, True), (5, False), (5, True)} <= seen

    def test_limit_coords_match_solve(self):
        rng = np.random.default_rng(103)
        for trial in range(200):
            field = FIELDS[trial % 4]
            dims, maps = _rand_chain(rng, field, direct=False)
            lim = chain_limit(field, dims, maps)
            cols = int(rng.integers(0, 4))
            inside = lim.basis @ Matrix(field, rng.integers(0, field.p, size=(lim.basis.cols, cols)))
            anywhere = Matrix(field, rng.integers(0, field.p, size=(lim.basis.rows, cols)))
            for X in (inside, anywhere):
                assert lim.coords(X) == solve_linear(lim.basis, X)
            assert lim.coords(inside) is not None

    @pytest.mark.parametrize("field", GRID_FIELDS, ids=lambda f: f"p{f.p}")
    def test_planted_maps_are_conjugated_split_forms(self, field):
        # rand_grid's maps, products of stacks, against one product per cell:
        # S blockdiag(V-transition, I) S^-1 and S blockdiag(I, W-transition) S^-1
        rng = np.random.default_rng(field.p % 1000)
        for trial in range(12):
            P = rand_grid(rng, field, max_part=3, constant_systems=trial % 3 == 0)
            G, W, S, S_inv = P.grid, P.witness, P.scramble, P.scramble_inv
            for r in range(G.m):
                for c in range(G.n - 1):
                    split = block_diag([W.Vmaps[c], Matrix.identity(field, W.Wdims[r])])
                    assert G.right[r][c] == S[r][c + 1] @ split @ S_inv[r][c]
            for r in range(G.m - 1):
                for c in range(G.n):
                    split = block_diag([Matrix.identity(field, W.Vdims[c]), W.Wmaps[r]])
                    assert G.up[r][c] == S[r][c] @ split @ S_inv[r + 1][c]

    @pytest.mark.parametrize("field", GRID_FIELDS, ids=lambda f: f"p{f.p}")
    def test_validate_and_split_on_mutated_witnesses(self, field):
        rng = np.random.default_rng(field.p)
        invalid = 0
        for trial in range(60):
            planted = rand_grid(rng, field, m=int(rng.integers(1, 5)), n=int(rng.integers(1, 5)), max_part=3)
            G, W = planted.grid, planted.witness
            for W2 in [W] + [_mutate(rng, G, W, kind) for kind in MUTATIONS]:
                if W2 is None:
                    continue
                want = ref_validate_grid(G, W2)
                got = validate_grid(G, W2)
                assert got == want and got.violations == want.violations
                if want.ok:
                    S, R = split_grid(G, W2), ref_split_grid(G, W2)
                    assert (S.basis, S.inverse) == (R.basis, R.inverse)
                else:
                    invalid += 1
        assert invalid >= 150

    @pytest.mark.parametrize("m,n", [(1, 4), (4, 1), (2, 5), (5, 2)])
    def test_dual_grid_against_reference(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        for field in GRID_FIELDS:
            while True:  # nonzero V and W blocks, so that the swap of the two shows
                planted = rand_grid(rng, field, m=m, n=n, max_part=3)
                if min(planted.Vdims) > 0 and min(planted.Wdims) > 0:
                    break
            G, W = planted.grid, planted.witness
            out = dual_grid(G, W)
            assert (out.certificate_ok, out.detail) == ref_dual_grid(G, W)
            # the dual grid splits afresh into the (W, V) block form
            fresh = ref_split_grid(out.grid, out.witness)
            again = check_split(out.grid, out.witness, fresh.basis, fresh.inverse)
            assert (again.basis, again.inverse) == (fresh.basis, fresh.inverse)



def ref_eliminate_cell(field, inj, surj):
    """One cell's injectivity, surjectivity and, on a valid cell, change of
    basis (C, C^-1), from `extend_basis` and `inverse`."""
    d, v = inj.shape
    w = surj.rows
    try:
        E, inj_coords, _ = extend_basis(inj, d)
    except ValueError:  # dependent columns
        E = None
    onto = rank(surj) == w
    if E is None or not onto or E.cols != w or not (surj @ inj).is_zero():
        return E is not None, onto, None
    return True, onto, (vstack([inj_coords, surj]), hstack([inj, E @ inverse(surj @ E)]))


WITNESS_FIELDS = [FieldSpec(p) for p in (2, 3, 5, 65521, LARGEST_PRIME)]
CELL_KINDS = ("valid", "not_injective", "wide_V", "zero_dims", "nonzero_composite", "E_not_W")


def _rand_cell(rng, field, kind):
    """A cell's (inj, surj) of the given kind; every kind but wide_V has
    |V| <= |cell|."""
    v, w = (int(x) for x in rng.integers(0, 4, size=2))
    if kind == "zero_dims":  # a cell of dimension 0, onto only a W of dimension 0
        return Matrix.zeros(field, 0, 0), Matrix.zeros(field, int(rng.integers(0, 2)), 0)
    if kind == "wide_V":
        d = int(rng.integers(0, 3))
        return rand_matrix(rng, field, d, d + 1 + int(rng.integers(0, 3))), rand_matrix(rng, field, w, d)
    if kind == "not_injective":
        v = max(v, 1)
    if kind == "nonzero_composite":
        v, w = max(v, 1), max(w, 1)
    S = rand_invertible(rng, field, v + w + (kind == "E_not_W"))
    inj, S_inv = S.take_cols(range(v)), inverse(S)
    surj = Matrix(field, S_inv.data[v : v + w])
    if kind == "not_injective":  # the last column in the span of the others
        data = inj.data.copy()
        data[:, -1] = data[:, :-1] @ rng.integers(0, field.p, size=v - 1) % field.p if v > 1 else 0
        inj = Matrix(field, data)
    elif kind == "nonzero_composite":  # a row of surj sends the first column of inj to 1
        data = surj.data.copy()
        data[0] = (data[0] + S_inv.data[0]) % field.p
        surj = Matrix(field, data)
    return inj, surj


class _Pinned:
    """Hands `rand_grid` the given size draws (Vdims, then Wdims), then draws from rng."""

    def __init__(self, rng, sizes):
        self.rng, self.sizes = rng, list(sizes)

    def integers(self, *args, **kwargs):
        return self.sizes.pop(0) if self.sizes else self.rng.integers(*args, **kwargs)


class TestWitnessEliminations:
    """The stacked witness eliminations of `validate_grid` against one
    `extend_basis` and one `inverse` per cell."""

    @pytest.mark.parametrize("field", WITNESS_FIELDS, ids=lambda f: f"p{f.p}")
    def test_cells_against_reference(self, field):
        rng = np.random.default_rng(field.p % 997)
        seen = {kind: 0 for kind in CELL_KINDS}
        for trial in range(60):
            # every fourth stack is all valid, so that it returns its bases
            kinds = ["valid" if trial % 4 == 0 else CELL_KINDS[j] for j in rng.integers(0, 6, size=rng.integers(1, 7))]
            cells = [_rand_cell(rng, field, kind) for kind in kinds]
            d, v, w = (np.array(x, dtype=np.int64) for x in zip(*[(a.rows, a.cols, b.rows) for a, b in cells]))
            Rd, Cv, Rw = int(d.max()), int(v.max()), int(w.max())
            inj = np.zeros((len(cells), Rd, Cv), dtype=np.int64)
            surj = np.zeros((len(cells), Rw, Rd), dtype=np.int64)
            for i, (a, b) in enumerate(cells):
                inj[i, : a.rows, : a.cols], surj[i, : b.rows, : b.cols] = a.data, b.data
            composite_zero = np.array([(b @ a).is_zero() for a, b in cells])
            injective, onto, bases = bidirected._eliminate_cells(field, inj, surj, d, v, w, composite_zero)
            refs = [ref_eliminate_cell(field, a, b) for a, b in cells]
            assert injective.tolist() == [ref[0] for ref in refs]
            assert onto.tolist() == [ref[1] for ref in refs]
            assert (bases is None) == any(ref[2] is None for ref in refs)
            for i, ref in enumerate(refs):
                seen[kinds[i]] += 1
                if bases is not None:
                    n = int(d[i])
                    for got, want in zip(bases, ref[2]):
                        assert got[i, :n, :n].tolist() == want.data.tolist() and not got[i, n:].any()
                        assert not got[i, :, n:].any()
        assert min(seen.values()) >= 15

    @pytest.mark.parametrize("room", [None, 0], ids=["padded", "buckets"])
    @pytest.mark.parametrize("field", WITNESS_FIELDS, ids=lambda f: f"p{f.p}")
    def test_validation_against_reference(self, monkeypatch, field, room):
        # the violation texts in their order, and the changes of basis of a
        # valid grid, on planted grids and every mutation of their witnesses;
        # every other grid has one wide column among cells of dimension 0 to
        # 2, which the validation pads apart when there is no room
        if room is not None:
            monkeypatch.setattr(exactla, "_ROOM", room)
        rng = np.random.default_rng(field.p % 991)
        valid = bucketed = 0
        for trial in range(12):
            m, n, draws = int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng
            if trial % 2:
                m, n = int(rng.integers(1, 3)), 6
                wide = rng.integers(0, 2, size=n) + 7 * (np.arange(n) == n - 1)
                draws = _Pinned(rng, [wide, rng.integers(0, 2, size=m)])
            planted = rand_grid(draws, field, m=m, n=n, max_part=3)
            G, W = planted.grid, planted.witness
            for W2 in [W] + [_mutate(rng, G, W, kind) for kind in MUTATIONS]:
                if W2 is None:
                    continue
                got, want = validate_grid(G, W2), ref_validate_grid(G, W2)
                assert got.violations == want.violations
                if not got.ok:
                    assert got.bases == ()
                    continue
                valid += 1
                bucketed += len(got.bases[0].parts) > 1
                for r, c in itertools.product(range(G.m), range(G.n)):
                    ref = ref_eliminate_cell(field, W2.inj[r][c], W2.surj[r][c])
                    assert (got.bases[0].matrices()[r][c], got.bases[1].matrices()[r][c]) == ref[2]
        assert valid >= 12 and (bucketed > 0) == (room == 0)


class TestClosedFormsAgainstOracles:
    """`decompose` prints `exchange_normal_form` and `dual_grid` certifies
    without comparing; `kappa_check` and `dual_grid_check` compute what
    those closed forms state, and must agree with them on every grid."""

    @pytest.mark.parametrize("p", [2, 3, 5, 65521, LARGEST_PRIME])
    def test_fleet(self, p):
        field = FieldSpec(p)
        rng = np.random.default_rng(p % 1009)
        grids, zero_parts = 0, 0
        # every shape with m, n in 1..5, parts of at most 0, 1, 2 or 3 dimensions
        for (m, n), max_part in itertools.product(itertools.product(range(1, 6), repeat=2), (0, 1, 2, 3, 3)):
            planted = rand_grid(rng, field, m=m, n=n, max_part=max_part)
            G, W = planted.grid, planted.witness
            S = split_grid(G, W)
            cert = kappa_check(S)
            assert cert.ok and exchange_normal_form(S) == cert.normal_form
            out = dual_grid(G, W)
            assert out.certificate_ok and dual_grid_check(W, out.witness)
            grids += 1
            zero_parts += 0 in planted.Vdims + planted.Wdims
        assert grids == 125 and zero_parts >= 50

    def test_dual_oracle_rejects_a_witness_that_is_not_the_dual(self):
        rng = np.random.default_rng(41)
        planted = rand_grid(rng, GF5, m=3, n=3, max_part=3)
        W = planted.witness
        assert planted.Vdims != planted.Wdims
        assert dual_grid_check(W, dual_grid(planted.grid, W).witness)
        # W in place of its dual: the systems keep their roles
        assert not dual_grid_check(W, W)
