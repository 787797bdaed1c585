import gc
import weakref

import numpy as np
import pytest

from tatevec import tensor
from tatevec.exactla import FieldSpec, Matrix, ShapeMismatchError, kron
from tatevec.duality import dual_object
from tatevec.generators import rand_tate
from tatevec.spaces import (
    FinVect,
    IndLCObj,
    ProDiscObj,
    TateObj,
    Tower,
    constant_indtower,
    constant_tower,
    laurent_tate,
    materialize,
    polynomial_indtower,
    power_series_tower,
    tate_from_finvect,
)
from tatevec.suites import check_pair_indexing
from tatevec.tensor import (
    check_tensor_duality,
    curry,
    embed_tate,
    first_pairs,
    hom_via_tensor,
    index_from_pair,
    pair_at,
    pair_from_index,
    swap_matrix,
    tensor_bang_tate,
    tensor_families,
    tensor_star_tate,
    tensor_systems,
    uncurry,
)

GF2 = FieldSpec(2)
GF5 = FieldSpec(5)


class TestPairIndexing:
    def test_diagonal_prefix(self):
        expected = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4)]
        assert [pair_from_index(n) for n in range(1, 8)] == expected

    def test_bijective_prefix(self):
        pairs = [pair_from_index(n) for n in range(1, 500)]
        assert len(set(pairs)) == len(pairs)
        assert all(index_from_pair(*p) == n for n, p in enumerate(pairs, start=1))

    def test_laws_suite_prefix(self):
        # the laws suite's check of the first 10^4 indices
        failure = check_pair_indexing()
        assert failure is None, failure

    def test_restricted_ranges(self):
        got = [pair_at(k, 2, 2) for k in range(1, 5)]
        assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert pair_at(1, 1, None) == (1, 1)
        assert pair_at(3, 1, None) == (1, 3)

    def test_restricted_ranges_match_the_filtered_scan(self):
        # reference: the unrestricted enumeration with out-of-range pairs skipped
        def scan(k, a, b):
            kept = (p for p in map(pair_from_index, range(1, 200)) if (a is None or p[0] <= a) and (b is None or p[1] <= b))
            return next(p for n, p in enumerate(kept, start=1) if n == k)

        for a in (None, 1, 2, 3, 5):
            for b in (None, 1, 2, 4):
                n = 12 if a is None or b is None else a * b
                assert [pair_at(k, a, b) for k in range(1, n + 1)] == [scan(k, a, b) for k in range(1, n + 1)]

    def test_out_of_range_is_an_index_error(self):
        for k, a, b in ((1, 0, None), (0, 2, 2), (5, 2, 2), (7, 3, 2)):
            with pytest.raises(IndexError):
                pair_at(k, a, b)


# the counts of the one-pass walk's tests; n runs to 12 where a count is None
WALK_COUNTS_A = (None, 0, 1, 2, 3, 5)
WALK_COUNTS_B = (None, 0, 1, 2, 4)
WALK_UNBOUNDED = 12


def _walk_lengths(a, b):
    total = tensor._pair_count(a, b)
    return range(0, (WALK_UNBOUNDED if total is None else total + 2) + 1)


def _labelled(count, left: bool) -> IndLCObj:
    """Parts that name themselves: part i has two levels, of dims (i, 1) on
    the left and (1, i) on the right, joined by a zero map, so the product
    of parts i and j has dims (i, j)."""

    def part(i):
        dims = [i, 1] if left else [1, i]
        return Tower.from_prefix(GF2, dims, [Matrix.zeros(GF2, *dims)])

    return IndLCObj(GF2, lambda made, n: [part(i) for i in range(len(made) + 1, n + 1)], count)


class TestOnePassWalk:
    def test_first_pairs_are_pair_at_in_order(self):
        for a in WALK_COUNTS_A:
            for b in WALK_COUNTS_B:
                total = tensor._pair_count(a, b)
                for n in _walk_lengths(a, b):
                    kept = n if total is None else min(n, total)
                    assert first_pairs(n, a, b) == [pair_at(k, a, b) for k in range(1, kept + 1)], (a, b, n)

    def test_walked_parts_are_the_parts_one_by_one(self):
        for a in WALK_COUNTS_A:
            for b in WALK_COUNTS_B:
                for n in _walk_lengths(a, b):
                    walked = tensor_families(_labelled(a, True), _labelled(b, False))
                    single = tensor_families(_labelled(a, True), _labelled(b, False))
                    parts = walked.parts(n)
                    kept = len(parts)
                    assert kept == (n if single.count is None else min(n, single.count))
                    one_by_one = [single.part(k) for k in range(1, kept + 1)]
                    dims = [(p.dim(1), p.dim(2)) for p in parts]
                    assert dims == [(q.dim(1), q.dim(2)) for q in one_by_one]
                    assert dims == [pair_at(k, a, b) for k in range(1, kept + 1)]
                    # the walk fills the memo: part(k) is the walked object
                    assert all(walked.part(k) is p for k, p in enumerate(parts, start=1))

    def test_walk_keeps_parts_made_before_it(self):
        F = tensor_families(_labelled(3, True), _labelled(None, False))
        early = F.part(4)
        assert F.parts(9)[3] is early


class TestProductPrefix:
    def test_one_kron_per_transition_read(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tensor, "kron", lambda a, b: calls.append((a, b)) or kron(a, b))
        T = tensor_systems(power_series_tower(GF5), power_series_tower(GF5))
        for n in range(1, 6):
            T.transition(n)
        assert len(calls) == 5
        assert materialize(T, 6).maps == tuple(map(T.transition, range(1, 6))) and len(calls) == 5

    def test_read_level_by_level_one_kron_per_new_pair_of_factor_maps(self, monkeypatch):
        # every transition of a constant tower is one shared identity, so a
        # product of two reuses its first kron at every later level
        calls = []
        monkeypatch.setattr(tensor, "kron", lambda a, b: calls.append((a, b)) or kron(a, b))
        for B, krons in ((constant_tower(GF2, 2), 1), (power_series_tower(GF2), 5)):
            calls.clear()
            A = constant_tower(GF2, 3)
            T = tensor_systems(A, B)
            maps = [T.transition(n) for n in range(1, 6)]
            assert len(calls) == krons
            assert maps == [kron(A.transition(n), B.transition(n)) for n in range(1, 6)]
            assert len({id(t) for t in maps}) == krons

    def test_transitions_are_the_prefix_maps(self):
        for A, B in (
            (power_series_tower(GF5), power_series_tower(GF5)),
            (polynomial_indtower(GF2), constant_indtower(GF2, 2)),
            (constant_tower(GF2, 3), constant_tower(GF2, 2)),
        ):
            T = tensor_systems(A, B)
            pre = materialize(T, 5)
            assert all(T.transition(n) is t for n, t in enumerate(pre.maps, start=1))
            assert pre.dims == tuple(A.dim(n) * B.dim(n) for n in range(1, 6))
            assert pre.maps == tuple(kron(A.transition(n), B.transition(n)) for n in range(1, 5))

    def test_products_freed_without_the_cycle_collector(self):
        # a reference cycle through a product would keep its kron arrays
        # alive until the next collection
        gc.disable()
        try:
            product = tensor_star_tate(laurent_tate(GF2), rand_tate(np.random.default_rng(2), GF2, depth=4))
            parts = materialize(product, 10, inner=4).parts
            refs = [weakref.ref(product), *map(weakref.ref, product.parts(10))]
            del product
            assert len(parts) == 10 and all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_prefix_keeps_transitions_computed_before_it(self):
        T = tensor_systems(power_series_tower(GF2), power_series_tower(GF2))
        early = T.transition(2)
        assert materialize(T, 4).maps[1] is early

    @pytest.mark.parametrize("op", ["star", "bang"])
    def test_one_kron_per_distinct_pair_of_factor_maps(self, monkeypatch, op):
        rng = np.random.default_rng(11)
        A, B = (rand_tate(rng, GF2, depth=4) for _ in range(2))
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return kron(a, b)

        embedded = []

        def recorded(V, target):
            embedded.append(embed_tate(V, target))
            return embedded[-1]

        monkeypatch.setattr(tensor, "kron", counted)
        monkeypatch.setattr(tensor, "embed_tate", recorded)
        product = (tensor_star_tate if op == "star" else tensor_bang_tate)(A, B)
        pre = materialize(product, 25, inner=4)
        assert len(pre.parts) == 25
        again = materialize(product, 25, inner=4)
        assert all(x.maps[n] is y.maps[n] for x, y in zip(pre.parts, again.parts) for n in range(3))
        # the factors' maps stay alive in their memos, so their ids name them
        ea, eb = embedded
        expected = set()
        for i, j in first_pairs(25, ea.count, eb.count):
            ma, mb = materialize(ea.part(i), 4).maps, materialize(eb.part(j), 4).maps
            expected |= {(id(a), id(b)) for a, b in zip(ma, mb)}
        assert len(calls) == len(expected)
        assert {(id(a), id(b)) for a, b in calls} == expected

    def test_misshapen_factor_map_raises_from_the_product(self):
        bad = Tower.from_prefix(GF2, [2, 2], [Matrix.zeros(GF2, 3, 2)])
        with pytest.raises(ShapeMismatchError, match="tower transition 1"):
            materialize(tensor_systems(bad, power_series_tower(GF2)), 2)
        family = IndLCObj.from_list(GF2, [constant_tower(GF2, 1), bad])
        with pytest.raises(ShapeMismatchError, match="tower transition 1"):
            materialize(tensor_families(family, IndLCObj.from_list(GF2, [power_series_tower(GF2)])), 2)


class TestTowerTensor:
    def test_square_law(self):
        t = tensor_systems(power_series_tower(GF2), power_series_tower(GF2))
        pre = materialize(t, 8)
        assert pre.dims == tuple(n * n for n in range(1, 9))

    def test_unit(self):
        t = power_series_tower(GF5)
        u = tensor_systems(constant_tower(GF5, 1), t)
        a, b = materialize(u, 5), materialize(t, 5)
        assert a.dims == b.dims and a.maps == b.maps

    def test_level_one(self):
        a = constant_tower(GF2, 3)
        b = constant_tower(GF2, 2)
        assert materialize(tensor_systems(a, b), 1).dims == (6,)

    def test_transitions_are_kron(self):
        t = power_series_tower(GF2)
        tt = tensor_systems(t, t)
        assert materialize(tt, 3).maps[0] == kron(t.transition(1), t.transition(1))

    def test_one_kron_per_distinct_pair_of_transitions(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return kron(a, b)

        monkeypatch.setattr(tensor, "kron", counted)
        maps = materialize(tensor_systems(constant_tower(GF2, 3), constant_tower(GF2, 2)), 4).maps
        # every transition of a constant tower is one shared identity
        assert len(calls) == 1
        assert maps[1] is maps[2]
        assert maps[0] == Matrix.identity(GF2, 6)


class TestIndTowerTensor:
    def test_square_law(self):
        t = tensor_systems(polynomial_indtower(GF2), polynomial_indtower(GF2))
        assert materialize(t, 6).dims == tuple(n * n for n in range(1, 7))

    def test_unit(self):
        t = polynomial_indtower(GF2)
        u = tensor_systems(constant_indtower(GF2, 1), t)
        a, b = materialize(u, 4), materialize(t, 4)
        assert a.dims == b.dims and a.maps == b.maps

    def test_zero_factor(self):
        z = constant_indtower(GF2, 0)
        out = tensor_systems(z, polynomial_indtower(GF2))
        assert materialize(out, 4).dims == (0, 0, 0, 0)


def test_mixed_kinds_refused():
    with pytest.raises(TypeError):
        tensor_systems(power_series_tower(GF2), polynomial_indtower(GF2))
    with pytest.raises(TypeError):
        tensor_families(IndLCObj.from_list(GF2, []), ProDiscObj.from_list(GF2, []))


class TestIndLCTensor:
    def test_single_summand_reduction(self):
        A = IndLCObj.from_list(GF2, [power_series_tower(GF2)])
        out = tensor_families(A, A)
        assert out.count == 1
        pre = materialize(out, 3)
        assert pre.parts[0].dims == (1, 4, 9)

    def test_diagonal_order_of_four(self):
        A = IndLCObj.from_list(GF2, [constant_tower(GF2, 1), constant_tower(GF2, 2)])
        B = IndLCObj.from_list(GF2, [constant_tower(GF2, 3), constant_tower(GF2, 4)])
        out = tensor_families(A, B)
        assert out.count == 4
        pre = materialize(out, 4, inner=1)
        # pairs (1,1), (1,2), (2,1), (2,2)
        assert [s.dims[0] for s in pre.parts] == [3, 4, 6, 8]

    def test_zero_object(self):
        Z = IndLCObj.from_list(GF2, [])
        out = tensor_families(Z, IndLCObj.from_list(GF2, [constant_tower(GF2, 2)]))
        assert out.count == 0
        assert materialize(out, 3).parts == ()


class TestEmbedTate:
    def test_laurent_indlc(self):
        out = embed_tate(laurent_tate(GF2), "indlc")
        pre = materialize(out, 4, inner=3)
        assert pre.parts[0].dims == (1, 2, 3)  # the c-lattice
        for s in pre.parts[1:]:
            assert s.dims == (1, 1, 1)  # one new monomial per step

    def test_laurent_prodisc(self):
        out = embed_tate(laurent_tate(GF2), "prodisc")
        pre = materialize(out, 4, inner=3)
        assert pre.parts[0].dims == (1, 2, 3)  # the d-lattice
        for f in pre.parts[1:]:
            assert f.dims == (1, 1, 1)  # quotient increments of the c-lattice

    def test_purely_discrete(self):
        t = TateObj(constant_tower(GF2, 0), polynomial_indtower(GF2))
        pre = materialize(embed_tate(t, "indlc"), 4, inner=2)
        assert pre.parts[0].dims == (0, 0)
        assert all(s.dims == (1, 1) for s in pre.parts[1:])

    def test_purely_compact(self):
        t = TateObj(power_series_tower(GF2), constant_indtower(GF2, 0))
        pre = materialize(embed_tate(t, "prodisc"), 4, inner=2)
        assert pre.parts[0].dims == (0, 0)
        assert all(f.dims == (1, 1) for f in pre.parts[1:])


class TestTateTensors:
    def test_laurent_star_first_summand(self):
        out = tensor_star_tate(laurent_tate(GF2), laurent_tate(GF2))
        pre = materialize(out, 1, inner=4)
        assert pre.parts[0].dims == (1, 4, 9, 16)  # power series in two variables

    def test_finite_tates_reduce_to_kron(self):
        A = tate_from_finvect(GF2, FinVect(2))
        B = tate_from_finvect(GF2, FinVect(3))
        pre = materialize(tensor_star_tate(A, B), 6, inner=2)
        nonzero = [s for s in pre.parts if any(s.dims)]
        assert len(nonzero) == 1 and nonzero[0].dims == (6, 6)

    def test_star_vs_bang_prefix_shapes(self):
        # compact (x) discrete: the * route is a sum of compact columns (one
        # power-series tower per discrete basis vector, finite support), the
        # ! route is a product of discrete rows (one polynomial system per
        # compact increment, all indices populated at once); the category
        # tags carry the strict inclusion between the two completions
        compact = TateObj(power_series_tower(GF2), constant_indtower(GF2, 0))
        discrete = TateObj(constant_tower(GF2, 0), polynomial_indtower(GF2))
        star_obj = tensor_star_tate(compact, discrete)
        bang_obj = tensor_bang_tate(compact, discrete)
        assert isinstance(star_obj, IndLCObj)
        assert isinstance(bang_obj, ProDiscObj)
        star = materialize(star_obj, 8, inner=3)
        bang = materialize(bang_obj, 8, inner=3)
        star_nonzero = [s.dims for s in star.parts if any(s.dims)]
        bang_nonzero = [f.dims for f in bang.parts if any(f.dims)]
        assert star_nonzero and all(d == (1, 2, 3) for d in star_nonzero)
        assert bang_nonzero and all(d == (1, 2, 3) for d in bang_nonzero)


class TestHomViaTensor:
    def test_hom_k_k(self):
        one = tate_from_finvect(GF2, FinVect(1))
        hp = hom_via_tensor(one, one, 3)
        assert hp.window == ((1, 1), (1, 1), (1, 1))
        pre = materialize(hp.prodisc, 4, inner=2)
        total = sum(f.dims[-1] for f in pre.parts)
        assert total == 1

    def test_hom_power_series_dims_match_direct_count(self):
        ps = TateObj(power_series_tower(GF2), constant_indtower(GF2, 0))
        hp = hom_via_tensor(ps, ps, 4)
        # window count: all linear maps between level-n truncations
        for n, (a, b) in enumerate(hp.window, start=1):
            assert (a, b) == (n, n)
            assert hp.ev[n - 1].shape == (n * n, n * n)
        # prodisc route: each materialized target increment contributes the
        # maps from the level-M source truncation
        K, Minner = 6, 3
        pre = materialize(hp.prodisc, K, inner=Minner)
        total = sum(f.dims[-1] for f in pre.parts)
        increments = 0
        for k in range(1, len(pre.parts) + 1):
            i, j = pair_at(k, None, None)
            if i == 1 and j >= 2:
                increments += 1
        assert total == increments * Minner

    def test_hom_laurent_to_k_is_dual_prefix(self):
        # with target k, the nonzero Hom factors are exactly the factors of
        # the dual presentation (paired against the single unit increment)
        A = laurent_tate(GF2)
        one = tate_from_finvect(GF2, FinVect(1))
        hp = hom_via_tensor(A, one, 3)
        depth = index_from_pair(6, 2)  # enough pairs to cover (i, 2), i <= 6
        pre = materialize(hp.prodisc, depth, inner=3)
        dual_pre = materialize(embed_tate(dual_object(A), "prodisc"), 6, inner=3)
        by_pair = {pair_at(k, None, None): f for k, f in enumerate(pre.parts, start=1)}
        for i in range(1, 7):
            assert by_pair[(i, 2)].dims == dual_pre.parts[i - 1].dims
            assert by_pair[(i, 2)].maps == dual_pre.parts[i - 1].maps
        for (i, j), f in by_pair.items():
            if j != 2:
                assert not any(f.dims)

    def test_ev_functoriality(self):
        rng = np.random.default_rng(8)
        one = tate_from_finvect(GF5, FinVect(3))
        two = tate_from_finvect(GF5, FinVect(2))
        hp = hom_via_tensor(one, two, 1)
        a, b = hp.window[0]
        ev = hp.ev[0]
        for _ in range(20):
            phi = Matrix(GF5, rng.integers(0, 5, size=(a, 1)))
            vec = Matrix(GF5, rng.integers(0, 5, size=(b, 1)))
            hom = Matrix(GF5, (ev @ kron(phi, vec)).data.reshape(b, a))
            x = Matrix(GF5, rng.integers(0, 5, size=(a, 1)))
            assert hom @ x == vec @ (phi.T @ x)


class TestTensorDuality:
    def test_power_series_summand(self):
        A = IndLCObj.from_list(GF2, [power_series_tower(GF2)])
        rep = check_tensor_duality(A, A, 4)
        assert rep.ok

    def test_zero(self):
        Z = IndLCObj.from_list(GF2, [])
        A = IndLCObj.from_list(GF2, [constant_tower(GF2, 2)])
        assert check_tensor_duality(Z, A, 3).ok

    def test_laurent_embedded(self):
        A = embed_tate(laurent_tate(GF2), "indlc")
        rep = check_tensor_duality(A, A, 3)
        assert rep.ok
        assert rep.alignment[0] == (1, (1, 1))

    def test_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            towers = []
            for _ in range(int(rng.integers(1, 3))):
                dims = [int(d) for d in rng.integers(0, 4, size=3)]
                maps = [
                    Matrix(GF5, rng.integers(0, 5, size=(dims[i], dims[i + 1])))
                    for i in range(2)
                ]
                towers.append(Tower.from_prefix(GF5, dims, maps))
            A = IndLCObj.from_list(GF5, towers)
            assert check_tensor_duality(A, A, 3).ok


class TestStructureLaws:
    def test_commutativity_swap(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m1, m2, n1, n2 = (int(x) for x in rng.integers(1, 4, size=4))
            tA = Matrix(GF5, rng.integers(0, 5, size=(m1, m2)))
            tB = Matrix(GF5, rng.integers(0, 5, size=(n1, n2)))
            S_dst = swap_matrix(GF5, m1, n1)
            S_src = swap_matrix(GF5, m2, n2)
            assert S_dst @ kron(tA, tB) == kron(tB, tA) @ S_src

    def test_associativity_on_the_nose(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            dims = [int(x) for x in rng.integers(1, 4, size=6)]
            A = Matrix(GF2, rng.integers(0, 2, size=(dims[0], dims[1])))
            B = Matrix(GF2, rng.integers(0, 2, size=(dims[2], dims[3])))
            C = Matrix(GF2, rng.integers(0, 2, size=(dims[4], dims[5])))
            assert kron(kron(A, B), C) == kron(A, kron(B, C))

    def test_curry_uncurry_bijection(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a, b, c = (int(x) for x in rng.integers(1, 4, size=3))
            M = Matrix(GF5, rng.integers(0, 5, size=(c, a * b)))
            N = curry(M, a, b, c)
            assert N.shape == (b * c, a)
            assert uncurry(N, a, b, c) == M
            x = Matrix(GF5, rng.integers(0, 5, size=(a, 1)))
            y = Matrix(GF5, rng.integers(0, 5, size=(b, 1)))
            hom_x = Matrix(GF5, (N @ x).data.reshape(c, b))
            assert hom_x @ y == M @ kron(x, y)

    def test_reshapes_match_their_entry_formulas(self):
        rng = np.random.default_rng(20)
        for a, b, c in ((0, 2, 3), (2, 0, 1), (3, 2, 0), (2, 3, 4), (1, 1, 1)):
            M = Matrix(GF5, rng.integers(0, 5, size=(c, a * b)))
            N = curry(M, a, b, c)
            assert all(N.data[k * b + j, i] == M.data[k, i * b + j] for k in range(c) for i in range(a) for j in range(b))
            assert uncurry(N, a, b, c) == M
            S = swap_matrix(GF5, a, b)
            assert S.shape == (a * b, a * b) and int(S.data.sum()) == a * b
            assert all(S.data[j * a + i, i * b + j] == 1 for i in range(a) for j in range(b))



def test_star_import_resolves_every_public_name():
    # a name left in __all__ after a rename makes the star import raise
    import tatevec

    ns = {}
    exec("from tatevec import *", ns)
    assert len(set(tatevec.__all__)) == len(tatevec.__all__)
    assert set(tatevec.__all__) <= ns.keys()
