import numpy as np
import pytest

from tatevec import exactla, spaces
from tatevec.duality import dual_object
from tatevec.exactla import FieldSpec, Matrix, image_basis, rank
from tatevec.generators import rand_filtered_space, rand_indtower, rand_tower
from tatevec.spaces import (
    DescriptorViolation,
    FilteredSpace,
    FinVect,
    IndLCObj,
    IndTower,
    LatticeCheck,
    LinMap,
    TailDescriptor,
    TateObj,
    Tower,
    builtin_space,
    constant_indtower,
    constant_tower,
    is_tate_verdict,
    iso_certificate,
    lattice_check,
    laurent_tate,
    materialize,
    normalize_indtower,
    normalize_tower,
    polynomial_indtower,
    power_series_tower,
    prefix_mismatch,
    tate_window,
)
from tatevec.tensor import embed_tate

GF2 = FieldSpec(2)
GF5 = FieldSpec(5)


def M(field, data):
    return Matrix(field, data)


@pytest.fixture
def rref_calls(monkeypatch):
    """calls[0] counts the rref calls made through exactla or spaces."""
    calls = [0]

    def counted(X, _real=exactla.rref):
        calls[0] += 1
        return _real(X)

    monkeypatch.setattr(exactla, "rref", counted)
    monkeypatch.setattr(spaces, "rref", counted)
    return calls


class TestTypes:
    def test_linmap_shape_checked(self):
        with pytest.raises(Exception):
            LinMap(FinVect(2), FinVect(3), Matrix.identity(GF2, 2))
        LinMap(FinVect(2), FinVect(2), Matrix.identity(GF2, 2))

    def test_tail_descriptor_validation(self):
        with pytest.raises(ValueError):
            TailDescriptor("bounded-ker")
        with pytest.raises(ValueError):
            TailDescriptor("eventually-nice")
        with pytest.raises(ValueError, match="negative bound -1"):
            TailDescriptor("bounded-ker", -1)
        for kind in ("stabilizing", "unbounded", "unspecified"):
            with pytest.raises(ValueError, match=f"^{kind} takes no bound$"):
                TailDescriptor(kind, 3)

    def test_filtered_space_validation(self):
        U1 = M(GF2, [[0, 0], [1, 0], [0, 1]])
        U2 = M(GF2, [[0], [0], [1]])
        zero = Matrix.zeros(GF2, 3, 0)
        F = FilteredSpace(GF2, 3, [U1, U2, zero])
        assert F.dim == 3
        with pytest.raises(ValueError):  # not nested
            FilteredSpace(GF2, 3, [U2, U1, zero])
        with pytest.raises(ValueError):  # last flag not zero
            FilteredSpace(GF2, 3, [U1, U2])

    @pytest.mark.parametrize(
        "message,flags",
        [
            ("flag 1 has dependent columns", [[[1, 1], [0, 0], [1, 1]], [[0], [0], [1]]]),
            ("flag 2 has dependent columns", [[[0, 0], [1, 0], [0, 1]], [[0, 0], [0, 0], [1, 1]]]),
            ("flag 2 is not contained in flag 1", [[[0], [1], [0]], [[1], [0], [0]]]),
            # dependence is reported before containment, whatever the flag
            ("flag 2 has dependent columns", [[[0], [1], [0]], [[1, 1], [0, 0], [0, 0]]]),
        ],
    )
    def test_filtered_space_names_its_defect(self, message, flags):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FilteredSpace(GF2, 3, [M(GF2, U) for U in flags] + [Matrix.zeros(GF2, 3, 0)])

    def test_filtered_space_one_rref_per_flag(self, rref_calls):
        # rref([U_i | U_{i+1}]) decides both that U_i is independent and that
        # U_{i+1} lies in it (a rank per flag and a span test per pair made
        # 2L - 2 calls)
        rng = np.random.default_rng(8)
        for _ in range(12):
            flags = rand_filtered_space(rng, GF5, 12, 6).flags
            rref_calls[0] = 0
            FilteredSpace(GF5, flags[0].rows, flags)
            assert rref_calls[0] == len(flags)


class TestMaterialize:
    def test_power_series_depth3(self):
        pre = materialize(power_series_tower(GF2), 3)
        assert pre.dims == (1, 2, 3)
        assert pre.maps[0] == M(GF2, [[1, 0]])
        assert pre.maps[1] == M(GF2, [[1, 0, 0], [0, 1, 0]])

    def test_constant_tower(self):
        pre = materialize(constant_tower(GF2, 1), 5)
        assert pre.dims == (1, 1, 1, 1, 1)
        assert all(t == Matrix.identity(GF2, 1) for t in pre.maps)

    def test_depth_one_verbatim(self):
        assert materialize(power_series_tower(GF5), 1).dims == (1,)
        assert materialize(laurent_tate(GF2), 1).c.dims == (1,)

    def test_truncation_functoriality(self):
        t = power_series_tower(GF2)
        full = materialize(t, 6)
        short = materialize(t, 4)
        assert full.dims[:4] == short.dims
        assert full.maps[:3] == short.maps

    def test_memoized_levels_identical(self):
        t = power_series_tower(GF2)
        assert t.transition(2) is t.transition(2)

    def test_tail_checked_once_per_transition(self, rref_calls):
        # the first materialize checks each of the 10 transitions against its
        # bounded tail as it is computed; a repeat re-checks none
        V = laurent_tate(GF2)
        materialize(V, 6)
        assert rref_calls[0] == 10
        rref_calls[0] = 0
        materialize(V, 6)
        assert rref_calls[0] == 0

    def test_descriptor_violation(self):
        # claims bounded-ker(1) but the level-1 transition kills 2 dimensions
        def grow(dims, maps, n):
            return list(range(len(dims) + 1, n + 1)), [Matrix.zeros(GF2, k, k + 1) for k in range(len(maps) + 1, n)]

        bad = Tower(GF2, grow, tail=TailDescriptor("bounded-ker", 1))
        with pytest.raises(DescriptorViolation):
            materialize(bad, 3)

    def test_finite_depth_guard(self):
        t = Tower.from_prefix(GF2, [1, 2], [M(GF2, [[1, 0]])])
        materialize(t, 2)
        with pytest.raises(IndexError):
            materialize(t, 3)

    def test_grow_function_called_once_per_read_past_the_kept_levels(self, rref_calls):
        asked = []

        def grow(dims, maps, n):
            asked.append((len(dims), n))
            new_maps = [M(GF2, np.eye(k, k + 1, dtype=np.int64)) for k in range(len(maps) + 1, n)]
            return list(range(len(dims) + 1, n + 1)), new_maps

        t = Tower(GF2, grow, tail=TailDescriptor("bounded-ker", 1))
        assert [t.dim(n) for n in (3, 1, 2)] == [3, 1, 2]
        assert rref_calls[0] == 0  # a dimension computes no rank
        assert t.transition(2) is t.prefix(3)[1][1]
        assert rref_calls[0] == 2  # each map read is checked against the tail once
        t.transition(4)
        assert t.prefix(5)[0] == (1, 2, 3, 4, 5)
        assert asked == [(0, 3), (3, 5)]
        assert rref_calls[0] == 4

    def test_grow_function_asked_only_for_parts_lacking(self):
        asked = []

        def grow(made, n):
            asked.append((len(made), n))
            return [constant_tower(GF2, k) for k in range(len(made) + 1, n + 1)]

        F = IndLCObj(GF2, grow, None)
        made = F.parts(2)
        assert F.part(2) is made[1] and F.part(1) is made[0]
        assert [p.dim(1) for p in F.parts(5)] == [1, 2, 3, 4, 5]
        F.part(4)
        assert asked == [(0, 2), (2, 5)]
        G = IndLCObj(GF2, grow, 3)
        assert len(G.parts(10)) == 3 and asked[-1] == (0, 3)
        with pytest.raises(IndexError, match="summand 4 out of range"):
            G.part(4)


@pytest.fixture
def built(monkeypatch):
    """Counts of the monomial projections built and of the matrices transposed."""
    counts = {"drop_last": 0, "T": 0}

    def drop_last(field, n, _real=spaces._drop_last):
        counts["drop_last"] += 1
        return _real(field, n)

    def transpose(X, _real=Matrix.T.fget):
        counts["T"] += 1
        return _real(X)

    monkeypatch.setattr(spaces, "_drop_last", drop_last)
    monkeypatch.setattr(Matrix, "T", property(transpose))
    return counts


class TestGrowthIsLinear:
    """A read past the kept levels makes only the levels it lacks."""

    def test_tower_builds_each_transition_once(self, built):
        t = power_series_tower(GF2)
        for n in range(1, 21):
            t.transition(n)
        assert built == {"drop_last": 20, "T": 0}

    def test_embedding_builds_each_increment_transition_once(self, built):
        # factors 2..20 are the increments of the power series tower: the
        # first is its level-1 dim, the other 18 its transition 1..18 kernels
        assert len(embed_tate(laurent_tate(GF2), "prodisc").parts(20)) == 20
        assert built == {"drop_last": 18, "T": 0}

    def test_dual_builds_and_transposes_each_transition_once(self, built):
        d = dual_object(power_series_tower(GF2))
        for n in range(1, 21):
            d.transition(n)
        assert built == {"drop_last": 20, "T": 20}


class TestBuiltins:
    def test_laurent_dims(self):
        lt = builtin_space("laurent", GF2)
        pre = materialize(lt, 4)
        assert pre.c.dims == (1, 2, 3, 4)
        assert pre.d.dims == (1, 2, 3, 4)

    def test_polynomial_inclusions(self):
        pre = materialize(builtin_space("polynomial", GF2), 4)
        assert pre.dims == (1, 2, 3, 4)
        assert pre.maps[2] == M(GF2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_constant_zero(self):
        assert builtin_space("constant", GF2, 0) == FinVect(0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_space("adic", GF2)


class TestNormalizeIndTower:
    def test_zero_transitions(self):
        z = Matrix.zeros(GF2, 1, 1)
        t = IndTower.from_prefix(GF2, [1, 1, 1], [z, z])
        out, comps = normalize_indtower(t, 3)
        assert out.dims == (0, 0, 1)

    def test_inclusions_unchanged(self):
        t = polynomial_indtower(GF2)
        out, comps = normalize_indtower(t, 4)
        pre = materialize(t, 4)
        assert out.dims == pre.dims
        assert all(c == Matrix.identity(GF2, d) for c, d in zip(comps, pre.dims))

    def test_surjection_collapses(self):
        t = IndTower.from_prefix(GF2, [2, 1], [M(GF2, [[1, 0]])])
        out, _ = normalize_indtower(t, 2)
        assert out.dims == (1, 1)

    def test_output_injective_top_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            depth = int(rng.integers(2, 5))
            dims = [int(d) for d in rng.integers(0, 5, size=depth)]
            maps = [
                Matrix(GF5, rng.integers(0, 5, size=(dims[i + 1], dims[i])))
                for i in range(depth - 1)
            ]
            t = IndTower.from_prefix(GF5, dims, maps)
            out, _ = normalize_indtower(t, depth)
            assert out.dims[-1] == dims[-1]
            for m in out.maps:
                assert rank(m) == m.cols


class TestNormalizeTower:
    def test_identity_unchanged(self):
        out, comps = normalize_tower(constant_tower(GF2, 3), 4)
        assert out.dims == (3, 3, 3, 3)
        assert all(m == Matrix.identity(GF2, 3) for m in out.maps)

    def test_zero_transitions(self):
        t = Tower.from_prefix(GF2, [3, 3], [Matrix.zeros(GF2, 3, 3)])
        out, _ = normalize_tower(t, 2)
        assert out.dims == (0, 3)

    def test_rank_one_chain(self):
        e = M(GF2, [[1, 0], [0, 0]])
        t = Tower.from_prefix(GF2, [2, 2, 2], [e, e])
        out, _ = normalize_tower(t, 3)
        assert out.dims == (1, 1, 2)

    def test_output_surjective(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            depth = int(rng.integers(2, 5))
            dims = [int(d) for d in rng.integers(0, 5, size=depth)]
            maps = [
                Matrix(GF5, rng.integers(0, 5, size=(dims[i], dims[i + 1])))
                for i in range(depth - 1)
            ]
            t = Tower.from_prefix(GF5, dims, maps)
            out, comps = normalize_tower(t, depth)
            for i, m in enumerate(out.maps):
                assert rank(m) == out.dims[i]



@pytest.mark.parametrize(
    "normalize, builtin, rand",
    [(normalize_indtower, polynomial_indtower, rand_indtower), (normalize_tower, power_series_tower, rand_tower)],
)
def test_normalize_one_rref_per_level(monkeypatch, normalize, builtin, rand):
    # N levels cost N eliminations beyond the ones materialize makes (the
    # tail checks of the built-in systems)
    calls = {"rref": 0, "materialize": 0}
    real_rref, real_materialize = exactla.rref, spaces.materialize

    def rref(M):
        calls["rref"] += 1
        return real_rref(M)

    def materialize(obj, depth):
        before = calls["rref"]
        out = real_materialize(obj, depth)
        calls["materialize"] += calls["rref"] - before
        return out

    monkeypatch.setattr(exactla, "rref", rref)
    monkeypatch.setattr(spaces, "rref", rref, raising=False)
    monkeypatch.setattr(spaces, "materialize", materialize)
    rng = np.random.default_rng(6)
    for field in (GF2, GF5):
        systems = [builtin(field)] + [rand(rng, field, depth=5) for _ in range(4)]
        for T in systems:
            for N in range(1, 6):
                calls.update(rref=0, materialize=0)
                normalize(T, N)
                assert calls["rref"] - calls["materialize"] == N


def laurent_window(field=GF2):
    # basis (t^-2, t^-1, 1, t); flags span{1,t} > span{t} > 0
    U1 = Matrix(field, [[0, 0], [0, 0], [1, 0], [0, 1]])
    U2 = Matrix(field, [[0], [0], [0], [1]])
    zero = Matrix.zeros(field, 4, 0)
    return FilteredSpace(field, 4, [U1, U2, zero])


def test_tate_window_trusts_its_flags(rref_calls):
    # fresh: the c-lattice's 5 tail checks and 5 kernels; the flags, nested
    # by construction, are not re-checked, and of the d-lattice only the top
    # dimension is read; a repeat makes only the 5 kernels
    V = laurent_tate(GF2)
    F, _, _ = tate_window(V, 6)
    assert rref_calls[0] == 10
    rref_calls[0] = 0
    assert tate_window(V, 6)[0].flags == F.flags
    assert rref_calls[0] == 5
    assert FilteredSpace(GF2, F.dim, F.flags).flags == F.flags


class TestLatticeCheck:
    def test_power_series_part_is_c_lattice(self):
        F = laurent_window()
        S = M(GF2, [[0, 0], [0, 0], [1, 0], [0, 1]])  # span{1, t}
        res = lattice_check(F, S, "c")
        assert res.ok and res.witness == 1

    def test_negative_powers_are_d_lattice(self):
        F = laurent_window()
        S = M(GF2, [[0, 1], [1, 0], [0, 0], [0, 0]])  # span{t^-1, t^-2}
        res = lattice_check(F, S, "d")
        assert res.ok and res.witness == 1

    def test_not_a_c_lattice(self):
        F = laurent_window()
        S = M(GF2, [[0], [1], [0], [0]])  # span{t^-1}
        res = lattice_check(F, S, "c")
        assert not res.ok and res.witness is None

    def test_complementary_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            flag_dims = sorted({int(d) for d in rng.integers(0, n, size=2)} | {0}, reverse=True)
            base = Matrix(GF2, rng.integers(0, 2, size=(n, n)))
            cols = image_basis(base)
            flags = [cols.take_cols(range(min(d, cols.cols))) for d in flag_dims]
            flags.append(Matrix.zeros(GF2, n, 0))
            F = FilteredSpace(GF2, n, flags)
            k = int(rng.integers(0, len(F.flags) - 1))
            U = F.flags[k]
            from tatevec.exactla import complement_basis

            S = U if U.cols else Matrix.zeros(GF2, n, 0)
            Sprime = complement_basis(S, n)
            if S.cols:
                assert lattice_check(F, S, "c").ok
            assert lattice_check(F, Sprime, "d").ok

    def test_one_rref_per_flag_tried(self, rref_calls):
        # rref([S | U_k]) for each flag up to the witness; the first one also
        # decides that S is independent, which made one more rank(S) call.
        # With no declared flag only rref(S) is left.
        rng = np.random.default_rng(10)
        tried = set()
        for _ in range(30):
            F = rand_filtered_space(rng, GF5, 10, 5)
            declared = len(F.flags) - 1
            for mode in ("c", "d"):
                S = image_basis(Matrix(GF5, rng.integers(0, 5, size=(F.dim, int(rng.integers(1, F.dim + 1))))))
                rref_calls[0] = 0
                res = lattice_check(F, S, mode)
                assert rref_calls[0] == (res.witness if res.ok else max(declared, 1))
                tried.add((mode, res.ok))
        assert tried == {("c", True), ("c", False), ("d", True), ("d", False)}
        lone = FilteredSpace(GF5, 3, [Matrix.zeros(GF5, 3, 0)])
        rref_calls[0] = 0
        assert lattice_check(lone, Matrix.identity(GF5, 3), "c") == LatticeCheck(False, None, "contains no declared flag")
        assert rref_calls[0] == 1

    def test_dependent_columns_come_first(self):
        F = laurent_window()
        for mode in ("c", "d", "x"):
            with pytest.raises(ValueError, match="^S has dependent columns$"):
                lattice_check(F, F.flags[0].take_cols([0, 0]), mode)


class TestTateVerdict:
    def test_power_series_tate(self):
        assert is_tate_verdict(power_series_tower(GF2), 5).verdict == "tate"

    def test_growing_kernels_not_tate(self):
        dims = [1]
        for n in range(1, 8):
            dims.append(dims[-1] + n)

        def trans(n):
            import numpy as np

            out = np.zeros((dims[n - 1], dims[n]), dtype=np.int64)
            for i in range(dims[n - 1]):
                out[i, i] = 1
            return Matrix(GF2, out)

        t = Tower.from_prefix(GF2, dims, [trans(n) for n in range(1, 8)], tail=TailDescriptor("unbounded"))
        res = is_tate_verdict(t, 5)
        assert res.verdict == "not-tate"
        assert res.evidence["profile"] == [1, 2, 3, 4]

    def test_unspecified_inconclusive(self):
        t = Tower.from_prefix(GF2, [2, 2], [Matrix.identity(GF2, 2)])
        res = is_tate_verdict(t, 2)
        assert res.verdict == "inconclusive"

    def test_monotone_in_depth(self):
        t = power_series_tower(GF5)
        verdicts = {is_tate_verdict(t, d).verdict for d in range(1, 7)}
        assert verdicts == {"tate"}

    def test_one_rank_per_transition(self, rref_calls):
        # the 5 tail checks as the transitions are computed give both defect lists
        res = is_tate_verdict(power_series_tower(GF2), 6)
        assert rref_calls[0] == 5
        assert res.evidence["kernel_dims"] == res.evidence["profile"] == [1] * 5
        assert res.evidence["cokernel_dims"] == [0] * 5

    def test_unbounded_inconsistent_prefix_errors(self):
        # kernel dims (1, 0): not nondecreasing, contradicting 'unbounded'
        t = Tower.from_prefix(
            GF2,
            [1, 2, 2],
            [M(GF2, [[1, 0]]), Matrix.identity(GF2, 2)],
            tail=TailDescriptor("unbounded"),
        )
        with pytest.raises(DescriptorViolation):
            is_tate_verdict(t, 3)


class TestPrefixMismatch:
    def test_systems_name_first_level_then_transition(self):
        a = materialize(Tower.from_prefix(GF2, [2, 1, 2], [M(GF2, [[1], [0]]), M(GF2, [[1, 1]])]), 3)
        b = materialize(Tower.from_prefix(GF2, [2, 1, 1], [M(GF2, [[0], [1]]), M(GF2, [[1]])]), 3)
        assert prefix_mismatch(a, a) is None
        assert prefix_mismatch(a, b) == "tower: level 3 dims differ (2 vs 1)"
        c = materialize(Tower.from_prefix(GF2, [2, 1, 2], [M(GF2, [[1], [0]]), M(GF2, [[0, 1]])]), 3)
        assert prefix_mismatch(a, c) == "tower: transition 2 differs"
        assert prefix_mismatch(a, c, "component 4") == "component 4: transition 2 differs"

    def test_tate_and_families_name_the_part(self):
        V = laurent_tate(GF2)
        shifted = TateObj(V.cLattice, constant_indtower(GF2, 1))
        assert prefix_mismatch(materialize(V, 3), materialize(V, 3)) is None
        got = prefix_mismatch(materialize(V, 3), materialize(shifted, 3))
        assert got == "d-lattice: level 2 dims differ (2 vs 1)"
        one = IndLCObj.from_list(GF2, [power_series_tower(GF2)])
        two = IndLCObj.from_list(GF2, [power_series_tower(GF2), constant_tower(GF2, 2)])
        other = IndLCObj.from_list(GF2, [constant_tower(GF2, 1)])
        assert prefix_mismatch(materialize(one, 2), materialize(two, 2)) == "component count changed"
        assert prefix_mismatch(materialize(one, 2), materialize(other, 2)) == "component 1: level 2 dims differ (2 vs 1)"


class TestIsoGuard:
    def test_equal_presentations_certified(self):
        cert = iso_certificate(power_series_tower(GF2), power_series_tower(GF2), 4)
        assert cert is not None and len(cert) == 4

    def test_refuses_cross_kind(self):
        # discrete presentation of the same level dims vs the compact one:
        # a continuous bijection of presentations that is not an isomorphism
        compact = power_series_tower(GF2)
        discrete = polynomial_indtower(GF2)
        with pytest.raises(TypeError):
            iso_certificate(compact, discrete, 4)

    def test_unequal_same_kind_returns_none(self):
        a = constant_tower(GF2, 2)
        b = Tower.from_prefix(
            GF2, [2, 2, 2], [Matrix.identity(GF2, 2), M(GF2, [[0, 1], [1, 0]])]
        )
        assert iso_certificate(a, b, 3) is None
