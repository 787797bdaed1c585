"""Named invariant suites, mirroring the guarantees of each module.

Each check takes no arguments and returns None when its invariant holds
and its failure message otherwise; the CLI `check` subcommand runs a
suite and exits nonzero if anything fails.  Counts follow the stated
contracts (e.g. 1000 consistent systems per field, 100 scrambled grids),
and every check draws from its own fixed seeds, so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from . import bidirected as bd
from .duality import bidual_check, extend_functional, self_dual_decompose
from .exactla import (
    FieldSpec,
    Matrix,
    complement_basis,
    hstack,
    image_basis,
    intersect_columns,
    inverse,
    is_invertible,
    kernel_basis,
    kron,
    rank,
    solve_linear,
    span_contains,
)
from .generators import (
    rand_filtered_space,
    rand_grid,
    rand_indtower,
    rand_invertible,
    rand_matrix,
    rand_pairings,
    rand_selfdual,
    rand_tate,
    rand_tower,
)
from .spaces import (
    FinVect,
    constant_tower,
    is_tate_verdict,
    iso_certificate,
    lattice_check,
    materialize,
    normalize_indtower,
    polynomial_indtower,
    power_series_tower,
    tate_from_finvect,
)
from .splitting import SESLadder, lift_splitting, split_filtered_ses, topological_complement
from .tensor import (
    curry,
    hom_via_tensor,
    index_from_pair,
    pair_from_index,
    swap_matrix,
    tensor_systems,
    uncurry,
)

GF2 = FieldSpec(2)
GF5 = FieldSpec(5)


# suite name -> its checks, in definition order, the order `check` runs them
SUITES: dict[str, list] = {"laws": [], "grid": [], "appendix": []}


def _check(suite, name):
    """Name a check and add it to its suite."""

    def wrap(fn):
        fn.check_name = name
        SUITES[suite].append(fn)
        return fn

    return wrap


# ---------------------------------------------------------------------------
# laws suite: exact linear algebra, spaces, duality, tensor
# ---------------------------------------------------------------------------


@_check("laws", "exactla/solve-linear: 1000 random consistent systems per field")
def check_solve_linear():
    for p in (2, 3, 5, 101):
        field = FieldSpec(p)
        rng = np.random.default_rng(p)
        for _ in range(1000):
            m, n, k = (int(x) for x in rng.integers(1, 6, size=3))
            A = rand_matrix(rng, field, m, n)
            B = A @ rand_matrix(rng, field, n, k)
            X = solve_linear(A, B)
            if X is None or A @ X != B:
                return f"failed over GF({p})"


@_check("laws", "exactla/kernel-image: orthogonality and rank additivity")
def check_kernel_image():
    rng = np.random.default_rng(1)
    for _ in range(200):
        field = FieldSpec(int(rng.choice([2, 3, 5])))
        A = rand_matrix(rng, field, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        K = kernel_basis(A)
        if not (A @ K).is_zero() or K.cols + rank(A) != A.cols:
            return "kernel identity failed"


@_check("laws", "exactla/complement: deterministic greedy direct sums")
def check_complement():
    rng = np.random.default_rng(2)
    for _ in range(200):
        field = FieldSpec(int(rng.choice([2, 5])))
        n = int(rng.integers(1, 8))
        S = image_basis(rand_matrix(rng, field, n, n))
        C1 = complement_basis(S, n)
        C2 = complement_basis(S, n)
        if C1 != C2 or rank(hstack([S, C1])) != n:
            return "complement not deterministic or not complementary"


@_check("laws", "exactla/kron: mixed product law on random composable triples")
def check_kron_mixed():
    rng = np.random.default_rng(3)
    for _ in range(200):
        field = FieldSpec(int(rng.choice([2, 3, 5])))
        a, b, c, d, e, f = (int(x) for x in rng.integers(1, 4, size=6))
        A1, A2 = rand_matrix(rng, field, a, b), rand_matrix(rng, field, b, c)
        B1, B2 = rand_matrix(rng, field, d, e), rand_matrix(rng, field, e, f)
        if kron(A1 @ A2, B1 @ B2) != kron(A1, B1) @ kron(A2, B2):
            return "mixed product law failed"


@_check("laws", "spaces/truncation: prefixes restrict byte-for-byte")
def check_truncation():
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = rand_tower(rng, GF5, depth=6)
        full = materialize(t, 6)
        short = materialize(t, 3)
        if full.dims[:3] != short.dims or full.maps[:2] != short.maps:
            return "restriction differs from direct materialization"


@_check("laws", "spaces/normalize: injective transitions, top level preserved")
def check_normalize():
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = rand_indtower(rng, GF2, depth=4, max_dim=5)
        out, _ = normalize_indtower(t, 4)
        if out.dims[-1] != materialize(t, 4).dims[-1]:
            return "top level changed"
        if any(rank(m) != m.cols for m in out.maps):
            return "a normalized transition is not injective"


@_check("laws", "spaces/lattices: complementary pairs pass both checks (200 spaces)")
def check_lattice_pairs():
    rng = np.random.default_rng(6)
    done = 0
    while done < 200:
        field = FieldSpec(int(rng.choice([2, 5])))
        F = rand_filtered_space(rng, field, max_dim=7, max_flags=4)
        if len(F.flags) < 2:
            continue
        k = int(rng.integers(0, len(F.flags) - 1))
        S = F.flags[k]
        Sp = complement_basis(S, F.dim)
        if S.cols and not lattice_check(F, S, "c").ok:
            return "flag superspace failed the c check"
        if not lattice_check(F, Sp, "d").ok:
            return "complement failed the d check"
        done += 1


@_check("laws", "spaces/verdict: power series is Tate at every depth")
def check_verdict_monotone():
    verdicts = {is_tate_verdict(power_series_tower(GF2), d).verdict for d in range(1, 7)}
    if verdicts != {"tate"}:
        return f"verdicts {verdicts}"


@_check("laws", "duality/involution: 200 random objects per kind, levelwise equality")
def check_involution():
    for field in (GF2, GF5):
        rng = np.random.default_rng(8 + field.p)
        for _ in range(100):
            depth = int(rng.integers(1, 7))
            for obj in (
                rand_tower(rng, field, depth=depth),
                rand_indtower(rng, field, depth=depth),
                rand_tate(rng, field, depth=depth),
            ):
                if not bidual_check(obj, depth).ok:
                    return f"double dual differs over GF({field.p})"


@_check("laws", "duality/contravariance: dual reverses composition exactly")
def check_contravariance():
    rng = np.random.default_rng(9)
    for _ in range(200):
        field = FieldSpec(int(rng.choice([2, 5])))
        a, b, c = (int(x) for x in rng.integers(1, 5, size=3))
        F = rand_matrix(rng, field, c, b)
        G = rand_matrix(rng, field, b, a)
        if (F @ G).T != G.T @ F.T:
            return "transpose does not reverse composition"


@_check("laws", "duality/iso-reflection: map invertible iff its dual is")
def check_iso_reflection():
    rng = np.random.default_rng(10)
    for _ in range(200):
        field = FieldSpec(int(rng.choice([2, 5])))
        n = int(rng.integers(1, 6))
        A = rand_matrix(rng, field, n, n)
        if is_invertible(A) != is_invertible(A.T):
            return "rank differs under transpose"


@_check("laws", "duality/self-dual: 50 scrambled models recover the planted dimension")
def check_selfdual():
    rng = np.random.default_rng(11)
    for _ in range(50):
        field = FieldSpec(int(rng.choice([2, 5])))
        inst = rand_selfdual(rng, field)
        out = self_dual_decompose(inst.space, inst.pairing, inst.lattice)
        if out.D.cols != inst.discrete_dim:
            return f"recovered dim {out.D.cols}, planted {inst.discrete_dim}"
        if not is_invertible(out.change_of_basis) or not is_invertible(out.iso):
            return "certificates do not multiply out"


@_check("laws", "duality/hahn-banach: 200 extensions restrict and kill the witness flag")
def check_extend():
    rng = np.random.default_rng(12)
    done = 0
    while done < 200:
        field = FieldSpec(int(rng.choice([2, 5])))
        F = rand_filtered_space(rng, field, max_dim=8, max_flags=4)
        A = image_basis(rand_matrix(rng, field, F.dim, int(rng.integers(1, F.dim + 1))))
        k = int(rng.integers(1, len(F.flags) + 1))
        meet = intersect_columns(A, F.flags[k - 1])
        coords = solve_linear(A, meet)
        ann = kernel_basis(coords.T).T if meet.cols else Matrix.identity(field, A.cols)
        if ann.rows == 0:
            continue
        f = rand_matrix(rng, field, 1, ann.rows) @ ann
        g = extend_functional(F, A, f, k)
        Uk = F.flags[k - 1]
        if g @ A != f or (Uk.cols and not (g @ Uk).is_zero()):
            return "extension failed its contract"
        done += 1


@_check("laws", "tensor/pair-indexing: diagonal enumeration bijective on 10^4 prefix")
def check_pair_indexing():
    seen = set()
    for n in range(1, 10_001):
        pair = pair_from_index(n)
        if pair in seen or index_from_pair(*pair) != n:
            return f"failure at index {n}"
        seen.add(pair)


@_check("laws", "tensor/symmetry: swap and associator identities, unit laws")
def check_tensor_symmetry():
    rng = np.random.default_rng(14)
    for _ in range(100):
        field = FieldSpec(int(rng.choice([2, 5])))
        m1, m2, n1, n2 = (int(x) for x in rng.integers(1, 4, size=4))
        tA = rand_matrix(rng, field, m1, m2)
        tB = rand_matrix(rng, field, n1, n2)
        if swap_matrix(field, m1, n1) @ kron(tA, tB) != kron(tB, tA) @ swap_matrix(field, m2, n2):
            return "commutativity swap failed"
        k1, k2 = (int(x) for x in rng.integers(1, 4, size=2))
        tC = rand_matrix(rng, field, k1, k2)
        if kron(kron(tA, tB), tC) != kron(tA, kron(tB, tC)):
            return "associativity failed"
    t = power_series_tower(GF2)
    u = tensor_systems(constant_tower(GF2, 1), t)
    a, b = materialize(u, 5), materialize(t, 5)
    if a.dims != b.dims or a.maps != b.maps:
        return "unit law failed"


@_check("laws", "tensor/adjunction: curry and uncurry are inverse dimension-preserving maps")
def check_adjunction():
    rng = np.random.default_rng(16)
    for _ in range(100):
        field = FieldSpec(int(rng.choice([2, 5])))
        a, b, c = (int(x) for x in rng.integers(1, 4, size=3))
        M = rand_matrix(rng, field, c, a * b)
        N = curry(M, a, b, c)
        if uncurry(N, a, b, c) != M:
            return "curry/uncurry is not a bijection"
        x = rand_matrix(rng, field, a, 1)
        y = rand_matrix(rng, field, b, 1)
        hom_x = Matrix(field, (N @ x).data.reshape(c, b))
        if hom_x @ y != M @ kron(x, y):
            return "curried evaluation disagrees"


@_check("laws", "tensor/hom-ev: evaluation tables injective and functorial")
def check_hom_ev():
    rng = np.random.default_rng(17)
    hp = hom_via_tensor(tate_from_finvect(GF5, FinVect(3)), tate_from_finvect(GF5, FinVect(2)), 1)
    a, b = hp.window[0]
    ev = hp.ev[0]
    if rank(ev) != a * b:
        return "table not injective"
    for _ in range(50):
        phi = rand_matrix(rng, GF5, a, 1)
        vec = rand_matrix(rng, GF5, b, 1)
        hom = Matrix(GF5, (ev @ kron(phi, vec)).data.reshape(b, a))
        x = rand_matrix(rng, GF5, a, 1)
        if hom @ x != vec @ (phi.T @ x):
            return "rank-one evaluation mismatch"



# ---------------------------------------------------------------------------
# grid suite
# ---------------------------------------------------------------------------


@_check("grid", "grid/scramble-recover: 100 planted grids block-diagonalize exactly")
def check_grid_recover():
    for field in (GF2, GF5):
        rng = np.random.default_rng(20 + field.p)
        for _ in range(50):
            planted = rand_grid(rng, field)
            dec = bd.grid_decomposition(bd.split_grid(planted.grid, planted.witness))
            cpre = materialize(dec.tate.cLattice, planted.grid.m)
            dpre = materialize(dec.tate.dLattice, planted.grid.n)
            if cpre.dims != planted.Wdims or dpre.dims != planted.Vdims:
                return "planted profiles not recovered"


@_check("grid", "grid/kappa: exchange certificate is the identity in normal form")
def check_grid_kappa():
    for field in (GF2, GF5):
        rng = np.random.default_rng(21 + field.p)
        for _ in range(15):
            planted = rand_grid(rng, field, m=int(rng.integers(1, 5)), n=int(rng.integers(1, 5)))
            cert = bd.kappa_check(bd.split_grid(planted.grid, planted.witness))
            if not cert.ok:
                return "exchange map is not the normal-form identity"


@_check("grid", "grid/duality: dual decomposition equals dualized decomposition")
def check_grid_duality():
    for field in (GF2, GF5):
        rng = np.random.default_rng(22 + field.p)
        for _ in range(10):
            planted = rand_grid(rng, field, m=int(rng.integers(1, 4)), n=int(rng.integers(1, 4)))
            out = bd.dual_grid(planted.grid, planted.witness)
            if not bd.dual_grid_check(planted.witness, out.witness):
                return "duality certificate failed"


@_check("grid", "grid/opens: shrinking flags with exact kernel-image agreement")
def check_grid_opens():
    rng = np.random.default_rng(23)
    for _ in range(20):
        planted = rand_grid(rng, GF2)
        dec = bd.grid_decomposition(bd.split_grid(planted.grid, planted.witness))
        sizes = [u.cols for u in dec.opens]
        if sizes != sorted(sizes, reverse=True):
            return "open subspaces grow"
        for U, proj in zip(dec.opens, dec.pi):
            if not (proj @ U).is_zero() or U.cols != U.rows - rank(proj):
                return "im iota != ker pi"


@_check("grid", "grid/pairings: plant-and-recover with corruption localization")
def check_grid_pairings():
    rng = np.random.default_rng(24)
    for trial in range(25):
        field = GF2 if trial % 2 == 0 else GF5
        fx = rand_pairings(rng, field, m=2, n=2)
        split = fx.planted.planted_split
        out = bd.assemble_pairing(split, fx.mu)
        cout = bd.assemble_pairing(split, fx.lam)
        rep = bd.check_pd_intertwine(split, fx.mu, fx.lam, fx.pd)
        if not (out.ok and cout.ok and rep.ok):
            return "planted windows failed verification"
        # corrupt a single entry and demand localization
        r = int(rng.integers(0, 2))
        c = int(rng.integers(0, 2))
        bad = fx.mu.at(r, c).matrix.data.copy()
        i = int(rng.integers(0, bad.shape[0]))
        j = int(rng.integers(0, bad.shape[1]))
        bad[i, j] = (bad[i, j] + 1) % field.p
        entries = [
            [
                bd.PairingEntry(
                    (rr, cc),
                    Matrix(field, bad) if (rr, cc) == (r, c) else fx.mu.at(rr, cc).matrix,
                )
                for cc in range(2)
            ]
            for rr in range(2)
        ]
        rep2 = bd.check_pd_intertwine(split, bd.PairingFamily("product", entries), fx.lam, fx.pd)
        if rep2.ok or not any(f"({r + 1},{c + 1})" in v for v in rep2.violations):
            return f"corruption at ({r + 1},{c + 1}) not localized"



# ---------------------------------------------------------------------------
# appendix suite
# ---------------------------------------------------------------------------


@_check("appendix", "appendix/splitting: 100 filtered SES instances split flag-compatibly")
def check_appendix_split():
    for field in (GF2, GF5):
        rng = np.random.default_rng(30 + field.p)
        for _ in range(50):
            F = rand_filtered_space(rng, field, max_dim=12, max_flags=6)
            A = image_basis(rand_matrix(rng, field, F.dim, int(rng.integers(1, F.dim + 1))))
            cert = split_filtered_ses(F, A)
            if cert.pi @ A != Matrix.identity(field, A.cols):
                return "retraction does not restrict to the identity"
            for U in F.flags:
                if not span_contains(intersect_columns(A, U), A @ (cert.pi @ U)):
                    return "flag containment failed"
            comp = topological_complement(F, A)
            if A.cols + comp.S.cols != F.dim or intersect_columns(A, comp.S).cols != 0:
                return "complement not certified"


@_check("appendix", "appendix/lift: lifted splittings commute on random ladders")
def check_appendix_ladders():
    rng = np.random.default_rng(34)
    for _ in range(50):
        field = FieldSpec(int(rng.choice([2, 5])))
        a, c = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        n = a + c
        T = rand_invertible(rng, field, n)
        T_inv = inverse(T)
        # the split row in the basis T: i2 is T's first a columns and its
        # complement the rest, so [i2 | K] = T, and p2 and pi1 are the last c
        # and the first a rows of T^-1
        i2 = Matrix._of(field, T.data[:, :a])
        p2 = Matrix._of(field, T_inv.data[a:])
        pi1 = Matrix._of(field, T_inv.data[:a])
        ladder = SESLadder(
            i1=i2, p1=p2, i2=i2, p2=p2,
            f=Matrix.identity(field, a),
            g=Matrix.identity(field, n),
            h=Matrix.identity(field, c),
            pi1=pi1,
        )
        pi2, s1, s2 = lift_splitting(ladder)
        if ladder.f @ pi2 != pi1 @ ladder.g or ladder.g @ s2 != s1 @ ladder.h:
            return "a lifted splitting does not commute"


@_check("appendix", "appendix/lift: the worked GF(2) ladder instance")
def check_appendix_worked():
    one = Matrix.identity(GF2, 1)
    ladder = SESLadder(
        i1=Matrix(GF2, [[1], [0]]),
        p1=Matrix(GF2, [[0, 1]]),
        i2=Matrix(GF2, [[1], [0]]),
        p2=Matrix(GF2, [[0, 1]]),
        f=one,
        g=Matrix(GF2, [[1, 1], [0, 1]]),
        h=one,
        pi1=Matrix(GF2, [[1, 0]]),
    )
    pi2, _, _ = lift_splitting(ladder)
    if pi2 != Matrix(GF2, [[1, 1]]):
        return f"expected [1,1], got {pi2.data.tolist()}"


@_check("appendix", "appendix/open-mapping-guard: no certificate across category tags")
def check_open_mapping_guard():
    compact = power_series_tower(GF2)
    discrete = polynomial_indtower(GF2)
    # same level dims, continuous bijection of presentations, but the library
    # must refuse to certify an isomorphism between the two topologies
    try:
        iso_certificate(compact, discrete, 4)
    except TypeError:
        if iso_certificate(power_series_tower(GF2), power_series_tower(GF2), 4) is None:
            return "identity certificate missing"
    else:
        return "a cross-tag certificate was emitted"
