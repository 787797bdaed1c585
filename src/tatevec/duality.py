"""Topological duality on presentations, self-duality, and functional extension.

Dual bases are always the coordinate dual of the stored basis, so dualizing
is literally matrix transposition: a Tower (linearly compact) dualizes to an
IndTower (discrete) with transposed transitions and the same level
dimensions, and conversely; Tate objects swap their two parts; sums of
compact pieces dualize to products of discrete pieces componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactla import (
    Matrix,
    complement_basis,
    hstack,
    intersect_columns,
    inverse,
    is_invertible,
    kernel_basis,
    rank,
    rref,
)
from .spaces import (
    FilteredSpace,
    FinVect,
    IndLCObj,
    IndTower,
    LinMap,
    ProDiscObj,
    TailDescriptor,
    TateObj,
    Tower,
    lattice_check,
    materialize,
)
from .splitting import quotient_level


def _dual_tail(tail: TailDescriptor) -> TailDescriptor:
    # transposition swaps kernels and cokernels
    if tail.kind == "bounded-ker":
        return TailDescriptor("bounded-coker", tail.bound)
    if tail.kind == "bounded-coker":
        return TailDescriptor("bounded-ker", tail.bound)
    return tail


def dual_object(X):
    """The topological dual of a presentation, of the matching dual kind."""
    if isinstance(X, FinVect):
        return FinVect(X.dim)
    if isinstance(X, LinMap):
        return LinMap(FinVect(X.dst.dim), FinVect(X.src.dim), X.mat.T)
    if isinstance(X, (Tower, IndTower)):
        dual_kind = IndTower if isinstance(X, Tower) else Tower
        return dual_kind(
            X.field,
            lambda n: X.space(n).dim,
            lambda n: X.transition(n).T,
            tail=_dual_tail(X.tail),
            depth=X.depth,
        )
    if isinstance(X, TateObj):
        return TateObj(dual_object(X.dLattice), dual_object(X.cLattice))
    if isinstance(X, (IndLCObj, ProDiscObj)):
        dual_kind = ProDiscObj if isinstance(X, IndLCObj) else IndLCObj
        return dual_kind(X.field, lambda k: dual_object(X.part(k)), X.count)
    raise TypeError(f"cannot dualize {type(X).__name__}")


@dataclass(frozen=True)
class DualityWitness:
    """Level-indexed perfect pairings identifying an object with its bidual."""

    pairings: tuple[Matrix, ...]
    description: str

    def __post_init__(self):
        for m in self.pairings:
            if not is_invertible(m):
                raise ValueError("pairing matrix is not invertible")


@dataclass(frozen=True)
class BidualReport:
    ok: bool
    witness: Optional[DualityWitness]
    mismatch: Optional[str]


def _prefix_pair(kind: str, a, b) -> Optional[str]:
    if a.dims != b.dims:
        for i, (x, y) in enumerate(zip(a.dims, b.dims)):
            if x != y:
                return f"{kind}: level {i + 1} dims differ ({x} vs {y})"
    for i, (x, y) in enumerate(zip(a.maps, b.maps)):
        if x != y:
            return f"{kind}: transition {i + 1} differs"
    return None


def bidual_check(X, depth: int) -> BidualReport:
    """Verify dual(dual(X)) equals X levelwise to the given depth."""
    XX = dual_object(dual_object(X))
    if isinstance(X, FinVect):
        ok = XX.dim == X.dim
        w = DualityWitness((), "finite-dimensional coordinate pairing")
        return BidualReport(ok, w if ok else None, None if ok else "dimension changed")
    field = X.field
    ident = lambda d: Matrix.identity(field, d)
    if isinstance(X, (Tower, IndTower)):
        a, b = materialize(X, depth), materialize(XX, depth)
        bad = _prefix_pair(X.kind, a, b)
        if bad:
            return BidualReport(False, None, bad)
        w = DualityWitness(tuple(ident(d) for d in a.dims), "levelwise coordinate pairings")
        return BidualReport(True, w, None)
    if isinstance(X, TateObj):
        a, b = materialize(X, depth), materialize(XX, depth)
        bad = _prefix_pair("c-lattice", a.c, b.c) or _prefix_pair("d-lattice", a.d, b.d)
        if bad:
            return BidualReport(False, None, bad)
        pair = tuple(ident(d) for d in a.c.dims) + tuple(ident(d) for d in a.d.dims)
        return BidualReport(True, DualityWitness(pair, "c- and d-lattice levels"), None)
    if isinstance(X, (IndLCObj, ProDiscObj)):
        a, b = materialize(X, depth), materialize(XX, depth)
        if len(a.parts) != len(b.parts):
            return BidualReport(False, None, "component count changed")
        pair = []
        for k, (x, y) in enumerate(zip(a.parts, b.parts), start=1):
            bad = _prefix_pair(f"component {k}", x, y)
            if bad:
                return BidualReport(False, None, bad)
            pair.extend(ident(d) for d in x.dims)
        return BidualReport(True, DualityWitness(tuple(pair), "componentwise levels"), None)
    raise TypeError(f"cannot bidual-check {type(X).__name__}")


# ---------------------------------------------------------------------------
# Constructive self-duality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfDualSplit:
    """Certified decomposition of a self-paired space.

    K is the intersection of the chosen c-lattice with the preimage of its
    annihilator, D the deterministic complement, F the finite correction
    with K + F = phi^{-1}(K-perp).  `iso` certifies that the pairing maps
    K + F isomorphically onto functionals on D; `change_of_basis` certifies
    K + D = V.  F is reported, never absorbed.
    """

    K: Matrix
    D: Matrix
    F: Matrix
    iso: Matrix
    change_of_basis: Matrix
    notes: tuple[str, ...]


def self_dual_decompose(V: FilteredSpace, phi: Matrix, L: Matrix) -> SelfDualSplit:
    n = V.dim
    phi_inv = inverse(phi) if phi.shape == (n, n) else None
    if phi_inv is None:
        raise ValueError("pairing map must be an invertible n x n matrix")
    if not lattice_check(V, L, "c").ok:
        raise ValueError("L is not a c-lattice of the filtered space")

    L_perp = kernel_basis(L.T)  # functionals vanishing on L
    K = intersect_columns(L, phi_inv @ L_perp)
    D = complement_basis(K, n)

    K_perp = kernel_basis(K.T)
    P = phi_inv @ K_perp
    # K sits inside phi^{-1}(K-perp); complete it greedily by columns of P in
    # order, which keeps exactly the P-block pivots of rref([K | P])
    _, pivots = rref(hstack([K, P]))
    F = P.take_cols(c - K.cols for c in pivots if c >= K.cols)

    notes = []
    if K.cols == 0:
        notes.append("K is zero")
    if D.cols == 0:
        notes.append("D is zero")
    notes.append(f"finite correction dim {F.cols}")

    # D completes the independent K to a basis, so [K | D] is invertible.
    # [K | F] is a basis of phi^{-1}(K-perp), as wide as D; if x lies there
    # and D^T phi x = 0, then [K | D]^T phi x = 0 and x = 0, so iso is
    # square and injective, hence invertible
    kf = hstack([K, F])
    iso = (D.T @ phi) @ kf if D.cols else Matrix.zeros(phi.field, 0, kf.cols)
    return SelfDualSplit(K, D, F, iso, hstack([K, D]), tuple(notes))


# ---------------------------------------------------------------------------
# Hahn-Banach extension at a truncation level
# ---------------------------------------------------------------------------


def extend_functional(B: FilteredSpace, A: Matrix, f: Matrix, k: int) -> Matrix:
    """Extend a continuous functional from a subspace to the whole space.

    f is a row vector on A's basis; the continuity witness k demands that f
    kill A meet U_k.  The extension descends to the quotient by U_k, is set
    to 0 on the deterministic complement of A's image there, and pulls back,
    so the result restricts to f on A and kills U_k.
    """
    n = B.dim
    if A.rows != n or rank(A) != A.cols:
        raise ValueError("A must be given by independent columns in B")
    if f.shape != (1, A.cols):
        raise ValueError(f"functional on A must be 1 x {A.cols}")
    if not 1 <= k <= len(B.flags):
        raise ValueError("continuity witness index out of range")
    Uk = B.flags[k - 1]

    # f kills A meet U_k, the kernel of the level's acoord, exactly when it
    # factors through acoord; the extension is f on the image of A in B/U_k,
    # 0 on its complement E, pulled back along qcoord
    lvl = quotient_level(n, A, Uk)
    fR = f @ lvl.R
    if fR @ lvl.acoord != f:
        raise ValueError("continuity witness fails: f does not kill A meet U_k")
    g = fR @ lvl.incl_coords @ lvl.qcoord

    if g @ A != f:
        raise AssertionError("internal: extension does not restrict to f")
    if not (g @ Uk).is_zero():
        raise AssertionError("internal: extension does not kill U_k")
    return g


# ---------------------------------------------------------------------------
# Evaluation continuity witness for Tate presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvWitness:
    """The c-lattice, used both as the open U and the compact K, makes the
    evaluation pairing continuous; the annihilator check is run on level
    bases."""

    level: int
    U: Matrix
    U_perp: Matrix
    checked: bool


def ev_witness(V: TateObj, depth: int) -> EvWitness:
    pre = materialize(V, depth)
    l, d = pre.c.dims[-1], pre.d.dims[-1]
    field = V.field
    U = vcat_identity(field, l, d)
    U_perp = kernel_basis(U.T)
    if not (U_perp.T @ U).is_zero():
        raise AssertionError("internal: ev(U x U_perp) != 0")
    return EvWitness(depth, U, U_perp, True)


def vcat_identity(field, l: int, d: int) -> Matrix:
    """Columns spanning the first block of a window of size l + d."""
    import numpy as np

    out = np.zeros((l + d, l), dtype=np.int64)
    for i in range(l):
        out[i, i] = 1
    return Matrix(field, out)
