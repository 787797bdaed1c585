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
    SystemPrefix,
    TailDescriptor,
    TateObj,
    TatePrefix,
    Tower,
    _window_blocks,
    lattice_check,
    materialize,
    prefix_mismatch,
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

        def grow(dims, maps, n):
            # X's kept levels, its tail unchecked: the swapped descriptor
            # checks each transpose once, and ker t = coker t^T
            x_dims, x_maps = X._levels(n)
            return x_dims[len(dims) : n], [t.T for t in x_maps[len(maps) : n - 1]]

        return dual_kind(X.field, grow, _dual_tail(X.tail), X.depth)
    if isinstance(X, TateObj):
        return TateObj(dual_object(X.dLattice), dual_object(X.cLattice))
    if isinstance(X, (IndLCObj, ProDiscObj)):
        dual_kind = ProDiscObj if isinstance(X, IndLCObj) else IndLCObj
        return dual_kind(X.field, lambda made, n: [dual_object(p) for p in X.parts(n)[len(made) :]], X.count)
    raise TypeError(f"cannot dualize {type(X).__name__}")


@dataclass(frozen=True)
class DualityWitness:
    """Level-indexed perfect pairings identifying an object with its bidual.

    `bidual_check` builds every one, each pairing an identity, so none is
    re-checked."""

    pairings: tuple[Matrix, ...]
    description: str


@dataclass(frozen=True)
class BidualReport:
    ok: bool
    witness: Optional[DualityWitness]
    mismatch: Optional[str]


def bidual_check(X, depth: int) -> BidualReport:
    """Verify dual(dual(X)) equals X levelwise to the given depth."""
    XX = dual_object(dual_object(X))
    if isinstance(X, FinVect):
        ok = XX.dim == X.dim
        w = DualityWitness((), "finite-dimensional coordinate pairing")
        return BidualReport(ok, w if ok else None, None if ok else "dimension changed")
    a = materialize(X, depth)  # TypeError on anything but a system, Tate object or family
    bad = prefix_mismatch(a, materialize(XX, depth))
    if bad:
        return BidualReport(False, None, bad)
    if isinstance(a, SystemPrefix):
        systems, what = (a,), "levelwise coordinate pairings"
    elif isinstance(a, TatePrefix):
        systems, what = (a.c, a.d), "c- and d-lattice levels"
    else:
        systems, what = a.parts, "componentwise levels"
    pair = tuple(Matrix.identity(X.field, d) for s in systems for d in s.dims)
    return BidualReport(True, DualityWitness(pair, what), None)


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

    # f kills A meet U_k, the kernel of the level's acoord, exactly when it
    # factors through acoord; the extension is f on the image of A modulo
    # U_k and 0 on its complement E
    lvl = quotient_level(n, A, B.flags[k - 1])
    fR = f @ lvl.R
    if fR @ lvl.acoord != f:
        raise ValueError("continuity witness fails: f does not kill A meet U_k")
    # g A = fR acoord = f, since incl_coords A = acoord (the rows' A block),
    # and g U_k = 0 since incl_coords kills U_k
    return fR @ lvl.incl_coords


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
    U, _ = _window_blocks(V.field, pre.c.dims[-1], pre.d.dims[-1])
    U_perp = kernel_basis(U.T)
    if not (U_perp.T @ U).is_zero():
        raise AssertionError("internal: ev(U x U_perp) != 0")
    return EvWitness(depth, U, U_perp, True)
