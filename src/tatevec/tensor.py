"""Completed * and ! tensor products on presentations.

Both completed tensors are computed on the diagonal cofinal subsystem of
the doubly-indexed (co)limit: level n of a product of towers is the
Kronecker product of the two level-n spaces.  Doubly-indexed families of
summands or factors are reindexed by a single fixed diagonal enumeration.

A product system's grow function makes only the levels it lacks, from the
two factors' levels: dims multiply, and a transition is one `kron` of the
factors' transitions, or the product's previous transition when both
factor maps are the previous level's objects.  A product family's grow
function makes the parts it lacks in one walk of the diagonals,
`first_pairs`.

The output category tags are load-bearing: the * tensor of Tate objects is
an ind-linearly-compact object and the ! tensor a pro-discrete one, never a
Tate object, because the result genuinely can fail to be Tate.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional

import numpy as np

from .duality import dual_object
from .exactla import FieldMismatchError, Matrix, kron
from .spaces import (
    IndLCObj,
    ProDiscObj,
    UNSPECIFIED,
    TailDescriptor,
    TateObj,
    _LazyFamily,
    _LazySystem,
    constant_indtower,
    constant_tower,
    materialize,
    prefix_mismatch,
)


# ---------------------------------------------------------------------------
# Diagonal pair enumeration
# ---------------------------------------------------------------------------


def index_from_pair(i: int, j: int) -> int:
    """Position of (i, j) in the diagonal order (1,1),(1,2),(2,1),(1,3),..."""
    if i < 1 or j < 1:
        raise ValueError("pair entries are 1-based")
    s = i + j
    return (s - 2) * (s - 1) // 2 + i


def pair_from_index(n: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError("index is 1-based")
    s = 2
    while (s - 1) * s // 2 < n:
        s += 1
    i = n - (s - 2) * (s - 1) // 2
    return i, s - i


def _diagonal(s: int, count_a: Optional[int], count_b: Optional[int]) -> range:
    """The i of the pairs (i, s - i) on diagonal s inside the ranges, in order."""
    lo = 1 if count_b is None else max(1, s - count_b)
    hi = s - 1 if count_a is None else min(count_a, s - 1)
    return range(lo, hi + 1)


def first_pairs(n: int, count_a: Optional[int], count_b: Optional[int]) -> list[tuple[int, int]]:
    """The first n pairs of the diagonal order restricted to the given
    ranges (every pair when there are fewer), walked in one pass.

    Whole diagonals are counted: on diagonal s = i + j, i runs over
    [max(1, s - count_b), min(count_a, s - 1)], in increasing order.
    """
    total = _pair_count(count_a, count_b)
    n = n if total is None else min(n, total)
    out, s = [], 1
    while len(out) < n:
        s += 1
        out += ((i, s - i) for i in _diagonal(s, count_a, count_b)[: n - len(out)])
    return out


def pair_at(k: int, count_a: Optional[int], count_b: Optional[int]) -> tuple[int, int]:
    """The k-th pair of `first_pairs`."""
    total = _pair_count(count_a, count_b)
    if total == 0:
        raise IndexError("no pairs over an empty range")
    if k < 1 or (total is not None and k > total):
        raise IndexError(f"pair {k} out of range")
    return first_pairs(k, count_a, count_b)[-1]


def _pair_count(count_a: Optional[int], count_b: Optional[int]) -> Optional[int]:
    if count_a == 0 or count_b == 0:
        return 0
    if count_a is None or count_b is None:
        return None
    return count_a * count_b


# ---------------------------------------------------------------------------
# Tensors of single systems
# ---------------------------------------------------------------------------


def _combine_tails(a: TailDescriptor, b: TailDescriptor) -> TailDescriptor:
    if a.kind == "stabilizing" and b.kind == "stabilizing":
        return a
    return UNSPECIFIED


def _combine_depth(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _same_kind(A, B):
    if type(A) is not type(B):
        raise TypeError(f"no tensor of a {type(A).__name__} with a {type(B).__name__}")
    if A.field != B.field:
        raise FieldMismatchError("tensor over different fields")


def tensor_systems(A: _LazySystem, B: _LazySystem) -> _LazySystem:
    """Tensor of two towers (linearly compact) or two ind-towers (discrete);
    all completed tensors agree on either kind: levelwise Kronecker products
    on the diagonal, of the same kind as the inputs.

    Its grow function reads the factors' prefixes and makes only the levels
    the product lacks: dims multiply, and a new transition is one `kron` of
    the factors' transitions unless both are the very objects of the level
    before, as every map of a constant system is; then it is the product's
    transition before."""
    _same_kind(A, B)

    def grow(dims, maps, n):
        (da, ma), (db, mb) = A.prefix(n), B.prefix(n)
        new = []
        for k in range(len(maps), n - 1):  # 0-based
            same = k > 0 and ma[k] is ma[k - 1] and mb[k] is mb[k - 1]
            new.append((new or maps)[-1] if same else kron(ma[k], mb[k]))
        return list(map(mul, da[len(dims) :], db[len(dims) :])), new

    return type(A)(A.field, grow, _combine_tails(A.tail, B.tail), _combine_depth(A.depth, B.depth))


def tensor_families(A: _LazyFamily, B: _LazyFamily) -> _LazyFamily:
    """The * tensor of two sums of compact pieces, or the ! tensor of two
    products of discrete pieces: pairwise tensors of the parts, enumerated
    diagonally; the parts lacking are made in one walk of the diagonals."""
    _same_kind(A, B)

    def grow(made, n):
        return [tensor_systems(A.part(i), B.part(j)) for i, j in first_pairs(n, A.count, B.count)[len(made) :]]

    return type(A)(A.field, grow, _pair_count(A.count, B.count))


# ---------------------------------------------------------------------------
# Embeddings of Tate objects
# ---------------------------------------------------------------------------


def embed_tate(V: TateObj, target: str):
    """Present a Tate object inside the ind-compact or pro-discrete category.

    indlc: the c-lattice plus the finite-dimensional increments of the
    discrete part, each a constant tower.  prodisc: the d-lattice plus the
    finite quotient increments of the compact part, each a constant system.
    """
    if target == "indlc":
        family, base, other, constant = IndLCObj, V.cLattice, V.dLattice, constant_tower
    elif target == "prodisc":
        family, base, other, constant = ProDiscObj, V.dLattice, V.cLattice, constant_indtower
    else:
        raise ValueError(f"unknown embedding target {target!r}")

    def increment(step):
        if step == 1:
            return other.dim(1)
        # dim(step) - rank(transition(step - 1)): a tower's kernel, an ind-tower's cokernel
        kernel, cokernel = other.defects(step - 1)
        return kernel if other.kind == "tower" else cokernel

    def grow(made, n):
        return [base if k == 1 else constant(V.field, increment(k - 1)) for k in range(len(made) + 1, n + 1)]

    count = None if other.depth is None else other.depth + 1
    return family(V.field, grow, count)


def tensor_star_tate(A: TateObj, B: TateObj) -> IndLCObj:
    """The * tensor of Tate objects, computed through the ind-compact
    embedding.  The result is generally not Tate; the category tag says so."""
    return tensor_families(embed_tate(A, "indlc"), embed_tate(B, "indlc"))


def tensor_bang_tate(A: TateObj, B: TateObj) -> ProDiscObj:
    """The ! tensor of Tate objects, through the pro-discrete embedding."""
    return tensor_families(embed_tate(A, "prodisc"), embed_tate(B, "prodisc"))


# ---------------------------------------------------------------------------
# Hom presentation and evaluation tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomPresentation:
    """Hom(A, B) presented as dual(A) (!)-tensored with B.

    `ev[n-1]` sends level-n tensors phi (x) b to level-n homomorphism
    matrices vec'd row-major; `window` lists the (dim A_n, dim B_n) window
    dimensions the tables act on.
    """

    prodisc: ProDiscObj
    ev: tuple[Matrix, ...]
    window: tuple[tuple[int, int], ...]


def hom_via_tensor(A: TateObj, B: TateObj, depth: int) -> HomPresentation:
    """Hom(A, B) as the ! tensor of the dual of A with B, plus evaluation
    tables mapping rank-one tensors to homomorphism matrices.

    The level-n table sends phi_i (x) b_j, at tensor coordinate i*b + j, to
    the row-major vec of the b x a matrix unit E[j, i], at j*a + i: it is
    the permutation `swap_matrix(field, a, b)`, so the image of
    phi_i (x) b_j is the matrix a -> phi_i(a) b_j and the table is
    invertible by construction.
    """
    if A.field != B.field:
        raise FieldMismatchError("hom over different fields")
    prodisc = tensor_bang_tate(dual_object(A), B)
    pa = materialize(A, depth)
    pb = materialize(B, depth)
    tables = []
    window = []
    for n in range(depth):
        a = pa.c.dims[n] + pa.d.dims[n]
        b = pb.c.dims[n] + pb.d.dims[n]
        tables.append(swap_matrix(A.field, a, b))
        window.append((a, b))
    return HomPresentation(prodisc, tuple(tables), tuple(window))


# ---------------------------------------------------------------------------
# Duality intertwining
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorDualityReport:
    ok: bool
    alignment: tuple[tuple[int, tuple[int, int]], ...]
    mismatch: Optional[str]


def check_tensor_duality(A: IndLCObj, B: IndLCObj, depth: int) -> TensorDualityReport:
    """Compare dual(A *-tensor B) with (dual A) !-tensor (dual B) levelwise.

    Both sides are materialized independently to `depth`, which bounds
    both the number of parts and the levels of each, and aligned by the
    diagonal enumeration; dims and transition matrices must agree exactly.
    """
    lhs = materialize(dual_object(tensor_families(A, B)), depth)
    bad = prefix_mismatch(lhs, materialize(tensor_families(dual_object(A), dual_object(B)), depth))
    if bad:
        return TensorDualityReport(False, (), bad)
    alignment = tuple(enumerate(first_pairs(len(lhs.parts), A.count, B.count), start=1))
    return TensorDualityReport(True, alignment, None)


# ---------------------------------------------------------------------------
# Structure isomorphisms used by the law suites
# ---------------------------------------------------------------------------


def swap_matrix(field, m: int, n: int) -> Matrix:
    """Permutation sending e_i (x) e_j in an m x n tensor to e_j (x) e_i:
    row j*m + i of the result is row i*n + j of the identity."""
    order = np.arange(m * n).reshape(m, n).T.reshape(-1)
    return Matrix._of(field, np.eye(m * n, dtype=np.int64)[order])


def curry(M: Matrix, a: int, b: int, c: int) -> Matrix:
    """Reshape a bilinear map C <- A (x) B into Hom(A, Hom(B, C)).

    Hom(B, C) coordinates are the row-major vec of c x b matrices, so the
    result is a (b*c) x a matrix; currying is a dimension-preserving
    bijection on entries.
    """
    if M.shape != (c, a * b):
        raise ValueError(f"bilinear matrix must be {c} x {a * b}")
    # entry (k, i*b + j) moves to (k*b + j, i)
    return Matrix._of(M.field, M.data.reshape(c, a, b).transpose(0, 2, 1).reshape(b * c, a))


def uncurry(N: Matrix, a: int, b: int, c: int) -> Matrix:
    if N.shape != (b * c, a):
        raise ValueError(f"curried matrix must be {b * c} x {a}")
    # entry (k*b + j, i) moves back to (k, i*b + j)
    return Matrix._of(N.field, N.data.reshape(c, b, a).transpose(0, 2, 1).reshape(c, a * b))
