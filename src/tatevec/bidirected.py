"""Finite bidirected systems and their block-diagonal decomposition.

A grid holds finite-dimensional cells V[r][c] with commuting maps, inverse
along rows (up maps toward row 1, row r encoding the r-th action cutoff
below zero) and direct along columns.  A short-exact-sequence witness
exhibits each cell as an extension of a constant inverse system W_r by a
constant direct system V_c; `split_grid` then conjugates every cell into
the split form (`split_form`) by the double induction with graph
corrections.  The result is one verified `SplitGrid` (basis and inverse
per cell), from which the iterated limit/colimit data and user-supplied
multiplication/comultiplication windows are read off and verified
exactly; the canonical exchange map is then the identity in normal form
(`exchange_normal_form`, checked by `kappa_check`).  The dual grid is
the transpose of a validated grid and needs no split.

Each table of maps of a grid or witness is one `MatrixStack`: zero-padded
int64 arrays, one per bucket of like sizes, with a table of shapes.  The
tables of `Matrix` objects (`G.right[r][c]`, `W.inj[r][c]`, ...) are
read-only views of it.  `validate_grid` and `check_split` check each
identity for all cells at once as one product of stacks, `validate_grid`
completes and inverts the witness cells of like sizes in two
eliminations of stacks, and `dual_grid` transposes the stacks.  Failing
cells are read off boolean tables in row-major order.

The changes of basis are stacks too, from end to end: `validate_grid`
hands them to `split_grid` as two m x n stacks padded by its buckets,
the corrections update those padded arrays (row 1 a cell at a time,
every later row in one stacked step), `check_split` takes the stacks as
they are, and a `SplitGrid` holds them, with `Matrix` views built only
when read.

All verification is exact mod p; reports use 1-based cell indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from functools import cached_property
from typing import Optional

import numpy as np

from .duality import dual_object
from .exactla import (
    Matrix,
    MatrixStack,
    ShapeMismatchError,
    _gather,
    _product,
    block_diag,
    hstack,
    inverse,
    kernel_basis,
    kron,
    pad_buckets,
    rank,
    rref,
    rref_stack,
    vstack,
)
from .spaces import IndTower, TateObj, Tower, _composites, _map_shape, materialize


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


def _lengths(dims) -> np.ndarray:
    """Dimensions as an int64 array, for comparing with matrix shapes.  One
    past the int64 range, which no matrix axis has, reads as -1, which no
    shape equals."""
    try:
        return np.array(dims, dtype=np.int64)
    except OverflowError:
        D = np.array(dims, dtype=object)
        return np.where(D < 2**63, D, -1).astype(np.int64)


def _first_misfit(stack_shapes, rows, cols) -> Optional[list[int]]:
    """The first table index, row-major, where a (rows, cols) table of map
    shapes differs from the wanted rows and cols; None if none does."""
    bad = np.argwhere((stack_shapes[0] != rows) | (stack_shapes[1] != cols))
    return bad[0].tolist() if bad.size else None


def misshapen_map(dims, right: tuple, up: tuple) -> Optional[tuple[str, str]]:
    """The first map whose shape disagrees with the cell dimensions, right
    maps row by row before up maps, as (where, message) with `where` like
    "right[r][c]" (0-based); None if all agree.  `right` and `up` are
    (rows, cols) tables of the maps' shapes."""
    D = _lengths(dims).reshape(len(dims), len(dims[0]) if len(dims) else 0)
    for name, shapes, rows, cols in (("right", right, D[:, 1:], D[:, :-1]), ("up", up, D[:-1], D[1:])):
        at = _first_misfit(shapes, rows, cols)
        if at is not None:
            r, c = at
            return f"{name}[{r}][{c}]", f"{name} map at ({r + 1},{c + 1}) has the wrong shape"
    return None


def _views(stack: str) -> cached_property:
    """The table of read-only `Matrix` views of the `MatrixStack` held as
    `stack`, built on first use."""
    return cached_property(lambda self: getattr(self, stack).matrices())


class BidirectedGrid:
    """m x n grid of spaces; right[r][c]: (r,c)->(r,c+1), up[r][c]: (r+1,c)->(r,c).

    Each family of maps is one `MatrixStack`: `right_stack`, an m x (n-1)
    table, and `up_stack`, an (m-1) x n table.  `right` and `up` are tables
    of read-only `Matrix` views of them.  The constructor checks every
    shape against `dims`; `from_stacks` trusts stacks that agree with them.
    """

    def __init__(self, field, dims, right, up):
        dims = [[int(d) for d in row] for row in dims]
        m = len(dims)
        n = len(dims[0]) if m else 0
        if any(len(row) != n for row in dims):
            raise ValueError("ragged grid")
        right = MatrixStack.of(field, right, (m, max(n - 1, 0)))
        up = MatrixStack.of(field, up, (max(m - 1, 0), n))
        wrong = misshapen_map(dims, (right.rows, right.cols), (up.rows, up.cols))
        if wrong is not None:
            raise ValueError(wrong[1])
        self._adopt(field, dims, right, up)

    def _adopt(self, field, dims, right: MatrixStack, up: MatrixStack):
        self.field = field
        self.dims = dims
        self.m = len(dims)
        self.n = len(dims[0]) if self.m else 0
        self.right_stack = right
        self.up_stack = up

    @classmethod
    def from_stacks(cls, field, dims: list[list[int]], right: MatrixStack, up: MatrixStack) -> "BidirectedGrid":
        """A grid of stacks whose shapes agree with `dims`, unchecked."""
        G = object.__new__(cls)
        G._adopt(field, dims, right, up)
        return G

    right = _views("right_stack")
    up = _views("up_stack")


class SESWitness:
    """Constant systems V_c, W_r with per-cell inclusion and projection.

    Vmaps[c]: V_c -> V_{c+1}, Wmaps[r]: W_{r+1} -> W_r, inj[r][c]: V_c ->
    cell and surj[r][c]: cell -> W_r.  As in `BidirectedGrid`, each family
    is one `MatrixStack` (`Vmaps_stack`, `Wmaps_stack`, `inj_stack`,
    `surj_stack`) and the tables of `Matrix` views are read off it.  The
    constructor checks the transition shapes by `spaces._map_shape`, V
    being a direct and W an inverse system; those of inj and surj depend
    on the grid and are `validate_grid`'s to check.
    """

    def __init__(self, Vdims, Vmaps, Wdims, Wmaps, inj, surj):
        Vdims, Wdims = [int(d) for d in Vdims], [int(d) for d in Wdims]
        m, n = len(Wdims), len(Vdims)
        if not (m and n):
            raise ValueError("a witness needs at least one cell")
        field = inj[0][0].field
        stacks = [
            MatrixStack.of(field, Vmaps, (n - 1,)),
            MatrixStack.of(field, Wmaps, (m - 1,)),
            MatrixStack.of(field, inj, (m, n)),
            MatrixStack.of(field, surj, (m, n)),
        ]
        V, Wd = _lengths(Vdims), _lengths(Wdims)
        for name, kind, S, D in (("V", "indtower", stacks[0], V), ("W", "tower", stacks[1], Wd)):
            at = _first_misfit((S.rows, S.cols), *_map_shape(kind, D[:-1], D[1:]))
            if at is not None:
                raise ValueError(f"{name} map {at[0] + 1} has the wrong shape")
        self._adopt(Vdims, stacks[0], Wdims, *stacks[1:])

    def _adopt(self, Vdims, Vmaps: MatrixStack, Wdims, Wmaps: MatrixStack, inj: MatrixStack, surj: MatrixStack):
        self.Vdims, self.Wdims = Vdims, Wdims
        self.Vmaps_stack, self.Wmaps_stack = Vmaps, Wmaps
        self.inj_stack, self.surj_stack = inj, surj

    @classmethod
    def from_stacks(cls, Vdims, Vmaps: MatrixStack, Wdims, Wmaps: MatrixStack, inj: MatrixStack, surj: MatrixStack):
        """A witness of stacks whose transitions agree with the dimensions, unchecked."""
        W = object.__new__(cls)
        W._adopt(Vdims, Vmaps, Wdims, Wmaps, inj, surj)
        return W

    Vmaps = _views("Vmaps_stack")
    Wmaps = _views("Wmaps_stack")
    inj = _views("inj_stack")
    surj = _views("surj_stack")


@dataclass(frozen=True)
class GridReport:
    ok: bool
    violations: tuple[str, ...]
    # bases = (C, C^-1), two m x n stacks laid out alike: the change of basis
    # of every cell that the witness eliminations give (`_eliminate_cells`),
    # which `split_grid` reuses; set on a valid grid only
    bases: tuple = dataclass_field(default=(), compare=False, repr=False)


class GridValidationError(ValueError):
    """A grid or witness failed `validate_grid`; `report` lists every violation."""

    def __init__(self, report: GridReport):
        super().__init__("grid validation failed: " + "; ".join(report.violations))
        self.report = report


@dataclass(frozen=True, eq=False)
class SplitGrid:
    """A grid and its witness with a verified change of basis per cell.

    basis[r][c] maps cell (r, c) into (V_c block, W_r block) coordinates and
    inverse[r][c] is its inverse.  Conjugated by them, every right map is
    blockdiag(V-transition, identity) and every up map is
    blockdiag(identity, W-transition).  `check_split` verifies all of this
    once and is the only place a SplitGrid is built.  Every phase that
    takes a SplitGrid trusts it.  Both tables are held as m x n
    `MatrixStack`s (`basis_stack`, `inverse_stack`); `basis` and `inverse`
    are tables of read-only `Matrix` views of them, built on first use.
    A SplitGrid compares by identity; its `basis` and `inverse` tables
    compare by entries.
    """

    grid: BidirectedGrid
    witness: SESWitness
    basis_stack: MatrixStack
    inverse_stack: MatrixStack

    basis = _views("basis_stack")
    inverse = _views("inverse_stack")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _identities(field, dims: np.ndarray) -> MatrixStack:
    """The table of identity matrices of the sizes in `dims`."""

    def fill(at, tops):
        d = dims if at is None else dims.reshape(-1)[at]
        return np.eye(tops[0], dtype=np.int64) * (np.arange(tops[0]) < d[..., None, None])

    return MatrixStack._build(field, dims, dims, pad_buckets(dims, dims), fill)


def _place(out: np.ndarray, B: np.ndarray, r0: np.ndarray, c0: np.ndarray):
    """Write each B[i] of a (k, ., .) stack into out[i] at (r0[i], c0[i]),
    padding and all; out must have room for it there."""
    k, Rb, Cb = B.shape
    i = r0.reshape(k, 1, 1) + np.arange(Rb)[:, None]
    j = c0.reshape(k, 1, 1) + np.arange(Cb)
    out[np.arange(k)[:, None, None], i, j] = B


def _block_diags(A: MatrixStack, B: MatrixStack) -> MatrixStack:
    """The table of blockdiag(A[i], B[i]), the two tables broadcast."""
    shape = np.broadcast_shapes(A.rows.shape, B.rows.shape)
    zero = np.zeros(shape, dtype=np.int64)
    ra, ca, rb, cb = (x + zero for x in (A.rows, A.cols, B.rows, B.cols))

    def fill(at, tops):
        Ra, Ca, Rb, Cb = tops
        if at is None:  # one part in the table's shape: A broadcast into it, B broadcast once and placed
            out = np.zeros(shape + (Ra + Rb, Ca + Cb), dtype=np.int64)
            out[..., :Ra, :Ca] = A._take(Ra, Ca)
            Bs = np.broadcast_to(B._take(Rb, Cb), shape + (Rb, Cb)).reshape(zero.size, Rb, Cb)
            _place(out.reshape(zero.size, Ra + Rb, Ca + Cb), Bs, ra.reshape(-1), ca.reshape(-1))
            return out
        out = np.zeros((at.size, Ra + Rb, Ca + Cb), dtype=np.int64)
        out[:, :Ra, :Ca] = A._take(Ra, Ca, at, shape)
        # B's padding fits past any offset
        _place(out, B._take(Rb, Cb, at, shape), ra.reshape(-1)[at], ca.reshape(-1)[at])
        return out

    return MatrixStack._build(A.field, ra + rb, ca + cb, pad_buckets(ra, ca, rb, cb), fill)


def _leads(pivots: list[list[int]], lead: np.ndarray) -> np.ndarray:
    """Whether each echelon form's pivots begin with columns 0, 1, ..., lead - 1."""
    return np.array([piv[:k] == list(range(k)) for piv, k in zip(pivots, lead.tolist())], dtype=bool)


def _eliminate_cells(field, inj: np.ndarray, surj: np.ndarray, d, v, w, composite_zero):
    """The witness eliminations of k well-shaped cells, all cells at once.

    inj and surj are the cells' maps padded to (k, Rd, Cv) and (k, Rw, Rd)
    arrays, where Rd, Cv and Rw are the largest d, v and w, and d, v, w and
    composite_zero are per-cell arrays.  The greedy completion E of inj
    takes e_1, e_2, ... in order, skipping those already in the running
    span; with it [inj | E] is a basis and surj [inj | E] = [0 | SE].  Where
    the composite is zero and E has |W| columns, surj is onto iff SE is
    invertible; every other cell is decided by the rank of its surj.
    Returns (injective, onto, bases): where all of this holds for every
    cell, bases is (C, C^-1), the cells' changes of basis as two
    (k, Rd, Rd) arrays, else None.

    The first elimination is of every [inj^T, columns reversed | I_v], in
    |V| pivot steps.  Its rows span span(inj), coordinates reversed, so
    its pivots in the left block are the reversed last nonzero entries of
    span(inj); e_j is skipped exactly when some vector of span(inj) has its
    last nonzero entry at j.  So inj is injective iff all v pivots fall in
    the left block, the skipped rows are J = {Rd - 1 - pivot}, and E is the
    unit columns at the other rows.  With T the right block, T times the
    left block of the system is its echelon form, whose column at the r-th
    pivot is e_r: inj[J_r] T^T = e_r^T.  So Y, T^T scattered to the columns
    J, has Y inj = I and Y E = 0; it is the inj-coordinate rows of
    [inj | E]^-1.  A cell with |V| > |cell| is not injective and is left
    out, so no system is larger than |cell| x 2 |cell|.  The second
    elimination, of every square [SE | I], inverts SE.

    C = diag(I, SE) [inj | E]^-1 and C^-1 = [inj | E] diag(I, SE^-1).  As
    surj [inj | E] = [0 | SE], the bottom rows of C are surj itself, so C
    stacks Y on surj, and C^-1 = [inj | E SE^-1].
    """
    k, Rd, _ = inj.shape
    fit = v <= d  # the cells left out are cut to Cv columns; their echelon forms go unread
    Cv = int(v[fit].max(initial=0))
    ext = np.zeros((k, Cv, Rd + Cv), dtype=np.int64)
    ext[:, :, :Rd] = inj[:, ::-1, :Cv].transpose(0, 2, 1)
    ext[:, :, Rd:] = np.eye(Cv, dtype=np.int64) * (np.arange(Cv) < v[:, None, None])
    X, pivots = rref_stack(field, ext)
    injective = fit & np.array([not piv or piv[-1] < Rd for piv in pivots], dtype=bool)
    # an injective cell's E has |cell| - |V| columns
    usable = injective & composite_zero & (d - v == w)

    # only where E has |W| columns is SE square; there |W| <= |cell|
    cells = usable.nonzero()[0]
    u = slice(None) if cells.size == k else cells
    wu = w[u]
    Ru = int(wu.max(initial=0))
    # the r-th pivot q of the (at)-th usable cell skips row J = Rd - 1 - q
    hits = [(n, r, Rd - 1 - q) for n, i in enumerate(cells.tolist()) for r, q in enumerate(pivots[i])]
    at, r, J = np.array(hits, dtype=np.intp).reshape(-1, 3).T
    keep = np.arange(Rd) < d[u][:, None]
    keep[at, J] = False
    # each usable cell keeps |W| rows; E's t-th column is the unit column at the t-th of them
    Eu = np.zeros((cells.size, Rd, Ru), dtype=np.int64)
    i, j = keep.nonzero()
    Eu[i, j, np.arange(i.size) - (np.cumsum(wu) - wu)[i]] = 1
    aug = np.zeros((cells.size, Ru, 2 * Ru), dtype=np.int64)
    aug[:, :, :Ru] = _product(surj[u, :Ru], Eu, field.p)
    aug[:, :, Ru:] = np.eye(Ru, dtype=np.int64) * (np.arange(Ru) < wu[:, None, None])
    Y, se_pivots = rref_stack(field, aug)
    onto = np.zeros(k, dtype=bool)
    onto[u] = _leads(se_pivots, wu)
    # the cells SE leaves undecided have a broken witness; each takes a rank
    for i in (~onto).nonzero()[0].tolist():
        onto[i] = rank(Matrix._of(field, surj[i, : w[i], : d[i]])) == w[i]
        if onto[i] and usable[i]:
            raise AssertionError("internal: complement does not project onto W")
    if cells.size < k or not onto.all():
        return injective, onto, None

    # every cell is usable from here on, so its blocks end at its |V| + |W|
    # = |cell| <= Rd; P moves row t of a W block to row v + t of the cell
    P = (np.arange(Rd)[:, None] == v[:, None, None] + np.arange(Ru)).astype(np.int64)
    C = P @ surj[:, :Ru]
    # column J_r of Y is row r of T, zero past its v columns, so the rows of surj keep their values
    C[at, :Cv, J] += X[at, r, Rd:]
    C_inv = np.zeros((k, Rd, Rd), dtype=np.int64)
    C_inv[:, :, :Cv] = inj
    C_inv += _product(Eu, Y[:, :, Ru:], field.p) @ P.transpose(0, 2, 1)
    return injective, onto, (C, C_inv)


def validate_grid(G: BidirectedGrid, W: SESWitness) -> GridReport:
    """Check square commutation and the witness's exactness and naturality.

    Every violated identity is listed with its 1-based cell indices, each
    kind of identity cell by cell in row-major order.  Each identity is one
    product of stacks over all cells, and the witness cells are completed
    and inverted together (`_eliminate_cells`).  The report of a valid
    grid carries the changes of basis those eliminations give, as two
    stacks padded by the buckets they were eliminated in, for `split_grid`.
    """
    bad: list[str] = []
    right, up = G.right_stack, G.up_stack
    square = (up[:, 1:] @ right[1:]).differs(right[:-1] @ up[:, :-1])
    bad += [f"square at ({r + 1},{c + 1}) does not commute" for r, c in np.argwhere(square).tolist()]
    inj, surj = W.inj_stack, W.surj_stack
    if inj.rows.shape != (G.m, G.n):
        raise ShapeMismatchError(f"a {inj.rows.shape} witness of a {(G.m, G.n)} grid")
    D = _lengths(G.dims)
    V = np.broadcast_to(_lengths(W.Vdims), D.shape)
    Wd = np.broadcast_to(_lengths(W.Wdims)[:, None], D.shape)
    misshapen = (inj.rows != D) | (inj.cols != V) | (surj.rows != Wd) | (surj.cols != D)
    composite_zero = ~(surj @ inj).nonzero()
    cells = np.flatnonzero(~misshapen)
    injective, onto = np.zeros(misshapen.size, dtype=bool), np.zeros(misshapen.size, dtype=bool)
    found = []  # each bucket's (C, C^-1) arrays, or None
    d, v, w = (x.reshape(-1)[cells] for x in (D, V, Wd))
    # cells of like sizes are eliminated together: a cell's maps take at
    # most |cell| x (|V| + |W|) and each of its systems |cell| x 2 |cell|
    buckets = pad_buckets(d, np.maximum(d, v + w))
    for at, _ in buckets:
        at = slice(None) if at is None else at
        where = cells[at]
        Rd, Cv, Rw = (int(x[at].max(initial=0)) for x in (d, v, w))
        injective[where], onto[where], pair = _eliminate_cells(
            G.field, inj._take(Rd, Cv, where), surj._take(Rw, Rd, where), d[at], v[at], w[at],
            composite_zero.reshape(-1)[where],
        )
        found.append(pair)
    injective, onto = injective.reshape(D.shape), onto.reshape(D.shape)
    # a well-shaped cell's sizes are those of its maps, so V + W cannot overflow
    fine = ~misshapen & injective & onto & composite_zero & (D == V + Wd)
    for r, c in np.argwhere(~fine).tolist():  # each failing cell, row-major
        cell = f"({r + 1},{c + 1})"
        if misshapen[r, c]:
            bad.append(f"witness shapes wrong at {cell}")
            continue
        if not injective[r, c]:
            bad.append(f"inclusion not injective at {cell}")
        if not onto[r, c]:
            bad.append(f"projection not surjective at {cell}")
        if not composite_zero[r, c]:
            bad.append(f"composite V -> W nonzero at {cell}")
        if W.Vdims[c] + W.Wdims[r] != G.dims[r][c]:
            bad.append(f"cell dimension is not |V|+|W| at {cell}")
    if misshapen.any():  # the naturality identities below need composable maps
        return GridReport(False, tuple(bad))

    Vmaps, Wmaps = W.Vmaps_stack, W.Wmaps_stack
    natural = {
        "right": (
            (right @ inj[:, :-1]).differs(inj[:, 1:] @ Vmaps[None]),
            (surj[:, 1:] @ right).differs(surj[:, :-1]),
        ),
        "up": (
            (up @ inj[1:]).differs(inj[:-1]),
            (surj[:-1] @ up).differs(Wmaps[:, None] @ surj[1:]),
        ),
    }
    for family, (inclusion, projection) in natural.items():
        for r, c in np.argwhere(inclusion | projection).tolist():
            cell = f"{family} map at ({r + 1},{c + 1})"
            if inclusion[r, c]:
                bad.append(f"inclusion not natural for {cell}")
            if projection[r, c]:
                bad.append(f"projection not natural for {cell}")
    if bad:
        return GridReport(False, tuple(bad))
    # every cell is well shaped, so the buckets are those of the whole
    # table, in the order `MatrixStack._build` fills them
    stacks = []
    for i in range(2):
        parts = iter([pair[i] for pair in found])
        stacks.append(MatrixStack._build(G.field, D, D, buckets, lambda at, tops: next(parts)))
    return GridReport(True, (), tuple(stacks))


# ---------------------------------------------------------------------------
# Block diagonalization (double induction with graph corrections)
# ---------------------------------------------------------------------------


def _correct(p: int, C: np.ndarray, C_inv: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells' changes of basis after their graph corrections I + X, as
    zero-padded (..., R, R) arrays, one cell or a stack of them alike.  X
    is reduced mod p and zero outside each cell's block at its top v rows
    and its columns from v on, so X^2 = 0: (I + X) C adds X times C's
    bottom rows to its top v rows, and C^-1 (I - X), the new inverse,
    subtracts C^-1's left v columns times X from its right columns."""
    return (C + _product(X, C, p)) % p, (C_inv - _product(C_inv, X, p)) % p


def _upper_right(R: int, v: np.ndarray) -> np.ndarray:
    """For each offset in v, the R x R mask of the rows below it and the
    columns from it on: where a correction's X may be nonzero."""
    at, v = np.arange(R), v[..., None, None]
    return (at[:, None] < v) & (at >= v)


def split_grid(G: BidirectedGrid, W: SESWitness) -> SplitGrid:
    """Conjugate every cell into split (V_c block, W_r block) coordinates.

    Validates the grid and witness once (GridValidationError on failure)
    and reuses the validation's per-cell eliminations.  After the returned
    change of basis, every right map is blockdiag(V-transition, identity)
    and every up map is blockdiag(identity, W-transition), exactly.  Row 1
    is fixed by a column induction absorbing the off-diagonal block tau of
    each right map into a graph correction; the remaining rows are fixed one
    at a time the same way, absorbing the off-diagonal block sigma of each
    up map.  The diagonal and lower-left blocks need no correction: the
    naturality identities `validate_grid` checks force them, and a
    correction changes only the upper-right block, so tau and sigma are
    products of the blocks they come from.  Each correction I + X has
    inverse I - X, so the inverses are carried along; `_correct` applies
    both as block updates.

    The changes of basis stay two m x n stacks from the validation to
    `check_split`, in the zero-padded arrays of the validation's buckets.
    Row 1's induction is a chain, one cell at a time (n - 1 corrections).
    Cells (r, c) and (r+1, c) share the V offset v_c, so each later row is
    one stacked step over its n columns (one correction per bucket the row
    lies in): X is C_r up_r C_{r+1}^-1 at rows below v_c and columns from
    v_c on.  `check_split` is the one verification of the result,
    including the forced vanishing of the lower rows' right-map
    off-diagonal blocks; a failure names its cell.
    """
    rep = validate_grid(G, W)
    if not rep.ok:
        raise GridValidationError(rep)
    field, p = G.field, G.field.p
    B, B_inv = rep.bases
    D, V = B.rows, _lengths(W.Vdims)
    dims, v = D.tolist(), V.tolist()
    # writable copies of the parts, laid out as B's
    C, C_inv = [P.copy() for P in B.parts], [P.copy() for P in B_inv.parts]

    def corner(parts, r, c):  # the cell's padded array, cut to the cell
        d = dims[r][c]
        if B.slot is None:  # one part laid out as the table
            return parts[0][r, c, :d, :d]
        return parts[B.part[r, c]][B.slot[r, c], :d, :d]

    # row 1: absorb the off-diagonal blocks of the right maps, column by column
    right = G.right_stack[0].blocks()
    for c in range(G.n - 1):
        (d0, d1), (v0, v1) = dims[0][c : c + 2], v[c : c + 2]
        cell, cell_inv = corner(C, 0, c + 1), corner(C_inv, 0, c + 1)
        tau = _product(_product(cell[:v1], right[c], p), corner(C_inv, 0, c)[:, v0:], p)
        X = np.zeros((d1, d1), dtype=np.int64)
        X[:v1, v1:] = -tau % p
        cell[...], cell_inv[...] = _correct(p, cell, cell_inv, X)

    # remaining rows: absorb the up-map off-diagonal blocks, one step per
    # row; X is C_r up_r C_{r+1}^-1 at rows below v_c and columns from v_c
    # on, and only the top v_c <= |cell (r+1, c)| rows of C_r are needed
    if B.slot is None:  # every row is one stack of the table's padding
        T, T_inv = C[0], C_inv[0]
        R = T.shape[-1]
        up, mask = G.up_stack._take(R, R), _upper_right(R, V)
        for r in range(G.m - 1):
            X = _product(_product(T[r], up[r], p), T_inv[r + 1], p) * mask
            T[r + 1], T_inv[r + 1] = _correct(p, T[r + 1], T_inv[r + 1], X)
    else:  # one step per part that the row's cells lie in
        part, slot = B.part, B.slot
        for r in range(G.m - 1):
            for j in sorted(set(part[r + 1].tolist())):
                cols = np.flatnonzero(part[r + 1] == j)
                s, R, K = slot[r + 1, cols], C[j].shape[-1], int(D[r, cols].max())
                top = _gather(C, part[r, cols], slot[r, cols], R, K)
                up = G.up_stack._take(K, R, r * G.n + cols)
                X = _product(_product(top, up, p), C_inv[j][s], p) * _upper_right(R, V[cols])
                C[j][s], C_inv[j][s] = _correct(p, C[j][s], C_inv[j][s], X)

    done = (MatrixStack(field, D, D, tuple(parts), B.part, B.slot) for parts in (C, C_inv))
    return check_split(G, W, *done)


def split_form(field, W: SESWitness) -> tuple[MatrixStack, MatrixStack]:
    """The maps of a grid in the split coordinates of witness W: the m x
    (n-1) table of right maps blockdiag(V-transition, I) and the (m-1) x n
    table of up maps blockdiag(I, W-transition)."""
    V, Wd = _lengths(W.Vdims), _lengths(W.Wdims)[:, None]
    right = _block_diags(W.Vmaps_stack[None], _identities(field, Wd))
    up = _block_diags(_identities(field, V[None]), W.Wmaps_stack[:, None])
    return right, up


def check_split(G: BidirectedGrid, W: SESWitness, basis, inverse) -> SplitGrid:
    """Verify a per-cell change of basis once and wrap it as a SplitGrid.

    `basis` and `inverse` are m x n tables of `Matrix` or `MatrixStack`s.
    Checks exactly that basis[r][c] @ inverse[r][c] is the identity of a
    cell of dimension |V_c| + |W_r|, and the split form of every right and
    up map, each as one product of stacks over all cells.  The first
    failure, in the order of the checks and then row-major, raises
    AssertionError naming its cell.
    """
    field = G.field
    B, B_inv = (T if isinstance(T, MatrixStack) else MatrixStack.of(field, T, (G.m, G.n)) for T in (basis, inverse))
    D, V, Wd = _lengths(G.dims), _lengths(W.Vdims), _lengths(W.Wdims)[:, None]
    shape = (D != V + Wd) | (B.rows != D) | (B.cols != D) | (B_inv.rows != D) | (B_inv.cols != D)
    wrong = shape | (B @ B_inv).differs(_identities(field, D))
    for r, c in np.argwhere(wrong)[:1].tolist():
        what = "basis shape" if shape[r, c] else "inverse"
        raise AssertionError(f"split check failed: {what} wrong at ({r + 1},{c + 1})")
    split_right, split_up = split_form(field, W)
    for family, conj, want in (
        ("right", B[:, 1:] @ G.right_stack @ B_inv[:, :-1], split_right),
        ("up", B[:-1] @ G.up_stack @ B_inv[1:], split_up),
    ):
        for r, c in np.argwhere(conj.differs(want))[:1].tolist():
            raise AssertionError(f"split check failed: {family} map at ({r + 1},{c + 1})")
    return SplitGrid(G, W, B, B_inv)


# ---------------------------------------------------------------------------
# Decomposition into compact and discrete parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridDecomposition:
    """Normal form of the grid's iterated (co)limit at truncation.

    The compact part is the W-tower, the discrete part the V-system.  For
    each row cutoff r, pi[r-1] projects the total window onto what is
    visible strictly above the cutoff, and opens[r-1] = ker pi is the
    corresponding open subspace of the total window (in normal-form
    coordinates; `opens_grid` gives the same subspaces in the corner cell's
    original coordinates).  Its basis columns are also the inclusion iota
    of the compact stage below the cutoff, so im iota = ker pi.
    """

    tate: TateObj
    pi: tuple[Matrix, ...]
    opens: tuple[Matrix, ...]
    opens_grid: tuple[Matrix, ...]
    corner_basis: Matrix


def _witness_tate(field, W: SESWitness) -> TateObj:
    """The Tate object of a witness: the W-tower is compact, the V-system discrete."""
    return TateObj(
        Tower.from_prefix(field, W.Wdims, W.Wmaps), IndTower.from_prefix(field, W.Vdims, W.Vmaps)
    )


def grid_decomposition(S: SplitGrid) -> GridDecomposition:
    """The normal form of S's iterated (co)limit, every row cutoff at once.

    Cutoff r projects the corner's V_n + W_m onto V_n + W_r (W_0 = 0)
    along the tail W_m -> W_r of the tower, so pi[r-1] is blockdiag(I,
    tail) and the open subspace is the kernel of the tail below V_n: all of
    W_m at the first cutoff, one `kernel_basis` per cutoff after it.  pi,
    the open bases and their images under the corner's inverse are built
    as zero-padded stacks, the images as one product with the inverse's
    last |W_m| columns, since every open basis is zero in its first |V_n|
    rows.
    """
    G, W = S.grid, S.witness
    field, p, m = G.field, G.field.p, G.m
    v_n, w_m = W.Vdims[-1], W.Wdims[-1]
    d = v_n + w_m
    w = [0] + W.Wdims[:-1]  # the cutoffs' W_r
    pi = np.zeros((m, v_n + max(w), d), dtype=np.int64)
    pi[:, :v_n, :v_n] = np.eye(v_n, dtype=np.int64)
    opens = np.zeros((m, d, w_m), dtype=np.int64)
    opens[0, v_n:] = np.eye(w_m, dtype=np.int64)
    k = [w_m]
    for r, f in enumerate(_composites("tower", field, w_m, W.Wmaps)[:-1], start=1):  # W_m -> W_r
        pi[r, v_n : v_n + w[r], v_n:] = f.data
        K = kernel_basis(f).data
        opens[r, v_n:, : K.shape[1]] = K
        k.append(K.shape[1])
    opens_grid = _product(S.inverse_stack[-1, -1].blocks()[0][:, v_n:], opens[:, v_n:], p)

    def views(stack, rows, cols):
        return tuple(Matrix._of(field, stack[r, : rows[r], : cols[r]]) for r in range(m))

    return GridDecomposition(
        _witness_tate(field, W),
        views(pi, [v_n + x for x in w], [d] * m),
        views(opens, [d] * m, k),
        views(opens_grid, [d] * m, k),
        S.basis[-1][-1],
    )


# ---------------------------------------------------------------------------
# Finite limits and colimits of chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainLimit:
    basis: Matrix  # columns: compatible tuples inside the block sum
    projections: tuple[Matrix, ...]

    def coords(self, X: Matrix) -> Optional[Matrix]:
        """Y with basis @ Y == X, or None if some column of X is not a
        compatible tuple.  The last block of the basis is the identity, so
        Y can only be the last block of X."""
        Y = Matrix._of(X.field, X.data[X.rows - self.basis.cols :])
        return Y if self.basis @ Y == X else None


@dataclass(frozen=True)
class ChainColimit:
    classes: Matrix  # block sum -> colimit coordinates
    reps: Matrix  # representative columns of the colimit basis
    injections: tuple[Matrix, ...]


def chain_limit(field, dims: list[int], maps: list[Matrix]) -> ChainLimit:
    """Limit of X_1 <- X_2 <- ... as compatible tuples; maps[i]: X_{i+2} -> X_{i+1}.

    A compatible tuple is fixed by its last coordinate, so the basis is
    vstack(f_1...f_{k-1}, ..., f_{k-1}, I): the canonical kernel basis of
    [I -f_1 0 ...; 0 I -f_2 ...; ...], whose free columns are the last block.
    """
    projections = _composites("tower", field, dims[-1], maps)
    return ChainLimit(vstack(projections), tuple(projections))


def chain_colimit(field, dims: list[int], maps: list[Matrix]) -> ChainColimit:
    """Colimit of X_1 -> X_2 -> ... as a quotient; maps[i]: X_{i+1} -> X_{i+2}.

    The relations x - f_i(x) span the kernel of F = [F_1 | ... | F_{k-1} | I],
    where F_i: X_i -> X_k runs along the chain.  So the greedy completion of
    the relations is the unit columns at the pivots of rref(F), and rref(F)
    itself gives the coordinates on the quotient.
    """
    k = len(dims)
    offs = np.cumsum([0] + dims).tolist()
    total = offs[-1]
    classes, pivots = rref(hstack(_composites("indtower", field, dims[-1], maps)))
    reps = Matrix._of(field, np.eye(total, dtype=np.int64)[:, pivots])
    injections = tuple(Matrix._of(field, classes.data[:, offs[i] : offs[i + 1]]) for i in range(k))
    return ChainColimit(classes, reps, injections)


# ---------------------------------------------------------------------------
# The exchange map between the two iterated (co)limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExchangeCertificate:
    """The canonical map colim-of-limits -> limit-of-colimits and its normal
    form, as the oracle `kappa_check` computes them; on a SplitGrid the
    normal form is the identity (`exchange_normal_form`)."""

    matrix: Matrix
    normal_form: Matrix
    ok: bool


def exchange_normal_form(S: SplitGrid) -> Matrix:
    """The normal form of the exchange map, the identity of size |V_n| +
    |W_m|, which `decompose` prints: it follows from `validate_grid` and
    `check_split`, which made S.  In `kappa_check`'s names, C the corner's
    change of basis:
    - psi_source = source.injections[n-1] C^-1, the corner's limit
      coordinates being the identity;
    - the commuting squares make phi constant on row m's colimit classes,
      so phi reps injections[n-1] is phi's last block: kappa psi_source =
      psi_target, and psi_target^-1 kappa psi_source = I;
    - both inverses exist: the last injection of a chain colimit is the
      last block T of rref([F_1 | ... | I]) = T [F_1 | ... | I].
    """
    return Matrix.identity(S.grid.field, S.witness.Vdims[-1] + S.witness.Wdims[-1])


def kappa_check(S: SplitGrid) -> ExchangeCertificate:
    """Compute the exchange map and compare it with the normal form: the
    oracle for `exchange_normal_form`, which `check --suite grid` runs.

    The canonical map from the colimit of the column limits to the limit of
    the row colimits is read off the two routes through the grid and
    conjugated into normal-form coordinates through the corner cell.  Route
    1's colimit is route 2's colimit of row m and the corner's image is the
    last block of the map, so neither is computed twice.  The
    commuting squares of the SplitGrid make the up maps descend to the row
    colimits, and the construction of `chain_colimit` makes the map
    constant on colimit classes, so neither is checked again; what is
    checked is that every limit coordinate exists (`ChainLimit.coords`) and
    that the corner spans the limit of the row colimits.
    """
    G, W = S.grid, S.witness
    field = G.field
    m, n = G.m, G.n

    # route 1: limits of the columns, then the colimit of those limits
    col_limits = [
        chain_limit(field, [G.dims[r][c] for r in range(m)], [G.up[r][c] for r in range(m - 1)])
        for c in range(n)
    ]
    for c in range(n - 1):
        big_right = block_diag([G.right[r][c] for r in range(m)], field=field)
        if col_limits[c + 1].coords(big_right @ col_limits[c].basis) is None:
            raise AssertionError("internal: right maps do not preserve column limits")

    # route 2: colimits of the rows, then the limit of those colimits
    row_colims = [
        chain_colimit(field, [G.dims[r][c] for c in range(n)], [G.right[r][c] for c in range(n - 1)])
        for r in range(m)
    ]
    # a column limit's basis ends in the identity, so its coordinates are
    # the last row's, the right maps of the last row are the maps between
    # the column limits, and route 1's colimit is that of the last row
    source = row_colims[-1]
    colim_dims = [Cr.reps.cols for Cr in row_colims]
    colim_maps = []
    for r in range(m - 1):
        big_up = block_diag([G.up[r][c] for c in range(n)], field=field)
        colim_maps.append(row_colims[r].classes @ (big_up @ row_colims[r + 1].reps))
    target = chain_limit(field, colim_dims, colim_maps)

    # the canonical map: slice a column-limit tuple into rows, take classes
    blocks = []
    for c in range(n):
        L = col_limits[c]
        blocks.append(vstack([row_colims[r].injections[c] @ L.projections[r] for r in range(m)]))
    phi = hstack(blocks)  # block sum of column limits -> block sum of row colimits
    kappa = target.coords(phi @ source.reps)
    if kappa is None:
        raise AssertionError("internal: exchange image is not a compatible family")

    # normal-form comparison through the corner cell, whose limit
    # coordinates are the identity (see `exchange_normal_form`)
    v_n, w_m = W.Vdims[-1], W.Wdims[-1]
    corner_inv = S.inverse[m - 1][n - 1]
    psi_source = source.injections[n - 1] @ corner_inv
    psi_target_lim = target.coords(blocks[-1])
    if psi_target_lim is None:
        raise AssertionError("internal: corner image is not in the iterated colimit")
    psi_target_inv = inverse(psi_target_lim @ corner_inv)
    if psi_target_inv is None:
        raise AssertionError("internal: corner does not span the iterated (co)limits")
    normal = psi_target_inv @ kappa @ psi_source
    # psi_source and psi_target_inv are invertible, so normal == I makes kappa so
    ok = normal == Matrix.identity(field, v_n + w_m)
    return ExchangeCertificate(kappa, normal, ok)


# ---------------------------------------------------------------------------
# Dual grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualGridResult:
    grid: BidirectedGrid
    witness: SESWitness
    certificate_ok: bool
    detail: str


def dual_grid(G: BidirectedGrid, W: SESWitness) -> DualGridResult:
    """Transpose all maps, exchanging the inverse and direct directions.

    Validates the grid and witness once (GridValidationError on failure).
    Cell (r', c') of the dual is the dual of cell (c', r'); the witness
    systems swap roles with transposed maps, so the compact and discrete
    parts trade places.  Nothing is split: the dual grid and witness are
    the transposes of G and W, so the dual witness's Tate object is the
    dual of the original's by construction and the certificate holds
    without comparing them; `dual_grid_check`, the oracle, compares them.
    """
    rep = validate_grid(G, W)
    if not rep.ok:
        raise GridValidationError(rep)
    dims2 = [list(col) for col in zip(*G.dims)]
    G2 = BidirectedGrid.from_stacks(G.field, dims2, G.up_stack.T, G.right_stack.T)
    W2 = SESWitness.from_stacks(
        list(W.Wdims), W.Wmaps_stack.T, list(W.Vdims), W.Vmaps_stack.T, W.surj_stack.T, W.inj_stack.T
    )
    return DualGridResult(G2, W2, True, "dual decomposition matches dualized decomposition levelwise")


def dual_grid_check(W: SESWitness, W2: SESWitness) -> bool:
    """Whether the Tate object of W2, the witness `dual_grid` returns for
    W, equals the dual of W's levelwise, through every level of the grid."""
    field = W.inj_stack.field
    dual, tate2 = dual_object(_witness_tate(field, W)), _witness_tate(field, W2)
    n, m = len(W.Vdims), len(W.Wdims)
    want = (materialize(dual.cLattice, n), materialize(dual.dLattice, m))
    return (materialize(tate2.cLattice, n), materialize(tate2.dLattice, m)) == want


# ---------------------------------------------------------------------------
# Pairing families (multiplication / comultiplication windows)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingEntry:
    target: tuple[int, int]  # 0-based cell indices
    matrix: Matrix


class PairingFamily:
    """Per-cell bilinear windows with recorded target cells.

    kind 'product': matrix maps cell (x) cell -> target cell.
    kind 'coproduct': matrix maps cell -> target (x) target.
    Entries may be absent (None) when the window arithmetic leaves the
    truncated grid; such cells are skipped and reported.
    """

    def __init__(self, kind: str, entries):
        if kind not in ("product", "coproduct"):
            raise ValueError(f"unknown pairing kind {kind!r}")
        self.kind = kind
        self.entries = entries  # entries[r][c]: Optional[PairingEntry]

    def at(self, r: int, c: int) -> Optional[PairingEntry]:
        return self.entries[r][c]


@dataclass(frozen=True)
class InducedLevel:
    index: int  # 1-based row (product) or column (coproduct)
    cell: tuple[int, int]  # 1-based source cell
    target: tuple[int, int]  # 1-based target cell
    matrix: Matrix
    complementary_block_zero: bool


@dataclass(frozen=True)
class PairingAssembly:
    ok: bool
    violations: tuple[str, ...]
    residuals: tuple[Matrix, ...]  # one per violation, the failed difference
    skipped: tuple[str, ...]
    induced: tuple[InducedLevel, ...]


def _path_map(G: BidirectedGrid, src: tuple[int, int], dst: tuple[int, int]) -> Optional[Matrix]:
    """Composite of up then right maps from src to dst, if the order allows."""
    (r1, c1), (r2, c2) = src, dst
    if r2 > r1 or c2 < c1:
        return None
    out = Matrix.identity(G.field, G.dims[r1][c1])
    for r in range(r1 - 1, r2 - 1, -1):
        out = G.up[r][c1] @ out
    for c in range(c1, c2):
        out = G.right[r2][c] @ out
    return out


def _in_grid(G: BidirectedGrid, P: PairingFamily, skipped: list[str], absent: str, outside: str):
    """The recorded windows of P whose targets lie in the grid, as (r, c,
    entry) in row-major order; each other cell is noted in `skipped` as it
    is passed, with the reason `absent` or `outside`."""
    for r in range(G.m):
        for c in range(G.n):
            e = P.at(r, c)
            if e is None or not (0 <= e.target[0] < G.m and 0 <= e.target[1] < G.n):
                skipped.append(f"cell ({r + 1},{c + 1}): {absent if e is None else outside}")
                continue
            yield r, c, e


def assemble_pairing(S: SplitGrid, P: PairingFamily) -> PairingAssembly:
    """Check naturality of pairing windows and read off the induced map on
    the normal form.

    Naturality: for adjacent cells, transporting the window along the grid
    structure maps must agree with the structure path between the recorded
    targets.  A product window (cell (x) cell -> target) induces one level
    per row: its W (x) W -> W block in normal-form coordinates (the limit
    stage) at the rightmost available column (the colimit stage).  A
    coproduct window (cell -> target (x) target) induces one level per
    column: its V -> V (x) V block (the colimit stage) at the deepest
    available row (the limit stage).
    """
    G, W = S.grid, S.witness
    product = P.kind == "product"

    def src(M):  # the tensor square sits on the source of a product window
        return kron(M, M) if product else M

    def tgt(M):  # and on the target of a coproduct window
        return M if product else kron(M, M)

    bad: list[str] = []
    residuals: list[Matrix] = []
    skipped: list[str] = []
    cells = {}
    for r, c, e in _in_grid(G, P, skipped, "no window recorded", "target outside the grid"):
        d, dt = G.dims[r][c], G.dims[e.target[0]][e.target[1]]
        want = (dt, d * d) if product else (dt * dt, d)
        if e.matrix.shape != want:
            bad.append(f"cell ({r + 1},{c + 1}): window matrix has shape {e.matrix.shape}, expected {want}")
            residuals.append(e.matrix)
            continue
        cells[(r, c)] = e

    for (r, c), e in sorted(cells.items()):
        for (r2, c2), move in (((r, c + 1), "right"), ((r - 1, c), "up")):
            if (r2, c2) not in cells:
                continue
            e2 = cells[(r2, c2)]
            step = G.right[r][c] if move == "right" else G.up[r - 1][c]
            path = _path_map(G, e.target, e2.target)
            if path is None:
                skipped.append(
                    f"cells ({r + 1},{c + 1})->({r2 + 1},{c2 + 1}): targets not comparable"
                )
                continue
            lhs = e2.matrix @ src(step)
            rhs = tgt(path) @ e.matrix
            if lhs != rhs:
                bad.append(f"window at ({r + 1},{c + 1}) is not natural along {move}")
                residuals.append(lhs - rhs)

    induced = []
    axis = 0 if product else 1  # product levels are rows, coproduct levels columns
    for level in range(G.m if product else G.n):
        found = [cell for cell in cells if cell[axis] == level]
        if not found:
            continue
        r, c = max(found)  # rightmost column of the row / deepest row of the column
        e = cells[(r, c)]
        tr, tc = e.target
        conj = tgt(S.basis[tr][tc]) @ e.matrix @ src(S.inverse[r][c])
        v, d = W.Vdims[c], G.dims[r][c]
        vt, dt = W.Vdims[tc], G.dims[tr][tc]
        if product:  # W (x) W -> W
            src_idx = [i * d + j for i in range(v, d) for j in range(v, d)]
            tgt_idx = list(range(vt, dt))
        else:  # V -> V (x) V
            src_idx = list(range(v))
            tgt_idx = [i * dt + j for i in range(vt) for j in range(vt)]
        block = conj.data.take(tgt_idx, axis=0).take(src_idx, axis=1)
        rest = np.delete(conj.data, tgt_idx, axis=0).take(src_idx, axis=1)
        induced.append(
            InducedLevel(level + 1, (r + 1, c + 1), (tr + 1, tc + 1), Matrix._of(G.field, block), not rest.any())
        )
    return PairingAssembly(not bad, tuple(bad), tuple(residuals), tuple(skipped), tuple(induced))


# ---------------------------------------------------------------------------
# Duality intertwining of product and coproduct windows
# ---------------------------------------------------------------------------


class GridDualityWitness:
    """Per-cell isomorphisms into dual-grid coordinates with inverses."""

    def __init__(self, f, g):
        self.f = f  # f[r][c]: cell -> reflected dual cell coordinates
        self.g = g  # inverse of f per cell


@dataclass(frozen=True)
class IntertwineReport:
    ok: bool
    violations: tuple[str, ...]
    residuals: tuple[Matrix, ...]  # one per violated square
    skipped: tuple[str, ...]
    checked: int


def check_pd_intertwine(
    S: SplitGrid, P_mu: PairingFamily, P_lambda: PairingFamily, PD: GridDualityWitness
) -> IntertwineReport:
    """Verify, cell by cell, that the duality witness intertwines the
    multiplication windows with the transposed comultiplication windows:
    f_target . mu_x = (lambda_target)^T . (f_x (x) f_x), exactly."""
    G = S.grid
    bad: list[str] = []
    residuals: list[Matrix] = []
    skipped: list[str] = []
    checked = 0
    for r in range(G.m):
        for c in range(G.n):
            f, g = PD.f[r][c], PD.g[r][c]
            d = G.dims[r][c]
            if f.shape != (d, d) or g.shape != (d, d) or f @ g != Matrix.identity(G.field, d):
                bad.append(f"duality witness at ({r + 1},{c + 1}) is not an isomorphism pair")
                residuals.append(f @ g - Matrix.identity(G.field, d) if f.shape == g.shape == (d, d) else f)
    for r, c, e in _in_grid(G, P_mu, skipped, "no product window", "product target outside the grid"):
        tr, tc = e.target
        lam = P_lambda.at(tr, tc)
        if lam is None:
            skipped.append(f"cell ({r + 1},{c + 1}): no coproduct window at the target")
            continue
        ft, fx = PD.f[tr][tc], PD.f[r][c]
        dt, dx = G.dims[tr][tc], G.dims[r][c]
        # every shape before any product: f_target mu_x = lambda_target^T (f_x (x) f_x)
        if (ft.shape, fx.shape, e.matrix.shape, lam.matrix.shape) != ((dt, dt), (dx, dx), (dt, dx * dx), (dx * dx, dt)):
            skipped.append(f"cell ({r + 1},{c + 1}): window shapes do not line up under reflection")
            continue
        checked += 1
        lhs = ft @ e.matrix
        rhs = lam.matrix.T @ kron(fx, fx)
        if lhs != rhs:
            bad.append(f"duality square fails at cell ({r + 1},{c + 1})")
            residuals.append(lhs - rhs)
    return IntertwineReport(not bad, tuple(bad), tuple(residuals), tuple(skipped), checked)
