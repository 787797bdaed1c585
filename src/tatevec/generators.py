"""Seeded random instances with planted ground truth.

Every generated grid is its witness's split form (`bidirected.split_form`)
conjugated by a scramble per cell, as products of stacks, so the planted
dimensions and scramble matrices ride along as a ground-truth record;
consumers that recover the structure can be checked against it exactly.
All generation is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bidirected import (
    BidirectedGrid,
    GridDualityWitness,
    PairingEntry,
    PairingFamily,
    SESWitness,
    SplitGrid,
    check_split,
    split_form,
)
from .exactla import FieldSpec, Matrix, MatrixStack, image_basis, inverse, is_invertible, kron
from .spaces import FilteredSpace, IndTower, TateObj, Tower, _map_shape


def rand_matrix(rng, field: FieldSpec, rows: int, cols: int) -> Matrix:
    return Matrix(field, rng.integers(0, field.p, size=(rows, cols)))


def rand_invertible(rng, field: FieldSpec, n: int) -> Matrix:
    while True:
        M = rand_matrix(rng, field, n, n)
        if is_invertible(M):
            return M


def rand_tower(rng, field: FieldSpec, depth: int = 4, max_dim: int = 8) -> Tower:
    dims = [int(d) for d in rng.integers(0, max_dim + 1, size=depth)]
    maps = [rand_matrix(rng, field, r, c) for r, c in zip(*_map_shape("tower", dims[:-1], dims[1:]))]
    return Tower.from_prefix(field, dims, maps)


def rand_indtower(rng, field: FieldSpec, depth: int = 4, max_dim: int = 8) -> IndTower:
    dims = [int(d) for d in rng.integers(0, max_dim + 1, size=depth)]
    maps = [rand_matrix(rng, field, r, c) for r, c in zip(*_map_shape("indtower", dims[:-1], dims[1:]))]
    return IndTower.from_prefix(field, dims, maps)


def rand_tate(rng, field: FieldSpec, depth: int = 4, max_dim: int = 8) -> TateObj:
    return TateObj(rand_tower(rng, field, depth, max_dim), rand_indtower(rng, field, depth, max_dim))


def rand_filtered_space(rng, field: FieldSpec, max_dim: int = 12, max_flags: int = 6) -> FilteredSpace:
    n = int(rng.integers(1, max_dim + 1))
    base = image_basis(rand_matrix(rng, field, n, n))
    k = int(rng.integers(1, max_flags))
    cuts = sorted({int(x) for x in rng.integers(0, base.cols + 1, size=k)}, reverse=True)
    flags = [base.take_cols(range(d)) for d in cuts]
    if not flags or flags[-1].cols != 0:
        flags.append(Matrix.zeros(field, n, 0))
    # prefixes of one image basis: independent and nested by construction
    return FilteredSpace._of(field, n, flags)


@dataclass(frozen=True)
class PlantedGrid:
    grid: BidirectedGrid
    witness: SESWitness
    scramble: tuple[tuple[Matrix, ...], ...]  # cell coords <- planted block coords
    scramble_inv: tuple[tuple[Matrix, ...], ...]  # planted block coords <- cell coords
    Vdims: tuple[int, ...]
    Wdims: tuple[int, ...]

    @property
    def planted_split(self) -> SplitGrid:
        """The planted change of basis, verified: basis inv(S), inverse S."""
        return check_split(self.grid, self.witness, self.scramble_inv, self.scramble)


def _inv(M: Matrix) -> Matrix:
    out = inverse(M)
    if out is None:
        raise AssertionError("internal: planted scramble is singular")
    return out


def rand_grid(
    rng,
    field: FieldSpec,
    m: int | None = None,
    n: int | None = None,
    max_part: int = 4,
    constant_systems: bool = False,
) -> PlantedGrid:
    """A planted block-diagonal grid scrambled per cell.

    With constant_systems=True the witness systems are constant with
    identity transitions (the shape needed for planting global pairing
    windows).
    """
    m = int(rng.integers(1, 7)) if m is None else m
    n = int(rng.integers(1, 7)) if n is None else n
    if constant_systems:
        v = int(rng.integers(1, max_part + 1))
        w = int(rng.integers(1, max_part + 1))
        Vdims = [v] * n
        Wdims = [w] * m
        Vmaps = [Matrix.identity(field, v) for _ in range(n - 1)]
        Wmaps = [Matrix.identity(field, w) for _ in range(m - 1)]
    else:
        Vdims = [int(d) for d in rng.integers(0, max_part + 1, size=n)]
        Wdims = [int(d) for d in rng.integers(0, max_part + 1, size=m)]
        Vmaps = [rand_matrix(rng, field, r, c) for r, c in zip(*_map_shape("indtower", Vdims[:-1], Vdims[1:]))]
        Wmaps = [rand_matrix(rng, field, r, c) for r, c in zip(*_map_shape("tower", Wdims[:-1], Wdims[1:]))]

    S = [[rand_invertible(rng, field, Vdims[c] + Wdims[r]) for c in range(n)] for r in range(m)]
    S_inv = [[_inv(M) for M in row] for row in S]  # draws nothing from rng
    dims = [[Vdims[c] + Wdims[r] for c in range(n)] for r in range(m)]
    # S [I; 0] is the leading V columns of S, [0 I] S^-1 the trailing W rows of S^-1
    inj = [[Matrix._of(field, S[r][c].data[:, : Vdims[c]]) for c in range(n)] for r in range(m)]
    surj = [[Matrix._of(field, S_inv[r][c].data[Vdims[c] :]) for c in range(n)] for r in range(m)]
    witness = SESWitness.from_stacks(
        Vdims, MatrixStack.of(field, Vmaps, (n - 1,)), Wdims, MatrixStack.of(field, Wmaps, (m - 1,)),
        MatrixStack.of(field, inj, (m, n)), MatrixStack.of(field, surj, (m, n)),
    )
    # every map is its split form conjugated by the scrambles of its ends
    A, A_inv = MatrixStack.of(field, S, (m, n)), MatrixStack.of(field, S_inv, (m, n))
    right, up = split_form(field, witness)
    grid = BidirectedGrid.from_stacks(field, dims, A[:, 1:] @ right @ A_inv[:, :-1], A[:-1] @ up @ A_inv[1:])
    scramble, scramble_inv = (tuple(map(tuple, table)) for table in (S, S_inv))
    return PlantedGrid(grid, witness, scramble, scramble_inv, tuple(Vdims), tuple(Wdims))


@dataclass(frozen=True)
class PlantedPairings:
    planted: PlantedGrid
    mu: PairingFamily
    lam: PairingFamily
    pd: GridDualityWitness
    mu_hat: Matrix  # the global multiplication in planted coordinates
    lam_hat: Matrix


def rand_pairings(rng, field: FieldSpec, m: int = 2, n: int = 2) -> PlantedPairings:
    """Grid with constant systems carrying consistent product, coproduct and
    duality windows, all recorded with same-cell targets.

    A global multiplication and a global duality are chosen in planted
    coordinates and the comultiplication is derived so that the duality
    intertwines the two; everything is then transported through the
    per-cell scrambles.
    """
    planted = rand_grid(rng, field, m=m, n=n, max_part=2, constant_systems=True)
    d = planted.Vdims[0] + planted.Wdims[0]
    mu_hat = rand_matrix(rng, field, d, d * d)
    f_hat = rand_invertible(rng, field, d)
    f_hat_inv = _inv(f_hat)
    lam_hat = (f_hat @ mu_hat @ kron(f_hat_inv, f_hat_inv)).T

    S, S_inv = planted.scramble, planted.scramble_inv
    mu_entries, lam_entries, f_cells, g_cells = [], [], [], []
    for r in range(m):
        mu_row, lam_row, f_row, g_row = [], [], [], []
        for c in range(n):
            Sx, Sx_inv = S[r][c], S_inv[r][c]
            mu_row.append(PairingEntry((r, c), Sx @ mu_hat @ kron(Sx_inv, Sx_inv)))
            lam_row.append(PairingEntry((r, c), kron(Sx, Sx) @ lam_hat @ Sx_inv))
            # f_cell = Sx^-T f_hat Sx^-1, so its inverse is Sx f_hat^-1 Sx^T
            f_row.append(Sx_inv.T @ f_hat @ Sx_inv)
            g_row.append(Sx @ f_hat_inv @ Sx.T)
        mu_entries.append(mu_row)
        lam_entries.append(lam_row)
        f_cells.append(f_row)
        g_cells.append(g_row)
    return PlantedPairings(
        planted,
        PairingFamily("product", mu_entries),
        PairingFamily("coproduct", lam_entries),
        GridDualityWitness(f_cells, g_cells),
        mu_hat,
        lam_hat,
    )


@dataclass(frozen=True)
class PlantedSelfDual:
    space: FilteredSpace
    pairing: Matrix
    lattice: Matrix
    discrete_dim: int


def rand_selfdual(rng, field: FieldSpec, max_half: int = 4) -> PlantedSelfDual:
    """A discrete-plus-dual model scrambled by a flag-preserving automorphism.

    Planted coordinates put the discrete part first and its dual second;
    the pairing is the canonical block antidiagonal, the flags are leading
    segments of the dual block, and the scramble preserves every flag, so
    the planted discrete dimension is recoverable.
    """
    d = int(rng.integers(1, max_half + 1))
    n = 2 * d
    eye = np.eye(d, dtype=np.int64)
    phi = Matrix(field, np.block([[np.zeros((d, d), np.int64), eye], [eye, np.zeros((d, d), np.int64)]]))
    cuts = sorted({d, int(rng.integers(0, d + 1))}, reverse=True)
    flags = [Matrix(field, np.vstack([np.zeros((d, k), np.int64), eye[:, :k]])) for k in cuts]
    if flags[-1].cols != 0:
        flags.append(Matrix.zeros(field, n, 0))

    # flag-preserving automorphism T = [[A, 0], [B, C]]: dual columns stay in
    # the dual block, and C is segment-block-upper-triangular so each leading
    # segment (each flag) maps onto itself
    asc = sorted({c for c in cuts if c > 0})
    segments = [asc[0]] + [asc[i + 1] - asc[i] for i in range(len(asc) - 1)]
    C = np.zeros((d, d), dtype=np.int64)
    off = 0
    for i, size in enumerate(segments):
        C[off : off + size, off : off + size] = rand_invertible(rng, field, size).data
        end = off + size
        col = end
        for j in range(i + 1, len(segments)):
            width = segments[j]
            C[off:end, col : col + width] = rng.integers(0, field.p, size=(size, width))
            col += width
        off = end
    A = rand_invertible(rng, field, d).data
    B = rng.integers(0, field.p, size=(d, d))
    T = Matrix(field, np.block([[A, np.zeros((d, d), np.int64)], [B, C]]))
    T_inv = _inv(T)

    phi_s = T.T @ phi @ T
    # images of nested, independent flags under the invertible T_inv
    flags_s = [T_inv @ U if U.cols else U for U in flags]
    space = FilteredSpace._of(field, n, flags_s)
    return PlantedSelfDual(space, phi_s, flags_s[0], d)
