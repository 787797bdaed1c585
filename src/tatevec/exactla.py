"""Deterministic dense linear algebra over prime fields GF(p).

Everything downstream (towers, duality, tensor products, grid
decompositions) reduces to the operations in this module.  Arithmetic is
exact modulo a prime; there are no tolerances anywhere.  All tie-breaking
(pivot choice, free variables, complement completion) is lexicographic so
that repeated runs are byte-identical.

Every elimination goes through the one `rref` kernel: rank, solve,
kernel, image, basis completion (with its coordinates), inverse and span
tests each read what they need from a single echelon form, of M itself or
of M with a block appended.  Over GF(2) `rref` eliminates on bit-packed
rows, one Python int per row, with a pivot clearing its column by one XOR
per row; over GF(p > 2) by int64 rank-1 updates.  Both return the same
read-only int64 echelon form, so nothing above `rref` depends on p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class FieldMismatchError(ValueError):
    """Operands live over different prime fields."""


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# the rank-1 row update of `_rref_modp` holds values down to -(p-1)^2 and
# up to p-1 in int64; larger moduli would overflow it
_INT64_LIMIT = 2**63


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p), p checked by trial division.

    p must satisfy (p-1)^2 + (p-1) < 2^63, so that elimination stays exact
    in int64; larger moduli are rejected before the primality test.
    """

    p: int

    def __post_init__(self):
        if (self.p - 1) ** 2 + (self.p - 1) >= _INT64_LIMIT:
            raise ValueError(f"modulus {self.p} is too large for exact int64 elimination")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"


class Matrix:
    """Immutable dense matrix over GF(p): read-only int64 data in [0, p).

    The public constructor converts, checks and reduces its data.  Results
    of this module whose data is reduced by construction (products taken
    mod p, echelon forms, slices and stacks of reduced data) go through
    `_of`, which trusts it.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: FieldSpec, data):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"expected 2-d data, got shape {arr.shape}")
        self._adopt(field, np.mod(arr, field.p))

    def _adopt(self, field: FieldSpec, arr: np.ndarray):
        arr.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _of(cls, field: FieldSpec, arr: np.ndarray) -> "Matrix":
        """Wrap 2-d int64 data already reduced mod p, unchecked and uncopied."""
        M = object.__new__(cls)
        M._adopt(field, arr)
        return M

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(cls, field: FieldSpec, rows: int, cols: int, entries) -> "Matrix":
        if len(entries) != rows * cols:
            raise ShapeMismatchError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        return cls(field, np.array(entries, dtype=np.int64).reshape(rows, cols))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls._of(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls._of(field, np.eye(n, dtype=np.int64))

    # -- basic structure ---------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def T(self) -> "Matrix":
        return Matrix._of(self.field, self.data.T)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.field.p, self.shape, self.data.tobytes()))

    def __repr__(self):
        return f"Matrix({self.field}, {self.data.tolist()})"

    def is_zero(self) -> bool:
        return not self.data.any()

    # -- arithmetic --------------------------------------------------------

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"{self.shape} @ {other.shape}")
        a, b = self.data, other.data
        if self.cols * (self.field.p - 1) ** 2 >= _INT64_LIMIT:
            # the int64 dot product could overflow; Python ints cannot
            a, b = a.astype(object), b.astype(object)
        return Matrix._of(self.field, ((a @ b) % self.field.p).astype(np.int64, copy=False))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"{self.shape} + {other.shape}")
        return Matrix(self.field, self.data + other.data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"{self.shape} - {other.shape}")
        return Matrix(self.field, self.data - other.data)

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.field, (-self.data) % self.field.p)

    def col(self, j: int) -> "Matrix":
        return Matrix._of(self.field, self.data[:, j : j + 1])

    def take_cols(self, indices) -> "Matrix":
        return Matrix._of(self.field, self.data[:, list(indices)])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": self.data.reshape(-1).tolist(),
        }


def hstack(mats: list[Matrix]) -> Matrix:
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise FieldMismatchError("mixed fields in hstack")
    return Matrix._of(field, np.hstack([m.data for m in mats]))


def vstack(mats: list[Matrix]) -> Matrix:
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise FieldMismatchError("mixed fields in vstack")
    return Matrix._of(field, np.vstack([m.data for m in mats]))


def block_diag(mats: list[Matrix], field: Optional[FieldSpec] = None) -> Matrix:
    if not mats:
        if field is None:
            raise ValueError("block_diag of empty list needs an explicit field")
        return Matrix.zeros(field, 0, 0)
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise FieldMismatchError("mixed fields in block_diag")
    r = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    out = np.zeros((r, c), dtype=np.int64)
    i = j = 0
    for m in mats:
        out[i : i + m.rows, j : j + m.cols] = m.data
        i += m.rows
        j += m.cols
    return Matrix._of(field, out)


# ---------------------------------------------------------------------------
# Row reduction and the derived operations
# ---------------------------------------------------------------------------


def rref(M: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with lexicographic pivoting.

    Columns are scanned left to right; the pivot is the first row at or
    below the current one with a nonzero entry.  Returns (R, pivot_cols).
    Over GF(2) the rows are eliminated bit-packed (`_rref_gf2`), over
    GF(p > 2) by rank-1 updates in int64 (`_rref_modp`).  The RREF is
    unique, so both give the same R and pivots as any exact elimination.
    """
    if M.field.p == 2:
        R, pivots = _rref_gf2(M.data)
    else:
        R, pivots = _rref_modp(M.data, M.field)
    return Matrix._of(M.field, R), pivots


def _rref_modp(data: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, list[int]]:
    """Each pivot clears its column with one rank-1 update, reduced mod p
    once per pivot; the FieldSpec bound on p keeps that update inside int64."""
    p = field.p
    A = data.copy()
    m, n = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        below = A[r:, c].nonzero()[0]
        if below.size == 0:
            continue
        pivot = r + int(below[0])
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
        if A[r, c] != 1:
            A[r, c:] = (A[r, c:] * field.inv(int(A[r, c]))) % p
        col = A[:, c].copy()
        col[r] = 0
        rows = col.nonzero()[0]
        if rows.size:
            A[rows, c:] = (A[rows, c:] - np.multiply.outer(col[rows], A[r, c:])) % p
        pivots.append(c)
        r += 1
    return A, pivots


def _rref_gf2(data: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The GF(2) elimination on rows packed into Python ints, column c at
    bit c (packed by `np.packbits`, unpacked once at the end).

    A pivot is found by a bit test and clears its column with one XOR per
    row that has the bit.  When a column is zero at and below the current
    row, the scan jumps to the next column that is not, read off the OR of
    those rows, so every matrix costs O(rank) passes over its rows.
    """
    m, n = data.shape
    nb = (n + 7) // 8
    b = np.packbits(data.astype(np.uint8), axis=1, bitorder="little").tobytes()
    rows = [int.from_bytes(b[i * nb : i * nb + nb], "little") for i in range(m)]
    pivots: list[int] = []
    r = c = 0
    while r < m and c < n:
        bit = 1 << c
        for i in range(r, m):
            if rows[i] & bit:
                break
        else:
            rest = 0
            for x in rows[r:]:
                rest |= x
            rest >>= c
            if not rest:
                break
            c += (rest & -rest).bit_length() - 1
            continue
        pivot = rows[i]
        rows[i] = rows[r]
        rows = [x ^ pivot if x & bit else x for x in rows]
        rows[r] = pivot
        pivots.append(c)
        r += 1
        c += 1
    packed = np.frombuffer(b"".join([x.to_bytes(nb, "little") for x in rows]), dtype=np.uint8)
    R = np.unpackbits(packed.reshape(m, nb), axis=1, count=n, bitorder="little")
    return R.astype(np.int64), pivots


def rank(M: Matrix) -> int:
    return len(rref(M)[1])


def _solve(M: Matrix, B: Matrix) -> tuple[int, Optional[Matrix]]:
    """rank(M) and the canonical X with MX = B (None if inconsistent),
    both read from one RREF of [M | B]."""
    M._check_field(B)
    if M.rows != B.rows:
        raise ShapeMismatchError(f"solve: {M.shape} vs rhs {B.shape}")
    R, pivots = rref(hstack([M, B]))
    n = M.cols
    r = sum(c < n for c in pivots)
    # a pivot in the augmented block means 0 = nonzero
    if r < len(pivots):
        return r, None
    X = np.zeros((n, B.cols), dtype=np.int64)
    X[pivots] = R.data[:r, n:]
    return r, Matrix._of(M.field, X)


def solve_linear(M: Matrix, B: Matrix) -> Optional[Matrix]:
    """Canonical solution X of MX = B, or None if inconsistent.

    Free variables (non-pivot columns of the RREF) are set to 0, which
    makes the solution unique and reproducible.
    """
    return _solve(M, B)[1]


def kernel_basis(M: Matrix) -> Matrix:
    """Canonical RREF-derived kernel basis, columns indexed by free columns."""
    R, pivots = rref(M)
    n = M.cols
    free = [c for c in range(n) if c not in pivots]
    K = np.zeros((n, len(free)), dtype=np.int64)
    K[free, range(len(free))] = 1
    K[pivots] = -R.data[: len(pivots), free] % M.field.p
    return Matrix._of(M.field, K)


def image_basis(M: Matrix) -> Matrix:
    """Pivot columns of M (the columns themselves, not their reductions)."""
    _, pivots = rref(M)
    return M.take_cols(pivots)


def extend_basis(S: Matrix, ambient_dim: int) -> tuple[Matrix, Matrix, Matrix]:
    """Greedy completion E of the columns of S to a basis, with coordinates.

    E takes e1, e2, ... in index order, skipping those already in the
    running span: the pivots in the identity block of rref([S | I]).  S must
    have independent columns inside the ambient space.  Returns
    (E, s_coords, e_coords), the two row blocks of [S | E]^-1: s_coords
    (k x n) is the retraction onto span S along span E and e_coords
    ((n-k) x n) the coordinates on the quotient by span S.  Both come from
    the same RREF: its n pivot columns are the unit columns of I_n, so its
    right block X satisfies X [S | E] = I.
    """
    if S.rows != ambient_dim:
        raise ShapeMismatchError(f"S has {S.rows} rows, ambient dim {ambient_dim}")
    k = S.cols
    R, pivots = rref(hstack([S, Matrix.identity(S.field, ambient_dim)]))
    if pivots[:k] != list(range(k)):
        raise ValueError("complement: input columns are dependent")
    E = Matrix.identity(S.field, ambient_dim).take_cols(c - k for c in pivots[k:])
    X = R.data[:, k:]
    return E, Matrix._of(S.field, X[:k]), Matrix._of(S.field, X[k:])


def complement_basis(S: Matrix, ambient_dim: int) -> Matrix:
    """The greedy completion E of `extend_basis`, without its coordinates."""
    return extend_basis(S, ambient_dim)[0]


def factor_through(f: Matrix, alpha: Matrix) -> Matrix:
    """theta with f @ theta = alpha, for surjective f; columnwise canonical solve."""
    r, theta = _solve(f, alpha)
    # with rank f == f.rows no pivot lands in the alpha block, so theta exists
    if r != f.rows:
        raise ValueError("factor_through: f is not surjective")
    return theta


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product; basis order e_i (x) e_j with the left factor major.

    One broadcast product, exact in int64 since (p-1)^2 < 2^63.
    """
    A._check_field(B)
    a, b = A.data, B.data
    out = (a[:, None, :, None] * b[None, :, None, :]) % A.field.p
    return Matrix._of(A.field, out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))


def inverse(M: Matrix) -> Optional[Matrix]:
    """Exact inverse, the right block of rref([M | I]); None if singular."""
    if M.rows != M.cols:
        return None
    n = M.rows
    R, pivots = rref(hstack([M, Matrix.identity(M.field, n)]))
    if pivots[:n] != list(range(n)):
        return None
    return Matrix._of(M.field, R.data[:, n:])


def is_invertible(M: Matrix) -> bool:
    return M.rows == M.cols and rank(M) == M.rows


# ---------------------------------------------------------------------------
# Subspace predicates (spans given by basis columns)
# ---------------------------------------------------------------------------


def span_contains(S: Matrix, V: Matrix) -> bool:
    """True iff every column of V lies in the column span of S, i.e. iff
    rref([S | V]) has no pivot in the V block."""
    if V.cols == 0:
        return True
    _, pivots = rref(hstack([S, V]))
    return not pivots or pivots[-1] < S.cols


def spans_equal(S: Matrix, T: Matrix) -> bool:
    return span_contains(S, T) and span_contains(T, S)


def intersect_columns(A: Matrix, B: Matrix) -> Matrix:
    """Basis of span(A) meet span(B), canonical via the kernel of [A | -B]."""
    A._check_field(B)
    if A.rows != B.rows:
        raise ShapeMismatchError("intersection in different ambient spaces")
    if A.cols == 0 or B.cols == 0:
        return Matrix.zeros(A.field, A.rows, 0)
    K = kernel_basis(hstack([A, -B]))
    cand = A @ Matrix(A.field, K.data[: A.cols, :])
    return image_basis(cand)
