"""Deterministic dense linear algebra over prime fields GF(p).

Everything downstream (towers, duality, tensor products, grid
decompositions) reduces to the operations in this module.  Arithmetic is
exact modulo a prime; there are no tolerances anywhere.  All tie-breaking
(pivot choice, free variables, complement completion) is lexicographic so
that repeated runs are byte-identical.

Every elimination goes through the one `rref` kernel: rank, solve,
kernel, image, basis completion (with its coordinates), inverse and span
tests each read what they need from a single echelon form, of M itself or
of M with a block appended.  Over GF(2) `rref` eliminates the matrix
packed into one Python int, a pivot clearing its column in every row by
one XOR; over GF(p > 2) by int64 rank-1 updates.  Both return the same
read-only int64 echelon form, so nothing above `rref` depends on p.

Many small independent problems go through stacks instead: a
`MatrixStack` holds a table of matrices as zero-padded int64 arrays, one
per bucket of like sizes (`pad_buckets`; a table of like sizes is one
array), its products are one batched product per bucket, and `rref_stack`
eliminates a whole stack over GF(p > 2) one pivot step at a time for all
matrices at once.  A single matrix keeps the per-matrix loop, which is
faster on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class FieldMismatchError(ValueError):
    """Operands live over different prime fields."""


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible."""


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n < 3 215 031 751.

    Deterministic Miller-Rabin with the bases 2, 3, 5 and 7: the least odd
    composite that passes all four is 3 215 031 751 (Pomerance, Selfridge
    and Wagstaff 1980), above every modulus the int64 bound of `FieldSpec`
    admits.
    """
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the rank-1 row update of `_rref_modp` holds values down to -(p-1)^2 and
# up to p-1 in int64; larger moduli would overflow it
_INT64_LIMIT = 2**63


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p), p checked by `_is_prime`.

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

    The public constructor converts, checks and reduces its data; results
    reduced by construction (products, sums and differences mod p, echelon
    forms, slices and stacks of reduced data) skip that.  All go through
    `_of`, which marks data read-only, as `MatrixStack` marks its arrays.
    """

    __slots__ = ("field", "data")

    def __new__(cls, field: FieldSpec, data):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"expected 2-d data, got shape {arr.shape}")
        return cls._of(field, np.mod(arr, field.p))

    @classmethod
    def _of(cls, field: FieldSpec, arr: np.ndarray) -> "Matrix":
        """Wrap 2-d int64 data already reduced mod p, unchecked and uncopied."""
        M = object.__new__(cls)
        arr.setflags(write=False)
        _set_field(M, field)
        _set_data(M, arr)
        return M

    def __setattr__(self, name, value=None):
        raise AttributeError("Matrix is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copies and pickles rebuild through the constructor, read-only
        return Matrix, (self.field, self.data)

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
        return Matrix._of(self.field, _product(self.data, other.data, self.field.p))

    def _entrywise(self, other: "Matrix", op, sign: str) -> "Matrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"{self.shape} {sign} {other.shape}")
        return Matrix._of(self.field, op(self.data, other.data) % self.field.p)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, np.add, "+")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, np.subtract, "-")

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


_set_field, _set_data = Matrix.field.__set__, Matrix.data.__set__

# items are padded to one shape while that takes at most _ROOM entries
_ROOM = 1 << 16


def pad_buckets(*sizes: np.ndarray) -> list[tuple[Optional[np.ndarray], tuple[int, ...]]]:
    """The buckets in which to pad items of the given sizes, with their padding.

    `sizes` holds one int array per padded axis, all of one shape, whose
    items are numbered in row-major order.  An item needs the product of
    its sizes, an empty axis counted as 1, so that an array padded on some
    of the axes takes no more.  Padding every item to the largest
    size on every axis is one bucket, (None, tops), when that takes at
    most `_ROOM` entries or 2^axes times what the items need.  Otherwise
    the items whose sizes have the same bit lengths share a bucket (flat
    positions, tops): no item is padded past twice its size on an axis, so
    the padding never takes more than 2^axes times what the items need.
    A stack's matrices, every product, comparison and table built from
    stacks, and the witness eliminations are padded this way.
    """
    tops = tuple([int(s.max(initial=0)) for s in sizes])
    if _fits(sizes[0].size, tops):
        return [(None, tops)]
    room = sizes[0].size * math.prod(top or 1 for top in tops)
    if room <= 2 ** len(sizes) * np.prod([np.maximum(s, 1) for s in sizes], axis=0, dtype=float).sum():
        return [(None, tops)]
    sizes = [s.reshape(-1) for s in sizes]
    # 7 bits hold the bit length of any int64 size
    key = sum(np.frexp(s.astype(float))[1].astype(np.int64) << (7 * i) for i, s in enumerate(sizes))
    keys, which = np.unique(key, return_inverse=True)
    buckets = [np.flatnonzero(which == j) for j in range(keys.size)]
    return [(at, tuple(int(s[at].max()) for s in sizes)) for at in buckets]


def _product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 matrices or padded stacks of them."""
    # an inner dimension k with k (p-1)^2 >= 2^63 could overflow the int64
    # dot product, and Python ints cannot; a's last axis, padding included,
    # bounds every inner dimension
    if a.shape[-1] * (p - 1) ** 2 >= _INT64_LIMIT:
        a, b = a.astype(object), b.astype(object)
    return ((a @ b) % p).astype(np.int64, copy=False)


def _fits(k: int, tops) -> bool:
    """Whether k items padded to `tops` take at most `_ROOM` entries, an
    empty axis counted as 1."""
    for top in tops:
        k *= top or 1
    return k <= _ROOM


def _gather(parts, part: np.ndarray, slot: np.ndarray, R: int, C: int) -> np.ndarray:
    """The blocks parts[part[i]][slot[i]] padded or cut to R x C, as an
    array of the shape of `part` followed by (R, C)."""
    out = np.zeros(slot.shape + (R, C), dtype=np.int64)
    for j, P in enumerate(parts):
        P = P[:, :R, :C]
        held = part == j
        out[held, : P.shape[1], : P.shape[2]] = P[slot[held]]
    return out


class MatrixStack:
    """A table of matrices over one field, held in zero-padded int64 parts.

    `rows` and `cols` are int arrays of the table's shape, and the matrix
    at table index i has shape (rows[i], cols[i]) and is the top-left
    corner of its padded block; every part is zero outside its matrices.
    A table's matrices share one part, laid out as the table (its shape
    followed by (R, C)), unless `pad_buckets` splits them by size: then
    each bucket is a (k, R, C) part and the block of i is
    parts[part[i]][slot[i]] (`part` and `slot` are None for one part).
    Every product, comparison and table built from stacks pads by the same
    rule, so no stack takes more than a fixed multiple of the entries its
    matrices hold.  The padding is inert: a product of two stacks of
    composable matrices holds each product in its corner, and zero rows
    and columns are never pivots, so `rref_stack` gives each matrix its own
    echelon form and pivots.  The constructor trusts its parts: reduced
    mod p, zero outside every matrix.
    """

    __slots__ = ("field", "rows", "cols", "parts", "part", "slot")

    def __init__(self, field: FieldSpec, rows, cols, parts: tuple, part=None, slot=None):
        for P in parts:
            P.setflags(write=False)
        self.field, self.rows, self.cols = field, rows, cols
        self.parts, self.part, self.slot = parts, part, slot

    def __reduce__(self):  # copies and pickles rebuild through the constructor, read-only
        return MatrixStack, (self.field, self.rows, self.cols, self.parts, self.part, self.slot)

    @classmethod
    def dense(cls, field: FieldSpec, data: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> "MatrixStack":
        """The table whose matrices are padded in `data`, of the table's
        shape (or flat) followed by (R, C)."""
        if data.shape[:-2] != rows.shape:
            data = data.reshape(rows.shape + data.shape[-2:])
        return cls(field, rows, cols, (data,))

    @classmethod
    def _build(cls, field: FieldSpec, rows, cols, buckets, fill) -> "MatrixStack":
        """The table of the given shapes whose padded data `fill(at, tops)`
        gives for each of the `pad_buckets`: at None, the table (its own
        shape or flat), else the flat positions at."""
        if buckets[0][0] is None:
            return cls.dense(field, fill(None, buckets[0][1]), rows, cols)
        part, slot = np.empty(rows.size, dtype=np.intp), np.empty(rows.size, dtype=np.intp)
        for j, (at, _) in enumerate(buckets):
            part[at], slot[at] = j, np.arange(at.size)
        parts = tuple(fill(at, tops) for at, tops in buckets)
        return cls(field, rows, cols, parts, part.reshape(rows.shape), slot.reshape(rows.shape))

    @classmethod
    def of(cls, field: FieldSpec, table, shape: tuple[int, ...]) -> "MatrixStack":
        """Stack a table of the given shape (nested sequences of Matrix)."""
        mats = list(table)
        for size in shape[1:]:
            if any(len(row) != size for row in mats):
                raise ShapeMismatchError(f"expected a table of shape {shape}")
            mats = [M for row in mats for M in row]
        if len(mats) != int(np.prod(shape)):
            raise ShapeMismatchError(f"expected a table of shape {shape}")
        for M in mats:
            if M.field != field:
                raise FieldMismatchError(f"{M.field} matrix in a {field} table")
        rows = np.array([M.rows for M in mats], dtype=np.int64).reshape(shape)
        cols = np.array([M.cols for M in mats], dtype=np.int64).reshape(shape)
        entries = np.concatenate([M.data.reshape(-1) for M in mats] + [np.zeros(0, dtype=np.int64)])
        return cls.from_entries(field, rows, cols, entries)

    @classmethod
    def from_entries(cls, field: FieldSpec, rows: np.ndarray, cols: np.ndarray, entries: np.ndarray) -> "MatrixStack":
        """Stack the matrices whose row-major entries, reduced mod p, follow
        one another in `entries`; `rows` and `cols` give the table."""
        r, c = rows.reshape(-1), cols.reshape(-1)

        def fill(at, tops):
            R, C = tops
            rr, cc = (r, c) if at is None else (r[at], c[at])
            out = np.zeros((rr.size, R, C), dtype=np.int64)
            if not R * C:  # no entries, whatever the length of the other axis
                return out
            inside = (np.arange(R)[:, None] < rr[:, None, None]) & (np.arange(C) < cc[:, None, None])
            if at is None:
                out[inside] = entries
            else:  # each matrix's entries, from its start on
                size = r * c
                n = size[at]
                start = np.cumsum(size) - size
                out[inside] = entries[np.repeat(start[at] - (np.cumsum(n) - n), n) + np.arange(n.sum())]
            return out

        return cls._build(field, rows, cols, pad_buckets(rows, cols), fill)

    def _take(self, R: int, C: int, at=None, shape=None) -> np.ndarray:
        """The matrices padded or cut to R x C, which must hold them: as the
        table if `at` is None, else at the flat positions `at` of the table
        broadcast to `shape` (its own if None)."""
        part, slot, P = self.part, self.slot, self.parts[0]
        if at is not None and shape is not None and self.rows.shape != shape:
            if slot is None:
                P = np.broadcast_to(P, shape + P.shape[-2:])
            else:
                part, slot = np.broadcast_to(part, shape), np.broadcast_to(slot, shape)
        if slot is None:  # one part, laid out as the table
            if P.shape[-2:] != (R, C):
                P = P[..., :R, :C]
            if at is not None:
                P = P.reshape((math.prod(P.shape[:-2]),) + P.shape[-2:])[at]
            if P.shape[-2:] == (R, C):
                return P
            out = np.zeros(P.shape[:-2] + (R, C), dtype=np.int64)
            out[..., : P.shape[-2], : P.shape[-1]] = P
            return out
        if at is not None:
            part, slot = part.reshape(-1)[at], slot.reshape(-1)[at]
        return _gather(self.parts, part, slot, R, C)

    def _bound(self) -> tuple[int, int]:
        """The largest padding of its parts, which bounds every matrix."""
        if self.slot is None:
            return self.parts[0].shape[-2:]
        return max(P.shape[-2] for P in self.parts), max(P.shape[-1] for P in self.parts)

    def __getitem__(self, index) -> "MatrixStack":
        """The sub-table at `index`, which indexes table axes only."""
        if self.slot is None:
            return MatrixStack(self.field, self.rows[index], self.cols[index], (self.parts[0][index],))
        rows, cols, part, slot = (x[index] for x in (self.rows, self.cols, self.part, self.slot))
        return MatrixStack(self.field, rows, cols, self.parts, part, slot)

    @property
    def T(self) -> "MatrixStack":
        """The transposed table of the transposed matrices."""
        if self.slot is None:
            t = self.rows.ndim
            data = self.parts[0].transpose(tuple(range(t))[::-1] + (t + 1, t))
            return MatrixStack(self.field, self.cols.T, self.rows.T, (data,))
        parts = tuple(P.transpose(0, 2, 1) for P in self.parts)
        return MatrixStack(self.field, self.cols.T, self.rows.T, parts, self.part.T, self.slot.T)

    def __matmul__(self, other: "MatrixStack") -> "MatrixStack":
        """Every product self[i] @ other[i], the tables broadcast.  Each pair
        must be composable: where one matrix of a pair is padded past the
        inner size of the other, its padding is zero and is dropped."""
        p, rows, cols = self.field.p, self.rows, other.cols
        if rows.shape != cols.shape:
            rows, cols = np.broadcast_arrays(rows, cols)
        (R, K), (K2, C) = self._bound(), other._bound()
        K = min(K, K2)
        if _fits(rows.size, (R, K, C)):
            return MatrixStack.dense(self.field, _product(self._take(R, K), other._take(K, C), p), rows, cols)
        inner = np.broadcast_to(np.minimum(self.cols, other.rows), rows.shape)

        def fill(at, tops):
            R, K, C = tops  # K is the widest inner dimension of the bucket
            return _product(self._take(R, K, at, rows.shape), other._take(K, C, at, rows.shape), p)

        return MatrixStack._build(self.field, rows, cols, pad_buckets(rows, inner, cols), fill)

    def differs(self, other: "MatrixStack") -> np.ndarray:
        """Boolean table: True where the two matrices differ, in shape or entries."""
        wrong = (self.rows != other.rows) | (self.cols != other.cols)
        (R, C), (R2, C2) = self._bound(), other._bound()
        tops = (max(R, R2), max(C, C2))
        if _fits(wrong.size, tops):
            return wrong | (self._take(*tops) != other._take(*tops)).any(axis=(-2, -1))
        rows, cols = np.maximum(self.rows, other.rows), np.maximum(self.cols, other.cols)
        for at, (R, C) in pad_buckets(rows, cols):
            at = slice(None) if at is None else at
            entries = self._take(R, C, at, wrong.shape) != other._take(R, C, at, wrong.shape)
            wrong.reshape(-1)[at] |= entries.any(axis=(-2, -1))
        return wrong

    def nonzero(self) -> np.ndarray:
        """Boolean table: True where the matrix has a nonzero entry."""
        if self.slot is None:
            return self.parts[0].any(axis=(-2, -1))
        held = np.concatenate([P.any(axis=(1, 2)) for P in self.parts])
        start = np.cumsum([0] + [len(P) for P in self.parts])
        return held[start[self.part] + self.slot]

    def blocks(self) -> list[np.ndarray]:
        """The matrices in row-major order as read-only int64 arrays."""
        if self.slot is None:
            k = self.rows.size
            parts, part, slot = (self.parts[0].reshape((k,) + self.parts[0].shape[-2:]),), [0] * k, range(k)
            parts[0].setflags(write=False)  # a transposed part reshapes to a copy
        else:
            parts, part, slot = self.parts, self.part.reshape(-1).tolist(), self.slot.reshape(-1).tolist()
        at = zip(part, slot, self.rows.reshape(-1).tolist(), self.cols.reshape(-1).tolist())
        return [parts[j][s, :r, :c] for j, s, r, c in at]

    def matrices(self):
        """The table, of one or two axes, as (nested) tuples of read-only
        `Matrix` views."""
        field, shape = self.field, self.rows.shape
        mats = [Matrix._of(field, B) for B in self.blocks()]
        if len(shape) == 1:
            return tuple(mats)
        m, n = shape
        return tuple(tuple(mats[r * n : (r + 1) * n]) for r in range(m))


def _one_field(mats: list[Matrix], op: str) -> FieldSpec:
    """The field of the first of mats, which all of them must share."""
    field = mats[0].field
    if any(m.field != field for m in mats[1:]):
        raise FieldMismatchError(f"mixed fields in {op}")
    return field


def hstack(mats: list[Matrix]) -> Matrix:
    return Matrix._of(_one_field(mats, "hstack"), np.concatenate([m.data for m in mats], axis=1))


def vstack(mats: list[Matrix]) -> Matrix:
    return Matrix._of(_one_field(mats, "vstack"), np.concatenate([m.data for m in mats], axis=0))


def block_diag(mats: list[Matrix], field: Optional[FieldSpec] = None) -> Matrix:
    if not mats:
        if field is None:
            raise ValueError("block_diag of empty list needs an explicit field")
        return Matrix.zeros(field, 0, 0)
    field = _one_field(mats, "block_diag")
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
    Over GF(2) the matrix is eliminated as one packed int (`_rref_gf2`), over
    GF(p > 2) by rank-1 updates in int64 (`_rref_modp`).  The RREF is
    unique, so both give the same R and pivots as any exact elimination.
    """
    if M.field.p == 2:
        R, pivots = _rref_gf2(M.data)
    else:
        R, pivots = _rref_modp(M.data, M.field)
    return Matrix._of(M.field, R), pivots


def rref_stack(field: FieldSpec, data: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """The `rref` of every matrix of a (k, m, n) int64 stack reduced mod p.

    Returns the (k, m, n) stack of echelon forms and each matrix's pivot
    columns.  A matrix zero-padded at the bottom or the right gets the
    padded echelon form of the matrix itself and the same pivots; so does a
    matrix with zero columns inserted, its pivots then counted in the
    padded columns.  Over GF(p > 2) the stack is eliminated at once; over
    GF(2) each matrix runs through `_rref_gf2`.
    """
    if field.p == 2:
        out = [_rref_gf2(A) for A in data]
        return np.array([R for R, _ in out], dtype=np.int64).reshape(data.shape), [piv for _, piv in out]
    return _rref_modp_stack(data, field)


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


def _rref_modp_stack(data: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, list[list[int]]]:
    """Eliminate a (k, m, n) stack one pivot at a time, all matrices at once.

    Rows t and below are zero left of every pivot found so far, so the t-th
    pivot of a matrix is in the first column with a nonzero entry in rows t
    and below, at the first such row.  That row moves to row t, is scaled to
    1 and clears its column with one rank-1 update, reduced mod p once per
    step; the FieldSpec bound on p keeps that update inside int64.  A
    matrix whose rows t and below are zero has all its pivots, and the step
    leaves it as it is: it scales and subtracts a zero row.
    """
    p = field.p
    A = data.copy()
    k, m, n = A.shape
    pivots: list[list[int]] = [[] for _ in range(k)]
    at = np.arange(k)
    for t in range(min(m, n)):
        nonzero = A[:, t:] != 0
        found = nonzero.any(axis=1)
        c = found.argmax(axis=1)
        has = found[at, c].tolist()
        if not any(has):
            break
        below = nonzero[at, :, c].argmax(axis=1)
        if any(below.tolist()):  # swap each pivot row up to row t
            row = below + t
            top = A[at, row]
            A[at, row] = A[:, t]
            A[:, t] = top
        top = A[:, t]
        inv = [pow(x, -1, p) if x else 0 for x in top[at, c].tolist()]
        top = (top * np.array(inv, dtype=np.int64)[:, None]) % p
        # the update clears column c in row t too; row t is then the scaled pivot row
        A -= A[at, :, c][:, :, None] * top[:, None, :]
        A %= p
        A[:, t] = top
        for piv, ci, h in zip(pivots, c.tolist(), has):
            if h:
                piv.append(ci)
    return A, pivots


def _rref_gf2(data: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The GF(2) elimination on the whole matrix as one Python int.

    Row i sits at bits [i w, (i+1) w), w = 8 ceil(n/8), as `np.packbits` lays
    rows out, so the matrix packs with one `from_bytes` and unpacks with one
    `to_bytes`.  With `ones` bit 0 of every row, sel = (A >> c) & ones marks
    the rows with bit c, and the pivot is the lowest of them at or below row r.
    XOR with (sel less the pivot's bit) * pivot clears column c in every other
    row: pivot < 2^w, so the product is one copy of it at each marked row's
    offset, the copies do not overlap, and nothing carries.  A column zero at
    and below r is jumped, to the next one read off the OR of those rows
    folded in halves, so every matrix costs O(rank) whole-matrix steps.
    """
    m, n = data.shape
    nb = (n + 7) // 8
    w = 8 * nb
    A = int.from_bytes(np.packbits(data.astype(np.uint8), axis=1, bitorder="little").tobytes(), "little")
    ones = int.from_bytes((b"\1" + bytes(nb))[:nb] * m, "little")
    row = (1 << w) - 1
    pivots: list[int] = []
    r = c = 0
    while r < m and c < n:
        sel = (A >> c) & ones
        hits = sel >> (r * w)
        if not hits:
            rest, k = A >> (r * w), m - r
            while k > 1:
                k = (k + 1) // 2
                rest = (rest & ((1 << (k * w)) - 1)) | (rest >> (k * w))
            rest >>= c
            if not rest:
                break
            c += (rest & -rest).bit_length() - 1
            continue
        i = r + ((hits & -hits).bit_length() - 1) // w
        pivot = (A >> (i * w)) & row
        A ^= (sel ^ (1 << (i * w))) * pivot
        if i != r:  # row r lacks bit c, so only the swap is left to do
            A ^= (pivot ^ ((A >> (r * w)) & row)) * ((1 << (i * w)) | (1 << (r * w)))
        pivots.append(c)
        r += 1
        c += 1
    packed = np.frombuffer(A.to_bytes(m * nb, "little"), dtype=np.uint8)
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
    ident = Matrix.identity(S.field, ambient_dim)
    R, pivots = rref(hstack([S, ident]))
    if pivots[:k] != list(range(k)):
        raise ValueError("complement: input columns are dependent")
    E = ident.take_cols(c - k for c in pivots[k:])
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

    One broadcast product, exact in int64 since (p-1)^2 < 2^63.  Over GF(2)
    it is left unreduced: reduced entries are 0 or 1, and so is every
    product of two of them.
    """
    A._check_field(B)
    a, b = A.data, B.data
    out = a[:, None, :, None] * b[None, :, None, :]
    if A.field.p != 2:
        out %= A.field.p
    return Matrix._of(A.field, out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))


def inverse(M: Matrix) -> Optional[Matrix]:
    """Exact inverse, the X with MX = I; None if M is not square or is
    singular, when I leaves its column span."""
    return _solve(M, Matrix.identity(M.field, M.rows))[1] if M.rows == M.cols else None


def is_invertible(M: Matrix) -> bool:
    return M.rows == M.cols and rank(M) == M.rows


# ---------------------------------------------------------------------------
# Subspace predicates (spans given by basis columns)
# ---------------------------------------------------------------------------


def span_contains(S: Matrix, V: Matrix) -> bool:
    """True iff every column of V lies in the column span of S, i.e. iff
    SX = V has a solution."""
    return _solve(S, V)[1] is not None


def spans_equal(S: Matrix, T: Matrix) -> bool:
    return span_contains(S, T) and span_contains(T, S)


def intersect_columns(A: Matrix, B: Matrix) -> Matrix:
    """Basis A K_top of span(A) meet span(B), K_top the A block of the kernel
    basis K of [A | -B].  A and B must have independent columns: then a
    kernel vector (x, y) with x = 0 has B y = 0, so y = 0, K -> K_top is
    injective, and A K_top is independent, a basis with no elimination."""
    A._check_field(B)
    if A.rows != B.rows:
        raise ShapeMismatchError("intersection in different ambient spaces")
    if A.cols == 0 or B.cols == 0:
        return Matrix.zeros(A.field, A.rows, 0)
    K = kernel_basis(hstack([A, -B]))
    return A @ Matrix._of(A.field, K.data[: A.cols, :])
