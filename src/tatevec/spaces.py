"""Presentations of linearly topologized spaces at finite truncation.

A linearly compact space with countable basis is modelled by a Tower (an
inverse system of finite-dimensional GF(p) spaces), a discrete space of
countable dimension by an IndTower (a direct system), a Tate space by a
TateObj pairing the two, and the ind-linearly-compact / pro-discrete
categories by lazy sums of Towers / products of IndTowers.  Topology is
carried entirely by the presentation: flags, tower structure and category
tags, never pointwise open sets.

A level is known by its dimension, a plain int, and the blocks of a window
are coordinate slices of one identity.  Systems and families grow by one
rule: a grow function is handed the items kept so far, reads them without
changing them, and returns only the items missing through a requested
depth; a system's grow(dims, maps, n) returns the dims of levels
len(dims)+1, ..., n and the maps len(maps)+1, ..., n-1, a family's
grow(parts, n) the parts len(parts)+1, ..., n.  Grow functions must be
pure, so concurrent duplicate evaluation is harmless, and what they return
is kept.  Behaviour beyond the computed prefix is declared through a
TailDescriptor, the single honest channel for claims about infinity.  A
system checks each map's shape and field when it keeps the map, and its
bounded tail once, when the map is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exactla import (
    FieldMismatchError,
    FieldSpec,
    Matrix,
    ShapeMismatchError,
    hstack,
    kernel_basis,
    rank,
    rref,
)


class DescriptorViolation(ValueError):
    """A materialized prefix contradicts the declared tail behaviour."""


@dataclass(frozen=True)
class FinVect:
    """A finite-dimensional discrete space, known by its dimension."""

    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("negative dimension")


@dataclass(frozen=True)
class LinMap:
    """A linear map between finite-dimensional spaces."""

    src: FinVect
    dst: FinVect
    mat: Matrix

    def __post_init__(self):
        if self.mat.shape != (self.dst.dim, self.src.dim):
            raise ShapeMismatchError(
                f"map {self.src.dim}->{self.dst.dim} needs a "
                f"{self.dst.dim}x{self.src.dim} matrix, got {self.mat.shape}"
            )


TAIL_KINDS = ("stabilizing", "bounded-ker", "bounded-coker", "unbounded", "unspecified")


@dataclass(frozen=True)
class TailDescriptor:
    """Declared behaviour of a system beyond any computed prefix.

    ``stabilizing``: transitions are eventually isomorphisms.
    ``bounded-ker(c)`` / ``bounded-coker(c)``: every transition kernel /
    cokernel has dimension at most c, forever.
    ``unbounded``: the relevant dimensions grow beyond every bound.
    ``unspecified``: no claim.
    Only the two bounded kinds take a bound, a plain int.
    """

    kind: str = "unspecified"
    bound: Optional[int] = None

    def __post_init__(self):
        if self.bound is not None and type(self.bound) is not int:
            raise ValueError(f"bound {self.bound!r} is not an int")
        if self.bound is not None and self.bound < 0:
            raise ValueError(f"negative bound {self.bound}")
        if self.kind not in TAIL_KINDS:
            raise ValueError(f"unknown tail kind {self.kind!r}")
        bounded = self.kind in ("bounded-ker", "bounded-coker")
        if bounded and self.bound is None:
            raise ValueError(f"{self.kind} needs a bound")
        if self.bound is not None and not bounded:
            raise ValueError(f"{self.kind} takes no bound")


UNSPECIFIED = TailDescriptor()


def _defects(t: Matrix) -> tuple[int, int]:
    """The kernel and cokernel dimensions of a transition, from one rank."""
    r = rank(t)
    return t.cols - r, t.rows - r


# bounded tail kind -> (the transition dimension it bounds, its index in _defects)
_BOUNDED = {"bounded-ker": ("kernel", 0), "bounded-coker": ("cokernel", 1)}


def _map_shape(kind: str, lower, upper):
    """The (rows, cols) of a system map: map i joins levels i+1 and i+2
    (1-based), of dimensions `lower` and `upper`, from the upper to the
    lower in a tower and the other way in a direct system; on dims[:-1]
    and dims[1:] (lists or int arrays), the rows and columns of every map."""
    return (lower, upper) if kind == "tower" else (upper, lower)


def _composites(kind: str, field: FieldSpec, top: int, maps) -> list[Matrix]:
    """The composites of a chain with its last level, of dimension `top`,
    oriented as `_map_shape` orients map i: composite i runs from level i+1
    to the last in a direct system and back in a tower; the last is the
    identity."""
    out = [Matrix.identity(field, top)]
    for f in reversed(maps):
        out.append(f @ out[-1] if kind == "tower" else out[-1] @ f)
    return out[::-1]


class _LazySystem:
    """Shared machinery of Tower and IndTower: 1-based levels kept from one
    grow function, (dims, maps, n) -> the dims of levels len(dims)+1, ...,
    n and the maps len(maps)+1, ..., n-1, given the kept lists.

    `dim`, `transition` and `prefix` read the kept levels; a read past them
    keeps every level missing from one call of the grow function, each
    map checked for shape and field as it is kept.  A bounded tail is
    checked once per map, when the map is first read through `transition`
    or `prefix`, so reading a dimension computes no rank."""

    kind = ""

    def __init__(self, field, grow, tail=None, depth=None):
        self.field = field
        self._grow = grow
        self.tail = tail or UNSPECIFIED
        self.depth = depth
        self._dims: list[int] = []
        self._maps: list[Matrix] = []
        self._defects: dict[int, tuple[int, int]] = {}

    def _check_level(self, n: int):
        if n < 1:
            raise ValueError("levels are 1-based")
        if self.depth is not None and n > self.depth:
            raise IndexError(f"{self.kind} truncated at depth {self.depth}, level {n} requested")

    def _levels(self, depth: int) -> tuple[list[int], list[Matrix]]:
        """The kept dims and maps, through level `depth` at least; the levels
        missing are kept from one call of the grow function, each map
        checked against its two dims and the field but not yet the tail."""
        dims, maps = self._dims, self._maps
        if len(dims) < depth:
            new_dims, new_maps = self._grow(dims, maps, depth)
            if any(d < 0 for d in new_dims):
                raise ValueError("negative level dimension")
            ends = [*dims[len(maps) :], *new_dims]  # levels len(maps)+1, ..., depth
            for n, (t, lower, upper) in enumerate(zip(new_maps, ends, ends[1:]), start=len(maps) + 1):
                expect = _map_shape(self.kind, lower, upper)
                if t.shape != expect:
                    raise ShapeMismatchError(f"{self.kind} transition {n}: expected shape {expect}, got {t.shape}")
                if t.field != self.field:
                    raise ValueError("transition over the wrong field")
            dims += new_dims
            maps += new_maps
        return dims, maps

    def _read(self, n: int, t: Matrix) -> Matrix:
        """Map n, checked against a bounded tail on its first read."""
        kind, bound = self.tail.kind, self.tail.bound
        if kind in _BOUNDED and n not in self._defects:
            what, at = _BOUNDED[kind]
            defects = _defects(t)
            if defects[at] > bound:
                raise DescriptorViolation(f"{kind}({bound}) but transition {n} has {what} dimension {defects[at]}")
            self._defects[n] = defects
        return t

    def dim(self, n: int) -> int:
        self._check_level(n)
        return self._levels(n)[0][n - 1]

    def transition(self, n: int) -> Matrix:
        self._check_level(n)
        if self.depth is not None and n + 1 > self.depth:
            raise IndexError(f"transition {n} needs level {n + 1} beyond depth {self.depth}")
        return self._read(n, self._levels(n + 1)[1][n - 1])

    def prefix(self, depth: int) -> tuple[tuple[int, ...], tuple[Matrix, ...]]:
        """The dims and transitions of the first `depth` levels, the maps
        being the very objects `transition` returns."""
        self._check_level(depth)
        dims, maps = self._levels(depth)
        if self.tail.kind in _BOUNDED:
            for n in range(1, depth):
                self._read(n, maps[n - 1])
        return tuple(dims[:depth]), tuple(maps[: depth - 1])

    def defects(self, n: int) -> tuple[int, int]:
        """The kernel and cokernel dimensions of transition n, from its one
        rank, which the tail check reuses."""
        t = self.transition(n)
        if n not in self._defects:
            self._defects[n] = _defects(t)
        return self._defects[n]

    @classmethod
    def from_prefix(cls, field, dims, maps, tail=None):
        dims = [int(d) for d in dims]
        maps = list(maps)
        if len(maps) != max(len(dims) - 1, 0):
            raise ShapeMismatchError("prefix needs one transition per adjacent level pair")
        return cls(field, lambda d, m, n: (dims[len(d) : n], maps[len(m) : n - 1]), tail, len(dims))


class Tower(_LazySystem):
    """Inverse system W_1 <- W_2 <- ...; transition(n): level n+1 -> level n."""

    kind = "tower"


class IndTower(_LazySystem):
    """Direct system V_1 -> V_2 -> ...; transition(n): level n -> level n+1."""

    kind = "indtower"


@dataclass(frozen=True)
class TateObj:
    """A Tate-space presentation: linearly compact part plus discrete part."""

    cLattice: Tower
    dLattice: IndTower

    def __post_init__(self):
        for name, lattice, kind in (("c", self.cLattice, Tower), ("d", self.dLattice, IndTower)):
            if not isinstance(lattice, kind):
                raise TypeError(f"{name}-lattice: expected {kind.__name__}, got {type(lattice).__name__}")
        c, d = self.cLattice.field, self.dLattice.field
        if c != d:
            raise FieldMismatchError(f"{d} d-lattice of a {c} c-lattice")

    @property
    def field(self) -> FieldSpec:
        return self.cLattice.field


class _LazyFamily:
    """Shared machinery of IndLCObj and ProDiscObj: 1-based parts kept from
    one grow function, (parts, n) -> parts len(parts)+1, ..., n, given the
    kept list; `parts` makes every part it lacks in one call of it, and
    `part(k)` reads `parts(k)`."""

    kind = ""
    parts_key = ""  # JSON key of the parts; its singular names one part
    part_type: type = _LazySystem

    def __init__(self, field, grow: Callable[[list, int], list[_LazySystem]], count: Optional[int]):
        self.field = field
        self._grow = grow
        self.count = count
        self._made: list[_LazySystem] = []

    def part(self, k: int) -> _LazySystem:
        if k < 1 or (self.count is not None and k > self.count):
            raise IndexError(f"{self.parts_key[:-1]} {k} out of range")
        return self.parts(k)[-1]

    def parts(self, n: int) -> list[_LazySystem]:
        """The first n parts, or every part of a family of fewer."""
        n = n if self.count is None else min(n, self.count)
        made = self._made
        if len(made) < n:
            made += self._grow(made, n)
        return made[:n]

    @classmethod
    def from_list(cls, field, parts: list[_LazySystem]):
        parts = list(parts)
        for k, part in enumerate(parts, start=1):
            if not isinstance(part, cls.part_type):
                raise TypeError(f"{cls.parts_key[:-1]} {k}: expected {cls.part_type.__name__}, got {type(part).__name__}")
            if part.field != field:
                raise FieldMismatchError(f"{part.field} {cls.parts_key[:-1]} {k} of a {field} family")
        return cls(field, lambda made, n: parts[len(made) : n], len(parts))


class IndLCObj(_LazyFamily):
    """Countable direct sum of linearly compact spaces (lazy Tower summands)."""

    kind = "indlc"
    parts_key = "summands"
    part_type = Tower


class ProDiscObj(_LazyFamily):
    """Countable direct product of discrete spaces (lazy IndTower factors)."""

    kind = "prodisc"
    parts_key = "factors"
    part_type = IndTower


class FilteredSpace:
    """A finite-dimensional space with a nested flag of open subspaces.

    Flags U_1 >= U_2 >= ... >= U_N = 0 are column-span matrices with
    independent columns, each containing the next; the last must be zero.
    """

    def __init__(self, field: FieldSpec, dim: int, flags: list[Matrix]):
        if dim < 0:
            raise ValueError("negative dimension")
        if not flags:
            raise ValueError("at least one flag (the zero flag) is required")
        for i, U in enumerate(flags):
            if U.rows != dim:
                raise ShapeMismatchError(f"flag {i + 1} lives in the wrong ambient space")
            if U.field != field:
                raise FieldMismatchError(f"{U.field} flag {i + 1} of a {field} space")
        # one rref of [U_i | U_{i+1}] per flag: U_i's columns lead it exactly
        # when they are independent, and U_{i+1} adds no pivot exactly when it
        # lies in U_i
        nexts = [*flags[1:], flags[-1].take_cols([])]
        pivots = [rref(hstack([U, V]))[1] for U, V in zip(flags, nexts)]
        for i, (U, piv) in enumerate(zip(flags, pivots)):
            if piv[: U.cols] != list(range(U.cols)):
                raise ValueError(f"flag {i + 1} has dependent columns")
        for i, (U, piv) in enumerate(zip(flags, pivots[:-1])):
            if piv and piv[-1] >= U.cols:
                raise ValueError(f"flag {i + 2} is not contained in flag {i + 1}")
        if flags[-1].cols != 0:
            raise ValueError("last flag must be the zero subspace")
        self.field = field
        self.dim = dim
        self.flags = list(flags)

    @classmethod
    def _of(cls, field: FieldSpec, dim: int, flags: list[Matrix]) -> "FilteredSpace":
        """Wrap flags nested, independent and ending at zero by construction, unchecked."""
        F = object.__new__(cls)
        F.field, F.dim, F.flags = field, dim, list(flags)
        return F


# ---------------------------------------------------------------------------
# Materialization (truncation functor)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemPrefix:
    kind: str  # "tower" or "indtower"
    field: FieldSpec
    dims: tuple[int, ...]
    maps: tuple[Matrix, ...]  # maps[i]: level i+2 -> level i+1 (tower) or back (indtower)


@dataclass(frozen=True)
class TatePrefix:
    c: SystemPrefix
    d: SystemPrefix


@dataclass(frozen=True)
class FamilyPrefix:
    kind: str  # "indlc" or "prodisc"
    parts: tuple[SystemPrefix, ...]


def materialize(obj, depth: int, inner: Optional[int] = None):
    """First `depth` levels of a presentation, transitions included.

    Two-layer objects (IndLCObj / ProDiscObj) take `inner` for the level
    depth of each summand or factor (defaulting to `depth`).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if isinstance(obj, _LazySystem):
        return SystemPrefix(obj.kind, obj.field, *obj.prefix(depth))
    if isinstance(obj, TateObj):
        return TatePrefix(materialize(obj.cLattice, depth), materialize(obj.dLattice, depth))
    if isinstance(obj, _LazyFamily):
        inner = depth if inner is None else inner
        return FamilyPrefix(obj.kind, tuple(materialize(part, inner) for part in obj.parts(depth)))
    raise TypeError(f"cannot materialize {type(obj).__name__}")


def prefix_mismatch(a, b, label: Optional[str] = None) -> Optional[str]:
    """The first levelwise difference of two prefixes of the same sort, or
    None when they agree.

    A system prefix is named by `label` (by default its kind), the parts of
    a Tate prefix by their lattice and those of a family by their 1-based
    component.
    """
    if isinstance(a, SystemPrefix):
        label = label or a.kind
        for i, (x, y) in enumerate(zip(a.dims, b.dims), start=1):
            if x != y:
                return f"{label}: level {i} dims differ ({x} vs {y})"
        for i, (x, y) in enumerate(zip(a.maps, b.maps), start=1):
            if x != y:
                return f"{label}: transition {i} differs"
        return None
    if isinstance(a, TatePrefix):
        return prefix_mismatch(a.c, b.c, "c-lattice") or prefix_mismatch(a.d, b.d, "d-lattice")
    if len(a.parts) != len(b.parts):
        return "component count changed"
    for k, (x, y) in enumerate(zip(a.parts, b.parts), start=1):
        bad = prefix_mismatch(x, y, f"component {k}")
        if bad:
            return bad
    return None


# ---------------------------------------------------------------------------
# Built-in spaces (monomial bases, coordinate projections/inclusions)
# ---------------------------------------------------------------------------


_STABILIZING = TailDescriptor("stabilizing")


def _constant(cls: type, field: FieldSpec, dim: int) -> _LazySystem:
    """The system whose every level is `dim` and every transition one shared identity."""
    ident = Matrix.identity(field, dim)
    return cls(field, lambda dims, maps, n: ([dim] * (n - len(dims)), [ident] * (n - 1 - len(maps))), _STABILIZING)


def constant_tower(field: FieldSpec, dim: int) -> Tower:
    return _constant(Tower, field, dim)


def constant_indtower(field: FieldSpec, dim: int) -> IndTower:
    return _constant(IndTower, field, dim)


def _drop_last(field: FieldSpec, n: int) -> Matrix:
    # projection k[t]/t^(n+1) -> k[t]/t^n on the monomial basis 1, t, ...
    return Matrix._of(field, np.eye(n, n + 1, dtype=np.int64))


def _include(field: FieldSpec, n: int) -> Matrix:
    return _drop_last(field, n).T


def _monomial(cls: type, field: FieldSpec, step, tail: TailDescriptor) -> _LazySystem:
    """The system of the k[t]/t^n, n = 1, 2, ..., on monomial bases, its
    transition n being `step(field, n)`."""

    def grow(dims, maps, n):
        return list(range(len(dims) + 1, n + 1)), [step(field, k) for k in range(len(maps) + 1, n)]

    return cls(field, grow, tail)


def power_series_tower(field: FieldSpec) -> Tower:
    return _monomial(Tower, field, _drop_last, TailDescriptor("bounded-ker", 1))


def polynomial_indtower(field: FieldSpec) -> IndTower:
    return _monomial(IndTower, field, _include, TailDescriptor("bounded-coker", 1))


def laurent_tate(field: FieldSpec) -> TateObj:
    # c-lattice k[[t]], complementary d-lattice spanned by t^-1, t^-2, ...
    return TateObj(power_series_tower(field), polynomial_indtower(field))


def builtin_space(name: str, field: FieldSpec, n: int = 0):
    if name == "power_series":
        return power_series_tower(field)
    if name == "polynomial":
        return polynomial_indtower(field)
    if name == "laurent":
        return laurent_tate(field)
    if name == "constant":
        return FinVect(n)
    raise ValueError(f"unknown builtin space {name!r}")


def tate_from_finvect(field: FieldSpec, fv: FinVect) -> TateObj:
    """A finite-dimensional space as a Tate object: all compact, no discrete part."""
    return TateObj(constant_tower(field, fv.dim), constant_indtower(field, 0))


# ---------------------------------------------------------------------------
# Normalization (prefix level)
# ---------------------------------------------------------------------------


def _image_levels(composites: list[Matrix]) -> tuple[list[Matrix], list[Matrix], list[list[int]]]:
    """One rref per composite C: the basis C.take_cols(piv) of its image,
    the coordinates R[:rank] with C = basis @ coords, and the pivots."""
    bases, coords, pivots = [], [], []
    for C in composites:
        R, piv = rref(C)
        bases.append(C.take_cols(piv))
        coords.append(Matrix._of(C.field, R.data[: len(piv)]))
        pivots.append(piv)
    return bases, coords, pivots


def normalize_indtower(T: IndTower, depth: int) -> tuple[SystemPrefix, list[Matrix]]:
    """Replace each level by its image in the top level; transitions become
    inclusions (injective).  Returns the normalized prefix plus comparison
    maps old level -> new level that commute with the transitions.

    One elimination per level: the composite G_i into the top level is
    basis_i coords_i, so coords_i is the comparison, and basis_i, the pivot
    columns of G_{i+1} maps_i, is basis_{i+1} times the pivot columns of
    coords_{i+1} maps_i; both are unique, the bases being independent.
    """
    pre = materialize(T, depth)
    bases, coords, piv = _image_levels(_composites("indtower", pre.field, pre.dims[-1], pre.maps))
    maps = tuple((c @ m).take_cols(p) for c, m, p in zip(coords[1:], pre.maps, piv))
    return SystemPrefix(pre.kind, pre.field, tuple(b.cols for b in bases), maps), coords


def normalize_tower(T: Tower, depth: int) -> tuple[SystemPrefix, list[Matrix]]:
    """Replace each level by the image of the deepest available level.

    Output transitions are surjective onto the new levels; comparison maps
    are the inclusions new level -> old level.  Correct relative to the
    prefix only: deeper data can shrink levels further unless the tail is
    declared stabilizing.

    One elimination per level: the composite H_i from the top level is
    maps_i H_{i+1}, so maps_i basis_{i+1} is basis_i times the columns of
    coords_i at the pivots of H_{i+1}, and that transition is onto.
    """
    pre = materialize(T, depth)
    bases, coords, piv = _image_levels(_composites("tower", pre.field, pre.dims[-1], pre.maps))
    maps = tuple(c.take_cols(p) for c, p in zip(coords, piv[1:]))
    return SystemPrefix(pre.kind, pre.field, tuple(b.cols for b in bases), maps), bases


def _window_blocks(field: FieldSpec, l: int, d: int) -> tuple[Matrix, Matrix]:
    """The compact and discrete blocks of a window of size l + d: the first
    l and the last d columns of one identity."""
    ident = np.eye(l + d, dtype=np.int64)
    return Matrix._of(field, ident[:, :l]), Matrix._of(field, ident[:, l:])


def tate_window(V: TateObj, depth: int) -> tuple[FilteredSpace, Matrix, Matrix]:
    """The level-N window L_N + D_N of a Tate object as a filtered space.

    Flags are the kernels of the tower projections (the traces of the open
    subspaces on the window), ending at zero; returns the window along with
    the column spans of the compact and discrete blocks.
    """
    pre = materialize(V.cLattice, depth)
    field = V.field
    l, d = pre.dims[-1], V.dLattice.dim(depth)
    c_cols, d_cols = _window_blocks(field, l, d)
    flags = [c_cols]
    for H in _composites("tower", field, l, pre.maps)[:-1]:  # L_N -> L_k, k = 1, ..., N - 1
        K = kernel_basis(H)
        if K.cols < flags[-1].cols:  # repeated ranks collapse to one flag
            flags.append(c_cols @ K)
    if flags[-1].cols:
        flags.append(Matrix.zeros(field, l + d, 0))
    # kernels of L_N -> L_k shrink as k grows, and c_cols is injective
    return FilteredSpace._of(field, l + d, flags), c_cols, d_cols


# ---------------------------------------------------------------------------
# Lattice checks and Tate verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeCheck:
    ok: bool
    witness: Optional[int]
    note: str


# mode -> (note of a verdict with a witness flag, note of one without)
_LATTICE_NOTES = {
    "c": ("open: contains flag; boundedness automatic", "contains no declared flag"),
    "d": ("discrete: meets flag trivially; closedness automatic", "meets every declared flag nontrivially"),
}


def lattice_check(F: FilteredSpace, S: Matrix, mode: str) -> LatticeCheck:
    """Openness (mode 'c') or discreteness (mode 'd') of S against the flags.

    Mode 'c': S contains some flag U_k (witness k); linear boundedness is
    automatic in finite dimension.  Mode 'd': S meets some flag trivially;
    closedness is automatic in finite dimension.
    """
    if S.rows != F.dim:
        raise ShapeMismatchError("subspace lives in the wrong ambient space")
    s = S.cols
    # The terminal zero flag stands in for the undeclared rest of the chain
    # and never witnesses openness or discreteness.
    declared = F.flags[:-1]
    # One rref of [S | U] decides each flag, and S's columns lead it exactly
    # when they are independent: the first flag's (rref(S) when no flag is
    # declared) decides that before any verdict.
    first = rref(hstack([S, (declared or F.flags)[0]]))[1]
    if first[:s] != list(range(s)):
        raise ValueError("S has dependent columns")
    if mode not in _LATTICE_NOTES:
        raise ValueError(f"unknown mode {mode!r}")
    found, missed = _LATTICE_NOTES[mode]
    for k, U in enumerate(declared, start=1):
        pivots = first if k == 1 else rref(hstack([S, U]))[1]
        # 'c': U lies in span S exactly when no pivot falls in U's block;
        # 'd': S and U meet trivially exactly when every column pivots
        if len(pivots) == (s if mode == "c" else s + U.cols):
            return LatticeCheck(True, k, found)
    return LatticeCheck(False, None, missed)


@dataclass(frozen=True)
class TateVerdict:
    verdict: str  # tate | not-tate | inconclusive
    evidence: dict


def is_tate_verdict(sys, depth: int) -> TateVerdict:
    """Combine prefix kernel/cokernel dimensions with the tail descriptor.

    Towers are judged by transition kernels, IndTowers by cokernels; a
    bounded descriptor of the relevant kind plus a consistent prefix gives
    'tate', an unbounded descriptor with a growth-consistent prefix gives
    'not-tate', anything else is 'inconclusive'.  Any verdict that leans on
    the descriptor says so in its evidence.
    """
    if not isinstance(sys, (Tower, IndTower)):
        raise TypeError("verdict applies to Tower or IndTower presentations")
    bounded_kind = "bounded-ker" if isinstance(sys, Tower) else "bounded-coker"
    relevant, at = _BOUNDED[bounded_kind]
    materialize(sys, depth)  # checks the depth and every transition
    defects = [sys.defects(n) for n in range(1, depth)]
    profile = [d[at] for d in defects]
    evidence = {
        "relevant": relevant,
        "profile": profile,
        "kernel_dims": [k for k, _ in defects],
        "cokernel_dims": [c for _, c in defects],
        "descriptor": sys.tail.kind,
        "bound": sys.tail.bound,
    }
    kind = sys.tail.kind
    if kind == "stabilizing":
        evidence["note"] = "descriptor: transitions eventually isomorphisms"
        return TateVerdict("tate", evidence)
    if kind == bounded_kind:
        evidence["note"] = f"descriptor bounds every {relevant} dimension by {sys.tail.bound}"
        return TateVerdict("tate", evidence)
    if kind == "unbounded":
        if any(profile[i] > profile[i + 1] for i in range(len(profile) - 1)):
            raise DescriptorViolation(
                f"unbounded descriptor but {relevant} profile {profile} is not nondecreasing"
            )
        evidence["note"] = f"descriptor claims unbounded {relevant} growth; prefix consistent"
        return TateVerdict("not-tate", evidence)
    evidence["note"] = "prefix alone cannot decide; no usable descriptor"
    return TateVerdict("inconclusive", evidence)


# ---------------------------------------------------------------------------
# Isomorphism-of-presentations guard
# ---------------------------------------------------------------------------


def iso_certificate(X, Y, depth: int) -> Optional[list[Matrix]]:
    """Levelwise identity certificate for same-kind presentations.

    Refuses (TypeError) to compare presentations of different kinds: a
    continuous bijection between a discrete and a linearly compact
    presentation is not an isomorphism, and no certificate exists for it.
    """
    if type(X) is not type(Y):
        raise TypeError(
            f"refusing to certify an isomorphism between a {type(X).__name__} "
            f"and a {type(Y).__name__} presentation"
        )
    if not isinstance(X, (Tower, IndTower)):
        raise TypeError("iso certificates apply to Tower or IndTower presentations")
    a = materialize(X, depth)
    if a != materialize(Y, depth):
        return None
    return [Matrix.identity(X.field, d) for d in a.dims]
