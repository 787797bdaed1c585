"""Constructive splitting of short exact sequences at finite truncation.

A short exact sequence 0 -> A -> B -> B/A -> 0 of filtered spaces is split
level by level along the flag chain.  `quotient_level` presents the
discrete quotients at one flag U (B/U, A/(A meet U) and B/(A + U)) in B
coordinates, read off one rref of [U | A | I] (the proof is in
`QuotientLevel`).  Each level inherits a splitting from the previous one
through the one lifting step, `_lift`, that `lift_splitting` shares: a
correction theta factors what the previous retraction sees of the
complement through the surjection f: A/(A meet U_{k+1}) -> A/(A meet U_k),
and the complement is replaced by the graph of -theta.  The last flag
being zero makes the assembled retraction live on the whole space.
`extend_functional` in `duality` reads the Hahn-Banach extension off the
same quotient level.

Along the flags theta needs no elimination.  The flags are nested, so a
column of A independent modulo U_k stays independent modulo
U_{k+1} inside U_k: the pivots of level k are a subset of those of level
k + 1.  f = acoord_k R_{k+1} is then acoord_k's columns at level k + 1's
pivots, already reduced, and so is [f | alpha]; the canonical solution of
f theta = alpha is alpha placed at the rows where level k's pivots sit
among level k + 1's, zero elsewhere.  `lift_splitting` solves for theta,
since a ladder's f is arbitrary.  The induction is that on the quotients
B/U_k composed with their coordinates qcoord_k: pi: B -> A/(A meet U_k)
kills U_k, alpha = pi E is a column take, and the lift reads
incl_coords, proj and incl = A R in B coordinates.  At the zero flag
qcoord = I, so pi, s and the cokernel basis are those of the quotients.

All choices of complements use the greedy standard-vector rule, so the
output is reproducible.  The lifting step makes the splitting identities
hold by construction; flag compatibility is verified, once, before a
certificate is returned, by one product per flag.  A pi U lies in A, so
it lies in A meet U exactly when it lies in U, that is when the rows Z of
rref([U | A | I]) below U's pivots kill it, as they span ann U.  Z A is
[acoord; 0], so that is acoord pi U = 0.  `lift_splitting` lifts a
splitting along an explicit `SESLadder`, whose rank conditions its own
eliminations decide.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .exactla import (
    Matrix,
    extend_basis,
    factor_through,
    hstack,
    inverse,
    kernel_basis,
    rref,
)
from .spaces import FilteredSpace


@dataclass(frozen=True)
class SESLadder:
    """Two short exact sequences with surjective comparison maps.

    Rows are 0 -> A -> B -> C -> 0 with inclusion i and projection p; the
    vertical maps f: A2 -> A1, g: B2 -> B1, h: C2 -> C1 point from the
    second row to the first and must make both squares commute; f must be
    surjective and pi1 must split the first row.  `lift_splitting` checks
    all of this.
    """

    i1: Matrix
    p1: Matrix
    i2: Matrix
    p2: Matrix
    f: Matrix
    g: Matrix
    h: Matrix
    pi1: Matrix


def _lift(theta: Matrix, incl: Matrix, incl_coords: Matrix, E: Matrix, proj: Matrix) -> tuple[Matrix, Matrix]:
    """Lift a retraction one row down: theta factors what the previous
    retraction sees on the complement E through the surjection between the
    sub-objects, and [incl | E - incl theta] = [incl | E] [[I, -theta], [0, I]]
    has the inverse [incl_coords + theta proj; proj], which gives (pi, s)."""
    return incl_coords + theta @ proj, E - incl @ theta


def lift_splitting(ladder: SESLadder) -> tuple[Matrix, Matrix, Matrix]:
    """Push a splitting of the first row down to the second.

    Returns (pi2, s1, s2) with pi2 o i2 = id, f o pi2 = pi1 o g, and
    sections commuting with h.  The complement of the image of i2 is chosen
    greedily, then corrected by the lifting step.  A ladder that is not
    one raises ValueError: the products and dimensions are checked first,
    and each rank condition by the elimination that needs it.
    """
    L = ladder
    for name, (i, p) in (("row 1", (L.i1, L.p1)), ("row 2", (L.i2, L.p2))):
        if not (p @ i).is_zero():
            raise ValueError(f"{name}: p o i != 0")
        if i.cols + p.rows != i.rows:
            raise ValueError(f"{name}: not exact in the middle")
    if L.g @ L.i2 != L.i1 @ L.f:
        raise ValueError("left square does not commute")
    if L.h @ L.p2 != L.p1 @ L.g:
        raise ValueError("right square does not commute")
    # a left inverse of i1 also makes it injective
    if L.pi1 @ L.i1 != Matrix.identity(L.i1.field, L.i1.cols):
        raise ValueError("pi1 does not split row 1")
    try:
        S2, i2_coords, S2_coords = extend_basis(L.i2, L.i2.rows)
    except ValueError:
        raise ValueError("row 2: inclusion is not injective") from None
    try:
        theta = factor_through(L.f, L.pi1 @ (L.g @ S2))
    except ValueError:
        raise ValueError("f is not surjective") from None
    pi2, S2_corr = _lift(theta, L.i2, i2_coords, S2, S2_coords)

    # [i | S] is a basis of each row and p i = 0, so p is onto exactly when
    # the square p S is invertible; s = S (p S)^-1 is then the section.
    # The lifting step and the exact solves give the rest:
    # - pi2 i2 = I and pi2 s2 = 0;
    # - f pi2 = pi1 g by theta's equation on S2, and on i2 since
    #   pi1 g i2 = pi1 i1 f = f;
    # - g s2 = s1 h since both sides are 0 under pi1 and h under p1, and
    #   [pi1; p1] is injective on the exact row 1 that pi1 splits
    sections = []
    for name, p, S in (("row 1", L.p1, kernel_basis(L.pi1)), ("row 2", L.p2, S2_corr)):
        pS_inv = inverse(p @ S)
        if pS_inv is None:
            raise ValueError(f"{name}: projection is not surjective")
        sections.append(S @ pS_inv)
    return pi2, *sections


@dataclass(frozen=True)
class SplitCertificate:
    """A flag-compatible retraction pi: B -> A with section s: C -> B.

    pi is written on A's basis columns, s on the quotient basis stored in
    `cokernel_basis`.  flag_ok[k] records the verified containment
    pi(U_{k+1}) inside A meet U_{k+1}.
    """

    pi: Matrix
    s: Matrix
    cokernel_basis: Matrix
    flag_ok: tuple[bool, ...]


@dataclass(frozen=True)
class QuotientLevel:
    """The discrete quotients at one flag U, in B coordinates, from one rref.

    acoord presents A/(A meet U) on A's coordinates, R its unit columns at
    `pivots`; incl_coords: B -> A/(A meet U) and proj: B -> B/(A + U) kill
    U, and the unit columns E present B/(A + U).  All exact: acoord R = I,
    incl_coords A R = I, proj E = I, proj A R = 0 and incl_coords E = 0.

    They are the rows of rref([U | A | I]) below U's u pivots.  Let qcoord
    be the rows of rref([U | I]) below its u pivots, in the I block: the
    RREF basis of ann U, with pivots at the unit columns Q completing U.
    A row z [U | A | I] with a zero U block has z = y qcoord, so our rows
    are the RREF of the rows of [qcoord A | qcoord].  Now rref([qcoord A |
    I_q]) = X [qcoord A | I_q], X = [incl | E_q]^-1 with incl = qcoord A R
    and E_q the greedy completion of incl; X [qcoord A | qcoord] is in RREF
    too, each I_q pivot j moved to qcoord's j-th pivot, where qcoord has
    the unit column e_j.  The RREF is unique, so these are our rows: their
    A block is rref(qcoord A), whose kernel is A meet U, with `pivots` and
    top rows acoord; their I block is X qcoord, incl_coords over proj, and
    its pivots are Q E_q = E.
    """

    acoord: Matrix  # A-coords -> A/(A meet U)
    R: Matrix  # representatives of A/(A meet U) in A-coords (unit columns)
    pivots: tuple[int, ...]  # the columns of A that R picks
    incl_coords: Matrix  # B -> A/(A meet U), zero on U and E
    proj: Matrix  # B -> B/(A + U)
    E: Matrix  # representatives of B/(A + U) in B (unit columns)


def quotient_level(n: int, A: Matrix, U: Matrix) -> QuotientLevel:
    """The quotient level of the flag U in B = k^n with subspace A, read
    off rref([U | A | I]); U must have independent columns."""
    field, u, a, I = A.field, U.cols, A.cols, Matrix.identity(A.field, n)
    Rm, piv = rref(hstack([U, A, I]))
    if piv[:u] != list(range(u)):
        raise ValueError("complement: input columns are dependent")
    r = bisect_left(piv, u + a) - u  # the pivots rise
    pivots = tuple(c - u for c in piv[u : u + r])
    X = Rm.data[u:, u + a :]
    return QuotientLevel(
        Matrix._of(field, Rm.data[u : u + r, u : u + a]),
        Matrix.identity(field, a).take_cols(pivots),
        pivots,
        Matrix._of(field, X[:r]),
        Matrix._of(field, X[r:]),
        I.take_cols(c - u - a for c in piv[u + r :]),
    )


def split_filtered_ses(B: FilteredSpace, A: Matrix, depth: int | None = None) -> SplitCertificate:
    """Split 0 -> A -> B -> B/A -> 0 compatibly with the flag chain.

    Splittings of the discrete quotients B/U_k are built inductively along
    the flags (each level lifted from the previous one), and since the last
    flag is zero the final level is the assembled retraction pi: B -> A
    with pi(U_k) inside A meet U_k for every k.  `depth` restricts the
    induction to the first `depth` >= 1 flags (the terminal zero flag is
    always appended so the assembled map lives on B).
    """
    n = B.dim
    if A.rows != n:
        raise ValueError("A must be given by independent columns in B")
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    field = B.field
    flags = list(B.flags[:depth])
    if flags[-1].cols != 0:
        flags.append(Matrix.zeros(field, n, 0))

    levels = [quotient_level(n, A, U) for U in flags]
    # the terminal zero flag eliminates [A | I]: its pivots are all of A's
    # columns exactly when A is independent
    if levels[-1].R.cols != A.cols:
        raise ValueError("A must be given by independent columns in B")

    # the first level splits along its greedy complement E; each next level
    # lifts the previous retraction, with theta in closed form (see the
    # module docstring).  At the terminal zero flag R = acoord = I, so
    # pi A = I, pi s = 0 and proj s = I hold by the lifting step; only the
    # flag containments are left to check.
    pi, s = levels[0].incl_coords, levels[0].E
    for prev, cur in zip(levels, levels[1:]):
        at = {c: i for i, c in enumerate(cur.pivots)}
        if not at.keys() >= set(prev.pivots):
            raise AssertionError("internal: pivots of A do not grow along the flags")
        alpha = pi.take_cols(cur.E.data.nonzero()[0])  # E's 1s sit in rising rows
        theta = np.zeros((len(at), alpha.cols), dtype=np.int64)
        theta[[at[c] for c in prev.pivots]] = alpha.data
        pi, s = _lift(Matrix._of(field, theta), A.take_cols(cur.pivots), cur.incl_coords, cur.E, cur.proj)

    # A pi U lies in A meet U exactly when acoord pi U = 0 (module docstring)
    flag_ok = tuple((lvl.acoord @ (pi @ U)).is_zero() for U, lvl in zip(flags, levels))
    if not all(flag_ok):
        raise AssertionError("internal: retraction is not flag-compatible")
    return SplitCertificate(pi, s, levels[-1].E, flag_ok)


@dataclass(frozen=True)
class ComplementCertificate:
    """A topological complement S of A in B: kernel of the flag-compatible
    retraction, with both projections verified flag-compatible."""

    S: Matrix
    pi: Matrix
    flag_ok: tuple[bool, ...]


def topological_complement(B: FilteredSpace, A: Matrix) -> ComplementCertificate:
    cert = split_filtered_ses(B, A)
    # pi A = I makes A + ker pi direct, and (1 - A pi) U lies in U exactly
    # when A pi U does, so the retraction's flag checks cover the complement
    S = kernel_basis(cert.pi)
    if A.cols + S.cols != B.dim:
        raise AssertionError("internal: A + S is not a direct sum decomposition")
    return ComplementCertificate(S, cert.pi, cert.flag_ok)
