"""Constructive splitting of short exact sequences at finite truncation.

A short exact sequence 0 -> A -> B -> B/A -> 0 of filtered spaces is split
level by level along the flag chain.  `quotient_level` presents the
discrete quotients at one flag U (B/U, A/(A meet U) and B/(A + U)) from
two eliminations: a basis completion of U (none at the zero flag, where
B/U = B) and one rref of [qcoord A | I] in B/U coordinates, whose left
block is rref(qcoord A) (its kernel is A meet U) and whose identity block
completes A's image in B/U.  Each level inherits a splitting from the
previous one through the one lifting step, `_lift`, that `lift_splitting`
shares: a correction theta factors what the previous retraction sees of
the complement through the surjection f: A/(A meet U_{k+1}) ->
A/(A meet U_k), and the complement is replaced by the graph of -theta.
The last flag being zero makes the assembled retraction live on the whole
space.  `extend_functional` in `duality` reads the Hahn-Banach extension
off the same quotient level.

Along the flags theta needs no elimination.  The flags are nested, so a
column of A independent modulo U_k stays independent modulo
U_{k+1} inside U_k: the pivots of level k are a subset of those of level
k + 1.  f = acoord_k R_{k+1} is then acoord_k's columns at level k + 1's
pivots, already reduced, and so is [f | alpha]; the canonical solution of
f theta = alpha is alpha placed at the rows where level k's pivots sit
among level k + 1's, zero elsewhere.  `lift_splitting` solves for theta,
since a ladder's f is arbitrary.

All choices of complements use the greedy standard-vector rule, so the
output is reproducible.  The lifting step makes the splitting identities
hold by construction; flag compatibility is verified, once, before a
certificate is returned, by one product per flag.  A pi U lies in A, so
it lies in A meet U exactly when it lies in U, that is when
qcoord A pi U = 0: [U | Q] is invertible and qcoord is the last row block
of its inverse.  qcoord A = incl acoord with incl injective, so that is
acoord pi U = 0.  `lift_splitting` lifts a splitting along an explicit
`SESLadder`, whose rank conditions its own eliminations decide.
"""

from __future__ import annotations

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
    """The discrete quotients at one flag U, read from two eliminations.

    Q and qcoord present B/U; M = qcoord A has A meet U as its kernel (in
    A-coordinates), and its pivot columns present A/(A meet U); E
    completes the image of A in B/U, so Q E presents B/(A + U).  Every
    matrix below is exact: qcoord Q = I, acoord R = I, qcoord A = incl
    acoord, incl_coords incl = I, proj E = I and proj incl = 0.

    All but Q and qcoord come from one rref of [M | I_q], q = dim B/U:
    - its left block is rref(M), which gives acoord, the pivots, R and incl;
    - the pivots in its identity block are the greedy completion E of
      incl, because that completion depends only on the span, and
      span(incl) = span(M);
    - its right block X is the row operations that take M to rref(M), so
      X incl and X E are the unit columns at the pivots: X = [incl | E]^-1,
      with incl_coords the first r rows and proj the rest.
    """

    qcoord: Matrix  # B -> B/U
    Q: Matrix  # representatives of B/U in B
    acoord: Matrix  # A-coords -> A/(A meet U)
    R: Matrix  # representatives of A/(A meet U) in A-coords (unit columns)
    incl: Matrix  # A/(A meet U) -> B/U
    incl_coords: Matrix  # B/U -> A/(A meet U), zero on E
    E: Matrix  # representatives of B/(A + U) in B/U
    proj: Matrix  # B/U -> B/(A + U)
    pivots: tuple[int, ...]  # the columns of A that R picks


def quotient_level(n: int, A: Matrix, U: Matrix) -> QuotientLevel:
    """The quotient level of the flag U in B = k^n with subspace A.

    A x lies in U exactly when qcoord A x = 0, so rref(qcoord A) has A meet
    U as its kernel: its pivots pick R as unit columns and the image
    representatives incl, and its top rows are the coordinates acoord.
    """
    field = A.field
    if U.cols:
        Q, _, qcoord = extend_basis(U, n)
        M = qcoord @ A
    else:  # B/U = B: the completion of nothing is the identity
        Q = qcoord = Matrix.identity(field, n)
        M = A
    a = A.cols
    I_q = Matrix.identity(field, Q.cols)
    Rm, piv = rref(hstack([M, I_q]))
    r = sum(c < a for c in piv)
    pivots = tuple(piv[:r])
    R = Matrix.identity(field, a).take_cols(pivots)
    acoord = Matrix._of(field, Rm.data[:r, :a])
    incl = M.take_cols(pivots)
    E = I_q.take_cols(c - a for c in piv[r:])
    X = Rm.data[:, a:]
    return QuotientLevel(
        qcoord, Q, acoord, R, incl, Matrix._of(field, X[:r]), E, Matrix._of(field, X[r:]), pivots
    )


def split_filtered_ses(B: FilteredSpace, A: Matrix, depth: int | None = None) -> SplitCertificate:
    """Split 0 -> A -> B -> B/A -> 0 compatibly with the flag chain.

    Splittings of the discrete quotients B/U_k are built inductively along
    the flags (each level lifted from the previous one), and since the last
    flag is zero the final level is the assembled retraction pi: B -> A
    with pi(U_k) inside A meet U_k for every k.  `depth` restricts the
    induction to the first `depth` flags (the terminal zero flag is always
    appended so the assembled map lives on B).
    """
    n = B.dim
    if A.rows != n:
        raise ValueError("A must be given by independent columns in B")
    field = B.field
    flags = list(B.flags if depth is None else B.flags[:depth])
    if flags[-1].cols != 0:
        flags.append(Matrix.zeros(field, n, 0))

    levels = [quotient_level(n, A, U) for U in flags]
    # the terminal zero flag eliminates qcoord A = A itself: its pivots are
    # all of A's columns exactly when A is independent
    if levels[-1].R.cols != A.cols:
        raise ValueError("A must be given by independent columns in B")

    # the first level splits along its greedy complement E; each next level
    # lifts the previous retraction, with theta in closed form (see the
    # module docstring).  At the terminal zero flag Q = qcoord = I,
    # R = acoord = I and incl = A, so pi A = I, pi s = 0 and proj s = I hold
    # by the lifting step; only the flag containments are left to check.
    pi, s = levels[0].incl_coords, levels[0].E
    for prev, cur in zip(levels, levels[1:]):
        at = {c: i for i, c in enumerate(cur.pivots)}
        if not at.keys() >= set(prev.pivots):
            raise AssertionError("internal: pivots of A do not grow along the flags")
        alpha = pi @ ((prev.qcoord @ cur.Q) @ cur.E)
        theta = np.zeros((len(at), alpha.cols), dtype=np.int64)
        theta[[at[c] for c in prev.pivots]] = alpha.data
        pi, s = _lift(Matrix._of(field, theta), cur.incl, cur.incl_coords, cur.E, cur.proj)

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
