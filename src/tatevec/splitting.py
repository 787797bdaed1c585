"""Constructive splitting of short exact sequences at finite truncation.

A short exact sequence 0 -> A -> B -> B/A -> 0 of filtered spaces is split
level by level along the flag chain.  `quotient_level` presents the
discrete quotients at one flag U (B/U, A/(A meet U) and B/(A + U)) from
three eliminations: a basis completion of U, one rref of A in B/U
coordinates (whose kernel is A meet U) and a basis completion of A's image
in B/U.  Each level inherits a splitting from the previous one through
the one lifting step, `_lift`, that `lift_splitting` shares: factor what
the previous retraction sees of the complement through the surjection
A/(A meet U_{k+1}) -> A/(A meet U_k), and replace the complement by the
graph of the negated correction.  The last flag being zero makes the
assembled retraction live on the whole space.  `extend_functional` in
`duality` reads the Hahn-Banach extension off the same quotient level.

All choices of complements use the greedy standard-vector rule, so the
output is reproducible.  The lifting step makes the splitting identities
hold by construction; flag compatibility is verified, once, before a
certificate is returned.  `lift_splitting` lifts a splitting along an
explicit `SESLadder`, whose rank conditions its own eliminations decide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import (
    Matrix,
    extend_basis,
    factor_through,
    inverse,
    kernel_basis,
    rref,
    span_contains,
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


def _lift(
    f: Matrix, alpha: Matrix, incl: Matrix, incl_coords: Matrix, E: Matrix, proj: Matrix
) -> tuple[Matrix, Matrix]:
    """Lift a retraction one row down: theta factors alpha (what the previous
    retraction sees on the complement E) through the surjection f, and
    [incl | E - incl theta] = [incl | E] [[I, -theta], [0, I]] has the
    inverse [incl_coords + theta proj; proj], which gives (pi, s)."""
    theta = factor_through(f, alpha)
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
        pi2, S2_corr = _lift(L.f, L.pi1 @ (L.g @ S2), L.i2, i2_coords, S2, S2_coords)
    except ValueError:
        raise ValueError("f is not surjective") from None

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
    """The discrete quotients at one flag U, read from three eliminations.

    Q and qcoord present B/U; M = qcoord A has A meet U as its kernel (in
    A-coordinates), and its pivot columns present A/(A meet U); E
    completes the image of A in B/U, so Q E presents B/(A + U).  Every
    matrix below is exact: qcoord Q = I, acoord R = I, qcoord A = incl
    acoord, incl_coords incl = I, proj E = I and proj incl = 0.
    """

    qcoord: Matrix  # B -> B/U
    Q: Matrix  # representatives of B/U in B
    acoord: Matrix  # A-coords -> A/(A meet U)
    R: Matrix  # representatives of A/(A meet U) in A-coords (unit columns)
    incl: Matrix  # A/(A meet U) -> B/U
    incl_coords: Matrix  # B/U -> A/(A meet U), zero on E
    E: Matrix  # representatives of B/(A + U) in B/U
    proj: Matrix  # B/U -> B/(A + U)


def quotient_level(n: int, A: Matrix, U: Matrix) -> QuotientLevel:
    """The quotient level of the flag U in B = k^n with subspace A.

    A x lies in U exactly when qcoord A x = 0, so rref(qcoord A) has A meet
    U as its kernel: its pivots pick R as unit columns and the image
    representatives incl, and its top rows are the coordinates acoord.
    """
    Q, _, qcoord = extend_basis(U, n)
    M = qcoord @ A
    Rm, pivots = rref(M)
    R = Matrix.identity(A.field, A.cols).take_cols(pivots)
    acoord = Matrix._of(A.field, Rm.data[: len(pivots)])
    incl = M.take_cols(pivots)
    E, incl_coords, proj = extend_basis(incl, Q.cols)
    return QuotientLevel(qcoord, Q, acoord, R, incl, incl_coords, E, proj)


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
    # lifts the previous retraction through the surjection f of its
    # sub-objects.  At the terminal zero flag Q = qcoord = I, R = acoord = I
    # and incl = A, so pi A = I, pi s = 0 and proj s = I hold by the lifting
    # step; only the flag containments are left to check.
    pi, s = levels[0].incl_coords, levels[0].E
    for prev, cur in zip(levels, levels[1:]):
        f = prev.acoord @ cur.R
        g = prev.qcoord @ cur.Q
        pi, s = _lift(f, pi @ (g @ cur.E), cur.incl, cur.incl_coords, cur.E, cur.proj)

    # A pi U lies in A, so it lies in A meet U exactly when it lies in U
    flag_ok = tuple(span_contains(U, A @ (pi @ U)) for U in flags)
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
