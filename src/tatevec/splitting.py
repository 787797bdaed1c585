"""Constructive splitting of short exact sequences at finite truncation.

A short exact sequence of filtered spaces is split level by level along the
flag chain: each discrete quotient inherits a splitting from the previous
one through a ladder correction (factor the off-diagonal block through the
surjective vertical map, replace the complement by the graph of the
negated correction), and the last flag being zero makes the assembled
retraction live on the whole space, compatible with every flag.

All choices of complements use the greedy standard-vector rule, so the
output is reproducible; every claimed identity is verified by matrix
multiplication before a certificate is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import (
    Matrix,
    extend_basis,
    factor_through,
    hstack,
    image_basis,
    intersect_columns,
    inverse,
    kernel_basis,
    rank,
    solve_linear,
    span_contains,
)
from .spaces import FilteredSpace


@dataclass(frozen=True)
class SESLadder:
    """Two short exact sequences with surjective comparison maps.

    Rows are 0 -> A -> B -> C -> 0 with inclusion i and projection p; the
    vertical maps f: A2 -> A1, g: B2 -> B1, h: C2 -> C1 point from the
    second row to the first and must make both squares commute; f must be
    surjective and pi1 must split the first row.
    """

    i1: Matrix
    p1: Matrix
    i2: Matrix
    p2: Matrix
    f: Matrix
    g: Matrix
    h: Matrix
    pi1: Matrix

    def validate(self):
        for name, (i, p) in (("row 1", (self.i1, self.p1)), ("row 2", (self.i2, self.p2))):
            if rank(i) != i.cols:
                raise ValueError(f"{name}: inclusion is not injective")
            if rank(p) != p.rows:
                raise ValueError(f"{name}: projection is not surjective")
            if not (p @ i).is_zero():
                raise ValueError(f"{name}: p o i != 0")
            if i.cols + p.rows != i.rows:
                raise ValueError(f"{name}: not exact in the middle")
        if self.g @ self.i2 != self.i1 @ self.f:
            raise ValueError("left square does not commute")
        if self.h @ self.p2 != self.p1 @ self.g:
            raise ValueError("right square does not commute")
        if rank(self.f) != self.f.rows:
            raise ValueError("f is not surjective")
        if self.pi1 @ self.i1 != Matrix.identity(self.i1.field, self.i1.cols):
            raise ValueError("pi1 does not split row 1")


def lift_splitting(ladder: SESLadder) -> tuple[Matrix, Matrix, Matrix]:
    """Push a splitting of the first row down to the second.

    Returns (pi2, s1, s2) with pi2 o i2 = id, f o pi2 = pi1 o g, and
    sections commuting with h.  The complement of the image of i2 is chosen
    greedily, then corrected to the graph of the negated factorization of
    the off-diagonal block through f.
    """
    ladder.validate()
    field = ladder.i2.field
    a2 = ladder.i2.cols

    S2, i2_coords, S2_coords = extend_basis(ladder.i2, ladder.i2.rows)
    alpha = ladder.pi1 @ (ladder.g @ S2)
    theta = factor_through(ladder.f, alpha)
    S2_corr = S2 - ladder.i2 @ theta
    # [i2 | S2_corr] = [i2 | S2] [[I, -theta], [0, I]], whose inverse has the
    # top rows i2_coords + theta S2_coords
    pi2 = i2_coords + theta @ S2_coords

    S1 = kernel_basis(ladder.pi1)
    s1 = S1 @ _inv_or_die(ladder.p1 @ S1)
    s2 = S2_corr @ _inv_or_die(ladder.p2 @ S2_corr)

    ident = Matrix.identity(field, a2)
    if pi2 @ ladder.i2 != ident:
        raise AssertionError("internal: pi2 does not split row 2")
    if ladder.f @ pi2 != ladder.pi1 @ ladder.g:
        raise AssertionError("internal: lifted splitting does not commute")
    if ladder.p2 @ s2 != Matrix.identity(field, ladder.p2.rows):
        raise AssertionError("internal: s2 is not a section")
    if not (pi2 @ s2).is_zero():
        raise AssertionError("internal: pi2 o s2 != 0")
    if ladder.g @ s2 != s1 @ ladder.h:
        raise AssertionError("internal: sections do not commute")
    return pi2, s1, s2


def _inv_or_die(M: Matrix) -> Matrix:
    out = inverse(M)
    if out is None:
        raise AssertionError("internal: expected invertible matrix")
    return out


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
class _QuotientLevel:
    # coordinates of the three discrete quotients at one flag level
    qcoord: Matrix  # B -> B/V_k
    Q: Matrix  # representatives of B/V_k in B
    acoord: Matrix  # A-coords -> A/(A meet V_k)
    R: Matrix  # representatives of A/(A meet V_k) in A-coords
    meet: Matrix  # basis of A meet V_k
    ccoord: Matrix  # B -> B/(A + V_k)
    P: Matrix  # representatives of B/(A + V_k) in B
    incl: Matrix  # A/(A meet V_k) -> B/V_k
    proj: Matrix  # B/V_k -> B/(A + V_k)


def _quotient_level(B: FilteredSpace, A: Matrix, Uk: Matrix) -> _QuotientLevel:
    field = B.field
    n = B.dim
    Q, _, qcoord = extend_basis(Uk, n)

    meet = intersect_columns(A, Uk)
    if meet.cols:
        I_k = solve_linear(A, meet)
        if I_k is None:
            raise AssertionError("internal: A meet V_k is not inside A")
    else:
        I_k = Matrix.zeros(field, A.cols, 0)
    R, _, acoord = extend_basis(I_k, A.cols)

    AV = image_basis(hstack([A, Uk])) if A.cols + Uk.cols else Matrix.zeros(field, n, 0)
    P, _, ccoord = extend_basis(AV, n)

    incl = qcoord @ (A @ R)
    proj = ccoord @ Q
    return _QuotientLevel(qcoord, Q, acoord, R, meet, ccoord, P, incl, proj)


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
    if A.rows != n or rank(A) != A.cols:
        raise ValueError("A must be given by independent columns in B")
    field = B.field
    flags = list(B.flags if depth is None else B.flags[:depth])
    if flags[-1].cols != 0:
        flags.append(Matrix.zeros(field, n, 0))

    levels = [_quotient_level(B, A, U) for U in flags]

    lvl = levels[0]
    _, pi, _ = extend_basis(lvl.incl, lvl.qcoord.rows)
    s = None

    for prev, cur in zip(levels, levels[1:]):
        ladder = SESLadder(
            i1=prev.incl,
            p1=prev.proj,
            i2=cur.incl,
            p2=cur.proj,
            f=prev.acoord @ cur.R,
            g=prev.qcoord @ cur.Q,
            h=prev.ccoord @ cur.P,
            pi1=pi,
        )
        pi, _, s = lift_splitting(ladder)

    if s is None:  # single (zero) flag: split the one level directly
        S1 = kernel_basis(pi)
        s = S1 @ _inv_or_die(levels[0].proj @ S1)

    # the terminal zero flag makes the last quotient the space itself
    final = levels[-1]
    pi_B = pi @ final.qcoord
    s_B = final.Q @ s

    if A.cols and pi_B @ A != Matrix.identity(field, A.cols):
        raise AssertionError("internal: retraction does not restrict to the identity")
    flag_ok = []
    for k, U in enumerate(flags):
        moved = A @ (pi_B @ U) if A.cols else Matrix.zeros(field, n, U.cols)
        flag_ok.append(span_contains(levels[k].meet, moved))
    if not all(flag_ok):
        raise AssertionError("internal: retraction is not flag-compatible")
    if not (pi_B @ s_B).is_zero():
        raise AssertionError("internal: pi o s != 0")
    if final.proj @ s != Matrix.identity(field, s.cols):
        raise AssertionError("internal: section is not split by the projection")
    return SplitCertificate(pi_B, s_B, final.P, tuple(flag_ok))


@dataclass(frozen=True)
class ComplementCertificate:
    """A topological complement S of A in B: kernel of the flag-compatible
    retraction, with both projections verified flag-compatible."""

    S: Matrix
    pi: Matrix
    flag_ok: tuple[bool, ...]


def topological_complement(B: FilteredSpace, A: Matrix) -> ComplementCertificate:
    cert = split_filtered_ses(B, A)
    field = B.field
    n = B.dim
    S = kernel_basis(cert.pi)
    if A.cols + S.cols != n or rank(hstack([A, S])) != n:
        raise AssertionError("internal: A + S is not a direct sum decomposition")
    proj_S = Matrix.identity(field, n) - A @ cert.pi
    flag_ok = []
    for U in B.flags:
        meet_S = intersect_columns(S, U)
        flag_ok.append(span_contains(meet_S, proj_S @ U) if U.cols else True)
    if not all(flag_ok):
        raise AssertionError("internal: complementary projection is not flag-compatible")
    return ComplementCertificate(S, cert.pi, tuple(flag_ok))
