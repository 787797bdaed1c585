"""The four workloads: fixed input sizes, seeded contents, ops and checks.

Each workload has a fixed size design: the shapes of its inputs (grid
shapes, level dimensions, ambient dimensions) are drawn once from the
library generator's own size distribution with DESIGN_SEED and are the
same for every seed.  The benchmark seed draws everything else (maps,
scrambles, entries), so two seeds give different inputs of the same sizes
and a run measures the program, not the luck of the size draw.

Inputs are built by the library generators in `tatevec.generators`; the
sizes are handed to them through `PinnedDraws`, which answers the
generator's size draws from the design and every other draw from the
seeded generator.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tatevec import cli, duality, splitting
from tatevec.exactla import FieldSpec, image_basis
from tatevec.generators import rand_filtered_space, rand_grid, rand_matrix, rand_selfdual, rand_tate
from tatevec.serialize import grid_doc, space_doc

DESIGN_SEED = 20240731


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]  # the timed part
    check: Callable[[object], str | None]  # None when the result is correct
    digest: Callable[[object], str]


@dataclass(frozen=True)
class Workload:
    name: str
    field: int
    inputs: str  # the size design, in words
    op_mix: str
    build: Callable[[int, Path], list[Op]]  # (seed, scratch dir) -> one pass of ops


class PinnedDraws:
    """Stands in for a numpy Generator inside one generator call.

    `pins` maps the index of an `integers` call to the value it returns,
    or to a function of the call's (low, high) that gives the value, for a
    draw whose range depends on earlier random draws.  The pinned call must
    ask for that value's shape and range, so a change in the generator's
    draw order fails loudly instead of silently.
    """

    def __init__(self, rng: np.random.Generator, pins: dict[int, object]):
        self._rng = rng
        self._pins = dict(pins)
        self._calls = 0

    def integers(self, low, high=None, size=None, **kwargs):
        i = self._calls
        self._calls += 1
        if i not in self._pins:
            return self._rng.integers(low, high, size=size, **kwargs)
        value = self._pins.pop(i)
        lo, hi = (0, low) if high is None else (low, high)
        if callable(value):
            value = value(lo, hi)
        arr = np.asarray(value)
        want = () if size is None else tuple(np.atleast_1d(size))
        if arr.shape != want or (arr.size and (arr.min() < lo or arr.max() >= hi)):
            raise RuntimeError(f"pinned draw {i} is {value!r}, generator asked for {want} in [{lo}, {hi})")
        return value

    def done(self):
        if self._pins:
            raise RuntimeError(f"generator never made pinned draws {sorted(self._pins)}")


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _matrices_sha(*mats) -> str:
    h = hashlib.sha256()
    for M in mats:
        h.update(repr(M.shape).encode())
        h.update(np.ascontiguousarray(M.data).tobytes())
    return h.hexdigest()


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return str(path)


def _cli_op(kind: str, argv: list[str], check: Callable[[dict], str | None]) -> Op:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check_output(result):
        rc, text = result
        if rc != 0:
            return f"exit code {rc}: {text[:200]}"
        return check(json.loads(text))

    return Op(kind, call, check_output, lambda result: _sha(result[1]))


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def _grid_ops(seed: int, workdir: Path, p: int, shapes, kinds: tuple[str, ...]) -> list[Op]:
    field = FieldSpec(p)
    ops = []
    for i, (m, n, max_part, V, W) in enumerate(shapes):
        draws = PinnedDraws(_rng(seed, i), {0: V, 1: W})
        planted = rand_grid(draws, field, m=m, n=n, max_part=max_part)
        draws.done()
        Vd, Wd = list(planted.Vdims), list(planted.Wdims)
        if Vd != list(V) or Wd != list(W):
            raise RuntimeError(f"grid {i}: planted dims {Vd}, {Wd} differ from the design {V}, {W}")
        path = _write_json(workdir / f"grid{i}.json", grid_doc(planted.grid, planted.witness))

        def check_decompose(doc, Vd=Vd, Wd=Wd):
            if doc["exchange"]["ok"] is not True:
                return "exchange certificate not ok"
            if doc["tate"]["c"]["dims"] != Wd or doc["tate"]["d"]["dims"] != Vd:
                return "decomposition dims differ from the planted Wdims/Vdims"
            return None

        def check_dual(doc, Vd=Vd, Wd=Wd):
            if doc["dual_certificate"]["ok"] is not True:
                return "dual certificate not ok"
            if doc["ses"]["Vdims"] != Wd or doc["ses"]["Wdims"] != Vd:
                return "dual witness dims are not the swapped planted dims"
            return None

        checks = {"decompose": check_decompose, "dual": check_dual}
        ops.extend(_cli_op(kind, [kind, path], checks[kind]) for kind in kinds)
    return ops


LARGE_GRIDS = 30
SMALL_GRIDS = 60


def _design_large():
    rng = np.random.default_rng([DESIGN_SEED, 1])
    return [(6, 6, 8, rng.integers(0, 9, size=6), rng.integers(0, 9, size=6)) for _ in range(LARGE_GRIDS)]


def _design_small():
    rng = np.random.default_rng([DESIGN_SEED, 2])
    shapes = []
    for _ in range(SMALL_GRIDS):
        m, n = (int(x) for x in rng.integers(1, 7, size=2))
        shapes.append((m, n, 4, rng.integers(0, 5, size=n), rng.integers(0, 5, size=m)))
    return shapes


def build_grid_large(seed: int, workdir: Path) -> list[Op]:
    return _grid_ops(seed, workdir, 2, _design_large(), ("decompose",))


def build_grid_small(seed: int, workdir: Path) -> list[Op]:
    return _grid_ops(seed, workdir, 65521, _design_small(), ("decompose", "dual"))


# ---------------------------------------------------------------------------
# Tensor products of Tate presentations
# ---------------------------------------------------------------------------

TENSOR_PAIRS = 50
TATE_DEPTH = 4
TATE_MAX_DIM = 16


def _rank_mod_p(doc, p: int) -> int:
    """Rank of a matrix document, by elimination written out here so the
    check does not lean on the library under test."""
    rows, cols = doc["rows"], doc["cols"]
    A = [[doc["entries"][r * cols + c] % p for c in range(cols)] for r in range(rows)]
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if A[r][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], p - 2, p)
        A[rank] = [x * inv % p for x in A[rank]]
        for r in range(rows):
            if r != rank and A[r][c]:
                f = A[r][c]
                A[r] = [(x - f * y) % p for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


def _embedded_dims(lattice: dict, other: dict, p: int) -> list[tuple[int, ...]]:
    """Level dims of the pieces of a Tate object in the ind-compact (star)
    or pro-discrete (bang) embedding: `lattice` itself, then one constant
    piece per level of `other` holding that level's new dimensions."""
    depth = len(lattice["dims"])
    incs = [other["dims"][0]]
    for s in range(1, len(other["dims"])):
        incs.append(other["dims"][s] - _rank_mod_p(other["transitions"][s - 1], p))
    return [tuple(lattice["dims"])] + [(inc,) * depth for inc in incs]


def _tensor_dims(a: dict, b: dict, op: str, p: int) -> list[tuple[int, ...]]:
    first, second = ("c", "d") if op == "star" else ("d", "c")
    pa = _embedded_dims(a[first], a[second], p)
    pb = _embedded_dims(b[first], b[second], p)
    return sorted(tuple(x * y for x, y in zip(u, v)) for u in pa for v in pb)


def build_tensor(seed: int, workdir: Path) -> list[Op]:
    p = 2
    field = FieldSpec(p)
    rng = np.random.default_rng([DESIGN_SEED, 3])
    ops = []
    for i in range(TENSOR_PAIRS):
        docs = []
        for side in range(2):
            c_dims = rng.integers(0, TATE_MAX_DIM + 1, size=TATE_DEPTH)
            d_dims = rng.integers(0, TATE_MAX_DIM + 1, size=TATE_DEPTH)
            # rand_tate draws the tower dims, its depth - 1 maps, then the indtower dims
            draws = PinnedDraws(_rng(seed, i, side), {0: c_dims, TATE_DEPTH: d_dims})
            doc = space_doc(rand_tate(draws, field, depth=TATE_DEPTH, max_dim=TATE_MAX_DIM))
            draws.done()
            if doc["c"]["dims"] != list(c_dims) or doc["d"]["dims"] != list(d_dims):
                raise RuntimeError(f"tate pair {i}: level dims differ from the design")
            docs.append(doc)
        paths = [_write_json(workdir / f"tate{i}_{side}.json", doc) for side, doc in enumerate(docs)]
        for op in ("star", "bang"):
            want = _tensor_dims(docs[0], docs[1], op, p)

            def check(doc, want=want):
                pieces = doc.get("summands", doc.get("factors"))
                got = sorted(tuple(piece["dims"]) for piece in pieces)
                return None if got == want else "level dims are not the products of the factor dims"

            ops.append(_cli_op(op, ["tensor", "--op", op, *paths], check))
    return ops


# ---------------------------------------------------------------------------
# Filtered splittings and self-dual decompositions
# ---------------------------------------------------------------------------

FILTERED_INSTANCES = 120
FILTERED_MAX_DIM = 24
FILTERED_MAX_FLAGS = 8
SELFDUAL_MAX_HALF = 12


def build_filtered(seed: int, workdir: Path) -> list[Op]:
    field = FieldSpec(2)
    rng = np.random.default_rng([DESIGN_SEED, 4])
    ops = []
    for i in range(FILTERED_INSTANCES):
        n = int(rng.integers(1, FILTERED_MAX_DIM + 1))
        k = int(rng.integers(1, FILTERED_MAX_FLAGS))
        a = int(rng.integers(1, n + 1))
        d = int(rng.integers(1, SELFDUAL_MAX_HALF + 1))
        cut_fracs = rng.random(k)
        selfdual_cut = int(rng.integers(0, d + 1))

        # rand_filtered_space draws the dimension, a basis, the flag count,
        # then the cuts in 0..rank of the basis; the rank over GF(2) depends
        # on the seed, so the design fixes each cut as a share of it
        def cuts(lo, hi, fracs=cut_fracs):
            return (lo + fracs * (hi - lo)).astype(np.int64)

        draws = PinnedDraws(_rng(seed, i, 0), {0: n, 2: k, 3: cuts})
        B = rand_filtered_space(draws, field, max_dim=FILTERED_MAX_DIM, max_flags=FILTERED_MAX_FLAGS)
        draws.done()
        A = image_basis(rand_matrix(_rng(seed, i, 1), field, n, a))
        # rand_selfdual draws the discrete dimension, then the one free cut
        draws = PinnedDraws(_rng(seed, i, 2), {0: d, 1: selfdual_cut})
        sd = rand_selfdual(draws, field, max_half=SELFDUAL_MAX_HALF)
        draws.done()
        if B.dim != n or sd.discrete_dim != d:
            raise RuntimeError(f"instance {i}: dims differ from the design")

        def complement(B=B, A=A):
            return splitting.topological_complement(B, A)

        def check_complement(out, n=n, a=A.cols):
            return None if a + out.S.cols == n else f"A.cols + S.cols = {a + out.S.cols}, dim {n}"

        def self_dual(sd=sd):
            return duality.self_dual_decompose(sd.space, sd.pairing, sd.lattice)

        def check_self_dual(out, d=d):
            return None if out.D.cols == d else f"recovered discrete dim {out.D.cols}, planted {d}"

        ops.append(Op("complement", complement, check_complement, lambda o: _matrices_sha(o.S, o.pi)))
        ops.append(
            Op("self_dual", self_dual, check_self_dual, lambda o: _matrices_sha(o.K, o.D, o.F, o.iso, o.change_of_basis))
        )
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-decompose-large",
            2,
            f"{LARGE_GRIDS} grids 6x6 from rand_grid(max_part=8)",
            "tatevec decompose, one in-process cli.main call per grid",
            build_grid_large,
        ),
        Workload(
            "grid-small-mixed",
            65521,
            f"{SMALL_GRIDS} grids from rand_grid defaults (m, n in 1..6, max_part=4)",
            "tatevec decompose then tatevec dual on each grid, alternating",
            build_grid_small,
        ),
        Workload(
            "tensor-emit",
            2,
            f"{TENSOR_PAIRS} pairs of rand_tate(depth={TATE_DEPTH}, max_dim={TATE_MAX_DIM})",
            "tatevec tensor --op star then --op bang on each pair",
            build_tensor,
        ),
        Workload(
            "filtered-split",
            2,
            f"{FILTERED_INSTANCES} rand_filtered_space(max_dim={FILTERED_MAX_DIM}, max_flags={FILTERED_MAX_FLAGS})"
            f" with a random subspace, {FILTERED_INSTANCES} rand_selfdual(max_half={SELFDUAL_MAX_HALF})",
            "splitting.topological_complement then duality.self_dual_decompose, one library call each",
            build_filtered,
        ),
    )
}
