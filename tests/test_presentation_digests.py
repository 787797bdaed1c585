"""Library-level digests of the presentation layer behind `tensor`.

These digests pin:
- `pair_at(k, a, b)` for every k in range, with a and b in
  {None, 0, 1, ..., 7} (an unbounded side read for its first 40 pairs),
  including the error raised over an empty range;
- `curry`, `uncurry` and `swap_matrix` on every shape with sides 0 to 3,
  zero sides included, over GF(2), GF(5) and GF(65521), with the errors
  raised on misshapen input;
- `tate_window` (flags, compact block, discrete block) and `ev_witness`
  (U, U_perp) on `laurent_tate` and on seeded `rand_tate` at depths 1 to 4;
- the `hom_via_tensor` tables and windows, and the materialized
  `tensor_star_tate` / `tensor_bang_tate` of seeded pairs.

A change of enumeration order, reshape convention, window layout or
embedding shows here.
"""

import hashlib
import json

import numpy as np
import pytest

from tatevec.duality import ev_witness
from tatevec.exactla import FieldSpec, Matrix
from tatevec.generators import rand_matrix, rand_tate
from tatevec.spaces import FamilyPrefix, SystemPrefix, laurent_tate, materialize, tate_window
from tatevec.tensor import (
    curry,
    hom_via_tensor,
    pair_at,
    swap_matrix,
    tensor_bang_tate,
    tensor_star_tate,
    uncurry,
)

COUNTS = [None, *range(8)]
UNBOUNDED_PAIRS = 40
SIDES = range(4)
RANDOM_TATES = 6
RANDOM_PAIRS = 4


def _doc(x):
    if isinstance(x, Matrix):
        return x.to_json()
    if isinstance(x, SystemPrefix):
        return [x.kind, list(x.dims), _doc(x.maps)]
    if isinstance(x, FamilyPrefix):
        return [x.kind, _doc(x.parts)]
    if isinstance(x, (list, tuple)):
        return [_doc(y) for y in x]
    return x


def _sha(x) -> str:
    text = json.dumps(_doc(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _attempt(call):
    """The result of call(), or the type and message of the error it raises."""
    try:
        return call()
    except (ValueError, IndexError) as exc:
        return [type(exc).__name__, str(exc)]


def _pairs():
    out = []
    for a in COUNTS:
        for b in COUNTS:
            if a == 0 or b == 0:
                out.append(_attempt(lambda: pair_at(1, a, b)))
                continue
            n = UNBOUNDED_PAIRS if a is None or b is None else a * b
            out.append([list(pair_at(k, a, b)) for k in range(1, n + 1)])
    return out


def _reshapes(p: int):
    field = FieldSpec(p)
    rng = np.random.default_rng([p, 0])
    out = []
    for m in SIDES:
        for n in SIDES:
            out.append(swap_matrix(field, m, n))
    for a in SIDES:
        for b in SIDES:
            for c in SIDES:
                M = rand_matrix(rng, field, c, a * b)
                N = rand_matrix(rng, field, b * c, a)
                out.append([curry(M, a, b, c), uncurry(N, a, b, c)])
    M = rand_matrix(rng, field, 2, 3)
    out.append(_attempt(lambda: curry(M, 2, 2, 2)))
    out.append(_attempt(lambda: uncurry(M, 2, 2, 2)))
    return out


def _window(V, depth):
    F, c_cols, d_cols = tate_window(V, depth)
    w = ev_witness(V, depth)
    return [F.dim, F.flags, c_cols, d_cols, w.level, w.U, w.U_perp, w.checked]


def _windows(p: int):
    field = FieldSpec(p)
    out = [_window(laurent_tate(field), depth) for depth in range(1, 5)]
    for seed in range(RANDOM_TATES):
        for depth in range(1, 5):
            rng = np.random.default_rng([p, seed, depth])
            out.append(_window(rand_tate(rng, field, depth=depth, max_dim=5), depth))
    return out


def _tensors(p: int):
    field = FieldSpec(p)
    out = []
    for seed in range(RANDOM_PAIRS):
        rng = np.random.default_rng([p, seed, 9])
        da, db = 1 + seed % 4, 4 - seed % 4
        A = rand_tate(rng, field, depth=da, max_dim=4)
        B = rand_tate(rng, field, depth=db, max_dim=4)
        inner = min(da, db)
        hp = hom_via_tensor(A, B, inner)
        out.append([hp.ev, hp.window, materialize(hp.prodisc, 12, inner=inner)])
        out.append(materialize(tensor_star_tate(A, B), 12, inner=inner))
        out.append(materialize(tensor_bang_tate(A, B), 12, inner=inner))
    L = laurent_tate(field)
    out.append(materialize(tensor_star_tate(L, L), 6, inner=3))
    out.append(materialize(tensor_bang_tate(L, L), 6, inner=3))
    return out


def _parts(p: int) -> dict[str, str]:
    return {
        "reshapes": _sha(_reshapes(p)),
        "windows": _sha(_windows(p)),
        "tensors": _sha(_tensors(p)),
    }


PAIRS_DIGEST = "9f4ff0281d3011928ebb9c93cd00e0b31920c28575263ed9fd87b4d96ee3669e"

# p -> part -> sha256 over all instances of that field
DIGESTS = {
    2: {
        "reshapes": "3b2c0cc9215a7c02248bbc7092f3ac7fd7adb6a5a806d0b3d0aaea1f6da15e4a",
        "windows": "8b99482883e70bf6481913f31bf2c0cd36a1e9e2deb9aef50632b998b2e36e94",
        "tensors": "b54041aabd1c0f8942204095f1f77d4ebc485b1e2387db5b00730d53d2eac021",
    },
    5: {
        "reshapes": "988c959d20ccf17e174c1248f2e54a6b4c17a27628334205df4c9f759d7b5321",
        "windows": "41bf1bf105123af5ea7535470364a8f934bd108533f937935e938251435c7fa4",
        "tensors": "8de870b31ca315e464441236e4509a02aee15e4e5c63d6c8d496c8a9836679f2",
    },
    65521: {
        "reshapes": "b5821dd921ff91c59405e4f86f38417be61b3275878888a8ab856ee5c8cf1032",
        "windows": "7c1978ac91727e2e2a395e82252cfaed2d0d97fb5299b54f454dc39f9fdd600e",
        "tensors": "1a383bff3b383092d35698877c5cf5da98974ae3d8b7de611359c6b5a1d4209b",
    },
}


def test_pair_digest():
    assert _sha(_pairs()) == PAIRS_DIGEST


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_presentation_digests(p):
    assert _parts(p) == DIGESTS[p]
