"""Library-level digests of the `exactla` elimination kernel.

These digests pin, over GF(2) and GF(65521), what `rref` (R and pivots),
`extend_basis`, `inverse` and `kernel_basis` return on seeded full-rank,
rank-deficient and sparse matrices.  The shapes include empty ones and
column counts on both sides of the 8-, 64- and 128-bit boundaries, up to
200 x 300, where the pure-Python reference loops of `test_exactla.py` are
too slow to compare against.  A change of pivot rule, reduction or
completion anywhere in the kernel shows here.
"""

import hashlib
import json

import numpy as np
import pytest

from tatevec.exactla import FieldSpec, Matrix, extend_basis, hstack, inverse, kernel_basis, rref

SHAPES = [
    (0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (8, 8), (6, 9), (12, 63), (64, 64), (20, 65),
    (63, 63), (65, 65), (40, 127), (128, 128), (30, 129), (129, 64), (200, 300),
]  # fmt: skip


def _doc(x):
    if isinstance(x, Matrix):
        return x.to_json()
    if isinstance(x, (list, tuple)):
        return [_doc(y) for y in x]
    return x


def _sha(x) -> str:
    text = json.dumps(_doc(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _matrices(p: int):
    """A full-rank-ish, a rank-deficient and a sparse matrix of every shape."""
    field = FieldSpec(p)
    for m, n in SHAPES:
        rng = np.random.default_rng([p, m, n])
        yield Matrix(field, rng.integers(0, p, size=(m, n)))
        k = int(rng.integers(0, min(m, n) + 1))
        yield Matrix(field, rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n)) % p)
        yield Matrix(field, rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < 0.1))


def _attempt(call):
    """The result of call(), or the type and message of the error it raises."""
    try:
        return call()
    except ValueError as exc:
        return [type(exc).__name__, str(exc)]


def _outputs(p: int) -> dict[str, list]:
    out = {"rref": [], "extend_basis": [], "inverse": [], "kernel_basis": []}
    for A in _matrices(p):
        R, pivots = rref(A)
        out["rref"].append([R, pivots])
        S = A.take_cols(pivots)
        E, s_coords, e_coords = extend_basis(S, S.rows)
        out["extend_basis"].append([E, s_coords, e_coords, _attempt(lambda: extend_basis(A, A.rows))])
        k = min(A.shape)
        square = Matrix(A.field, A.data[:k, :k])
        out["inverse"].append([inverse(square), inverse(hstack([S, E]))])
        out["kernel_basis"].append([kernel_basis(A), kernel_basis(A.T)])
    return out


DIGESTS = {
    2: {
        "rref": "0faded5edc8d8a1a72eff1fbb60ca52474082de57790dcc9642c9f536f82e978",
        "extend_basis": "b14fc20ecb891ecdee0e6b5ede930736633a402f39d2215811e64332e8ddacdc",
        "inverse": "faf9b2ad93e8b211c7afdeb18cc82b0bc316ba04ea20e4742d78c0936f467597",
        "kernel_basis": "ee9b6f50515fefccb17e5130661ba3a71bbcd9aed152d6c385b3777cf642ee4c",
    },
    65521: {
        "rref": "9de0bd20edfa969d3b66484bda59b1094c413b8cc0acc15b829edc5d65cb0da1",
        "extend_basis": "76c20ed72736a8af915b0e681d2d73112553af33d30831f8d9e8cc9128f093a2",
        "inverse": "afc96354c08d71a2c65d98fc250c3285409eb89a64db54ca4c4e95956c67d850",
        "kernel_basis": "f3b3629a1a57a7ee6742ebfac78b58759a7123aec974e3c4103b7e1199080041",
    },
}


@pytest.mark.parametrize("p", sorted(DIGESTS))
def test_kernel_digests(p):
    got = {name: _sha(results) for name, results in _outputs(p).items()}
    assert got == DIGESTS[p]
