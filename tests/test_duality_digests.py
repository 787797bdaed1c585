"""Library-level digests of `self_dual_decompose`.

These digests pin, over GF(2), GF(5) and GF(65521), the K, D, F, iso,
change_of_basis and notes that `self_dual_decompose` returns on seeded
`rand_selfdual` instances (with the planted lattice, the next flag and an
enlarged lattice) and on seeded `rand_filtered_space` instances
paired by `rand_invertible` (raw and symmetrised pairings, lattices from
every declared flag), together with the types and messages of the errors
raised on rejected inputs.  A change of pivot choice, complement
completion or greedy F completion shows here.
"""

import hashlib
import json

import numpy as np
import pytest

from tatevec.duality import self_dual_decompose
from tatevec.exactla import FieldSpec, Matrix, hstack, image_basis, is_invertible
from tatevec.generators import rand_filtered_space, rand_invertible, rand_matrix, rand_selfdual
from tatevec.spaces import FilteredSpace

PLANTED_INSTANCES = 24
FILTERED_INSTANCES = 24


def _doc(x):
    if isinstance(x, Matrix):
        return x.to_json()
    if isinstance(x, (list, tuple)):
        return [_doc(y) for y in x]
    return x


def _sha(x) -> str:
    text = json.dumps(_doc(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _decompose(V, phi, L):
    """The split's parts, or the type and message of the error raised."""
    try:
        out = self_dual_decompose(V, phi, L)
    except (ValueError, AssertionError) as exc:
        return [type(exc).__name__, str(exc)]
    return [out.K, out.D, out.F, out.iso, out.change_of_basis, list(out.notes)]


def _planted(p: int):
    field = FieldSpec(p)
    out = []
    for seed in range(PLANTED_INSTANCES):
        rng = np.random.default_rng([p, seed, 0])
        inst = rand_selfdual(rng, field, max_half=1 + seed % 6)
        V, phi = inst.space, inst.pairing
        out.append(_decompose(V, phi, inst.lattice))
        # a smaller isotropic lattice, and a larger one that is not isotropic
        out.append(_decompose(V, phi, V.flags[1]))
        extra = rand_matrix(rng, field, V.dim, 1)
        out.append(_decompose(V, phi, image_basis(hstack([inst.lattice, extra]))))
    return out


def _symmetrised(phi):
    sym = phi + phi.T
    return sym if is_invertible(sym) else phi


def _filtered(p: int):
    field = FieldSpec(p)
    out = []
    for seed in range(FILTERED_INSTANCES):
        rng = np.random.default_rng([p, seed, 1])
        V = rand_filtered_space(rng, field, max_dim=9, max_flags=5)
        phi = rand_invertible(rng, field, V.dim)
        for pairing in (phi, _symmetrised(phi)):
            for U in V.flags[:-1]:
                out.append(_decompose(V, pairing, U))
            # a lattice strictly larger than the first flag
            extra = rand_matrix(rng, field, V.dim, 1)
            out.append(_decompose(V, pairing, image_basis(hstack([V.flags[0], extra]))))
    return out


def _rejected(p: int):
    field = FieldSpec(p)
    rng = np.random.default_rng([p, 2])
    V = rand_filtered_space(rng, field, max_dim=6, max_flags=4)
    n = V.dim
    phi = rand_invertible(rng, field, n)
    L = V.flags[0]
    zero_only = FilteredSpace(field, 3, [Matrix.zeros(field, 3, 0)])
    return [
        _decompose(V, Matrix.zeros(field, n, n), L),  # singular pairing
        _decompose(V, Matrix.identity(field, n + 1), L),  # wrong shape
        _decompose(V, rand_matrix(rng, field, n, n + 1), L),  # not square
        _decompose(V, phi, Matrix.zeros(field, n + 1, 0)),  # lattice in the wrong space
        _decompose(V, phi, Matrix(field, np.ones((n, 2), dtype=np.int64))),  # dependent columns
        _decompose(zero_only, Matrix.identity(field, 3), Matrix.identity(field, 3)),  # no declared flag
        _decompose(zero_only, Matrix.identity(field, 3), Matrix.zeros(field, 3, 0)),
    ]


def _parts(p: int) -> dict[str, str]:
    return {
        "planted": _sha(_planted(p)),
        "filtered": _sha(_filtered(p)),
        "rejected": _sha(_rejected(p)),
    }


# p -> part -> sha256 over all instances of that field
DIGESTS = {
    2: {
        "planted": "1634a1a7baf8521288b31261a21c3b9e768a800f4ff27a9ec6fbea2e78264eef",
        "filtered": "5761aed9d0a42dd861e21ddc00a65d57db2c0e44ec855091f3677df01d6293ad",
        "rejected": "e92f05b1ea083c84b380bd160442b24df9e0cf11bfa8ceb06c093dc3afd998e4",
    },
    5: {
        "planted": "07f947d401609cebabb7a423a9aad224946e823090f948bb02ccced28331f4a4",
        "filtered": "b3140a3a427ef7d57c25fbfc4ff6629fd3c6100c107b347ac3f118a31118deb0",
        "rejected": "e92f05b1ea083c84b380bd160442b24df9e0cf11bfa8ceb06c093dc3afd998e4",
    },
    65521: {
        "planted": "90e7a8f19e1721036a8c8c1b73b4dea0346f2c621515c7154e82b49b0b91d632",
        "filtered": "c8a1d8d2e90ec9ee5ab9b5888e0c70dce9cf50e8cf6375a9c2e5a4cbe663802b",
        "rejected": "e92f05b1ea083c84b380bd160442b24df9e0cf11bfa8ceb06c093dc3afd998e4",
    },
}


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_duality_digests(p):
    assert _parts(p) == DIGESTS[p]
