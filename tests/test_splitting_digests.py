"""Library-level digests of the splitting layer.

These digests pin, over GF(2), GF(5) and GF(65521), the matrices that
`split_filtered_ses` (at depth None, 1 and 2), `topological_complement`
and `extend_functional` return on seeded `rand_filtered_space`
instances, together with the messages of the errors they raise.  A change
of pivot choice, complement completion or lifting convention anywhere in
the flag induction shows here.  Each field's instances include a space
whose only flag is zero, a subspace A with no columns, the whole space as
A and a subspace given by dependent columns.
"""

import hashlib
import json

import numpy as np
import pytest

from tatevec.duality import extend_functional
from tatevec.exactla import FieldSpec, Matrix, image_basis, intersect_columns, kernel_basis, rank, solve_linear
from tatevec.generators import rand_filtered_space, rand_matrix
from tatevec.spaces import FilteredSpace
from tatevec.splitting import split_filtered_ses, topological_complement

RANDOM_INSTANCES = 24


def _doc(x):
    if isinstance(x, Matrix):
        return x.to_json()
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
    except (ValueError, AssertionError) as exc:
        return [type(exc).__name__, str(exc)]


def _instances(p: int):
    """(B, A, rng) triples: seeded random ones, then the edge cases."""
    field = FieldSpec(p)
    out = []
    for seed in range(RANDOM_INSTANCES):
        rng = np.random.default_rng([p, seed])
        B = rand_filtered_space(rng, field, max_dim=10, max_flags=5)
        a = int(rng.integers(0, B.dim + 1))
        A = image_basis(rand_matrix(rng, field, B.dim, a)) if a else Matrix.zeros(field, B.dim, 0)
        out.append((B, A, rng))
    rng = np.random.default_rng([p, RANDOM_INSTANCES])
    B = rand_filtered_space(rng, field, max_dim=8, max_flags=5)
    n = B.dim
    out.append((B, Matrix.zeros(field, n, 0), rng))
    out.append((B, Matrix.identity(field, n), rng))
    out.append((B, Matrix(field, np.ones((n, 2), dtype=np.int64)), rng))  # dependent columns
    zero_only = FilteredSpace(field, 5, [Matrix.zeros(field, 5, 0)])
    out.append((zero_only, image_basis(rand_matrix(rng, field, 5, 3)), rng))
    out.append((zero_only, Matrix.zeros(field, 5, 0), rng))
    return out


def _split(B, A, depth):
    def call():
        cert = split_filtered_ses(B, A, depth)
        return [cert.pi, cert.s, cert.cokernel_basis, list(cert.flag_ok)]

    return _attempt(call)


def _complement(B, A):
    def call():
        cert = topological_complement(B, A)
        return [cert.S, cert.pi, list(cert.flag_ok)]

    return _attempt(call)


def _continuous_functional(B, A, k, rng):
    """A functional on A that kills A meet U_k, from seeded weights."""
    field = B.field
    meet = intersect_columns(A, B.flags[k - 1])
    if meet.cols:
        ann = kernel_basis(solve_linear(A, meet).T).T
    else:
        ann = Matrix.identity(field, A.cols)
    return rand_matrix(rng, field, 1, ann.rows) @ ann


def _extensions(B, A, rng):
    field = B.field
    independent = rank(A) == A.cols
    out = []
    for k in range(0, len(B.flags) + 2):
        f = rand_matrix(rng, field, 1, A.cols)
        out.append(_attempt(lambda: extend_functional(B, A, f, k)))
        if 1 <= k <= len(B.flags) and A.cols and independent:
            g = _continuous_functional(B, A, k, rng)
            out.append(_attempt(lambda: extend_functional(B, A, g, k)))
    out.append(_attempt(lambda: extend_functional(B, A, Matrix.zeros(field, 1, A.cols + 1), 1)))
    return out


def _parts(p: int) -> dict[str, str]:
    parts = {"split_all": [], "split_1": [], "split_2": [], "complement": [], "extend": []}
    for B, A, rng in _instances(p):
        parts["split_all"].append(_split(B, A, None))
        parts["split_1"].append(_split(B, A, 1))
        parts["split_2"].append(_split(B, A, 2))
        parts["complement"].append(_complement(B, A))
        parts["extend"].append(_extensions(B, A, rng))
    return {name: _sha(value) for name, value in parts.items()}


# p -> part -> sha256 over all instances of that field
DIGESTS = {
    2: {
        "split_all": "d0ea8b18ac4a216c98cf067c857c732323cabd73adc9ff71ef5185d22fb9b2da",
        "split_1": "93e2b499bed5cd836e209ff3e9f6c848e5cd836a39e64cb9f6efa64c23e338ca",
        "split_2": "61d1f164a7d74d9c0d660c14e4ca17a7d322a86a4e631e60e0828d873e9315e9",
        "complement": "3687d77e93f57733d223a850df52db484e7067476e801e54270ffdd9a4cfda96",
        "extend": "64439ce888b6e1f8c0a78258ee4ad03b863e9caef16c7f66bd10dfd7cced5b2e",
    },
    5: {
        "split_all": "587c7d9242371743e2fca248bd097d9288c1511e3dbe5684e68991980920d115",
        "split_1": "4ece97acaf64db2bf86eaa20c8b02dc57d2a23d92ce2270970d3c4439e393662",
        "split_2": "eb020ddcdba7d1a6ab84594102906b981640f0235e5a46c90733d88dbe7a7c8f",
        "complement": "da5985bc7279b508a6828d093241821ed7ef2743d08cabe21b08dbcf7139107f",
        "extend": "4344d00b761d01144f53a4d96558f1693125b19e0eca46723ff4bb605ec0ad3d",
    },
    65521: {
        "split_all": "521bfddafba1a6b391ea06443496f8956125c2c78c1f40a49a9c5c8ad7de4d89",
        "split_1": "b3f721bb58f55130994a237e70ef927184a537184222fd8ddf6f7bd4ef816ec2",
        "split_2": "627115c6f4f9fa23c17bec4c2b1cd7aef42c5ab8fc9f8c8d45106de83986f645",
        "complement": "29d8c911b8f1f14511992d94ef720e98377715287d3e6801626715306a07bdfe",
        "extend": "bf87c6d075f16a4c06a5ebe287335828dd75fc24ada26c48f65d32a5006cc033",
    },
}


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_splitting_digests(p):
    assert _parts(p) == DIGESTS[p]
