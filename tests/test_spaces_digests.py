"""Library-level digests of the normalizations and of the lifting step.

These digests pin, over GF(2), GF(5) and GF(65521):
- what `normalize_indtower` and `normalize_tower` return (the normalized
  dims and transitions, and the comparison maps) on seeded
  `rand_indtower` / `rand_tower` prefixes at every depth from 1 to the
  prefix length, plus a zero transition, a surjection that collapses an
  ind-tower level, a map that collapses a tower level and the built-in
  systems;
- the (pi2, s1, s2) that `lift_splitting` returns on seeded ladders whose
  rows are scrambled split sequences, including rows with A = 0 or C = 0,
  together with the messages of the errors it raises.

A change of pivot choice, image basis, comparison convention or lifting
correction shows here.
"""

import hashlib
import json

import numpy as np
import pytest

from tatevec.exactla import FieldSpec, Matrix, hstack, inverse, rank, vstack
from tatevec.generators import rand_indtower, rand_invertible, rand_matrix, rand_tower
from tatevec.spaces import (
    IndTower,
    Tower,
    normalize_indtower,
    normalize_tower,
    polynomial_indtower,
    power_series_tower,
)
from tatevec.splitting import SESLadder, lift_splitting

RANDOM_SYSTEMS = 16
RANDOM_LADDERS = 24


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


def _normalized(normalize, T, depth):
    def call():
        out, comparisons = normalize(T, depth)
        return [out.kind, list(out.dims), list(out.maps), list(comparisons)]

    return _attempt(call)


def _systems(p: int, rand, cls, edge_map):
    """(system, prefix length) pairs: seeded random ones, then edge cases."""
    field = FieldSpec(p)
    out = []
    for seed in range(RANDOM_SYSTEMS):
        rng = np.random.default_rng([p, seed])
        depth = int(rng.integers(1, 7))
        out.append((rand(rng, field, depth=depth, max_dim=6), depth))
    z = Matrix.zeros(field, 2, 2)
    out.append((cls.from_prefix(field, [2], []), 1))
    out.append((cls.from_prefix(field, [2, 2, 2], [z, z]), 3))
    out.append((cls.from_prefix(field, [2, 1, 3], edge_map(field)), 3))
    return out


def _indtower_edge(field):
    # level 1 -> level 2 is onto a smaller space, so level 1 collapses
    return [Matrix(field, [[1, 0]]), Matrix(field, [[1], [0], [1]])]


def _tower_edge(field):
    # level 2 -> level 1 is not onto, so level 1 shrinks to its image
    return [Matrix(field, [[1], [1]]), Matrix(field, [[0, 1, 1]])]


def _normalize_parts(p: int) -> dict[str, list]:
    field = FieldSpec(p)
    parts = {"indtower": [], "tower": []}
    for name, normalize, rand, cls, edge, builtin in (
        ("indtower", normalize_indtower, rand_indtower, IndTower, _indtower_edge, polynomial_indtower),
        ("tower", normalize_tower, rand_tower, Tower, _tower_edge, power_series_tower),
    ):
        for T, length in _systems(p, rand, cls, edge):
            parts[name] += [_normalized(normalize, T, depth) for depth in range(1, length + 1)]
        parts[name].append(_normalized(normalize, builtin(field), 4))
        parts[name].append(_normalized(normalize, builtin(field), 0))
    return parts


def _split_row(field, T, a, c):
    """Inclusion and projection of 0 -> k^a -> k^(a+c) -> k^c -> 0 after the
    change of basis T."""
    i = T @ vstack([Matrix.identity(field, a), Matrix.zeros(field, c, a)])
    p = hstack([Matrix.zeros(field, c, a), Matrix.identity(field, c)]) @ inverse(T)
    return i, p


def _ladder(rng, field, a1, c1, a2, c2) -> SESLadder:
    """Rows scrambled from split sequences; in split coordinates g is
    [[f, x], [0, h]] with f onto, and pi1 is [I, y]."""
    T1 = rand_invertible(rng, field, a1 + c1)
    T2 = rand_invertible(rng, field, a2 + c2)
    i1, p1 = _split_row(field, T1, a1, c1)
    i2, p2 = _split_row(field, T2, a2, c2)
    while True:
        f = rand_matrix(rng, field, a1, a2)
        if rank(f) == a1:
            break
    h = rand_matrix(rng, field, c1, c2)
    g_split = vstack([hstack([f, rand_matrix(rng, field, a1, c2)]), hstack([Matrix.zeros(field, c1, a2), h])])
    g = T1 @ g_split @ inverse(T2)
    pi1 = hstack([Matrix.identity(field, a1), rand_matrix(rng, field, a1, c1)]) @ inverse(T1)
    return SESLadder(i1=i1, p1=p1, i2=i2, p2=p2, f=f, g=g, h=h, pi1=pi1)


def _lift_part(p: int) -> list:
    field = FieldSpec(p)
    ladders = []
    for seed in range(RANDOM_LADDERS):
        rng = np.random.default_rng([p, seed])
        a1, c1, c2 = (int(x) for x in rng.integers(0, 4, size=3))
        a2 = a1 + int(rng.integers(0, 3))
        ladders.append(_ladder(rng, field, a1, c1, a2, c2))
    rng = np.random.default_rng([p, RANDOM_LADDERS])
    ladders.append(_ladder(rng, field, 0, 2, 0, 3))  # A = 0
    ladders.append(_ladder(rng, field, 2, 0, 3, 0))  # C = 0
    ladders.append(_ladder(rng, field, 0, 0, 0, 0))
    bad = _ladder(rng, field, 1, 1, 1, 1)
    ladders.append(SESLadder(**{**bad.__dict__, "f": Matrix.zeros(field, 1, 1)}))  # the left square breaks
    return [_attempt(lambda: list(lift_splitting(ladder))) for ladder in ladders]


def _parts(p: int) -> dict[str, str]:
    parts = _normalize_parts(p)
    parts["lift"] = _lift_part(p)
    return {name: _sha(value) for name, value in parts.items()}


# p -> part -> sha256 over all instances of that field
DIGESTS = {
    2: {
        "indtower": "b13c41f8eec1ae7bdd36b62606c32ca8ddb272cac6cd59c27789dfff8eea8feb",
        "tower": "4c92122d0806d3aaf7c2b0c65d3310cfed1fdf4ec2f1e9cff19cc9df4495dbca",
        "lift": "11e40d12cd231ab9b8a4bee61e9e632a2599cae9f405e53416a50843dd3fce78",
    },
    5: {
        "indtower": "9e20b6dcd67672775d84e3dc3551078dbccbcd7a7cbb0d4633081c2a7ff0dab3",
        "tower": "6fd32cd27a45ae60b19e7814f3528d55bef35c4e99c149b1ab5eaea1c2294990",
        "lift": "e5d88eadf26a62da35ffea1c5f48c137ba76edc0325167db1bf63fa9ba63c282",
    },
    65521: {
        "indtower": "33f7cd4440c0876e867b402cc472dca91931d27f42f4198a9587e2bbdf15f815",
        "tower": "f094c6a0df638be5190518872407cc60eb95944fd364db7033071bf4080606c3",
        "lift": "0a735536e76f68e098dcd8a7fbf8c46b5153bc9a4076519b89ca7752b8fb5fea",
    },
}


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_spaces_digests(p):
    assert _parts(p) == DIGESTS[p]
