"""Digests of the planted generators' ground truth.

These pin, over GF(2), GF(5) and GF(65521), the verified planted change of
basis (`PlantedGrid.planted_split`) of seeded `rand_grid` instances and
every matrix of seeded `rand_pairings` fixtures: the product and
coproduct windows with their targets, the duality isomorphisms and their
inverses, and the global maps in planted coordinates.  They also pin the
draw order: a generator that draws one more or one fewer number shows
here.  The count tests pin that each scramble and the global duality are
inverted once, that grids and witnesses are built without the checking
constructors, and that the filtered spaces are built without re-checking
flags nested by construction.
"""

import hashlib
import json

import numpy as np
import pytest

from tatevec import bidirected, exactla, generators, spaces
from tatevec.exactla import FieldSpec, Matrix
from tatevec.generators import rand_filtered_space, rand_grid, rand_pairings, rand_selfdual


def _doc(x):
    if isinstance(x, Matrix):
        return x.to_json()
    if isinstance(x, (list, tuple)):
        return [_doc(y) for y in x]
    return x


def _sha(x) -> str:
    text = json.dumps(_doc(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _entries(family):
    return [[[list(e.target), e.matrix] for e in row] for row in family.entries]


def _parts(p: int) -> dict[str, str]:
    field = FieldSpec(p)
    splits, pairings = [], []
    for seed in range(6):
        planted = rand_grid(np.random.default_rng([p, seed]), field, m=1 + seed % 3, n=1 + seed // 2)
        split = planted.planted_split
        splits.append([split.basis, split.inverse, planted.scramble])
    for seed, (m, n) in enumerate([(1, 1), (2, 2), (2, 3)]):
        rng = np.random.default_rng([p, seed])
        fx = rand_pairings(rng, field, m=m, n=n)
        pairings.append(
            [
                _entries(fx.mu),
                _entries(fx.lam),
                fx.pd.f,
                fx.pd.g,
                fx.mu_hat,
                fx.lam_hat,
                fx.planted.planted_split.inverse,
                int(rng.integers(0, 2**31)),  # the next draw: pins how many were made
            ]
        )
    return {"planted_split": _sha(splits), "pairings": _sha(pairings)}


# p -> part -> sha256 over all instances of that field
DIGESTS = {
    2: {
        "planted_split": "e802e68c3946c0e7c53d3a1404afe16abb9e888900411e4a276d44fb33ec494c",
        "pairings": "47c2157e20ca23d5080932e58c3b5296d71141b940bb11708ce7e051fabdf240",
    },
    5: {
        "planted_split": "a4b5ec460fcd8150884be6bb7014eb3fff400d883883dd8a9c2d974f2541f093",
        "pairings": "80666484c81c48217a7a2a1a339d71bbad86152df8c452c5f0c72b36c9a73988",
    },
    65521: {
        "planted_split": "bb499644e69ee52286012c0c14931d083da7f4d65fdf1a93642dbbfd52f938f4",
        "pairings": "4ad1b276e322f9e7f54a8d2ffd77a95e04f9986ceef0e568c6ef0f34c2d36d3c",
    },
}


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_generator_digests(p):
    assert _parts(p) == DIGESTS[p]


def test_each_scramble_inverted_once(monkeypatch):
    # rand_grid inverts its m * n scrambles, rand_pairings the global duality
    # f_hat; the cell dualities, their inverses and the planted split reuse
    # these
    calls = []
    real = generators.inverse
    monkeypatch.setattr(generators, "inverse", lambda M: calls.append(M.shape) or real(M))
    fx = rand_pairings(np.random.default_rng(0), FieldSpec(5), m=2, n=2)
    assert len(calls) == 5
    fx.planted.planted_split
    assert len(calls) == 5


def test_grids_are_built_unchecked(monkeypatch):
    # rand_grid builds its grid and witness through from_stacks, never
    # through the checking constructors; what it builds passes them
    calls = []
    for cls in (bidirected.BidirectedGrid, bidirected.SESWitness):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _cls=cls: calls.append(_cls))
    planted = [
        rand_grid(np.random.default_rng(seed), field, constant_systems=constant)
        for seed in range(20)
        for field in (FieldSpec(2), FieldSpec(5))
        for constant in (False, True)
    ]
    assert calls == []
    monkeypatch.undo()
    for P in planted:
        G, W = P.grid, P.witness
        assert bidirected.BidirectedGrid(G.field, G.dims, G.right, G.up).dims == G.dims
        assert bidirected.SESWitness(W.Vdims, W.Vmaps, W.Wdims, W.Wmaps, W.inj, W.surj).inj == W.inj


def test_filtered_spaces_are_wrapped_unchecked(monkeypatch):
    # rand_filtered_space's one rref is its image basis: its flags, prefixes
    # of that basis, are not re-checked
    calls = [0]
    real = exactla.rref

    def counted(X):
        calls[0] += 1
        return real(X)

    monkeypatch.setattr(exactla, "rref", counted)
    monkeypatch.setattr(spaces, "rref", counted)
    F = rand_filtered_space(np.random.default_rng(0), FieldSpec(2), 24, 8)
    assert calls[0] == 1
    # the flags the generators build unchecked pass the checking constructor
    for seed in range(40):
        for field in (FieldSpec(2), FieldSpec(5)):
            rng = np.random.default_rng(seed)
            for F in (rand_filtered_space(rng, field, 24, 8), rand_selfdual(rng, field).space):
                assert spaces.FilteredSpace(field, F.dim, F.flags).flags == F.flags
