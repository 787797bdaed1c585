"""Library-level digests of the grid pipeline on large cells.

`tests/test_golden.py` pins CLI output of `gen --kind grid`, whose cells
stay small.  These digests pin the matrices the library computes for
`rand_grid(max_part=16)` (cells up to 32 dimensions) over GF(2) and
GF(65521): the `split_grid` change of basis, every `grid_decomposition`
matrix, the `kappa_check` exchange map and normal form, and the grid and
witness that `dual_grid` returns.  A change of pivot choice, complement
completion or free-variable convention anywhere in the pipeline shows
here.  The last test pins `decompose` and `dual` stdout of a non-square
3 x 5 grid.
"""

import hashlib
import json

import numpy as np
import pytest

from tatevec import bidirected as bd
from tatevec.cli import main
from tatevec.exactla import FieldSpec, Matrix
from tatevec.generators import rand_grid
from tatevec.serialize import space_doc


def _doc(x):
    if isinstance(x, Matrix):
        return x.to_json()
    if isinstance(x, (list, tuple)):
        return [_doc(y) for y in x]
    return x


def _sha(x) -> str:
    text = json.dumps(_doc(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# (p, seed) -> part -> sha256; each grid is rand_grid(rng(seed), GF(p), max_part=16)
DIGESTS = {
    (2, 4): {
        "shape": "5x6",
        "split_basis": "f3a92d596e286344701126c3d0fe369ee3aee2ac119a6a7a1bf110d3c1f2a6b9",
        "split_inverse": "ef522ef07ac90fde6821a32fbad55316f2a412ea520005fac1bd7187ae6b12e5",
        "tate": "0f61edb396d016f3ac88992bf290e4e174e20cff422b28a22acd053bbacb45aa",
        "pi": "6fec364b9821c79630784bafbc79a47f0dde10e5039a5b23205f7ef3d0791e89",
        "opens": "1fd343d4c2f89ee872c2f2595a2f5122504f5980b401c6693c55f5c914cdde68",
        "opens_grid": "2c7fedac8c3969c67b11776f3c6c2507c56f75607b5647417aa47334bb36f773",
        "corner_basis": "a837dc98a15e8a5b815a2b7bcd3f856b43e01bde91f200ae25cdad47f450b0fd",
        "kappa": "bcf9c9755ad7ca92916d8624f91543e64ca15d5af7a99a2c2001b0e07bee1f95",
        "dual_grid": "540fd7f25fa3af8d4ea82709427388258e92ff530bf5ccecdd2ccb7a12725969",
        "dual_witness": "c928a4dedb454654cccde8c651735bc08b9a1e91e532c9a84fc70276c7cc2eb4",
    },
    (2, 7): {
        "shape": "6x4",
        "split_basis": "530ca98471fb1b207044a12ff947daf88a03dfbaaac3e77861ab3196e46c7b8a",
        "split_inverse": "a7e5a9e3eea72b5aa294c212f01cffa1cab01801c924024c03b7698f1df3995e",
        "tate": "9b621893f6fdcaa783c41adafd832d9700bb411819513eff9fbd204d14aa2c64",
        "pi": "7cedea895d984fa5cff11b434e36e686d2649dc625f73ab1b73f8f4c788ddea0",
        "opens": "1d978696071bba7a7fa0954dfe2272ed86b8932dc9ba224245d9c0cb5f603484",
        "opens_grid": "7521a769971f2b8141622630c60b84136b5fe94b4f2d4bd0b99d879d6ffe717d",
        "corner_basis": "118f377ddb55d5fab78766b5694161163b14b219ac9b46682b63583afae88cde",
        "kappa": "3ece6a36a44da515039796d9641f59c0e9ef872800e3bf13fbea0bfad65b37a9",
        "dual_grid": "bb414f6e0658356bc93d969605aa130debf962f8d3fd409df8abbf8133ed8f5f",
        "dual_witness": "a93d5aeca55fc49dc2da79b4a4601cdcaf9be79ac7f7658bfff7a658b532b30a",
    },
    (65521, 4): {
        "shape": "5x6",
        "split_basis": "0909fda97dfdf72b52e34eb1abe6d38cb95c806dd6617a45dcf2741539fd5881",
        "split_inverse": "f84a9da370ba48ecba164d0b5fea56074eee566d8ccdc74a1263d8a0949f26cf",
        "tate": "d5107eff8add645aa565fd77609e5c95a3e4a99c7b1a25d9e5438dcf2d5786c8",
        "pi": "7f7045f7f69dc906294530377da022adadc99a677fceb1e54509485781059b57",
        "opens": "d21c6a2206bb8fc275c93dbb429a9f400cf9c8ae51fc1019f68a9d063dc3199d",
        "opens_grid": "9a3367cf5038ffd6842dc162f7221fa05d9c132cb9d704b5de39d35a19591157",
        "corner_basis": "2a0ead266afcea9fa043cf4d81a687bbe2758d6d44dee20d9534939c63de5d1c",
        "kappa": "bcf9c9755ad7ca92916d8624f91543e64ca15d5af7a99a2c2001b0e07bee1f95",
        "dual_grid": "7d309157e8e09c92d8f1372da64782d3c28726e0f679d482fa6929e6c299e627",
        "dual_witness": "d91e7b3d2a1c3cd42a72193a613203e0afed05b892d786490ee5cf0d88f9909a",
    },
    (65521, 7): {
        "shape": "6x4",
        "split_basis": "2a107f820c8d4f888bcf67f3593e328e39c067d3c231eb682bfb3c54ec78b3d5",
        "split_inverse": "667f2ec12f42d57b1abca13f9b5f2337fe7d5a4e0f792c3baa6e0c6164f3a32e",
        "tate": "6ab8b825402b2ff6827a04a594c5153e1914eccf9c9f4cabe2289697011ccc9e",
        "pi": "e753e2d1beb90e79a46eac1ad412feeb0349c542cdf5e328b37fa57306c6465b",
        "opens": "e047c660df2b3b54ce5352cedae89d56d7747485aab0e78bb841476d06cd4064",
        "opens_grid": "bc23a72d7641f9ee5c73abd2b035c47374a13bbd0f42bd7d39e1ab082e715835",
        "corner_basis": "374b8ae2e9c5674afb23f62e8afd4225f32e1a446b11d7d90d999cefb8b35e81",
        "kappa": "3ece6a36a44da515039796d9641f59c0e9ef872800e3bf13fbea0bfad65b37a9",
        "dual_grid": "71625ff73b87438d76ff2b71bff190d932b4c3ad768e8b14db2d34b2b3b04a39",
        "dual_witness": "9210a23a350aecfc72105e4cff1a3a4afb5c2eba56ade44ead34315a38e843a4",
    },
}


def _parts(p: int, seed: int) -> dict[str, str]:
    field = FieldSpec(p)
    planted = rand_grid(np.random.default_rng(seed), field, max_part=16)
    S = bd.split_grid(planted.grid, planted.witness)
    dec = bd.grid_decomposition(S)
    cert = bd.kappa_check(S)
    out = bd.dual_grid(S.grid, S.witness)
    G2, W2 = out.grid, out.witness
    return {
        "shape": f"{planted.grid.m}x{planted.grid.n}",
        "split_basis": _sha(S.basis),
        "split_inverse": _sha(S.inverse),
        "tate": _sha(space_doc(dec.tate)),
        "pi": _sha(dec.pi),
        "opens": _sha(dec.opens),
        "opens_grid": _sha(dec.opens_grid),
        "corner_basis": _sha(dec.corner_basis),
        "kappa": _sha([cert.matrix, cert.normal_form, cert.ok]),
        "dual_grid": _sha([G2.dims, G2.right, G2.up, out.certificate_ok, out.detail]),
        "dual_witness": _sha([W2.Vdims, W2.Vmaps, W2.Wdims, W2.Wmaps, W2.inj, W2.surj]),
    }


@pytest.mark.parametrize("p,seed", sorted(DIGESTS))
def test_library_digests(p, seed):
    assert _parts(p, seed) == DIGESTS[(p, seed)]


# sha256 of stdout for `gen --kind grid --m 3 --n 5 --field 65521 --seed 3`
# and of `decompose` and `dual` on it
CLI_DIGESTS = {
    "gen": "af6b08c559a5db3922d9886b8ddfb5983c5fb9a05c9033a54a8a575b0dbfa3bb",
    "decompose": "3d66dda86746b3c5b3bfc8395b5ec9a66c0a6407d39549b27745235cdf17aa01",
    "dual": "0cc8fd44f34c19f3a2d508ad160bea72c803b31c8a850de345a452ebc74eacf8",
}


def test_non_square_cli_digests(tmp_path, capsys):
    def stdout(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    grid = stdout("gen", "--kind", "grid", "--m", "3", "--n", "5", "--field", "65521", "--seed", "3")
    path = tmp_path / "grid.json"
    path.write_text(grid)
    texts = {"gen": grid, "decompose": stdout("decompose", str(path)), "dual": stdout("dual", str(path))}
    got = {cmd: hashlib.sha256(text.encode()).hexdigest() for cmd, text in texts.items()}
    assert got == CLI_DIGESTS
