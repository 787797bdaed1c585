"""Golden digests of `tatevec tensor` stdout beyond `tests/test_golden.py`.

`test_golden.py` pins the tensors of two generated depth-4 documents at
the default `--depth`.  These digests pin, over GF(2), GF(3) and
GF(65521):
- `--op star|bang --depth 3|5` of the builtin `laurent` with itself;
- `laurent` with a generated Tate document, in both orders;
- `power_series` with itself (star) and `polynomial` with itself (bang);
- a generated depth-3 Tate document with a depth-5 one, whose product is
  written at the documents' own depths whatever `--depth` says.

A change of product order, level memo, part enumeration or writer shows
here.
"""

import hashlib

import pytest

from tatevec.cli import main

FIELDS = (2, 3, 65521)

# case name -> field -> sha256 of stdout
DIGESTS = {
    "laurent_star_3": {
        2: "7d73f31acbe46d51d05a154887bcecea87cdda52b61e89b7e4d9e172ab797af4",
        3: "fe9d291eb679cbc3d89bb96aff126d103bda1312ba25e3ec51edbf665ffab4ea",
        65521: "28b3a1cf242e5af0907dac8de84be7763b5269c567d4ccf59e8367b6e86b4a1f",
    },
    "laurent_star_5": {
        2: "5b3582c289b8f765b01cd6e698f5784b6f4c24b45ccc5ba57d96f91abdaf0cbd",
        3: "b9f1908bbcea0fe29f730eeb3f57f44e2a5e01136dd0b4e1c5813606b0902168",
        65521: "e14993ab531d1630b0e8e8c66d6d61010c86982d610079951a63751e8a76eaf1",
    },
    "laurent_tate_star": {
        2: "d8b223d35151c79119d6fe8d92a7bef1a425e29f3d53efa31f34bfbf37b67023",
        3: "5351dc8eada114012d9d4bd67d53d356c717caea93a6339e8fed0e25094df8cb",
        65521: "ccd9107b050eb80cb630e708c39d114a4f489f1e4125fe2ada0e6151df47cae3",
    },
    "tate_laurent_star": {
        2: "a8b4c717b333648bd8b64aec4d221b339a0e68a116548afdf1080d50815c15fb",
        3: "ac75b13b4c71c92a507f3431859528cdc148f4f45d6d5ac7b3855ab0fa4cf52b",
        65521: "b950659ef81147c24ca7e6b40616d171fa46edb92ed2145757779bdfd29f3004",
    },
    "tate3_tate5_star": {
        2: "560d905daeff45bb14768816824eb0d81d25a1f04eca859f5df0418c3d1d44c4",
        3: "0fc46312ff1562fd966541a1abc5f4271a6c4c36604c4901066572741c9a0c5f",
        65521: "d30d96592567b972853cde6061ba8df346b13170d5a68f616ef3c1d2ebb5bb80",
    },
    "laurent_bang_3": {
        2: "f16e608a16ef89dfc766da60ca5cb2c8a426b6679621a930a9bbe47ef475974e",
        3: "5231df79f94a3e8188aac08a10e257e8ddf5275734edff4dc6e58e756ab3dc11",
        65521: "477d09c7ff85260fc2e7d47a108f4111682e4b4d58cb1d94e7559d6938c40cb4",
    },
    "laurent_bang_5": {
        2: "ecf72cce27d07374de32ea0d59f2e2a0164900ad4a1e0e45833b6ff0a6e9e3d0",
        3: "7ca04325fd970e3102340678136058e60a6f320d3a2e10a1502b9835dea4bc4f",
        65521: "f8c7becf3f9fb6a1268cf9128f26f9acc4b47b3a89b18e1e3a27a2ccf87e708c",
    },
    "laurent_tate_bang": {
        2: "714a26a50b788758907c35d163f56435c344da94c3f486f761804c0eff5e98b1",
        3: "92fcc0df124852610e973ec7c4485957ae00d4074dfe6017029ce0b3602bbe04",
        65521: "d0cee81bfb7a931aa0233111fac46de50437723d3ac870a418cf0b2c00e29195",
    },
    "tate_laurent_bang": {
        2: "10793cfeb447416189d54ba7dfdbf1d2d1b61e3aa838eb364b4be75bff891e28",
        3: "b8ec4c2799ed36e4f6583450ea58b8915f0eb051ffa00732bf5cdbc628c5ad35",
        65521: "783855e3213b799645a04b21af1e166ba58bc692253f3603ef8551757366af62",
    },
    "tate3_tate5_bang": {
        2: "c8c32c29121bfafa74dfa9adbe63d4f0fc187dcee6277585dd87ca96928ba846",
        3: "5c5152810df62af4c8ca439075ef86c29090df3ddcb0acbae7e9594e4dde307f",
        65521: "5a1528b013652e7ee139135af39c64fa15c833af54d77b0197174fd6391f9c9a",
    },
    "power_series_star": {
        2: "3d37c7cea86eeede23c44bd20fedf28f64020604f607b1c5fdc46869ab066bd1",
        3: "fdce8d98f26ffdbb47d92c0361f935148686a58be38be73697fea1b17697d1f4",
        65521: "bafa9d384195f9602e0d04d96e3598f99dfc4e77daede70b8d35dad388ef2eba",
    },
    "polynomial_bang": {
        2: "206853ef55b8709ef3f8c846e8e824cc5816c9afa797b4a0f0cb5c5589eb0f5a",
        3: "6d74427f0f764c83a6870baa72d356f8f567930049ca7a810c7e69de11c6d020",
        65521: "e9100b85b016ab6116adb90506d1aa26ef8251301009bbaa0e357ac8830877be",
    },
}


def _builtin(name: str, p: int) -> str:
    return f'{{"field":{p},"kind":"builtin","name":"{name}"}}'


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _outputs(tmp_path, capsys, p: int) -> dict[str, str]:
    field = ["--field", str(p)]
    paths = {}
    for name in ("laurent", "power_series", "polynomial"):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(_builtin(name, p))
    for name, seed, depth in (("tate", 5, 4), ("tate3", 6, 3), ("tate5", 7, 5)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(_stdout(capsys, "gen", "--kind", "tate", "--seed", str(seed), "--depth", str(depth), *field))

    def tensor(op, depth, a, b):
        return _stdout(capsys, "tensor", "--op", op, "--depth", str(depth), str(paths[a]), str(paths[b]))

    out = {}
    for op in ("star", "bang"):
        for depth in (3, 5):
            out[f"laurent_{op}_{depth}"] = tensor(op, depth, "laurent", "laurent")
        out[f"laurent_tate_{op}"] = tensor(op, 3, "laurent", "tate")
        out[f"tate_laurent_{op}"] = tensor(op, 4, "tate", "laurent")
        out[f"tate3_tate5_{op}"] = tensor(op, 2, "tate3", "tate5")
    out["power_series_star"] = tensor("star", 5, "power_series", "power_series")
    out["polynomial_bang"] = tensor("bang", 5, "polynomial", "polynomial")
    return out


@pytest.mark.parametrize("p", FIELDS)
def test_tensor_stdout_matches_digests(tmp_path, capsys, p):
    got = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in _outputs(tmp_path, capsys, p).items()}
    assert got == {name: by_field[p] for name, by_field in DIGESTS.items()}
