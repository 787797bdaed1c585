"""Golden digests of CLI stdout.

Each digest pins the exact bytes that a subcommand writes for a fixed seed
and field.  Pivot choices, complement completions and free-variable
conventions all show in the output, so a kernel change that alters any of
them fails here even when every mathematical check still passes.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import tatevec
from tatevec.cli import main

# (field, seed) -> subcommand -> sha256 of stdout
GOLDEN = {
    (2, 1): {
        "gen": "ff5e72e52a4d8948a12fc3a3097fba5daf152d0cffea9a65fad584985b7b42bf",
        "decompose": "08f468fd656db4638e8edc4bfece86038236cc1a79fc198f160250cfee242f82",
        "dual": "b4c02b6c3f8417a94b3e29b4822d08d019de4b1d3a8f26216116639eca431f94",
        "tensor_star": "73b35022a0a1a15557281a07128f2c26dbd15da1dba60e3d5769e8652e519ffa",
        "tensor_bang": "59c0e6ea54dd1a6bd02f00f6240ac81f9cee150e6fcbb095eb17905636c46e09",
        "dual_tate": "a7b7a742033a6e6fd694520ab7254ff62c5a2e1a28a5a0feb6e0a31873aa7a22",
        "gen_tower": "ffa9d9b89ba4d6ec68c94cf5e51cb103d0d717ddd092303941df34e9f0435b78",
        "gen_indtower": "1e42014d17d9938903bf773b0c3283083e89680090ea90f3654c9bda41d673fc",
        "star_of_towers": "24a08eaf95f88ce64b589435beebf176ef74805adc96c4dfbc8b61b212b34e07",
        "bang_of_indtowers": "659770fccb19aa57f7d53efb0135c2938b9ee4f5264a3261f8850a8197f9c56c",
        "dual_star": "6dc228b8de619ca1981266536adf451aafe999d5964e157a103f0cdf7dc00713",
        "dual_bang": "f6d1f5f1dc45d8f1d7efa2a870286fb42092d816ff249d28963285bdf33cc462",
    },
    (2, 4): {
        "gen": "7c9fd1f2c2d78bce089aa9de3248ab39507cbbd7e8e36ea08cf993b6a5e73870",
        "decompose": "b3a0557a5cd2592c3538c4344bb1b927f9cab7b4cacde74ff0cca3d620419fb8",
        "dual": "dc24e4aaef0c581a102c3e6eb3380147435fac36d8279c0083d366cad131ebd9",
        "tensor_star": "4f5309e30f001076b1a3d9737261a8cdb3845bfd2c6ec492eb78e6cc4d3e4daf",
        "tensor_bang": "433d785cf8a9f462e15c917e7339a4afd1a325ee43f76a610dec74c3f228f32f",
        "dual_tate": "97a132730409b0c08da409debae4d73aee0a5ad6498d69d0a63ee29d2443f1f7",
        "gen_tower": "daa2e6ffa3739fbb8755acc85aa70ae9f7b2190e5397bea0f05907babf006e03",
        "gen_indtower": "3b5dc5c2ab3a3104619ad759105443ab4bfaf01ff3cb3213aba256bbf54448d9",
        "star_of_towers": "d3745a30bb4b832c00bf558811f38543e40eaa314e19613762430824a8a2a73a",
        "bang_of_indtowers": "dc5cc5f6c6faadddb42f39e918472370abb76fe1e8bd47f145cea40125151d2b",
        "dual_star": "4282f331552023ab895eec64f4f5a44a2214747512060a9945c3e29fbafa16ae",
        "dual_bang": "b9f10a4bb729035a8cac9528403675d0b41fa1a9a34e8ad889e53f6c6106057e",
    },
    (65521, 1): {
        "gen": "694f5d29c9fb891fb82cfad264c423ad8ee43a846bc07a9676b03942785dc5f3",
        "decompose": "c14af67792dec061ac93a21536d9e41ed940c109bac1c224fccfb190a6b9f8be",
        "dual": "23c0cabe179d8588d7ee8fe7b953f7baa3dcd00faa0e0a606332a84efe00a10e",
        "tensor_star": "693dd4b6ef71687a3187ac1839b1e0214eb354d194a124707d701beb2f261443",
        "tensor_bang": "be70bb88ed9fe43297937431324d6a50dee9b4c9407dd31b5353fdad6717aa2c",
        "dual_tate": "ac78a1fd1a25835f175a7227ff8cbf0c27bb9e83b7d44a1eacfecacf54854875",
        "gen_tower": "b951f1213c99bca483e223b2cfa299bcc04ed9290705361b10ad1b7394e09230",
        "gen_indtower": "84ad7fc0164a42547f61b24e19edba8d582abb3e2e2e7df6e3cb6c90b8bb23ca",
        "star_of_towers": "a6ecb376e8638e5860e076a67370cd32e85ed7be4123c1902b76bcf12ecdfbb0",
        "bang_of_indtowers": "5455b9657548990be97979ae9b1dab180b1b0c251b527a5aa61b52b59e329387",
        "dual_star": "5cb04e5f2ace197f1701e70b9efc9358f28a3c0817252cee28877968c385d8ea",
        "dual_bang": "6701d636760dbe7013b486cf0c418ab9303300d987e0268a5feee0493db3fae2",
    },
    (65521, 4): {
        "gen": "d5ea7fd51473c9f020547adbc7c189023d658ad60b24e1ffcb02b0cecdc3b899",
        "decompose": "d6bfbda88eb6acff0242627e4fb47eac07edb81e810078254785bfdb3d0c51b1",
        "dual": "90f1e47082448fd3e459b1b8f75c7b043da67717e8731a9947a8fd9b93ec8539",
        "tensor_star": "663b8dae3fd233672d5793a3f0ed6f0b885b600ad1a27ffdbf65e33d59505777",
        "tensor_bang": "f127c8c812202e0df26247b1ed4a7e91b503108d22b87e5c572c13ceaf72e59a",
        "dual_tate": "a9866c1b769d1fa9c8c8a5652f5b16d1a11df240144f0bf44f3d21fbc0dff264",
        "gen_tower": "18d81d7b55dfca9146eb651c98b40d82e13bda186bc43bd026570c67a9ae83d0",
        "gen_indtower": "b09839974a0decddc5671a58363e023b0ef246c771c90841fad44ddde8f25ef2",
        "star_of_towers": "d543340b0f3d55f1c954d08edbbdc059e5ae668c25775c42a2b89d6be93fee54",
        "bang_of_indtowers": "335cfde35b252b46fb6b9c1afa849897d0f38d1e2601e7a1af1de0f74cd815fc",
        "dual_star": "adc6e9409214250d17903e196ad945591e0347664c56d15f9d637206514a57be",
        "dual_bang": "f94ee617029e743fb286c556977e3c3de3510fec0daa394d62650ff440592bd1",
    },
}


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _outputs(tmp_path, stdout, p: int, seed: int) -> dict[str, str]:
    field = ["--field", str(p)]
    grid = stdout("gen", "--kind", "grid", "--seed", str(seed), *field, "--m", "4", "--n", "4")
    a = stdout("gen", "--kind", "tate", "--seed", str(seed), *field)
    b = stdout("gen", "--kind", "tate", "--seed", str(seed + 1), *field)
    paths = {}
    for name, text in (("grid", grid), ("a", a), ("b", b)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    out = {
        "gen": grid,
        "decompose": stdout("decompose", str(paths["grid"])),
        "dual": stdout("dual", str(paths["grid"])),
        "tensor_star": stdout("tensor", "--op", "star", str(paths["a"]), str(paths["b"])),
        "tensor_bang": stdout("tensor", "--op", "bang", str(paths["a"]), str(paths["b"])),
        "dual_tate": stdout("dual", str(paths["a"])),
    }
    # single systems, their tensors, and the duals of the sum/product outputs
    for kind in ("tower", "indtower"):
        for name, s in ((kind, seed), (f"{kind}2", seed + 1)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(stdout("gen", "--kind", kind, "--seed", str(s), *field))
        out[f"gen_{kind}"] = paths[kind].read_text()
    out["star_of_towers"] = stdout("tensor", "--op", "star", str(paths["tower"]), str(paths["tower2"]))
    out["bang_of_indtowers"] = stdout(
        "tensor", "--op", "bang", str(paths["indtower"]), str(paths["indtower2"])
    )
    for op in ("star", "bang"):
        path = tmp_path / f"{op}.json"
        path.write_text(out[f"tensor_{op}"])
        out[f"dual_{op}"] = stdout("dual", str(path))
    return out


def _digests(outputs: dict[str, str]) -> dict[str, str]:
    return {cmd: hashlib.sha256(text.encode()).hexdigest() for cmd, text in outputs.items()}


@pytest.mark.parametrize("p,seed", sorted(GOLDEN))
def test_cli_stdout_matches_golden(tmp_path, capsys, p, seed):
    got = _digests(_outputs(tmp_path, lambda *argv: _stdout(capsys, *argv), p, seed))
    assert got == GOLDEN[(p, seed)]


def test_optimized_interpreter_matches_golden(tmp_path):
    # python -O strips assert statements; the outputs, and every internal
    # check that raises instead, must be the same without them.  One -O
    # interpreter runs the same cases in-process and reports its digests.
    src = str(pathlib.Path(tatevec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = textwrap.dedent(
        """
        import contextlib, io, json, pathlib, sys
        sys.path.insert(0, sys.argv[1])
        from test_golden import _digests, _outputs
        from tatevec.cli import main

        def stdout(*argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(list(argv))
            if code != 0:
                raise SystemExit(f"{argv} exited {code}")
            return buf.getvalue()

        digests = _digests(_outputs(pathlib.Path(sys.argv[2]), stdout, 2, 1))
        print(json.dumps({"optimize": sys.flags.optimize, "digests": digests}))
        """
    )
    here = str(pathlib.Path(__file__).resolve().parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, here, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["optimize"] == 1
    assert report["digests"] == GOLDEN[(2, 1)]
