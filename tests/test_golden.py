"""Golden digests of CLI stdout.

Each digest pins the exact bytes that a subcommand writes for a fixed seed
and field.  Pivot choices, complement completions and free-variable
conventions all show in the output, so a kernel change that alters any of
them fails here even when every mathematical check still passes.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

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
    },
    (2, 4): {
        "gen": "7c9fd1f2c2d78bce089aa9de3248ab39507cbbd7e8e36ea08cf993b6a5e73870",
        "decompose": "b3a0557a5cd2592c3538c4344bb1b927f9cab7b4cacde74ff0cca3d620419fb8",
        "dual": "dc24e4aaef0c581a102c3e6eb3380147435fac36d8279c0083d366cad131ebd9",
        "tensor_star": "4f5309e30f001076b1a3d9737261a8cdb3845bfd2c6ec492eb78e6cc4d3e4daf",
        "tensor_bang": "433d785cf8a9f462e15c917e7339a4afd1a325ee43f76a610dec74c3f228f32f",
    },
    (65521, 1): {
        "gen": "694f5d29c9fb891fb82cfad264c423ad8ee43a846bc07a9676b03942785dc5f3",
        "decompose": "c14af67792dec061ac93a21536d9e41ed940c109bac1c224fccfb190a6b9f8be",
        "dual": "23c0cabe179d8588d7ee8fe7b953f7baa3dcd00faa0e0a606332a84efe00a10e",
        "tensor_star": "693dd4b6ef71687a3187ac1839b1e0214eb354d194a124707d701beb2f261443",
        "tensor_bang": "be70bb88ed9fe43297937431324d6a50dee9b4c9407dd31b5353fdad6717aa2c",
    },
    (65521, 4): {
        "gen": "d5ea7fd51473c9f020547adbc7c189023d658ad60b24e1ffcb02b0cecdc3b899",
        "decompose": "d6bfbda88eb6acff0242627e4fb47eac07edb81e810078254785bfdb3d0c51b1",
        "dual": "90f1e47082448fd3e459b1b8f75c7b043da67717e8731a9947a8fd9b93ec8539",
        "tensor_star": "663b8dae3fd233672d5793a3f0ed6f0b885b600ad1a27ffdbf65e33d59505777",
        "tensor_bang": "f127c8c812202e0df26247b1ed4a7e91b503108d22b87e5c572c13ceaf72e59a",
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
    return {
        "gen": grid,
        "decompose": stdout("decompose", str(paths["grid"])),
        "dual": stdout("dual", str(paths["grid"])),
        "tensor_star": stdout("tensor", "--op", "star", str(paths["a"]), str(paths["b"])),
        "tensor_bang": stdout("tensor", "--op", "bang", str(paths["a"]), str(paths["b"])),
    }


def _digests(outputs: dict[str, str]) -> dict[str, str]:
    return {cmd: hashlib.sha256(text.encode()).hexdigest() for cmd, text in outputs.items()}


@pytest.mark.parametrize("p,seed", sorted(GOLDEN))
def test_cli_stdout_matches_golden(tmp_path, capsys, p, seed):
    got = _digests(_outputs(tmp_path, lambda *argv: _stdout(capsys, *argv), p, seed))
    assert got == GOLDEN[(p, seed)]


def test_optimized_interpreter_matches_golden(tmp_path):
    # python -O strips assert statements; the outputs, and every internal
    # check that raises instead, must be the same without them
    src = str(pathlib.Path(tatevec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def stdout(*argv):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "tatevec", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert _digests(_outputs(tmp_path, stdout, 2, 1)) == GOLDEN[(2, 1)]
