"""One pinned sweep of the command line, run in process.

A fixed set of calls, grouped by command, each hashed as its exit code and
its stdout; each group pins one sha256, so a change that moves any byte
names the group it moved.  The set, over GF(2), GF(3), GF(5) and
GF(65521):
- `gen` of towers, ind-towers and Tate objects at depths 1, 3 and 4,
  seeds 0-2;
- `report` and `dual --depth 2|5` of each of those, and of the three
  builtins (their own group);
- `tensor --op star|bang` of Tate pairs, the builtin `laurent` among them;
- grid `gen` (the `--out` file and its `.truth.json` sidecar included),
  `decompose`, `dual` and `report`, the last also of the decomposition and
  the dual grid, over four shapes and seeds 0-2, and a grid with one
  corrupted entry, which exits 1;
- the exit-2 cases: the sidecars, mixed fields, wrong kinds, bad flags and
  every document of `test_cli.SPACE_DEFECTS`.
"""

import contextlib
import hashlib
import io
import json
import pathlib

from test_cli import SPACE_DEFECTS

from tatevec.cli import main

FIELDS = (2, 3, 5, 65521)
KINDS = ("tower", "indtower", "tate")
BUILTINS = ("laurent", "power_series", "polynomial")
DEPTHS = (1, 3, 4)
SEEDS = (0, 1, 2)
# None: `gen`'s default shape
GRID_SHAPES = (None, (1, 3), (3, 2), (4, 4))

# command group -> sha256 of its calls' exit codes and stdout
DIGESTS = {
    "gen": "d3fbe6ae67a41c838b3bfe1a3c5ab74b597138ee25835c63fa082c7ca36da70a",
    "space_report": "a1977fb6be260607f3605b7e4c84a1173ea3c48f20fcc25f50efece2d73fb894",
    "space_dual": "f75c197a8e81d051beec475534233fabf8f0a7aa7291d88b8f129465e93c1f18",
    "builtin_report": "6e5f9f493c2447d49ca823536d34975385f3d8f81e19262c0310e26058a6954e",
    "builtin_dual": "44c018f69adbf7b8e2bca4d283afdb2d4710b09b183999f77f96d60d8285f733",
    "tensor_star": "5dce257d9bf7f5ca643be70f803c0597a22ab95eac696da10b48e473649b8c0e",
    "tensor_bang": "c7f812f3b2b4733b6700bd48e6f7f5adb52b62c4b1709781873c68c962d6408a",
    "grid_gen": "2bb8e7587d00e723aae94482a43311337eb62199d39626b1b0edc0339ca32b17",
    "grid_decompose": "bb4089e89968c3e5c69efc885b24e28c687cd04c96625f82c9b258edc00c80ba",
    "grid_dual": "302395caf430fbcb451f6ee22b413b138a5cde37b9052ec28d0212825a80a605",
    "grid_report": "eb4f8fa15ce702e55b2b4927f5a34ef3a9f26faab681d6d21ae0d7a231aad8c0",
    "grid_broken": "b7278141e9202011aabb2de771a4511c050a2c50c263b3c0cb4931789eaf5d67",
    "exit2": "d0a69404f765eaec5678b0d6934920e35c302f3b819cf04c90143a7c105ea822",
    "space_defects": "257cbb436e8a7862bc6a0785d65c9c41eee7c444503df336d3f548f09a2ce8b4",
}


class _Sweep:
    """Runs calls in process and hashes each into its group."""

    def __init__(self, tmp_path):
        self.dir = tmp_path
        self.hashes = {}

    def record(self, group: str, code: int, text: str):
        h = self.hashes.setdefault(group, hashlib.sha256())
        h.update(f"{code} {len(text)}\n{text}".encode())

    def run(self, group: str, *argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([str(a) for a in argv])
        self.record(group, code, buf.getvalue())
        return buf.getvalue()

    def file(self, name: str, text: str) -> pathlib.Path:
        path = self.dir / name
        path.write_text(text)
        return path

    def digests(self) -> dict[str, str]:
        return {group: h.hexdigest() for group, h in self.hashes.items()}


def _spaces(s: _Sweep, p: int) -> tuple[dict, dict]:
    """gen, report and dual of every generated space and builtin over GF(p);
    the generated documents by (kind, depth, seed) and the builtins by name."""
    made = {}
    for kind in KINDS:
        for depth in DEPTHS:
            for seed in SEEDS:
                text = s.run("gen", "gen", "--kind", kind, "--depth", depth, "--seed", seed, "--field", p)
                made[kind, depth, seed] = s.file(f"{kind}-{p}-{depth}-{seed}.json", text)
    builtins = {name: s.file(f"{name}-{p}.json", json.dumps({"kind": "builtin", "name": name, "field": p})) for name in BUILTINS}
    for group, paths in (("space", made.values()), ("builtin", builtins.values())):
        for path in paths:
            s.run(f"{group}_report", "report", path)
            for depth in (2, 5):
                s.run(f"{group}_dual", "dual", "--depth", depth, path)
    return made, builtins


def _tensors(s: _Sweep, made: dict, builtins: dict):
    """star and bang of each Tate document of seed 0 or `laurent` with every
    Tate document or `laurent`."""
    tates = [made["tate", depth, seed] for depth in DEPTHS for seed in SEEDS] + [builtins["laurent"]]
    firsts = [made["tate", depth, 0] for depth in DEPTHS] + [builtins["laurent"]]
    for a in firsts:
        for b in tates:
            for op in ("star", "bang"):
                s.run(f"tensor_{op}", "tensor", "--op", op, "--depth", 3, a, b)


def _grids(s: _Sweep, p: int) -> pathlib.Path:
    """gen, decompose, dual and report of grids over GF(p); the path of the
    last sidecar."""
    for shape in GRID_SHAPES:
        size = [] if shape is None else ["--m", shape[0], "--n", shape[1]]
        for seed in SEEDS:
            name = f"grid-{p}-{shape and 'x'.join(map(str, shape))}-{seed}.json"
            path, sidecar = s.dir / name, s.dir / (name + ".truth.json")
            s.run("grid_gen", "gen", "--kind", "grid", "--seed", seed, "--field", p, *size, "--out", path)
            for at in (path, sidecar):
                s.record("grid_gen", 0, at.read_text())
            dec = s.file("dec-" + name, s.run("grid_decompose", "decompose", path))
            dual = s.file("dual-" + name, s.run("grid_dual", "dual", path))
            for at in (path, dec, dual):
                s.run("grid_report", "report", at)
    # one entry of the first right map changed: every grid command but
    # report exits 1 with the validation report
    doc = json.loads(path.read_text())
    entries = doc["right"][0][0]["entries"]
    entries[0] = (entries[0] + 1) % p
    bad = s.file(f"broken-{p}.json", json.dumps(doc))
    report = s.file(f"report-{p}.json", s.run("grid_broken", "decompose", bad))
    s.run("grid_broken", "dual", bad)
    s.run("grid_broken", "report", bad)
    s.run("grid_broken", "report", report)
    return sidecar


def _malformed(s: _Sweep, p: int, made: dict, sidecar: pathlib.Path):
    """Calls that exit 2 over GF(p): sidecars, wrong kinds and bad flags."""
    tate, tower, indtower = (made[kind, 3, 0] for kind in ("tate", "tower", "indtower"))
    for argv in (("report",), ("decompose",), ("dual",), ("tensor", "--op", "star", tate)):
        s.run("exit2", *argv, sidecar)
    for op, a, b in (("star", indtower, indtower), ("bang", tower, tower), ("star", tower, tate), ("bang", tate, indtower)):
        s.run("exit2", "tensor", "--op", op, a, b)
    grid = json.loads(sidecar.with_name(sidecar.name[: -len(".truth.json")]).read_text())
    del grid["ses"]
    bare = s.file(f"bare-{p}.json", json.dumps(grid))
    for argv in (("decompose", tate), ("decompose", bare), ("dual", bare)):
        s.run("exit2", *argv)
    for doc in ({"kind": "nope"}, [], {"kind": "validation", "violations": [1]}):
        s.run("exit2", "report", s.file("odd.json", json.dumps(doc)))
    for flags in (("--depth", 0), ("--seed", -1), ("--field", p + 1 if p > 2 else 4)):
        s.run("exit2", "gen", "--kind", "tate", "--field", p, *flags)
    s.run("exit2", "dual", "--depth", 0, tate)


def _sweep(tmp_path) -> dict[str, str]:
    s = _Sweep(tmp_path)
    tates = []
    for p in FIELDS:
        made, builtins = _spaces(s, p)
        _tensors(s, made, builtins)
        _malformed(s, p, made, _grids(s, p))
        tates.append(made["tate", 3, 0])
    # mixed fields: each field's Tate document with the next field's
    for a, b in zip(tates, tates[1:] + tates[:1]):
        for op in ("star", "bang"):
            s.run("exit2", "tensor", "--op", op, a, b)
    for _, doc in SPACE_DEFECTS:
        path = s.file("defect.json", json.dumps(doc))
        for argv in (("dual",), ("report",), ("tensor", "--op", "star", path)):
            s.run("space_defects", *argv, path)
    return s.digests()


def test_cli_sweep_matches_digests(tmp_path):
    assert _sweep(tmp_path) == DIGESTS
