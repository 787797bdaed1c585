import json
import subprocess
import sys

import pytest

from tatevec import bidirected as bd
from tatevec import duality, exactla, spaces, tensor
from tatevec.cli import build_parser, main
from tatevec.exactla import FieldSpec
from tatevec.generators import rand_grid, rand_indtower, rand_pairings, rand_tate, rand_tower
from tatevec.serialize import grid_doc, parse_grid, parse_space, space_doc

GF2 = FieldSpec(2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGenDecompose:
    def test_pipeline_matches_sidecar(self, tmp_path, capsys):
        grid_path = tmp_path / "g.json"
        code, _ = run_cli(capsys, "gen", "--kind", "grid", "--seed", "7", "--out", str(grid_path))
        assert code == 0
        truth = json.loads((tmp_path / "g.json.truth.json").read_text())
        code, out = run_cli(capsys, "decompose", str(grid_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["exchange"]["ok"] is True
        assert doc["tate"]["c"]["dims"] == truth["Wdims"]
        assert doc["tate"]["d"]["dims"] == truth["Vdims"]

    def test_pipe_via_stdin(self, tmp_path):
        cmd = (
            f"{sys.executable} -m tatevec gen --kind grid --seed 7 | "
            f"{sys.executable} -m tatevec decompose -"
        )
        proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["exchange"]["ok"] is True

    def test_broken_square_exits_1_with_indices(self, tmp_path, capsys):
        path = _broken_square(tmp_path)
        code, out = run_cli(capsys, "decompose", str(path))
        assert code == 1
        rep = json.loads(out)
        assert rep["ok"] is False
        assert any("(1,1)" in v for v in rep["violations"])

    def test_dual_broken_square_prints_the_same_report(self, tmp_path, capsys):
        path = _broken_square(tmp_path)
        code, out = run_cli(capsys, "decompose", str(path))
        code_dual, out_dual = run_cli(capsys, "dual", str(path))
        assert code == code_dual == 1
        assert out_dual == out
        assert json.loads(out_dual)["kind"] == "validation"

    def test_misshapen_witness_is_reported(self, tmp_path, capsys):
        import numpy as np

        planted = rand_grid(np.random.default_rng(3), GF2, m=2, n=2)
        doc = grid_doc(planted.grid, planted.witness)
        doc["ses"]["inj"][0][0] = _widen(doc["ses"]["inj"][0][0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for cmd in ("decompose", "dual"):
            code, out = run_cli(capsys, cmd, str(path))
            assert code == 1
            assert json.loads(out)["violations"] == ["witness shapes wrong at (1,1)"]

    def test_mis_sized_witness_maps_take_no_padding(self, tmp_path, capsys):
        # a 1 x N and an N x 1 inclusion in one table are padded apart, by
        # their sizes, not to N x N each; they read back as given
        N = 300
        one = {"rows": 1, "cols": 1, "entries": [1]}
        wide, tall = {"rows": 1, "cols": N, "entries": [1] * N}, {"rows": N, "cols": 1, "entries": [2] * N}
        witness = {"Vdims": [1, 1], "Vmaps": [one], "Wdims": [0], "Wmaps": [],
                   "inj": [[wide, tall]], "surj": [[_zeros(0, 1), _zeros(0, 1)]]}
        doc = {"kind": "grid", "field": 5, "m": 1, "n": 2, "dims": [[1, 1]], "right": [[one]], "up": [], "ses": witness}
        _, W, _, _, _ = parse_grid(doc)
        assert sum(part.size for part in W.inj_stack.parts) == 2 * N
        assert [M.to_json() for M in W.inj[0]] == [wide, tall]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert json.loads(out)["violations"] == ["witness shapes wrong at (1,1)", "witness shapes wrong at (1,2)"]

    @pytest.mark.parametrize("case", ["grid", "witness"])
    def test_maps_of_mixed_sizes_take_memory_linear_in_the_document(self, tmp_path, capsys, case):
        # maps of very different sizes in one table are not padded to the
        # largest: right maps 1 x N and N x 1, or inclusions M x 0 and 1 x N,
        # would take 2 N^2, or 2 M (M + N) entries in the completions
        import tracemalloc

        if case == "grid":
            N = 2000
            doc = {"kind": "grid", "field": 5, "m": 1, "n": 3, "dims": [[N, 1, N]], "up": [],
                   "right": [[{"rows": 1, "cols": N, "entries": [1] * N}, {"rows": N, "cols": 1, "entries": [3] * N}]]}
            lines = []
        else:
            N, M = 20000, 30
            witness = {"Vdims": [0, N], "Vmaps": [_zeros(N, 0)], "Wdims": [0], "Wmaps": [],
                       "inj": [[_zeros(M, 0), {"rows": 1, "cols": N, "entries": [1] * N}]],
                       "surj": [[_zeros(0, M), _zeros(0, 1)]]}
            doc = {"kind": "grid", "field": 65521, "m": 1, "n": 2, "dims": [[M, 1]], "up": [],
                   "right": [[{"rows": 1, "cols": M, "entries": [1] * M}]], "ses": witness}
            lines = ["  - cell dimension is not |V|+|W| at (1,1)", "  - inclusion not injective at (1,2)",
                     "  - cell dimension is not |V|+|W| at (1,2)"]
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, "report", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("  - ")] == lines
        assert peak < 4 * 2**20

    def test_split_of_mixed_sizes_takes_memory_linear_in_the_bases(self, tmp_path, capsys):
        # a valid grid of 2 x 30 cells of dimension 1 and two of dimension N:
        # the changes of basis stay padded by size from the validation
        # through the corrections and the check, and so do the identities
        # the check compares with, not to N x N per cell
        import tracemalloc

        import numpy as np

        N, k = 200, 30
        rng, sizes = np.random.default_rng(5), [np.array([0] * k + [N - 1]), np.array([1, 1])]

        class Sized:  # gives rand_grid's Vdims and Wdims draws, then draws from rng
            def integers(self, *args, **kwargs):
                return sizes.pop(0) if sizes else rng.integers(*args, **kwargs)

        planted = rand_grid(Sized(), FieldSpec(5), m=2, n=k + 1, max_part=N)
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(grid_doc(planted.grid, planted.witness)))
        bases = 8 * sum(d * d for row in planted.grid.dims for d in row)  # bytes of one table
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, "decompose", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["exchange"]["ok"] is True
        # about 14x here (the document, its parse and the output included);
        # padding the two tables of bases to N x N per cell takes over 200x
        assert peak < 24 * bases

    def test_stacks_split_by_size_give_the_same_output(self, tmp_path, capsys, monkeypatch):
        # with no room to pad regardless of need, tables of mixed sizes are
        # split into buckets, and every product, comparison and elimination
        # runs bucket by bucket
        path = tmp_path / "g.json"
        gen = ["gen", "--kind", "grid", "--m", "4", "--n", "4", "--field", "65521", "--seed", "34"]
        run_cli(capsys, *gen, "--out", str(path))
        want = [run_cli(capsys, cmd, str(path)) for cmd in ("decompose", "dual")]
        monkeypatch.setattr(exactla, "_ROOM", 0)
        G, W, _, _, _ = parse_grid(json.loads(path.read_text()))
        assert len(W.inj_stack.parts) > 1 and len(G.right_stack.parts) > 1
        assert [run_cli(capsys, cmd, str(path)) for cmd in ("decompose", "dual")] == want
        assert want[0][0] == want[1][0] == 0

    # decompose splits and checks the grid once; dual validates it and
    # transposes it, splitting and checking nothing
    @pytest.mark.parametrize("cmd,splits", [("decompose", 1), ("dual", 0)])
    def test_each_grid_validated_and_checked_once(self, tmp_path, capsys, monkeypatch, cmd, splits):
        path = tmp_path / "g.json"
        run_cli(capsys, "gen", "--kind", "grid", "--seed", "7", "--m", "3", "--n", "3", "--out", str(path))
        calls = {"validate_grid": 0, "split_grid": 0, "check_split": 0}
        for name in calls:

            def counted(*args, _real=getattr(bd, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(bd, name, counted)
        code, _ = run_cli(capsys, cmd, str(path))
        assert code == 0
        assert calls == {"validate_grid": 1, "split_grid": splits, "check_split": splits}

    @pytest.mark.parametrize("cmd,calls", [("decompose", 7), ("dual", 2)])
    def test_rref_calls_per_grid(self, tmp_path, capsys, monkeypatch, cmd, calls):
        # validation completes inj in every cell with one elimination of the
        # stack of all cells and inverts every surj E with one more, and the
        # split reuses both (2 calls on this 6 x 6 grid); the decomposition
        # takes one kernel basis per row cutoff after the first, whose open
        # subspace is all of W_m (5 calls), and the exchange certificate
        # none; dual only validates
        path = tmp_path / "g.json"
        gen = ["gen", "--kind", "grid", "--m", "6", "--n", "6", "--field", "65521", "--seed", "1"]
        run_cli(capsys, *gen, "--out", str(path))
        count = 0

        def counted(real):
            def call(*args):
                nonlocal count
                count += 1
                return real(*args)

            return call

        reals = {name: getattr(exactla, name) for name in ("rref", "rref_stack")}
        for module in (exactla, duality, bd):
            for name, real in reals.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(real))
        code, _ = run_cli(capsys, cmd, str(path))
        assert (code, count) == (0, calls)

    def test_first_witness_elimination_has_V_rows(self, tmp_path, capsys, monkeypatch):
        # validation completes inj by eliminating every [inj^T reversed | I],
        # max |V| rows, not every [inj | I], max |cell| rows
        path = tmp_path / "g.json"
        gen = ["gen", "--kind", "grid", "--m", "6", "--n", "6", "--field", "65521", "--seed", "1"]
        run_cli(capsys, *gen, "--out", str(path))
        doc = json.loads(path.read_text())
        shapes, real = [], bd.rref_stack
        monkeypatch.setattr(bd, "rref_stack", lambda field, data: shapes.append(data.shape) or real(field, data))
        assert run_cli(capsys, "decompose", str(path))[0] == 0
        assert max(doc["ses"]["Vdims"]) < max(max(row) for row in doc["dims"])
        assert shapes[0][1] == max(doc["ses"]["Vdims"])

    def test_correct_calls_per_grid(self, tmp_path, capsys, monkeypatch):
        # row 1's chain corrects one cell per column step (n - 1 calls) and
        # every later row is one stacked correction of its cells, here all
        # in one padded array: 5 + 5 calls on this 6 x 6 grid
        path = tmp_path / "g.json"
        gen = ["gen", "--kind", "grid", "--m", "6", "--n", "6", "--field", "65521", "--seed", "1"]
        run_cli(capsys, *gen, "--out", str(path))
        calls = []
        monkeypatch.setattr(bd, "_correct", lambda *args, _real=bd._correct: calls.append(args) or _real(*args))
        assert run_cli(capsys, "decompose", str(path))[0] == 0
        assert len(calls) == 10

    def test_kappa_check_runs_in_the_grid_suite_only(self, tmp_path, capsys, monkeypatch):
        # decompose prints the exchange certificate in closed form; the grid
        # suite still runs the oracle that computes it
        path = tmp_path / "g.json"
        run_cli(capsys, "gen", "--kind", "grid", "--seed", "7", "--m", "3", "--n", "3", "--out", str(path))
        calls = []
        monkeypatch.setattr(bd, "kappa_check", lambda S, _real=bd.kappa_check: calls.append(S) or _real(S))
        assert run_cli(capsys, "decompose", str(path))[0] == 0
        assert calls == []
        assert run_cli(capsys, "check", "--suite", "grid")[0] == 0
        assert calls

    @pytest.mark.parametrize("field", ["4", "1", str(10**18 + 3)])
    def test_gen_bad_field_is_malformed(self, capsys, field):
        code, out = run_cli(capsys, "gen", "--kind", "tower", "--field", field)
        assert code == 2
        assert json.loads(out)["path"] == "$.field"

    @pytest.mark.parametrize(
        "argv,path",
        [
            ("gen --kind grid --m 0", "$.m"),
            ("gen --kind grid --m -1", "$.m"),
            ("gen --kind grid --n 0", "$.n"),
            ("gen --kind tate --depth 0", "$.depth"),
            ("dual --depth 0 DOC", "$.depth"),
            ("tensor --op star --depth 0 DOC DOC", "$.depth"),
            ("tensor --op bang --depth -2 DOC DOC", "$.depth"),
        ],
    )
    def test_size_flag_below_one_is_malformed(self, tmp_path, capsys, argv, path):
        # a builtin has no depth of its own, so --depth 0 would reach the library
        doc = tmp_path / "laurent.json"
        doc.write_text(json.dumps({"kind": "builtin", "name": "laurent", "field": 2}))
        code, out = run_cli(capsys, *(str(doc) if a == "DOC" else a for a in argv.split()))
        assert code == 2
        assert json.loads(out)["path"] == path

    @pytest.mark.parametrize("kind", ["tower", "grid"])
    def test_negative_seed_is_malformed(self, capsys, kind):
        code, out = run_cli(capsys, "gen", "--kind", kind, "--seed", "-1")
        assert code == 2
        assert json.loads(out) == {"error": "--seed must be at least 0, got -1", "path": "$.seed"}

    @pytest.mark.parametrize("argv", ["gen --kind tower", "gen --kind grid", "dual DOC", "tensor --op star DOC DOC"])
    @pytest.mark.parametrize("where", ["no/such/dir/x.json", "."])
    def test_unwritable_out_is_malformed(self, tmp_path, capsys, argv, where):
        doc = tmp_path / "laurent.json"
        doc.write_text(json.dumps({"kind": "builtin", "name": "laurent", "field": 2}))
        out_path = str(tmp_path / where)
        argv = [str(doc) if a == "DOC" else a for a in argv.split()]
        code, out = run_cli(capsys, *argv, "--out", out_path)
        assert code == 2
        err = json.loads(out)
        assert err["path"] == "$.out"
        assert err["error"].startswith(f"cannot write {out_path}: ")

    def test_missing_witness_is_malformed(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(5)
        planted = rand_grid(rng, GF2, m=1, n=1)
        path = tmp_path / "nowit.json"
        path.write_text(json.dumps(grid_doc(planted.grid)))
        code, out = run_cli(capsys, "decompose", str(path))
        assert code == 2
        err = json.loads(out)
        assert err["path"] == "$.ses"


def _broken_square(tmp_path):
    import numpy as np

    rng = np.random.default_rng(3)
    planted = rand_grid(rng, GF2, m=2, n=2, constant_systems=True)
    doc = grid_doc(planted.grid, planted.witness)
    # flip one entry of one up map
    doc["up"][0][0]["entries"][0] = (doc["up"][0][0]["entries"][0] + 1) % 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def _zeros(rows, cols):
    return {"rows": rows, "cols": cols, "entries": [0] * (rows * cols)}


def _widen(mat):
    return _zeros(mat["rows"] + 1, mat["cols"])


def _overflow(mat):
    return {**mat, "entries": [2**63] + mat["entries"][1:]}


def _two_defects(row, first):
    """row[0] given the defect `first`, and row[1] a float for its rows."""
    row[0], row[1] = first(row[0]), {**row[1], "rows": float(row[1]["rows"])}


def _pd_of_inj(d):
    """A duality witness whose f and g are copies of the inj table."""
    d["pd"] = {"f": [row[:] for row in d["ses"]["inj"]], "g": d["ses"]["inj"]}
    return d["pd"]


# (JSON path of the error, mutation of a 3 x 3 grid document with pairings)
SHAPE_DEFECTS = [
    ("$.dims", lambda d: d["dims"].append(d["dims"][0])),
    ("$.ses.Vdims", lambda d: d["ses"].update(Vdims=d["ses"]["Vdims"][:1])),
    ("$.ses.Wdims", lambda d: d["ses"]["Wdims"].append(1)),
    ("$.ses.Vmaps", lambda d: d["ses"]["Vmaps"].pop()),
    ("$.ses.Wmaps", lambda d: d["ses"]["Wmaps"].append(d["ses"]["Wmaps"][0])),
    ("$.ses.Vmaps[1]", lambda d: d["ses"]["Vmaps"].__setitem__(1, _widen(d["ses"]["Vmaps"][1]))),
    ("$.ses.Wmaps[0]", lambda d: d["ses"]["Wmaps"].__setitem__(0, _widen(d["ses"]["Wmaps"][0]))),
    ("$.pairings.mu", lambda d: d["pairings"]["mu"].pop()),
    ("$.pairings.lambda[2]", lambda d: d["pairings"]["lambda"][2].pop()),
    ("$.pairings.mu[0][0].target", lambda d: d["pairings"]["mu"][0][0]["target"].append(1)),
    # integers given as floats or booleans
    ("$.field", lambda d: d.update(field=2.9)),
    ("$.m", lambda d: d.update(m=3.0)),
    ("$.dims[0][0]", lambda d: d["dims"][0].__setitem__(0, True)),
    ("$.ses.Vdims[0]", lambda d: d["ses"]["Vdims"].__setitem__(0, 1.5)),
    ("$.right[0][0].rows", lambda d: d["right"][0][0].update(rows=3.0)),
    ("$.up[1][2].cols", lambda d: d["up"][1][2].update(cols=True)),
    ("$.ses.inj[2][1].entries[0]", lambda d: d["ses"]["inj"][2][1]["entries"].__setitem__(0, 1.7)),
    ("$.pairings.lambda[0][0].target", lambda d: d["pairings"]["lambda"][0][0]["target"].__setitem__(0, 1.0)),
    # empty grids and pairings that are not an object
    ("$.m", lambda d: d.update(m=0)),
    ("$.n", lambda d: d.update(n=0)),
    ("$.m", lambda d: d.update(m=-1)),
    # negative dimensions
    ("$.dims[0][0]", lambda d: d["dims"][0].__setitem__(0, -2)),
    ("$.dims[2][1]", lambda d: d["dims"][2].__setitem__(1, -1)),
    ("$.ses.Vdims[1]", lambda d: d["ses"]["Vdims"].__setitem__(1, -1)),
    ("$.ses.Wdims[2]", lambda d: d["ses"]["Wdims"].__setitem__(2, -3)),
    ("$.pairings", lambda d: d.update(pairings=[1])),
    ("$.pairings", lambda d: d.update(pairings="x")),
    # a duality witness that is not an object, or lacks one of its tables
    ("$.pd", lambda d: d.update(pd=3)),
    ("$.pd.g", lambda d: d.update(pd={"f": d["ses"]["inj"]})),
    # a map whose shape disagrees with the cell dimensions, at the map's own path
    ("$.right[1][0]", lambda d: d["dims"][1].__setitem__(0, 10**6)),
    ("$.up[1][2]", lambda d: d["up"][1].__setitem__(2, _widen(d["up"][1][2]))),
    # dimensions of 2^31 or more, at their own paths
    ("$.dims[0][1]", lambda d: d["dims"][0].__setitem__(1, 2**31)),
    ("$.ses.Wdims[0]", lambda d: d["ses"]["Wdims"].__setitem__(0, 2**40)),
    ("$.right[0][0].rows", lambda d: d["right"][0][0].update(rows=2**31, cols=0, entries=[])),
    ("$.pd.f[0][0].cols", lambda d: d.update(pd={"f": [[_zeros(0, 2**31)] * 3] * 3, "g": d["ses"]["inj"]})),
    # negative axes and entries outside int64, at their own paths
    ("$.right[0][0].rows", lambda d: d["right"][0][0].update(rows=-1, cols=-1, entries=[1])),
    ("$.up[1][2].cols", lambda d: d["up"][1][2].update(rows=1, cols=-2, entries=[])),
    ("$.ses.inj[2][1].entries[0]", lambda d: d["ses"]["inj"][2][1]["entries"].__setitem__(0, 2**63)),
    ("$.ses.surj[0][1].entries[0]", lambda d: d["ses"]["surj"][0][1]["entries"].__setitem__(0, -(2**63) - 1)),
    # an entry outside int64 in the last map of a list, at its own path
    ("$.ses.Vmaps[1].entries[0]", lambda d: d["ses"]["Vmaps"][1]["entries"].__setitem__(0, 2**63)),
    ("$.ses.Wmaps[1].entries[3]", lambda d: d["ses"]["Wmaps"][1]["entries"].__setitem__(3, -(2**63) - 1)),
    ("$.up[1][2].entries[8]", lambda d: d["up"][1][2]["entries"].__setitem__(8, 2**64)),
    # two defects in a list: its structure is read first, then the int64
    # range, then the shapes, so a malformed map 1 is named before either
    # defect of map 0
    ("$.ses.Vmaps[1].rows", lambda d: _two_defects(d["ses"]["Vmaps"], _widen)),
    ("$.ses.Wmaps[1].rows", lambda d: _two_defects(d["ses"]["Wmaps"], _widen)),
    ("$.right[0][1].rows", lambda d: _two_defects(d["right"][0], _widen)),
    ("$.ses.Vmaps[1].rows", lambda d: _two_defects(d["ses"]["Vmaps"], _overflow)),
    ("$.ses.Wmaps[1].rows", lambda d: _two_defects(d["ses"]["Wmaps"], _overflow)),
    ("$.right[0][1].rows", lambda d: _two_defects(d["right"][0], _overflow)),
    ("$.up[1][1].rows", lambda d: _two_defects(d["up"][1], _overflow)),
    ("$.ses.inj[0][1].rows", lambda d: _two_defects(d["ses"]["inj"][0], _overflow)),
    ("$.ses.surj[2][1].rows", lambda d: _two_defects(d["ses"]["surj"][2], _overflow)),
    ("$.pd.f[0][1].rows", lambda d: _two_defects(_pd_of_inj(d)["f"][0], _overflow)),
]


def _ids(paths):
    """The paths as test ids, a repeated path numbered from its second row."""
    seen = {}
    for path in paths:
        seen[path] = seen.get(path, 0) + 1
        yield path if seen[path] == 1 else f"{path}#{seen[path]}"


@pytest.mark.parametrize("path,mutate", SHAPE_DEFECTS, ids=list(_ids(p for p, _ in SHAPE_DEFECTS)))
def test_shape_defects_are_malformed(tmp_path, capsys, path, mutate):
    import numpy as np

    fx = rand_pairings(np.random.default_rng(9), GF2, m=3, n=3)
    doc = grid_doc(fx.planted.grid, fx.planted.witness, pairings={"mu": fx.mu, "lambda": fx.lam})
    mutate(doc)
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(doc))
    for cmd in ("decompose", "dual"):
        code, out = run_cli(capsys, cmd, str(doc_path))
        assert code == 2
        assert json.loads(out)["path"] == path


def test_negative_cell_dimension_is_malformed(tmp_path, capsys):
    doc = {"kind": "grid", "field": 2, "m": 1, "n": 1, "dims": [[-2]], "right": [[]], "up": []}
    zero = {"rows": 0, "cols": 0, "entries": []}
    witness = {"Vdims": [0], "Vmaps": [], "Wdims": [0], "Wmaps": [], "inj": [[zero]], "surj": [[zero]]}
    for ses in (None, witness):
        doc_path = tmp_path / "bad.json"
        doc_path.write_text(json.dumps({**doc, "ses": ses}))
        for cmd in ("report", "decompose", "dual"):
            code, out = run_cli(capsys, cmd, str(doc_path))
            assert (code, json.loads(out)["path"]) == (2, "$.dims[0][0]")


def _tower(**fields):
    return {"kind": "tower", "field": 2, "dims": [1], "transitions": [], **fields}


def _indtower_of_two_defects():
    """An ind-tower whose map 0 has an entry outside int64 and map 1 a boolean for its cols."""
    maps = [_overflow(_zeros(1, 1)), {**_zeros(1, 1), "cols": True}]
    return {**_tower(dims=[1, 1, 1], transitions=maps), "kind": "indtower"}


# (JSON path of the error, malformed space document)
SPACE_DEFECTS = [
    ("$.dim", {"kind": "finvect", "dim": "x"}),
    ("$.dim", {"kind": "finvect", "dim": -1}),
    ("$.dim", {"kind": "finvect", "dim": float("inf")}),
    ("$.n", {"kind": "builtin", "name": "constant", "field": 2, "n": "x"}),
    ("$.name", {"kind": "builtin", "name": "nope", "field": 2}),
    ("$.dims[0]", _tower(dims=["x"])),
    ("$.dims", _tower(dims=5)),
    ("$.transitions", _tower(transitions=5)),
    ("$.tail.c", _tower(tail={"kind": "bounded-ker", "c": "x"})),
    ("$.summands", {"kind": "indlc", "field": 2, "summands": 5}),
    ("$.factors[0].dim", {"kind": "prodisc", "field": 2, "factors": [{"kind": "finvect", "dim": "x"}]}),
    # integers given as floats or booleans
    ("$.dim", {"kind": "finvect", "dim": 2.5}),
    ("$.dims[0]", _tower(dims=[True])),
    ("$.tail.c", _tower(tail={"kind": "bounded-ker", "c": 1.9})),
    ("$.field", _tower(field=2.9)),
    ("$.transitions[0].rows", _tower(dims=[1, 1], transitions=[{"rows": 1.0, "cols": 1, "entries": [1]}])),
    ("$.transitions[0].cols", _tower(dims=[1, 1], transitions=[{"rows": 1, "cols": True, "entries": [1]}])),
    ("$.transitions[0].entries[0]", _tower(dims=[1, 1], transitions=[{"rows": 1, "cols": 1, "entries": [1.7]}])),
    # a part over another field than its document
    ("$.c.field", {"kind": "tate", "field": 2, "c": _tower(field=3), "d": {**_tower(), "kind": "indtower"}}),
    ("$.d.field", {"kind": "tate", "field": 2, "c": _tower(), "d": {**_tower(field=3), "kind": "indtower"}}),
    ("$.summands[1].field", {"kind": "indlc", "field": 2, "summands": [_tower(), _tower(field=5)]}),
    ("$.factors[0].field", {"kind": "prodisc", "field": 3, "factors": [{"kind": "builtin", "name": "polynomial", "field": 2}]}),
    # negative level dimensions
    ("$.dims[0]", _tower(dims=[-3])),
    ("$.dims[1]", _tower(dims=[1, -1], transitions=[{"rows": 1, "cols": 0, "entries": []}])),
    ("$.dims[0]", {**_tower(dims=[-2]), "kind": "indtower"}),
    ("$.c.dims[0]", {"kind": "tate", "field": 2, "c": _tower(dims=[-1]), "d": {**_tower(), "kind": "indtower"}}),
    ("$.n", {"kind": "builtin", "name": "constant", "field": 2, "n": -1}),
    # each node decided at its own path: a map against the level dimensions,
    # a system of no level, a violated tail, a scalar for an object, a part
    # of the wrong kind
    ("$.transitions[0]", _tower(dims=[1, 2], transitions=[_zeros(2, 2)])),
    ("$.transitions[1]", _tower(dims=[1, 2, 5], transitions=[_zeros(1, 2), _zeros(2, 3)])),
    ("$.transitions[0]", {**_tower(dims=[2, 1], transitions=[_zeros(2, 1)]), "kind": "indtower"}),
    ("$.dims", _tower(dims=[])),
    ("$.tail", _tower(dims=[1, 2], transitions=[_zeros(1, 2)], tail={"kind": "bounded-ker", "c": 0})),
    ("$.transitions[0]", _tower(dims=[1, 1], transitions=[3])),
    ("$.tail", _tower(tail=3)),
    # a negative tail bound, at its own path: where there is no transition,
    # and before the one transition is checked against it
    ("$.tail.c", _tower(dims=[3], tail={"kind": "bounded-ker", "c": -1})),
    ("$.tail.c", _tower(dims=[1, 2], transitions=[{"rows": 1, "cols": 2, "entries": [1, 0]}], tail={"kind": "bounded-ker", "c": -1})),
    ("$.c", {"kind": "tate", "field": 2, "c": {**_tower(), "kind": "indtower"}, "d": {**_tower(), "kind": "indtower"}}),
    ("$.d", {"kind": "tate", "field": 2, "c": _tower(), "d": _tower()}),
    ("$.summands[1]", {"kind": "indlc", "field": 2, "summands": [_tower(), {"kind": "finvect", "dim": 1}]}),
    # dimensions of 2^31 or more, at their own paths
    ("$.dim", {"kind": "finvect", "dim": 2**31}),
    ("$.n", {"kind": "builtin", "name": "constant", "field": 2, "n": 2**40}),
    ("$.dims[1]", _tower(dims=[0, 2**40], transitions=[_zeros(0, 2**40)])),
    ("$.transitions[0].cols", _tower(dims=[0, 0], transitions=[_zeros(0, 2**31)])),
    # negative axes and entries outside int64, at their own paths
    ("$.transitions[0].rows", _tower(dims=[1, 1], transitions=[{"rows": -1, "cols": -1, "entries": [1]}])),
    ("$.transitions[0].cols", _tower(dims=[1, 1], transitions=[{"rows": 1, "cols": -1, "entries": [1]}])),
    ("$.transitions[0].entries[0]", _tower(dims=[1, 1], transitions=[{"rows": 1, "cols": 1, "entries": [2**70]}])),
    ("$.transitions[0].entries[1]", _tower(dims=[1, 2], transitions=[{"rows": 1, "cols": 2, "entries": [1, -(2**63) - 1]}])),
    # an entry outside int64 in the last transition, at its own path
    ("$.transitions[1].entries[0]", _tower(dims=[1, 1, 1], transitions=[_zeros(1, 1), _overflow(_zeros(1, 1))])),
    # two defects: a malformed map 1 is named before a misshapen map 0 or
    # an entry outside int64 in map 0
    ("$.transitions[1].rows", _tower(dims=[1, 1, 1], transitions=[_zeros(2, 1), {**_zeros(1, 1), "rows": 1.0}])),
    ("$.transitions[1].rows", _tower(dims=[1, 1, 1], transitions=[_overflow(_zeros(1, 1)), {**_zeros(1, 1), "rows": 1.0}])),
    ("$.d.transitions[1].cols", {"kind": "tate", "field": 2, "c": _tower(), "d": _indtower_of_two_defects()}),
]


@pytest.mark.parametrize("path,doc", SPACE_DEFECTS, ids=[json.dumps(d) for _, d in SPACE_DEFECTS])
def test_space_defects_are_malformed(tmp_path, capsys, path, doc):
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(doc))
    for argv in (("dual",), ("report",), ("tensor", "--op", "star", str(doc_path))):
        code, out = run_cli(capsys, *argv, str(doc_path))
        assert code == 2
        assert json.loads(out)["path"] == path


@pytest.mark.parametrize(
    "matrix,path,message",
    [
        ({"rows": -1, "cols": -1, "entries": [1]}, "$.transitions[0].rows", "negative dimension"),
        ({"rows": 1, "cols": 1, "entries": [2**70]}, "$.transitions[0].entries[0]", "entry outside the int64 range"),
    ],
)
def test_matrix_defects_name_axis_or_entry(tmp_path, capsys, matrix, path, message):
    # the parser's own message at the axis or the entry, not numpy's at the matrix
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(_tower(field=5, dims=[1, 1], transitions=[matrix])))
    code, out = run_cli(capsys, "dual", "--depth", "2", str(doc_path))
    assert (code, json.loads(out)) == (2, {"error": message, "path": path})


def test_nested_parts_are_rejected_unread(tmp_path, capsys):
    # a Tate part that is itself a Tate document, 700 deep: its parts are never read
    doc = _tower()
    for _ in range(700):
        doc = {"kind": "tate", "field": 2, "c": doc, "d": {**_tower(), "kind": "indtower"}}
    doc_path = tmp_path / "deep.json"
    doc_path.write_text(json.dumps(doc))
    for argv in (("dual",), ("report",), ("tensor", "--op", "star", str(doc_path))):
        code, out = run_cli(capsys, *argv, str(doc_path))
        assert (code, json.loads(out)["path"]) == (2, "$.c")


@pytest.mark.parametrize("case", ["missing", "directory", "not utf-8", "nested"])
def test_unreadable_input_is_malformed(tmp_path, capsys, case):
    doc_path = tmp_path / "doc.json"
    if case == "directory":
        doc_path.mkdir()
    elif case == "not utf-8":
        doc_path.write_bytes(b'{"kind": "\xff"}')
    elif case == "nested":
        doc_path.write_text("[" * 10**5 + "]" * 10**5)
    for cmd in ("decompose", "dual", "report"):
        code, out = run_cli(capsys, cmd, str(doc_path))
        assert (code, json.loads(out)["path"]) == (2, "$")


# (JSON path of the error, a decomposition or validation document for `report`)
REPORT_DEFECTS = [
    ("$.tate", {"kind": "decomposition", "tate": [1]}),
    ("$.tate", {"kind": "decomposition", "tate": None}),
    ("$.tate.c", {"kind": "decomposition", "tate": {"c": 3, "d": {}}}),
    ("$.tate.d", {"kind": "decomposition", "tate": {"d": []}}),
    ("$.opens", {"kind": "decomposition", "opens": "ab"}),
    ("$.opens[0]", {"kind": "decomposition", "opens": [1]}),
    ("$.opens[1]", {"kind": "decomposition", "opens": [{"cols": 2}, None]}),
    ("$.exchange", {"kind": "decomposition", "exchange": True}),
    ("$.violations", {"kind": "validation", "violations": 5}),
    ("$.violations", {"kind": "validation", "ok": False, "violations": "ab"}),
    ("$.violations[0]", {"kind": "validation", "ok": False, "violations": [3]}),
    ("$.violations[1]", {"kind": "validation", "ok": False, "violations": ["x", {"a": 1}]}),
    # documents that are not an object, or of no kind report reads
    ("$", [1, 2]),
    ("$", "grid"),
    ("$", None),
    ("$.kind", {"kind": "x"}),
    ("$.kind", {"field": 2}),
]


@pytest.mark.parametrize("path,doc", REPORT_DEFECTS, ids=[json.dumps(d) for _, d in REPORT_DEFECTS])
def test_report_defects_are_malformed(tmp_path, capsys, path, doc):
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "report", str(doc_path))
    assert code == 2
    assert json.loads(out)["path"] == path  # the error object is all of stdout


def test_report_reads_decomposition_and_validation(tmp_path, capsys):
    grid = tmp_path / "g.json"
    run_cli(capsys, "gen", "--kind", "grid", "--seed", "7", "--out", str(grid))
    _, out = run_cli(capsys, "decompose", str(grid))
    dec = json.loads(out)
    (tmp_path / "dec.json").write_text(out)
    code, out = run_cli(capsys, "report", str(tmp_path / "dec.json"))
    assert code == 0
    assert f"open subspace dims: {[u['cols'] for u in dec['opens']]}" in out
    assert "exchange certificate: identity" in out
    _, out = run_cli(capsys, "decompose", str(_broken_square(tmp_path)))
    (tmp_path / "val.json").write_text(out)
    code, out = run_cli(capsys, "report", str(tmp_path / "val.json"))
    assert code == 0
    assert out.startswith("validation: FAILS\n  - ")


def test_report_of_a_finvect_names_its_dimension(tmp_path, capsys):
    # a finvect document has no field; a system names its field
    for doc, first in (
        ({"kind": "finvect", "dim": 3}, "finvect presentation of dimension 3"),
        (_tower(field=5), "tower presentation over GF(5)"),
    ):
        doc_path = tmp_path / "space.json"
        doc_path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "report", str(doc_path))
        assert (code, out.splitlines()[0]) == (0, first)


class TestDualCommand:
    def test_finite_dimensional_space(self, tmp_path, capsys):
        doc_path = tmp_path / "v.json"
        doc_path.write_text(json.dumps({"kind": "finvect", "dim": 3}))
        assert run_cli(capsys, "dual", str(doc_path)) == (0, '{"dim":3,"kind":"finvect"}\n')

    def test_stdin_of_the_module_run_as_a_script(self, tmp_path, capsys):
        # `python -m tatevec` reading `-` prints what `main` prints for the file
        doc = json.dumps({"kind": "builtin", "name": "laurent", "field": 2})
        doc_path = tmp_path / "laurent.json"
        doc_path.write_text(doc)
        want = run_cli(capsys, "dual", str(doc_path), "--depth", "3")
        argv = [sys.executable, "-m", "tatevec", "dual", "-", "--depth", "3"]
        proc = subprocess.run(argv, input=doc, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == want
        assert want[0] == 0 and json.loads(want[1])["kind"] == "tate"


class TestTensorCommand:
    def test_power_series_square_law(self, tmp_path, capsys):
        path = tmp_path / "ps.json"
        path.write_text(json.dumps({"kind": "builtin", "name": "power_series", "field": 2}))
        code, out = run_cli(capsys, "tensor", "--op", "star", "--depth", "3", str(path), str(path))
        assert code == 0
        assert json.loads(out)["dims"] == [1, 4, 9]

    def test_field_mismatch_is_malformed(self, tmp_path, capsys):
        paths = []
        for p in (2, 3):
            paths.append(tmp_path / f"ps{p}.json")
            paths[-1].write_text(json.dumps({"kind": "builtin", "name": "laurent", "field": p}))
        for op in ("star", "bang"):
            code, out = run_cli(capsys, "tensor", "--op", op, *map(str, paths))
            assert code == 2
            assert json.loads(out) == {"error": "no tensor of a GF(2) and a GF(3) document", "path": "$"}

    def test_axes_of_2_31_or_more_are_malformed(self, tmp_path, capsys):
        # the Kronecker product of two such axes would not fit int64: each
        # document is rejected at the dimension, before any product is built
        tower = _tower(dims=[0, 2**40], transitions=[_zeros(0, 2**40)])
        for op, doc in (("star", tower), ("bang", {**tower, "kind": "indtower", "transitions": [_zeros(2**40, 0)]})):
            path = tmp_path / f"{op}.json"
            path.write_text(json.dumps(doc))
            code, out = run_cli(capsys, "tensor", "--op", op, str(path), str(path))
            assert (code, json.loads(out)) == (2, {"error": "dimension of 2^31 or more", "path": "$.dims[1]"})

    def test_kind_mismatch_is_malformed(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"kind": "builtin", "name": "power_series", "field": 2}))
        b.write_text(json.dumps({"kind": "builtin", "name": "polynomial", "field": 2}))
        code, out = run_cli(capsys, "tensor", "--op", "star", str(a), str(b))
        assert code == 2
        assert "path" in json.loads(out)

    def test_star_builds_no_level_objects(self, tmp_path, capsys, monkeypatch):
        # a level is read as its dimension, and pair_at counts whole
        # diagonals instead of walking the unrestricted enumeration
        import numpy as np

        calls = {"FinVect": 0, "pair_from_index": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(spaces.FinVect, "__post_init__", counted("FinVect", spaces.FinVect.__post_init__))
        monkeypatch.setattr(tensor, "pair_from_index", counted("pair_from_index", tensor.pair_from_index))
        rng = np.random.default_rng(3)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            path.write_text(json.dumps(space_doc(rand_tate(rng, GF2, depth=4, max_dim=16))))
        code, out = run_cli(capsys, "tensor", "--op", "star", *map(str, paths))
        assert code == 0
        assert len(json.loads(out)["summands"]) == 25
        assert calls == {"FinVect": 0, "pair_from_index": 0}


class TestDeterminism:
    def test_gen_byte_identical(self, capsys):
        _, out1 = run_cli(capsys, "gen", "--kind", "grid", "--seed", "11")
        _, out2 = run_cli(capsys, "gen", "--kind", "grid", "--seed", "11")
        assert out1 == out2

    def test_environment_does_not_set_the_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TATESPACE_SEED", "13")
        _, out_env = run_cli(capsys, "gen", "--kind", "tower")
        _, out_flag = run_cli(capsys, "gen", "--kind", "tower", "--seed", "0")
        assert out_env == out_flag

    def test_decompose_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run_cli(capsys, "gen", "--kind", "grid", "--seed", "2", "--out", str(path))
        _, out1 = run_cli(capsys, "decompose", str(path))
        _, out2 = run_cli(capsys, "decompose", str(path))
        assert out1 == out2


def test_parser_built_once(capsys):
    build_parser.cache_clear()
    _, seeded = run_cli(capsys, "gen", "--kind", "tower", "--seed", "3")
    _, default = run_cli(capsys, "gen", "--kind", "tower")
    assert build_parser.cache_info().misses == 1
    # the second parse does not inherit the first one's --seed
    assert default == run_cli(capsys, "gen", "--kind", "tower", "--seed", "0")[1] != seeded


class TestRoundTrip:
    def test_space_documents(self):
        import numpy as np

        rng = np.random.default_rng(17)
        for _ in range(40):
            field = FieldSpec(int(rng.choice([2, 5])))
            obj = [rand_tower, rand_indtower, rand_tate][int(rng.integers(0, 3))](rng, field)
            doc = space_doc(obj, 4)
            again = space_doc(parse_space(doc), 4)
            assert doc == again

    def test_grid_documents(self):
        import numpy as np

        rng = np.random.default_rng(19)
        for _ in range(20):
            planted = rand_grid(rng, FieldSpec(2), m=2, n=2)
            doc = grid_doc(planted.grid, planted.witness)
            G, W, _, _, _ = parse_grid(doc)
            assert grid_doc(G, W) == doc

    def test_numpy_ints_read_like_plain_ints(self):
        # a library caller's numpy ints are no plain JSON: every matrix
        # document goes through parse_matrix and reads as its plain form
        import numpy as np

        def as_numpy(tree):
            if isinstance(tree, dict) and "entries" in tree:
                entries = list(np.array(tree["entries"], dtype=np.int64))
                return {"rows": np.int64(tree["rows"]), "cols": np.int32(tree["cols"]), "entries": entries}
            if isinstance(tree, dict):
                return {key: as_numpy(x) for key, x in tree.items()}
            return [as_numpy(x) for x in tree] if isinstance(tree, list) else tree

        rng = np.random.default_rng(23)
        for p in (2, 65521):
            for _ in range(5):
                doc = space_doc(rand_tate(rng, FieldSpec(p)), 4)
                assert space_doc(parse_space(as_numpy(doc)), 4) == doc
                fx = rand_pairings(rng, FieldSpec(p), m=2, n=3)
                doc = grid_doc(fx.planted.grid, fx.planted.witness, pd=fx.pd)
                G, W, _, pd, _ = parse_grid(as_numpy(doc))
                assert grid_doc(G, W, pd=pd) == doc


class TestCheckCommand:
    @pytest.mark.parametrize("suite", ["laws", "grid", "appendix"])
    def test_suite_green(self, capsys, suite):
        code, out = run_cli(capsys, "check", "--suite", suite)
        assert code == 0
        assert "[ok]" in out and "[FAIL]" not in out
