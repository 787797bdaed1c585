"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is zero-tolerance (entrywise equality over GF(p)); each test
prints a single PASS line once its criterion holds.  Run with

    pytest -v -s tests/test_acceptance.py
"""

import json

import numpy as np
import pytest

from tatevec import bidirected as bd
from tatevec.cli import main as cli_main
from tatevec.duality import dual_object, self_dual_decompose
from tatevec.exactla import FieldSpec, Matrix, spans_equal
from tatevec.generators import rand_grid, rand_indtower, rand_tate, rand_tower
from tatevec.serialize import grid_doc, parse_grid, parse_space, space_doc
from tatevec.spaces import (
    FinVect,
    IndLCObj,
    TateObj,
    constant_indtower,
    lattice_check,
    laurent_tate,
    materialize,
    power_series_tower,
    tate_from_finvect,
    tate_window,
)
from tatevec.suites import (
    check_appendix_split,
    check_appendix_worked,
    check_extend,
    check_grid_pairings,
    check_involution,
    check_selfdual,
)
from tatevec.tensor import (
    check_tensor_duality,
    hom_via_tensor,
    pair_at,
    tensor_systems,
)

GF2 = FieldSpec(2)
GF5 = FieldSpec(5)


def report(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_c01_duality_involution():
    # 200 random objects per kind, dims <= 8, depth <= 6, fields 2 and 5
    failure = check_involution()
    report(1, failure is None, "dual(dual(X)) levelwise byte-equal to X for 200 objects per kind")


def test_c02_tensor_duality_intertwining():
    count = 0
    for field in (GF2, GF5):
        rng = np.random.default_rng(100 + field.p)
        for _ in range(50):
            def rand_indlc():
                k = int(rng.integers(1, 3))
                return IndLCObj.from_list(
                    field, [rand_tower(rng, field, depth=4, max_dim=4) for _ in range(k)]
                )

            A, B = rand_indlc(), rand_indlc()
            rep = check_tensor_duality(A, B, 4)
            if not rep.ok:
                report(2, False, f"pair over GF({field.p}): {rep.mismatch}")
            count += 1
    report(2, count == 100, "100 random pairs: dual of * tensor equals ! tensor of duals, depth 4")


def _expected_dual_factor_dims(kind, k, m):
    # prodisc profile of the dual of A, counted directly from monomial bases
    if kind == "power_series":  # dual has discrete part (k[t]/t^m)* and no compact part
        return m if k == 1 else 0
    if kind == "laurent":  # discrete dual of k[[t]] plus one increment per negative power
        return m if k == 1 else 1
    if kind == "finite3":  # three-dimensional discrete dual, nothing else
        return 3 if k == 1 else 0
    raise AssertionError(kind)


def _expected_target_factor_dims(kind, k, m):
    # prodisc profile of B itself: d-lattice first, then quotient increments
    if kind == "power_series":
        return 0 if k == 1 else 1
    if kind == "laurent":
        return m if k == 1 else 1
    if kind == "finite3":
        if k == 1:
            return 0
        return 3 if k == 2 else 0
    raise AssertionError(kind)


def test_c03_hom_presentation():
    spaces = {
        "power_series": TateObj(power_series_tower(GF2), constant_indtower(GF2, 0)),
        "laurent": laurent_tate(GF2),
        "finite3": tate_from_finvect(GF2, FinVect(3)),
    }
    depth, outer, inner = 3, 6, 3
    for na, A in spaces.items():
        for nb, B in spaces.items():
            hp = hom_via_tensor(A, B, depth)
            # window dims against a direct count: enumerate the matrix units
            # of Hom(window_A, window_B) and count them
            for lvl, (a, b) in enumerate(hp.window, start=1):
                units = []
                for i in range(a):
                    for j in range(b):
                        unit = np.zeros((b, a), dtype=np.int64)
                        unit[j, i] = 1
                        units.append(Matrix(GF2, unit))
                if hp.ev[lvl - 1].shape != (len(units), len(units)):
                    report(3, False, f"window count mismatch for {na} -> {nb}")
                ev = hp.ev[lvl - 1]
                for i in range(a):  # every rank-one basis tensor
                    for j in range(b):
                        col = ev.col(i * b + j)
                        hom = Matrix(GF2, col.data.reshape(b, a))
                        want = np.zeros((b, a), dtype=np.int64)
                        want[j, i] = 1
                        if hom != Matrix(GF2, want):
                            report(3, False, f"Ev identity fails for {na} -> {nb}")
            # factor profile against the independent monomial count
            pre = materialize(hp.prodisc, outer, inner=inner)
            for k, fac in enumerate(pre.parts, start=1):
                i, j = pair_at(k, None, None)
                want = _expected_dual_factor_dims(na, i, inner) * _expected_target_factor_dims(
                    nb, j, inner
                )
                if fac.dims[-1] != want:
                    report(3, False, f"factor {k} of {na} -> {nb}: dim {fac.dims[-1]} != {want}")
    report(3, True, "hom dims match the direct matrix-family count; Ev exact on rank-one tensors")


def test_c04_lattice_example():
    lt = laurent_tate(GF2)
    F, c_block, d_block = tate_window(lt, 4)
    resc = lattice_check(F, c_block, "c")
    resd = lattice_check(F, d_block, "d")
    dual = dual_object(lt)
    a, b = materialize(lt, 5), materialize(dual, 5)
    swapped = b.c.dims == a.d.dims and b.d.dims == a.c.dims
    ok = resc.ok and resc.witness == 1 and resd.ok and resd.witness == 1 and swapped
    report(4, ok, "power-series part is a c-lattice (witness 1), negative part a d-lattice; "
                  "dual swaps the towers")


def test_c05_two_variable_square_law():
    t = tensor_systems(power_series_tower(GF2), power_series_tower(GF2))
    pre = materialize(t, 20)
    ok = pre.dims == tuple(n * n for n in range(1, 21))
    report(5, ok, "power-series square has level-n dimension n^2 for n <= 20")


GRID_COUNT = 100


def _grid_fleet():
    grids = []
    for field in (GF2, GF5):
        rng = np.random.default_rng(200 + field.p)
        for _ in range(GRID_COUNT // 2):
            grids.append(rand_grid(rng, field))
    return grids


@pytest.fixture(scope="module")
def grid_fleet():
    out = []
    for planted in _grid_fleet():
        out.append((planted, bd.split_grid(planted.grid, planted.witness)))
    return out


def test_c06_scramble_and_recover(grid_fleet):
    for planted, split in grid_fleet:
        try:
            bd.check_split(planted.grid, planted.witness, split.basis, split.inverse)
        except AssertionError:
            report(6, False, "a grid failed to block-diagonalize")
        dec = bd.grid_decomposition(split)
        cpre = materialize(dec.tate.cLattice, planted.grid.m)
        dpre = materialize(dec.tate.dLattice, planted.grid.n)
        if cpre.dims != planted.Wdims or dpre.dims != planted.Vdims:
            report(6, False, "planted dimension profiles not recovered")
    report(6, True, f"{len(grid_fleet)} scrambled grids block-diagonalized exactly, "
                    "planted profiles recovered")


def test_c07_exchange_identity(grid_fleet):
    for _, split in grid_fleet:
        cert = bd.kappa_check(split)
        if not cert.ok:
            report(7, False, "exchange certificate is not the identity")
    report(7, True, f"exchange certificate is the normal-form identity on all {len(grid_fleet)} grids")


def test_c08_grid_duality(grid_fleet):
    for planted, _ in grid_fleet:
        out = bd.dual_grid(planted.grid, planted.witness)
        if not (out.certificate_ok and bd.dual_grid_check(planted.witness, out.witness)):
            report(8, False, "dual decomposition differs from dualized decomposition")
    report(8, True, f"duality certificate holds levelwise on all {len(grid_fleet)} grids")


def test_c09_appendix_splitting():
    failure = check_appendix_split()
    failure2 = check_appendix_worked()
    report(9, failure is None and failure2 is None, "100 filtered SES instances split flag-compatibly; "
                          "worked ladder instance gives [1,1]")


def test_c10_hahn_banach():
    failure = check_extend()
    report(10, failure is None, "200 extensions restrict to f and kill the witness flag")


def test_c11_self_duality():
    failure = check_selfdual()
    # the residue-pairing window over GF(2)
    U1 = Matrix(GF2, [[0, 0], [0, 0], [1, 0], [0, 1]])
    U2 = Matrix(GF2, [[0], [0], [0], [1]])
    from tatevec.spaces import FilteredSpace

    V = FilteredSpace(GF2, 4, [U1, U2, Matrix.zeros(GF2, 4, 0)])
    phi = Matrix(GF2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    L = U1
    out = self_dual_decompose(V, phi, L)
    negative = Matrix(GF2, [[1, 0], [0, 1], [0, 0], [0, 0]])
    window_ok = spans_equal(out.D, negative)
    report(11, failure is None and window_ok, "50 scrambled models recover the planted dimension; "
                                 "residue-pairing window returns the negative-power span")


def test_c12_pairing_checks():
    failure = check_grid_pairings()
    report(12, failure is None, "25 planted pairing families verified; all 25 corrupted entries localized")


def test_c13_cli_determinism(tmp_path, capsys):
    def run(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    grid_path = tmp_path / "g.json"
    ps_path = tmp_path / "ps.json"
    ps_path.write_text(json.dumps({"kind": "builtin", "name": "power_series", "field": 2}))

    outputs = {}
    for name, argv in {
        "gen-grid": ("gen", "--kind", "grid", "--seed", "5"),
        "gen-tate": ("gen", "--kind", "tate", "--seed", "5", "--field", "5"),
        "dual": ("dual", str(ps_path), "--depth", "4"),
        "tensor": ("tensor", "--op", "star", "--depth", "3", str(ps_path), str(ps_path)),
        "report": None,
        "decompose": None,
        "check": ("check", "--suite", "appendix"),
    }.items():
        if argv is None:
            continue
        a = run(*argv)
        b = run(*argv)
        if a != b:
            report(13, False, f"subcommand {name} not byte-identical")
        outputs[name] = a
    code, _ = run("gen", "--kind", "grid", "--seed", "5", "--out", str(grid_path))
    a = run("decompose", str(grid_path))
    b = run("decompose", str(grid_path))
    if a != b or a[0] != 0:
        report(13, False, "decompose not byte-identical")
    a = run("report", str(grid_path))
    b = run("report", str(grid_path))
    if a != b:
        report(13, False, "report not byte-identical")

    # round trip: parse(emit(x)) = x on 200 instances
    rng = np.random.default_rng(400)
    for trial in range(200):
        field = FieldSpec(int(rng.choice([2, 5])))
        pick = trial % 4
        if pick == 3:
            planted = rand_grid(rng, field, m=2, n=2, max_part=2)
            doc = grid_doc(planted.grid, planted.witness)
            G, W, _, _, _ = parse_grid(doc)
            if grid_doc(G, W) != doc:
                report(13, False, "grid round trip failed")
        else:
            obj = [rand_tower, rand_indtower, rand_tate][pick](rng, field)
            doc = space_doc(obj, 4)
            if space_doc(parse_space(doc), 4) != doc:
                report(13, False, "space round trip failed")
    report(13, True, "all subcommands byte-identical across reruns; 200 round trips exact")
