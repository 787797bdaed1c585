"""Digests of the pairing-window checks, the grid document and the suites.

These pin, over GF(2) and GF(5), the full reports of `assemble_pairing`
(product and coproduct windows) and `check_pd_intertwine` on seeded
`rand_pairings` fixtures: the planted windows, and variants with one
corrupted window, absent windows, out-of-grid targets, targets out of
order, misshapen windows and a broken duality witness.  Every report is
compared field by field (`ok`, `violations`, `residuals`, `skipped`,
`induced`, `checked`), so a change in the order or wording of a skipped
cell shows here.  The reports on the parsed grid document must equal the
reports on the fixture itself.  They also pin the canonical text of grid
documents that carry `pairings` and `pd`, and the names of each check
suite, in the order `check --suite` runs them.
"""

import hashlib
import json

import numpy as np
import pytest

from tatevec import bidirected as bd
from tatevec import suites
from tatevec.exactla import FieldSpec, Matrix
from tatevec.generators import rand_pairings
from tatevec.serialize import dumps, grid_tree, parse_grid


def _doc(x):
    if isinstance(x, Matrix):
        return x.to_json()
    if isinstance(x, (list, tuple)):
        return [_doc(y) for y in x]
    if isinstance(x, bd.InducedLevel):
        return [x.index, list(x.cell), list(x.target), _doc(x.matrix), x.complementary_block_zero]
    return x


def _sha(x) -> str:
    text = json.dumps(_doc(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _assembly(rep: bd.PairingAssembly):
    return [rep.ok, rep.violations, rep.residuals, rep.skipped, rep.induced]


def _intertwine(rep: bd.IntertwineReport):
    return [rep.ok, rep.violations, rep.residuals, rep.skipped, rep.checked]


def _edit(family: bd.PairingFamily, cells: dict) -> bd.PairingFamily:
    """The family with the entries at `cells` replaced ((r, c) -> entry or None)."""
    rows = [[cells.get((r, c), e) for c, e in enumerate(row)] for r, row in enumerate(family.entries)]
    return bd.PairingFamily(family.kind, rows)


def _bump(M: Matrix, i: int, j: int) -> Matrix:
    data = M.data.copy()
    data[i, j] = (data[i, j] + 1) % M.field.p
    return Matrix(M.field, data)


def _variants(fx, m: int, n: int) -> dict:
    """name -> (mu, lambda, pd) of the fixture and its defective variants."""
    mu, lam, pd = fx.mu, fx.lam, fx.pd
    last = (m - 1, n - 1)

    def entry(family, cell, target=None, matrix=None):
        e = family.at(*cell)
        return bd.PairingEntry(e.target if target is None else target, e.matrix if matrix is None else matrix)

    corrupt = {(0, 0): entry(mu, (0, 0), matrix=_bump(mu.at(0, 0).matrix, 0, 1))}
    corrupt_lam = {last: entry(lam, last, matrix=_bump(lam.at(*last).matrix, 1, 0))}
    misshapen = {(0, 1): entry(mu, (0, 1), matrix=Matrix(fx.mu_hat.field, mu.at(0, 1).matrix.data[:, 1:]))}
    misshapen_lam = {(1, 0): entry(lam, (1, 0), matrix=Matrix(fx.lam_hat.field, lam.at(1, 0).matrix.data[1:]))}
    f = [list(row) for row in pd.f]
    f[1][1] = _bump(f[1][1], 0, 0)
    return {
        "planted": (mu, lam, pd),
        "corrupt": (_edit(mu, corrupt), _edit(lam, corrupt_lam), pd),
        "none": (_edit(mu, {(0, 1): None, last: None}), _edit(lam, {(1, 0): None}), pd),
        "outside": (
            _edit(mu, {(1, 0): entry(mu, (1, 0), target=(m, 0)), (0, 1): entry(mu, (0, 1), target=(0, -1))}),
            _edit(lam, {(0, 0): entry(lam, (0, 0), target=(-1, n))}),
            pd,
        ),
        "incomparable": (_edit(mu, {(0, 1): entry(mu, (0, 1), target=(1, 0))}), lam, pd),
        # the misshapen product window has no coproduct window at its target
        "misshapen": (_edit(mu, misshapen), _edit(lam, {**misshapen_lam, (0, 1): None}), pd),
        "witness": (mu, lam, bd.GridDualityWitness(f, pd.g)),
    }


def _reports(split, mu, lam, pd):
    return [
        _assembly(bd.assemble_pairing(split, mu)),
        _assembly(bd.assemble_pairing(split, lam)),
        _intertwine(bd.check_pd_intertwine(split, mu, lam, pd)),
    ]


# (p, seed, m, n) of rand_pairings(rng(seed), GF(p), m, n) -> variant -> sha256
# of its reports
REPORTS = {
    (2, 0, 2, 3): {
        "planted": "2f585fdb0f8c669924447e644456216954b9c91159ef11c444bc87a864fb04d8",
        "corrupt": "6b2fcb497bd0f47a4259e5e9dcc2c9fd548bc9d9f72ff5609b7ed1355d4526dd",
        "none": "5a9d53100823662069cdd894ced7eecbca00921ff814d5f1c68997eee1dc4a0a",
        "outside": "3b965edfc3e01b6a4f38420f26a34da6aa0ec410f664d73e944e81c79416f0a8",
        "incomparable": "0c13a1ba1f39649e925c6b4ba086d568b26da9cb9778e4bc919fa6ab8d56db23",
        "misshapen": "a1a674053faefdcf4b73b13fb95ff4da1abd1e6f2829c6e4411a94dbcca0b159",
        "witness": "583527287f20013db7de928bd60ba74d7674671baf1c562aebf61a434b270c7d",
    },
    (2, 5, 3, 2): {
        "planted": "73ae34a3888586e883c4f387e9f26ef0f766a7b083aa47972c69468b8574bdc7",
        "corrupt": "cc2a9714f268c06c1a05e7ba74f3d4054784eb26a2e0668ee578c4cd7dead8b0",
        "none": "0fe3b48186a820dcfab5fa10f1968b71362a95d2ccf742dfde089609f989b2db",
        "outside": "6bbad60b8b7331e2a002a95e60940845830a3169d8695543b8c9cc8ce1132eb7",
        "incomparable": "7ed2e2a55fba3984fcfb0b3673725a2d3885f4d3643dfdb45c741c92e5997341",
        "misshapen": "bff675302de44a67cf25eab74fba14929c671e36438d0e0e5887b13dca9585ab",
        "witness": "d393c9a87aa444ba7365362280e8a1dfec98b03bef06d35dd7f0d9d9fb497bac",
    },
    (5, 1, 2, 3): {
        "planted": "7bf64e3295de765f8b0f3e255df10e3c6544a076cb1ed624b78f94482256ee58",
        "corrupt": "990d03e6f53a2cf7ea20b0251401e44422ba337ba88f2dcfbd23a934453d637d",
        "none": "238345b7375b29648d7cafe152bfab2d5b46ec07882e039b1c98f4602a46977f",
        "outside": "193e09bfa860bfdf5a169b677a4b3ad3982005b3950051eaf66169e1b39b4c0f",
        "incomparable": "022e05fadd2350ff9b6c0ad623afb5456fa5a876ce95f44620d3ef0d9994d6e9",
        "misshapen": "95d8b65b78abd1f277b98fed89f3ea0aa018a33608c368c288f254fd203ca433",
        "witness": "5600f9577c62489f10e1650e1c642a7c6349d723cf5cd5069d6d209535e65798",
    },
    (5, 4, 3, 3): {
        "planted": "47c47d96cf529baf58e6505d988ac26dd00e565927872faa541aace0bd6e6f3d",
        "corrupt": "e583d832bc2f0d242e8ad694a79efdf013d8ec20c7b4a7549399c1201a092c3e",
        "none": "2cc49a888fc75c75de5cff41031b2d85bb8cfae0660de021302ff812b95b6175",
        "outside": "6ff5d548863931223ea747737b72d205f77b8641374e42cd584e692e7d67fbcb",
        "incomparable": "dec2bdd3e2fb371820a36861b6bbf678fa7c664b37e5205f55b85bd941b359d4",
        "misshapen": "dcc89611efa62bc4b36bf444ac29122cb2c03659e7a66e8d3a824a71e8abb6dc",
        "witness": "49fa346bcf2505e18984599a3f23997c4caa739c8d7c8cbcb8a3ea06b9b7c30f",
    },
}

# (p, seed, m, n) -> sha256 of dumps(grid_tree(...)) with the planted and the
# "none" and "outside" pairings and the duality witness
DOCUMENTS = {
    (2, 0, 2, 3): {
        "planted": "595ef2cf7fdc898ba9630334b593c3d36cf8d41122b97d3f04281df8d001bb84",
        "none": "a982961bd23587f27773b75cfe3f7647b33fc2429090b7e80eb75ab558949c41",
        "outside": "a9575da9648f1ddf9fe004563923ee26254988973c19c7244c9293684803c1c1",
    },
    (2, 5, 3, 2): {
        "planted": "6855c4b3aa4c9f3bf93d442919871a80b06b748d3c10874038f950f793ce505b",
        "none": "1d7f3e15136ac9b69dcf87bf4c3f9efb709714038bc3dd76162e2108e64dd681",
        "outside": "c7e07eae00a756275c749ceb6871d3ff24add4e54b165f9599858b9a5029f997",
    },
    (5, 1, 2, 3): {
        "planted": "0803066618188d72f0d5027a56f044cbd72408c2ebba6d99b8e9df8dc3c66af2",
        "none": "369f4524a49f625ad0b5f6c6e537b980502380619b0a19e1045d78b5aee0d246",
        "outside": "80829d2d169f9993ccd8c2de9b4921aef36199ccc71a0b7d8e59b05df27ba5e9",
    },
    (5, 4, 3, 3): {
        "planted": "24ab7bab39780a449674ae99f955274e6933e460186f3390e3f61f64def7df63",
        "none": "6041c460c447e6a773b7283738112c49f7ddab2017057ebb33c6dd69a6328cb6",
        "outside": "ff55bfe18620f58f84e56a5b3f9998426fe3465f2f0bff7ba8264d0288687b15",
    },
}


def _fixture(p, seed, m, n):
    return rand_pairings(np.random.default_rng(seed), FieldSpec(p), m=m, n=n)


def _documents(fx) -> dict:
    G, W = fx.planted.grid, fx.planted.witness
    out = {}
    for name, (mu, lam, pd) in _variants(fx, G.m, G.n).items():
        if name in ("planted", "none", "outside"):
            out[name] = dumps(grid_tree(G, W, pairings={"mu": mu, "lambda": lam}, pd=pd))
    return out


@pytest.mark.parametrize("key", sorted(REPORTS))
def test_report_digests(key):
    fx = _fixture(*key)
    split = fx.planted.planted_split
    got = {name: _sha(_reports(split, *v)) for name, v in _variants(fx, key[2], key[3]).items()}
    assert got == REPORTS[key]


@pytest.mark.parametrize("key", sorted(REPORTS))
def test_parsed_documents_give_the_same_reports(key):
    fx = _fixture(*key)
    split = fx.planted.planted_split
    for name, text in _documents(fx).items():
        G, W, pairings, pd, _ = parse_grid(json.loads(text))
        parsed = bd.check_split(G, W, split.basis, split.inverse)
        mu, lam, _ = _variants(fx, key[2], key[3])[name]
        assert _sha(_reports(parsed, pairings["mu"], pairings["lambda"], pd)) == _sha(_reports(split, mu, lam, pd))
        # the document reads back to the same text
        assert dumps(grid_tree(G, W, pairings=pairings, pd=pd)) == text


@pytest.mark.parametrize("key", sorted(DOCUMENTS))
def test_document_digests(key):
    got = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in _documents(_fixture(*key)).items()}
    assert got == DOCUMENTS[key]


# suite -> sha256 of its check names, in order
SUITE_DIGESTS = {
    "laws": "bc6c253848e18408df799fac1da04c7a4dbe44942913bcc878eefa6b619c4e4b",
    "grid": "f7c22bd1e786483dfee559254c2a701675a6c05f58b0813232ffa650fcde82a6",
    "appendix": "9ce7f055e10c848747a67e08e248a7a3f96b1a76cf55ce5a480c024f92b61a25",
}


def test_suite_names():
    got = {name: _sha([fn.check_name for fn in checks]) for name, checks in suites.SUITES.items()}
    assert got == SUITE_DIGESTS
