"""The one writer of canonical JSON, `serialize.dumps`.

Its text must equal `json.dumps` of the same tree with every matrix
replaced by `to_json`, byte for byte: over GF(p < 11) the entries are
written from the array into a slot, and no string or key of the document
may be mistaken for that slot.  The public `*_doc` builders return the plain
JSON that a reader of the CLI's stdout gets.
"""

import json

import numpy as np
import pytest

from tatevec import cli
from tatevec.exactla import FieldSpec, Matrix
from tatevec.generators import rand_grid, rand_tate
from tatevec.serialize import dumps, grid_doc, space_doc

PRIMES = [2, 3, 5, 7, 11, 65521, 3037000493]
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (8, 8), (64, 65)]
TRICKY = ["\u0000", '"entries":NaN', "NaN", '"entries":', "entries"]


def _plain(x):
    if isinstance(x, Matrix):
        return x.to_json()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    return x


def _reference(tree) -> str:
    return json.dumps(_plain(tree), sort_keys=True, separators=(",", ":"))


def _matrices(p, seed=0):
    rng = np.random.default_rng(seed)
    field = FieldSpec(p)
    return [Matrix(field, rng.integers(0, p, size=shape)) for shape in SHAPES]


def _is_plain(x) -> bool:
    if isinstance(x, dict):
        return all(isinstance(k, str) and _is_plain(v) for k, v in x.items())
    if isinstance(x, list):
        return all(_is_plain(y) for y in x)
    return x is None or isinstance(x, (str, int, bool))


@pytest.mark.parametrize("p", PRIMES)
def test_nested_matrices_match_json_dumps(p):
    mats = _matrices(p)
    tree = {
        "z": mats,
        "a": {"m": mats[4], "rows": [mats[1], [mats[2], {"x": mats[0]}]], "entries": [1, 2]},
        "t": (mats[3], None, True, -7, "s"),
        "last": mats[5],
    }
    assert dumps(tree) == _reference(tree)
    assert dumps(mats[5]) == _reference(mats[5])


def test_every_prime_in_one_document():
    tree = {str(p): _matrices(p, seed=p % 97) for p in PRIMES}
    assert dumps(tree) == _reference(tree)


@pytest.mark.parametrize("with_matrices", [False, True])
def test_strings_and_keys_like_the_slot(with_matrices):
    tree = {s: [s, {s: s}] for s in TRICKY}
    tree["entries"] = TRICKY
    if with_matrices:
        tree["m"] = _matrices(2) + _matrices(65521)
        tree["\u0000"] = [_matrices(5)[3], "NaN", _matrices(7)[0]]
    assert dumps(tree) == _reference(tree)


def test_empty_matrices_write_empty_lists():
    for shape in SHAPES[:3]:
        assert json.loads(dumps(Matrix.zeros(FieldSpec(2), *shape)))["entries"] == []


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "shapes",
    [
        [(2, 3), (1, 1), (0, 4)],  # the last matrix empty
        [(2, 2), (3, 0), (1, 3)],  # an empty matrix between two non-empty ones
        [(0, 0), (4, 0), (0, 2)],  # every matrix empty: a zero-length buffer
    ],
    ids=["last-empty", "empty-between", "all-empty"],
)
def test_empty_matrices_among_digit_matrices(p, shapes):
    rng = np.random.default_rng(p)
    field = FieldSpec(p)
    mats = [Matrix(field, rng.integers(0, p, size=shape)) for shape in shapes]
    tree = {"field": p, "maps": mats, "last": {"m": mats[-1]}, "s": "NaN"}
    assert dumps(tree) == _reference(tree)


def test_public_docs_are_the_plain_json_of_stdout(tmp_path, capsys):
    field = FieldSpec(5)
    assert cli.main(["gen", "--kind", "tate", "--seed", "3", "--field", "5"]) == 0
    doc = space_doc(rand_tate(np.random.default_rng(3), field, depth=4), 4)
    assert _is_plain(doc)
    assert isinstance(doc["c"]["transitions"][0]["entries"], list)
    assert doc == json.loads(capsys.readouterr().out)

    assert cli.main(["gen", "--kind", "grid", "--seed", "2", "--field", "5"]) == 0
    planted = rand_grid(np.random.default_rng(2), field)
    truth = {"Vdims": planted.Vdims, "Wdims": planted.Wdims, "scramble": planted.scramble}
    doc = grid_doc(planted.grid, planted.witness, truth=truth)
    assert _is_plain(doc)
    assert doc == json.loads(capsys.readouterr().out)

    M = _matrices(5)[4]
    assert _is_plain(M.to_json())
    assert M.to_json() == json.loads(dumps(M))


def _count_to_json(monkeypatch) -> list:
    calls = []
    real = Matrix.to_json
    monkeypatch.setattr(Matrix, "to_json", lambda M: calls.append(M.shape) or real(M))
    return calls


def _entries_lists(doc) -> int:
    if isinstance(doc, dict):
        return ("entries" in doc) + sum(_entries_lists(v) for v in doc.values())
    if isinstance(doc, list):
        return sum(_entries_lists(v) for v in doc)
    return 0


def test_gf2_tensor_builds_no_entries_list(tmp_path, capsys, monkeypatch):
    # the CLI writes every GF(2) matrix from its array, never from a list
    paths = []
    for seed in (0, 1):
        path = tmp_path / f"t{seed}.json"
        path.write_text(json.dumps(space_doc(rand_tate(np.random.default_rng(seed), FieldSpec(2), depth=4))))
        paths.append(str(path))
    calls = _count_to_json(monkeypatch)
    assert cli.main(["tensor", "--op", "star", *paths]) == 0
    assert _entries_lists(json.loads(capsys.readouterr().out)) > 0
    assert calls == []


def test_large_prime_decompose_lists_each_matrix_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.json"
    assert cli.main(["gen", "--kind", "grid", "--seed", "1", "--field", "65521", "--out", str(path)]) == 0
    calls = _count_to_json(monkeypatch)
    assert cli.main(["decompose", str(path)]) == 0
    assert len(calls) == _entries_lists(json.loads(capsys.readouterr().out)) > 0
