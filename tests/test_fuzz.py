"""Single-node mutations of valid documents never crash the CLI.

Each example takes a document written by `gen`, replaces (or deletes) one
node with a float, boolean, negative, huge or wrongly typed value, and runs
the commands that read that kind of document.  Every run must end in exit
code 0, 1 or 2 with no exception escaping `main`; exit code 1 must come with
a grid validation document, never from a crash.  An exit-2 error about a
node two or more levels below `$` is never reported at `$`, nor one about a
node below `$.c` or `$.d` of a Tate document at that part, unless the valid
document gives the same error.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tatevec.cli import main

GEN = {
    "tower": ["--kind", "tower", "--seed", "3"],
    "indtower": ["--kind", "indtower", "--seed", "3"],
    "tate": ["--kind", "tate", "--seed", "3"],
    "grid": ["--kind", "grid", "--m", "2", "--n", "3", "--seed", "3"],
}


def _commands(kind, path):
    if kind == "grid":
        return [["decompose", path], ["dual", path], ["report", path]]
    return [["dual", path], ["report", path]] + [["tensor", "--op", op, path, path] for op in ("star", "bang")]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _nodes(doc, path=()):
    """Paths to every node below the root, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _roots(kind, path):
    """The paths that an error about the node at `path` must not name."""
    if len(path) < 2:
        return set()
    return {"$", f"$.{path[0]}"} if kind == "tate" and path[0] in ("c", "d") else {"$"}


def _mutate(doc, path, value, delete):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.integers(-3, 6),
    st.integers(max_value=-(2**31)),
    st.integers(min_value=2**62, max_value=10**30),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=3),
    st.just({}),
)


@pytest.mark.parametrize("kind", sorted(GEN))
def test_single_node_mutations_exit_cleanly(kind, tmp_path):
    code, out = _run(["gen", *GEN[kind]])
    assert code == 0
    valid = json.loads(out)
    paths = list(_nodes(valid))
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(valid))
    unmutated = {tuple(argv): _run(argv)[1] for argv in _commands(kind, str(doc_path))}

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(index=st.integers(0, len(paths) - 1), value=VALUES, delete=st.booleans())
    def check(index, value, delete):
        doc_path.write_text(json.dumps(_mutate(valid, paths[index], value, delete)))
        for argv in _commands(kind, str(doc_path)):
            code, out = _run(argv)
            assert code in (0, 1, 2)
            if code == 1:
                assert json.loads(out)["kind"] == "validation"
            if code == 2 and json.loads(out)["path"] in _roots(kind, paths[index]):
                assert out == unmutated[tuple(argv)]

    check()
