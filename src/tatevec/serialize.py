"""JSON forms for every object kind.

Documents are plain dicts; matrices are {"rows", "cols", "entries"} with
entries reduced mod p on load, and every top-level document carries its
field.  Parse errors name the path into the offending document.  `_matrices`
is the one reader of matrix documents, `parse_matrix` its one-document case;
a space document of a kind not in `SPACE_KINDS` is named at its `kind` first.

The builders (`space_tree`, `grid_tree`) return document trees: dicts,
lists, tuples, strings, ints, booleans and None, with the `Matrix` itself
wherever a matrix document goes, and never a float.  `dumps` is the one
writer of canonical text (sorted keys, no spaces): a matrix over GF(p >= 11)
is written from `Matrix.to_json`, and one over GF(p < 11), whose entries
are single digits, straight from its array.  `space_doc` and `grid_doc`
return the plain JSON form of the same documents.
"""

from __future__ import annotations

import json
import numbers
from typing import Optional

import numpy as np

from .bidirected import (
    BidirectedGrid,
    GridDualityWitness,
    PairingEntry,
    PairingFamily,
    SESWitness,
    misshapen_map,
)
from .exactla import FieldSpec, Matrix, MatrixStack
from .spaces import (
    TAIL_KINDS,
    DescriptorViolation,
    FinVect,
    IndLCObj,
    IndTower,
    ProDiscObj,
    TailDescriptor,
    TateObj,
    Tower,
    _map_shape,
    builtin_space,
)


class ParseError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _need(doc, key, path):
    if not isinstance(doc, dict):
        raise ParseError(path, "expected an object")
    if key not in doc:
        raise ParseError(f"{path}.{key}", "missing")
    return doc[key]


def _int(x, path) -> int:
    # int() would truncate a float and take a boolean or a numeric string
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ParseError(path, "expected an integer")
    return int(x)


# an axis below 2^31 keeps the Kronecker product of two axes inside int64
_AXIS_LIMIT = 2**31


def _axis(x, path) -> int:
    d = _int(x, path)
    if d >= _AXIS_LIMIT:
        raise ParseError(path, "dimension of 2^31 or more")
    return d


def _dim(x, path) -> int:
    d = _axis(x, path)
    if d < 0:
        raise ParseError(path, "negative dimension")
    return d


def _list(raw, path) -> list:
    if not isinstance(raw, list):
        raise ParseError(path, "expected a list")
    return raw


def parse_field(doc, path="$") -> FieldSpec:
    p = _int(_need(doc, "field", path), f"{path}.field")
    try:
        return FieldSpec(p)
    except ValueError as e:
        raise ParseError(f"{path}.field", str(e))


def _matrices(field, raw: list, path_of) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shapes and entries of a list of matrix documents, for
    `MatrixStack.from_entries`: (rows, cols, row-major entries of all of
    them, reduced mod p).  Each document's structure is checked in order;
    one that is not plain JSON has its first defect named under `path_of(i)`
    or, well formed (numpy integers, say), is read as the plain document it
    stands for.  One `np.array` converts every entry; on one outside int64,
    the first is named.
    """
    shapes, entries = [], []
    for i, x in enumerate(raw):
        rows = cols = values = None
        if type(x) is dict:
            rows, cols, values = x.get("rows"), x.get("cols"), x.get("entries")
        plain = type(rows) is int and type(cols) is int and type(values) is list
        plain = plain and 0 <= rows < _AXIS_LIMIT and 0 <= cols < _AXIS_LIMIT and len(values) == rows * cols
        plain = plain and not set(map(type, values)) - {int}
        if not plain:
            at = path_of(i)
            rows = _dim(_need(x, "rows", at), f"{at}.rows")
            cols = _dim(_need(x, "cols", at), f"{at}.cols")
            values = _list(_need(x, "entries", at), f"{at}.entries")
            values = [_int(v, f"{at}.entries[{j}]") for j, v in enumerate(values)]
            if len(values) != rows * cols:
                raise ParseError(at, f"bad matrix: {rows}x{cols} matrix needs {rows * cols} entries, got {len(values)}")
            _matrices(field, [{"rows": rows, "cols": cols, "entries": values}], lambda _: at)  # its int64 range
        shapes.append((rows, cols))
        entries += values
    try:
        flat = np.array(entries, dtype=np.int64)
    except OverflowError:  # numpy's int64 conversion names no entry
        i, j = next((i, j) for i, x in enumerate(raw) for j, v in enumerate(x["entries"]) if not -(2**63) <= v < 2**63)
        raise ParseError(f"{path_of(i)}.entries[{j}]", "entry outside the int64 range") from None
    shapes = np.array(shapes, dtype=np.int64).reshape(-1, 2)
    return shapes[:, 0], shapes[:, 1], np.mod(flat, field.p)


def parse_matrix(field: FieldSpec, doc, path="$") -> Matrix:
    """The matrix of one document, read by `_matrices`."""
    (rows,), (cols,), entries = _matrices(field, [doc], lambda _: path)
    return Matrix._of(field, entries.reshape(rows, cols))


# In a tree with no floats the only NaN is a slot written by `dumps`, and the
# text below, whose quotes are unescaped, cannot occur inside a string.
_SLOT = b'"entries":NaN'


def dumps(tree) -> str:
    """The canonical JSON text of a document tree.

    The encoder calls `leaf` on the matrices in output order.  Over GF(p < 11)
    `leaf` records the matrix and leaves a NaN slot for its entries.  The
    digits of all recorded matrices are written once, into one uint8 buffer
    of "d," pairs (one little-endian uint16 per entry), where each matrix's
    last comma becomes its "]".  The encoder's text is joined around
    memoryview slices of that buffer, the k-th matrix's in the k-th slot,
    and decoded once.
    """
    small = []

    def leaf(M: Matrix) -> dict:
        if M.field.p >= 11:
            return M.to_json()
        small.append(M)
        return {"rows": M.rows, "cols": M.cols, "entries": float("nan")}

    text = json.dumps(tree, sort_keys=True, separators=(",", ":"), default=leaf)
    if not small:
        return text
    sizes = np.array([M.data.size for M in small], dtype=np.int64)
    ends = 2 * np.cumsum(sizes)
    pairs = np.empty(int(ends[-1]) // 2, dtype="<u2")  # one "d," per entry, the digit's byte first
    np.concatenate([M.data.reshape(-1) for M in small], out=pairs, casting="unsafe")
    pairs += ord("0") | ord(",") << 8
    buf = pairs.view(np.uint8)
    buf[ends[sizes > 0] - 1] = ord("]")
    digits = memoryview(buf)
    parts = text.encode("ascii").split(_SLOT)  # the encoder escapes every non-ASCII character
    out = [parts[0]]
    for start, end, rest in zip((ends - 2 * sizes).tolist(), ends.tolist(), parts[1:]):
        out += (b'"entries":[', digits[start:end], rest) if end > start else (b'"entries":[]', rest)
    return b"".join(out).decode("ascii")


def _plain(tree):
    """The plain JSON form of a tree, as a reader of its text gets it."""
    return json.loads(dumps(tree))


def tail_doc(t: TailDescriptor) -> dict:
    out = {"kind": t.kind}
    if t.bound is not None:
        out["c"] = t.bound
    return out


def parse_tail(doc, path="$") -> TailDescriptor:
    if doc is None:
        return TailDescriptor()
    kind = _need(doc, "kind", path)
    bound = doc.get("c")
    if bound is not None:
        bound = _int(bound, f"{path}.c")
    try:
        return TailDescriptor(kind, bound)
    except ValueError as e:
        # a bound that is negative, or given to a known kind that takes none, is named at its own path
        on_bound = bound is not None and (bound < 0 or kind in TAIL_KINDS)
        raise ParseError(f"{path}.c" if on_bound else path, str(e))


# ---------------------------------------------------------------------------
# Space presentations
# ---------------------------------------------------------------------------


def space_doc(obj, depth: Optional[int] = None) -> dict:
    """The plain JSON document of a presentation (see `space_tree`)."""
    return _plain(space_tree(obj, depth))


def space_tree(obj, depth: Optional[int] = None) -> dict:
    """The document tree of a presentation; lazy objects are materialized to
    `depth`."""
    if isinstance(obj, FinVect):
        return {"kind": "finvect", "dim": obj.dim}
    if isinstance(obj, (Tower, IndTower)):
        d = obj.depth if obj.depth is not None else depth
        if d is None:
            raise ValueError("serializing an unbounded system needs a depth")
        dims, maps = obj.prefix(d)
        return {"kind": obj.kind, "field": obj.field.p, "dims": dims, "transitions": maps, "tail": tail_doc(obj.tail)}
    if isinstance(obj, TateObj):
        return {
            "kind": "tate",
            "field": obj.field.p,
            "c": space_tree(obj.cLattice, depth),
            "d": space_tree(obj.dLattice, depth),
        }
    if isinstance(obj, (IndLCObj, ProDiscObj)):
        if obj.count is None and depth is None:
            raise ValueError(f"serializing an unbounded {obj.kind} family needs a depth")
        count = obj.count if obj.count is not None else depth
        return {
            "kind": obj.kind,
            "field": obj.field.p,
            obj.parts_key: [space_tree(part, depth) for part in obj.parts(count)],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _system_maps(field: FieldSpec, kind: str, dims: list[int], raw, path):
    """The (rows, cols, entries) of a system's maps from `_matrices`; once all
    are read, the first that breaks `_map_shape` is named at its own path."""
    rows, cols = _map_shape(kind, dims[:-1], dims[1:])
    if not isinstance(raw, list) or len(raw) != len(rows):
        raise ParseError(path, f"expected {len(rows)} maps")
    r, c, entries = _matrices(field, raw, lambda i: f"{path}[{i}]")
    for i, got in enumerate(zip(r.tolist(), c.tolist())):
        if got != (rows[i], cols[i]):
            raise ParseError(f"{path}[{i}]", f"expected shape {(rows[i], cols[i])}, got {got}")
    return r, c, entries


def _part(field: FieldSpec, cls: type, doc, path):
    """The part at `path`, a `cls` over `field`; one made of parts is rejected unread."""
    part = None if _need(doc, "kind", path) in ("tate", "indlc", "prodisc") else parse_space(doc, path)
    if not isinstance(part, cls):
        raise ParseError(path, f"expected kind {cls.kind!r}")
    if part.field != field:
        raise ParseError(f"{path}.field", f"GF({part.field.p}) part of a GF({field.p}) document")
    return part


# the kinds a space document may have
SPACE_KINDS = ("finvect", "builtin", "tower", "indtower", "tate", "indlc", "prodisc")


def parse_space(doc, path="$"):
    kind = _need(doc, "kind", path)
    if kind not in SPACE_KINDS:  # named before any other field is read
        raise ParseError(f"{path}.kind", f"unknown kind {kind!r}")
    if kind == "finvect":
        return FinVect(_dim(_need(doc, "dim", path), f"{path}.dim"))
    if kind == "builtin":
        field = parse_field(doc, path)
        name, n = _need(doc, "name", path), _dim(doc.get("n", 0), f"{path}.n")
        try:
            return builtin_space(name, field, n)
        except ValueError as e:
            raise ParseError(f"{path}.name", str(e))
    field = parse_field(doc, path)
    if kind in ("tower", "indtower"):
        raw = _list(_need(doc, "dims", path), f"{path}.dims")
        if not raw:
            raise ParseError(f"{path}.dims", "a system needs at least one level")
        dims = [_dim(d, f"{path}.dims[{i}]") for i, d in enumerate(raw)]
        r, c, entries = _system_maps(field, kind, dims, _need(doc, "transitions", path), f"{path}.transitions")
        shapes = zip(r.tolist(), c.tolist(), np.cumsum(r * c).tolist())
        maps = [Matrix._of(field, entries[e - a * b : e].reshape(a, b)) for a, b, e in shapes]
        tail = parse_tail(doc.get("tail"), f"{path}.tail")
        obj = (Tower if kind == "tower" else IndTower).from_prefix(field, dims, maps, tail=tail)
        try:
            obj.prefix(len(dims))  # memoized, each map with its one check against the tail
        except DescriptorViolation as e:
            raise ParseError(f"{path}.tail", str(e))
        return obj
    if kind == "tate":
        c = _part(field, Tower, _need(doc, "c", path), f"{path}.c")
        d = _part(field, IndTower, _need(doc, "d", path), f"{path}.d")
        return TateObj(c, d)
    family = IndLCObj if kind == "indlc" else ProDiscObj
    key = family.parts_key
    raw = _list(_need(doc, key, path), f"{path}.{key}")
    parts = [_part(field, family.part_type, x, f"{path}.{key}[{i}]") for i, x in enumerate(raw)]
    return family.from_list(field, parts)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def grid_doc(
    G: BidirectedGrid,
    W: Optional[SESWitness] = None,
    pairings: Optional[dict] = None,
    pd: Optional[GridDualityWitness] = None,
    truth: Optional[dict] = None,
) -> dict:
    """The plain JSON document of a grid (see `grid_tree`)."""
    return _plain(grid_tree(G, W, pairings, pd, truth))


def grid_tree(
    G: BidirectedGrid,
    W: Optional[SESWitness] = None,
    pairings: Optional[dict] = None,
    pd: Optional[GridDualityWitness] = None,
    truth: Optional[dict] = None,
) -> dict:
    """The document tree of a grid, with its witness, pairings, duality
    witness and ground truth when given.  Every table of maps is written as
    the row-major table it is held as."""
    out = {
        "kind": "grid",
        "field": G.field.p,
        "m": G.m,
        "n": G.n,
        "dims": G.dims,
        "right": G.right,
        "up": G.up,
    }
    if W is not None:
        out["ses"] = {
            "Vdims": W.Vdims,
            "Vmaps": W.Vmaps,
            "Wdims": W.Wdims,
            "Wmaps": W.Wmaps,
            "inj": W.inj,
            "surj": W.surj,
        }
    if pairings is not None:

        def window(e):
            return None if e is None else {"target": [e.target[0] + 1, e.target[1] + 1], "matrix": e.matrix}

        out["pairings"] = {key: [[window(e) for e in row] for row in fam.entries] for key, fam in pairings.items()}
    if pd is not None:
        out["pd"] = {"f": pd.f, "g": pd.g}
    if truth is not None:
        out["truth"] = truth
    return out


def _table(raw, rows, cols, path, parse):
    if not isinstance(raw, list) or len(raw) != rows:
        raise ParseError(path, f"expected {rows} rows")
    out = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{path}[{r}]", f"expected {cols} entries")
        out.append([parse(x, f"{path}[{r}][{c}]") for c, x in enumerate(row)])
    return out


def _matrix_grid(field, rows, cols, raw, path) -> MatrixStack:
    """The stack of a rows x cols table of matrix documents."""
    flat = [x for row in _table(raw, rows, cols, path, lambda x, p: x) for x in row]
    r, c, entries = _matrices(field, flat, lambda i: f"{path}[{i // cols}][{i % cols}]")
    return MatrixStack.from_entries(field, r.reshape(rows, cols), c.reshape(rows, cols), entries)


def _dims(raw, length, path) -> list[int]:
    if not isinstance(raw, list) or len(raw) != length:
        raise ParseError(path, f"expected {length} dimensions")
    return [_dim(d, f"{path}[{i}]") for i, d in enumerate(raw)]


def parse_grid(doc, path="$"):
    """Returns (grid, witness-or-None, pairings dict, pd-or-None, truth)."""
    if _need(doc, "kind", path) != "grid":
        raise ParseError(f"{path}.kind", "expected 'grid'")
    field = parse_field(doc, path)
    m, n = _int(_need(doc, "m", path), f"{path}.m"), _int(_need(doc, "n", path), f"{path}.n")
    for key, size in (("m", m), ("n", n)):
        if size < 1:
            raise ParseError(f"{path}.{key}", "a grid needs at least one row and one column")
    dims = _table(_need(doc, "dims", path), m, n, f"{path}.dims", _dim)
    # every map is read before any shape is compared with dims
    right = _matrix_grid(field, m, max(n - 1, 0), _need(doc, "right", path), f"{path}.right")
    up = _matrix_grid(field, max(m - 1, 0), n, _need(doc, "up", path), f"{path}.up")
    wrong = misshapen_map(dims, (right.rows, right.cols), (up.rows, up.cols))
    if wrong is not None:
        raise ParseError(f"{path}.{wrong[0]}", wrong[1])
    G = BidirectedGrid.from_stacks(field, dims, right, up)
    W = None
    if doc.get("ses") is not None:
        s = doc["ses"]
        sp = f"{path}.ses"
        Vdims = _dims(_need(s, "Vdims", sp), n, f"{sp}.Vdims")
        Wdims = _dims(_need(s, "Wdims", sp), m, f"{sp}.Wdims")
        # V is a direct system, W an inverse one (see SESWitness)
        Vmaps, Wmaps = (
            MatrixStack.from_entries(field, *_system_maps(field, kind, ds, _need(s, key, sp), f"{sp}.{key}"))
            for kind, ds, key in (("indtower", Vdims, "Vmaps"), ("tower", Wdims, "Wmaps"))
        )
        inj = _matrix_grid(field, m, n, _need(s, "inj", sp), f"{sp}.inj")
        surj = _matrix_grid(field, m, n, _need(s, "surj", sp), f"{sp}.surj")
        W = SESWitness.from_stacks(Vdims, Vmaps, Wdims, Wmaps, inj, surj)

    def entry(cell, pth):
        if cell is None:
            return None
        target = _need(cell, "target", pth)
        if not isinstance(target, list) or len(target) != 2:
            raise ParseError(f"{pth}.target", "expected [row, column]")
        tr, tc = (_int(x, f"{pth}.target") - 1 for x in target)
        return PairingEntry((tr, tc), parse_matrix(field, _need(cell, "matrix", pth), f"{pth}.matrix"))

    given = doc.get("pairings")
    if given is not None and not isinstance(given, dict):
        raise ParseError(f"{path}.pairings", "expected an object")
    pairings = {}
    for key, kind in (("mu", "product"), ("lambda", "coproduct")):
        raw = (given or {}).get(key)
        if raw is None:
            continue
        pairings[key] = PairingFamily(kind, _table(raw, m, n, f"{path}.pairings.{key}", entry))
    pd = None
    if doc.get("pd") is not None:
        # f is read in full before g is looked up
        f, g = (_matrix_grid(field, m, n, _need(doc["pd"], k, f"{path}.pd"), f"{path}.pd.{k}") for k in "fg")
        pd = GridDualityWitness(f.matrices(), g.matrices())
    return G, W, pairings, pd, doc.get("truth")
