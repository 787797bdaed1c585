"""Deterministic command-line front end.

Subcommands: gen, decompose, dual, tensor, check, report.  Everything is a
pure function of the input bytes, the flags, and the seed; outputs are
canonical JSON (sorted keys, fixed separators) so repeated runs are
byte-identical.  Exit codes: 0 success, 1 check failure, 2 malformed input
(with a JSON error object naming the path into the document).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import bidirected as bd
from .duality import dual_object
from .generators import rand_grid, rand_indtower, rand_tate, rand_tower
from .serialize import SPACE_KINDS, ParseError, dumps, grid_tree, parse_field, parse_grid, parse_space, space_tree
from .spaces import IndLCObj, IndTower, ProDiscObj, TateObj, Tower
from .suites import SUITES
from .tensor import tensor_bang_tate, tensor_families, tensor_star_tate, tensor_systems


def _emit(doc, out_path=None):
    """Write the canonical text of a document tree and a newline to
    `out_path`, or to stdout."""
    text = dumps(doc)
    if not out_path:
        print(text)
        return
    try:
        with open(out_path, "w") as fh:
            print(text, file=fh)
    except OSError as e:  # no such directory, a directory, no permission
        raise ParseError("$.out", f"cannot write {out_path}: {e.strerror}")


def _load_doc(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:  # no such file, a directory, no permission
        raise ParseError("$", f"cannot read {path}: {e.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ParseError("$", f"invalid JSON: {e}")


def _at_least(least, args, *flags):
    """Reject a number flag below `least` as malformed input, as `--field` is."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < least:
            raise ParseError(f"$.{flag}", f"--{flag} must be at least {least}, got {value}")


# the space kinds `gen` draws, in the order `--kind` lists them after grid
_RANDOM_SPACES = {"tate": rand_tate, "tower": rand_tower, "indtower": rand_indtower}


def cmd_gen(args) -> int:
    field = parse_field({"field": args.field})
    _at_least(1, args, "m", "n", "depth")
    _at_least(0, args, "seed")
    rng = np.random.default_rng(args.seed)
    if args.kind == "grid":
        planted = rand_grid(rng, field, m=args.m, n=args.n)
        truth = {"Vdims": planted.Vdims, "Wdims": planted.Wdims, "scramble": planted.scramble}
        doc = grid_tree(planted.grid, planted.witness, truth=truth)
        _emit(doc, args.out)
        if args.out:
            _emit(truth, args.out + ".truth.json")
        return 0
    obj = _RANDOM_SPACES[args.kind](rng, field, depth=args.depth)
    _emit(space_tree(obj, args.depth), args.out)
    return 0


def _on_grid(doc, args, why, fn):
    """Parse a grid document and return fn(G, W); None once the validation
    report of a grid that fails is out."""
    G, W, _, _, _ = parse_grid(doc)
    if W is None:
        raise ParseError("$.ses", why)
    try:
        return fn(G, W)
    except bd.GridValidationError as e:
        _emit({"kind": "validation", "ok": False, "violations": list(e.report.violations)}, args.out)
        return None


def cmd_decompose(args) -> int:
    why = "decomposition needs a short-exact-sequence witness"
    S = _on_grid(_load_doc(args.input), args, why, bd.split_grid)
    if S is None:
        return 1
    G = S.grid
    dec = bd.grid_decomposition(S)
    out = {
        "kind": "decomposition",
        "field": G.field.p,
        "tate": space_tree(dec.tate),
        "iota": dec.opens,  # the inclusions are the open bases
        "pi": dec.pi,
        "opens": dec.opens,
        "opens_grid": dec.opens_grid,
        "corner_basis": dec.corner_basis,
        "basis": S.basis,
        "exchange": {"ok": True, "normal_form": bd.exchange_normal_form(S)},
    }
    _emit(out, args.out)
    return 0


def cmd_dual(args) -> int:
    _at_least(1, args, "depth")
    doc = _load_doc(args.input)
    if isinstance(doc, dict) and doc.get("kind") == "grid":
        out = _on_grid(doc, args, "dualizing a grid needs its witness", bd.dual_grid)
        if out is None:
            return 1
        doc2 = grid_tree(out.grid, out.witness)
        doc2["dual_certificate"] = {"ok": out.certificate_ok, "detail": out.detail}
        _emit(doc2, args.out)
        return 0
    obj = parse_space(doc)
    _emit(space_tree(dual_object(obj), args.depth), args.out)
    return 0


def cmd_tensor(args) -> int:
    _at_least(1, args, "depth")
    a = parse_space(_load_doc(args.a))
    b = parse_space(_load_doc(args.b))
    pairs = {
        ("star", Tower, Tower): tensor_systems,
        ("star", TateObj, TateObj): tensor_star_tate,
        ("star", IndLCObj, IndLCObj): tensor_families,
        ("bang", IndTower, IndTower): tensor_systems,
        ("bang", TateObj, TateObj): tensor_bang_tate,
        ("bang", ProDiscObj, ProDiscObj): tensor_families,
    }
    fn = pairs.get((args.op, type(a), type(b)))
    if fn is None:
        raise ParseError(
            "$", f"no {args.op} tensor for {type(a).__name__} and {type(b).__name__}"
        )
    if a.field != b.field:
        raise ParseError("$", f"no tensor of a GF({a.field.p}) and a GF({b.field.p}) document")
    _emit(space_tree(fn(a, b), args.depth), args.out)
    return 0


def cmd_check(args) -> int:
    failures = 0
    for fn in SUITES[args.suite]:
        failure = fn()
        print(f"[ok] {fn.check_name}" if failure is None else f"[FAIL] {fn.check_name} -- {failure}")
        failures += failure is not None
    return 1 if failures else 0


_SHAPES = {dict: "an object", list: "a list", str: "a string"}


def _shaped(value, kind: type, path: str):
    """value, which a report reads as a JSON object (dict), array (list) or
    string (str)."""
    if not isinstance(value, kind):
        raise ParseError(path, f"expected {_SHAPES[kind]}")
    return value


def cmd_report(args) -> int:
    doc = _shaped(_load_doc(args.input), dict, "$")
    kind = doc.get("kind")
    if kind == "grid":
        G, W, pairings, pd, truth = parse_grid(doc)
        print(f"bidirected grid over GF({G.field.p}): {G.m} x {G.n}")
        print(f"cell dimensions: {G.dims}")
        if W is not None:
            print(f"witness: V dims {W.Vdims}, W dims {W.Wdims}")
            rep = bd.validate_grid(G, W)
            print(f"validation: {'passes' if rep.ok else 'FAILS'}")
            for v in rep.violations:
                print(f"  - {v}")
        if truth:
            print("ground truth sidecar present")
        return 0
    if kind == "decomposition":
        tate = _shaped(doc.get("tate", {}), dict, "$.tate")
        c = _shaped(tate.get("c", {}), dict, "$.tate.c")
        d = _shaped(tate.get("d", {}), dict, "$.tate.d")
        opens = _shaped(doc.get("opens", []), list, "$.opens")
        open_cols = [_shaped(u, dict, f"$.opens[{i}]").get("cols") for i, u in enumerate(opens)]
        ex = _shaped(doc.get("exchange", {}), dict, "$.exchange")
        print(f"decomposition over GF({doc.get('field')})")
        print(f"compact part dims: {c.get('dims')}")
        print(f"discrete part dims: {d.get('dims')}")
        print(f"open subspace dims: {open_cols}")
        print(f"exchange certificate: {'identity' if ex.get('ok') else 'FAILED'}")
        return 0
    if kind == "validation":
        violations = _shaped(doc.get("violations", []), list, "$.violations")
        violations = [_shaped(v, str, f"$.violations[{i}]") for i, v in enumerate(violations)]
        print(f"validation: {'passes' if doc.get('ok') else 'FAILS'}")
        for v in violations:
            print(f"  - {v}")
        return 0
    if kind in SPACE_KINDS:
        obj = parse_space(doc)
        if kind == "finvect":  # a finite-dimensional space has no field
            print(f"finvect presentation of dimension {obj.dim}")
        else:
            print(f"{kind} presentation over GF({doc.get('field')})")
        if kind in ("tower", "indtower"):
            print(f"level dims: {doc.get('dims')}, tail: {doc.get('tail')}")
        return 0
    raise ParseError("$.kind", f"unrecognized document kind: {kind!r}")


@functools.cache  # built on first use, not at import; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tatevec", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a random valid instance with ground truth")
    g.add_argument("--kind", required=True, choices=["grid", *_RANDOM_SPACES])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--field", type=int, default=2)
    g.add_argument("--depth", type=int, default=4)
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen)

    d = sub.add_parser("decompose", help="validate, split, decompose and certify a grid")
    d.add_argument("input")
    d.add_argument("--out", default=None)
    d.set_defaults(fn=cmd_decompose)

    u = sub.add_parser("dual", help="dualize a presentation or a grid")
    u.add_argument("input")
    u.add_argument("--depth", type=int, default=4)
    u.add_argument("--out", default=None)
    u.set_defaults(fn=cmd_dual)

    t = sub.add_parser("tensor", help="completed tensor product of two presentations")
    t.add_argument("--op", required=True, choices=["star", "bang"])
    t.add_argument("--depth", type=int, default=4)
    t.add_argument("a")
    t.add_argument("b")
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_tensor)

    c = sub.add_parser("check", help="run an invariant suite")
    c.add_argument("--suite", required=True, choices=sorted(SUITES))
    c.set_defaults(fn=cmd_check)

    r = sub.add_parser("report", help="human-readable summary of a document")
    r.add_argument("input")
    r.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        _emit({"error": e.message, "path": e.path})
        return 2
