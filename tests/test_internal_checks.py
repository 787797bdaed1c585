"""Internal checks on kernel results raise AssertionError("internal: ...").

A plain `assert` vanishes under `python -O`; these checks must not.  Each
case makes one `inverse`, `rref_stack` or `ChainLimit.coords` call report
failure, drops the corrections of the flag induction or of the grid
split, or takes a pivot from a level of the flag induction, and expects
the named internal error or split-check failure, not a crash further on.
Identities that the construction itself proves (the lifted splitting's,
the normalized systems' transitions and comparisons) are not re-checked,
so they have no case here.  The inverses `lift_splitting`
takes are no internal check either: each decides whether a projection of
the ladder is onto, so a failed one is the caller's ValueError.  The AST
scans, for `assert` statements and for catch-all handlers, cover every
module of the package.
"""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import tatevec
from tatevec import bidirected, splitting
from tatevec.exactla import FieldSpec, Matrix
from tatevec.generators import rand_grid
from tatevec.spaces import FilteredSpace

GF2 = FieldSpec(2)
MODULES = sorted(pathlib.Path(tatevec.__file__).parent.glob("*.py"))


def _fail_call(monkeypatch, module, name, which=1):
    """Make the `which`-th call of module.name return None."""
    real = getattr(module, name)
    calls = []

    def fake(*args):
        calls.append(args)
        return None if len(calls) == which else real(*args)

    monkeypatch.setattr(module, name, fake)


def _monomial_space():
    # k[t]/t^3 in monomial basis (1, t, t^2); flags span{t,t^2} > span{t^2} > 0
    U1 = Matrix(GF2, [[0, 0], [1, 0], [0, 1]])
    U2 = Matrix(GF2, [[0], [0], [1]])
    return FilteredSpace(GF2, 3, [U1, U2, Matrix.zeros(GF2, 3, 0)])


def _planted(m, n):
    return rand_grid(np.random.default_rng(0), GF2, m=m, n=n)


@pytest.mark.parametrize("path", MODULES, ids=[f"tatevec.{p.stem}" for p in MODULES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("path", MODULES, ids=[f"tatevec.{p.stem}" for p in MODULES])
def test_no_catch_all_handlers(path):
    # a bare `except:` or `except Exception:` would turn any defect into the
    # error its handler reports
    def catch_all(handler):
        if handler.type is None:
            return True
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(ast.unparse(t) in ("Exception", "BaseException") for t in types)

    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and catch_all(node)] == []


def test_split_grid_check_names_cell(monkeypatch):
    # without its graph corrections the split leaves an off-diagonal block,
    # which the one final check_split reports with its cell
    planted = rand_grid(np.random.default_rng(0), FieldSpec(65521), m=3, n=3)
    monkeypatch.setattr(bidirected, "_correct", lambda field, C, C_inv, x: (C, C_inv))
    with pytest.raises(AssertionError, match=r"^split check failed: (right|up) map at \(\d+,\d+\)$"):
        bidirected.split_grid(planted.grid, planted.witness)


def test_split_grid_row_one_chain_names_right_map(monkeypatch):
    # row 1's chain corrects its cells first, one _correct per column step;
    # without those n - 1 corrections the right maps of row 1 keep their
    # off-diagonal blocks, and check_split names one of them
    planted = rand_grid(np.random.default_rng(0), FieldSpec(65521), m=3, n=3)
    real, calls = bidirected._correct, []

    def skip_row_one(field, C, C_inv, X):
        calls.append(X)
        return (C, C_inv) if len(calls) < planted.grid.n else real(field, C, C_inv, X)

    monkeypatch.setattr(bidirected, "_correct", skip_row_one)
    with pytest.raises(AssertionError, match=r"^split check failed: right map at \(1,\d+\)$"):
        bidirected.split_grid(planted.grid, planted.witness)


def test_split_grid_change_of_basis(monkeypatch):
    # the one inverse per cell, that of surj @ E, is read off the second
    # elimination of the validation that split_grid runs, of every
    # [surj E | I] at once; surj is onto, so a singular SE is internal
    planted = _planted(2, 2)
    real, calls = bidirected.rref_stack, []

    def fake(field, data):
        calls.append(data)
        R, pivots = real(field, data)
        return R, [[] for _ in pivots] if len(calls) == 2 else pivots

    monkeypatch.setattr(bidirected, "rref_stack", fake)
    with pytest.raises(AssertionError, match="^internal: complement does not project onto W"):
        bidirected.split_grid(planted.grid, planted.witness)


def test_kappa_check_corner(monkeypatch):
    # on a 1 x 1 grid the limit coordinates are read, in order, for: kappa,
    # corner image
    planted = _planted(1, 1)
    split = bidirected.split_grid(planted.grid, planted.witness)
    _fail_call(monkeypatch, bidirected.ChainLimit, "coords", 2)
    with pytest.raises(AssertionError, match="^internal: corner image is not in the iterated colimit"):
        bidirected.kappa_check(split)


def test_lift_splitting_basis(monkeypatch):
    one = Matrix.identity(GF2, 1)
    ladder = splitting.SESLadder(
        i1=Matrix(GF2, [[1], [0]]),
        p1=Matrix(GF2, [[0, 1]]),
        i2=Matrix(GF2, [[1], [0]]),
        p2=Matrix(GF2, [[0, 1]]),
        f=one,
        g=Matrix(GF2, [[1, 1], [0, 1]]),
        h=one,
        pi1=Matrix(GF2, [[1, 0]]),
    )
    # pi2 needs no inverse; the first one is that of p1 @ S1 for s1, which
    # is singular exactly when p1 is not onto
    _fail_call(monkeypatch, splitting, "inverse")
    with pytest.raises(ValueError, match="^row 1: projection is not surjective$"):
        splitting.lift_splitting(ladder)


def test_split_filtered_ses_flags(monkeypatch):
    # without the correction theta each level keeps its greedy complement,
    # whose retraction onto span{1 + t^2} does not respect the flags
    real = splitting._lift
    monkeypatch.setattr(splitting, "_lift", lambda theta, *rest: real(Matrix.zeros(GF2, *theta.shape), *rest))
    with pytest.raises(AssertionError, match="^internal: retraction is not flag-compatible"):
        splitting.split_filtered_ses(_monomial_space(), Matrix(GF2, [[1], [0], [1]]))


def test_split_filtered_ses_pivots(monkeypatch):
    # theta is read off the pivots, which must grow along the flags; a zero
    # flag level that loses A's pivot (column 0 at every level) breaks that
    real = splitting.quotient_level

    def fake(n, A, U):
        lvl = real(n, A, U)
        return lvl if U.cols else dataclasses.replace(lvl, pivots=())

    monkeypatch.setattr(splitting, "quotient_level", fake)
    with pytest.raises(AssertionError, match="^internal: pivots of A do not grow along the flags$"):
        splitting.split_filtered_ses(_monomial_space(), Matrix(GF2, [[1], [0], [1]]))
