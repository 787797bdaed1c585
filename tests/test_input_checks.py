"""The library's input checks: each rejected call, its exception and its
message, and constructors that refuse parts over another field."""

import pytest

from tatevec.bidirected import PairingFamily
from tatevec.duality import dual_object
from tatevec.exactla import (
    FieldMismatchError,
    FieldSpec,
    Matrix,
    MatrixStack,
    ShapeMismatchError,
    extend_basis,
    intersect_columns,
    solve_linear,
    span_contains,
)
from tatevec.serialize import ParseError, parse_grid, space_tree
from tatevec.spaces import (
    FilteredSpace,
    FinVect,
    IndLCObj,
    ProDiscObj,
    TailDescriptor,
    TateObj,
    Tower,
    constant_tower,
    is_tate_verdict,
    iso_certificate,
    laurent_tate,
    lattice_check,
    materialize,
    polynomial_indtower,
    power_series_tower,
    tate_from_finvect,
)
from tatevec.splitting import SESLadder, lift_splitting
from tatevec.tensor import embed_tate, hom_via_tensor, index_from_pair, pair_from_index, tensor_systems

GF2 = FieldSpec(2)
GF5 = FieldSpec(5)
M = Matrix


def _ladder(**changes):
    """The worked GF(2) ladder of the appendix suite, with some maps replaced."""
    one = Matrix.identity(GF2, 1)
    maps = dict(
        i1=M(GF2, [[1], [0]]),
        p1=M(GF2, [[0, 1]]),
        i2=M(GF2, [[1], [0]]),
        p2=M(GF2, [[0, 1]]),
        f=one,
        g=M(GF2, [[1, 1], [0, 1]]),
        h=one,
        pi1=M(GF2, [[1, 0]]),
    )
    return SESLadder(**{**maps, **changes})


def _grown(dims, maps):
    """A tower whose grow function returns the given levels and maps, unchecked."""
    return Tower(GF2, lambda d, m, n: (dims[len(d) : n], maps[len(m) : n - 1]))


def _flagged():
    return FilteredSpace(GF2, 2, [M(GF2, [[1], [0]]), Matrix.zeros(GF2, 2, 0)])


# (name, call, exception type, anchored message)
REJECTED = [
    ("finvect-negative", lambda: FinVect(-1), ValueError, r"^negative dimension$"),
    ("inverse-of-zero", lambda: GF5.inv(0), ZeroDivisionError, r"^no inverse of 0$"),
    ("filtered-negative", lambda: FilteredSpace(GF2, -1, []), ValueError, r"^negative dimension$"),
    ("filtered-no-flags", lambda: FilteredSpace(GF2, 2, []), ValueError, r"^at least one flag \(the zero flag\) is required$"),
    (
        "filtered-flag-ambient",
        lambda: FilteredSpace(GF2, 2, [Matrix.zeros(GF2, 3, 0)]),
        ShapeMismatchError,
        r"^flag 1 lives in the wrong ambient space$",
    ),
    ("system-level-0", lambda: power_series_tower(GF2).dim(0), ValueError, r"^levels are 1-based$"),
    (
        "transition-past-depth",
        lambda: Tower.from_prefix(GF2, [1, 1], [Matrix.identity(GF2, 1)]).transition(2),
        IndexError,
        r"^transition 2 needs level 3 beyond depth 2$",
    ),
    ("grow-negative-dim", lambda: _grown([1, -1], []).dim(2), ValueError, r"^negative level dimension$"),
    (
        "grow-map-field",
        lambda: _grown([1, 1], [Matrix.identity(GF5, 1)]).transition(1),
        ValueError,
        r"^transition over the wrong field$",
    ),
    (
        "prefix-map-count",
        lambda: Tower.from_prefix(GF2, [1, 1], []),
        ShapeMismatchError,
        r"^prefix needs one transition per adjacent level pair$",
    ),
    (
        "stack-ragged",
        lambda: MatrixStack.of(GF2, [[Matrix.identity(GF2, 1)], []], (2, 1)),
        ShapeMismatchError,
        r"^expected a table of shape \(2, 1\)$",
    ),
    (
        "stack-fields",
        lambda: MatrixStack.of(GF2, [Matrix.identity(GF5, 1)], (1,)),
        FieldMismatchError,
        r"^GF\(5\) matrix in a GF\(2\) table$",
    ),
    (
        "solve-rows",
        lambda: solve_linear(Matrix.identity(GF2, 2), Matrix.zeros(GF2, 3, 1)),
        ShapeMismatchError,
        r"^solve: \(2, 2\) vs rhs \(3, 1\)$",
    ),
    ("extend-rows", lambda: extend_basis(Matrix.zeros(GF2, 3, 1), 2), ShapeMismatchError, r"^S has 3 rows, ambient dim 2$"),
    (
        "intersect-rows",
        lambda: intersect_columns(Matrix.zeros(GF2, 2, 1), Matrix.zeros(GF2, 3, 1)),
        ShapeMismatchError,
        r"^intersection in different ambient spaces$",
    ),
    (
        "span-rows",
        lambda: span_contains(Matrix.zeros(GF2, 2, 1), Matrix.zeros(GF2, 3, 1)),
        ShapeMismatchError,
        r"^solve: \(2, 1\) vs rhs \(3, 1\)$",
    ),
    ("ladder-p-i", lambda: lift_splitting(_ladder(p1=M(GF2, [[1, 0]]))), ValueError, r"^row 1: p o i != 0$"),
    (
        "ladder-not-exact",
        lambda: lift_splitting(_ladder(i2=M(GF2, [[1], [0], [0]]), p2=M(GF2, [[0, 1, 0]]))),
        ValueError,
        r"^row 2: not exact in the middle$",
    ),
    ("ladder-right-square", lambda: lift_splitting(_ladder(h=M(GF2, [[0]]))), ValueError, r"^right square does not commute$"),
    ("pair-0", lambda: index_from_pair(0, 1), ValueError, r"^pair entries are 1-based$"),
    ("index-0", lambda: pair_from_index(0), ValueError, r"^index is 1-based$"),
    (
        "tensor-fields",
        lambda: tensor_systems(power_series_tower(GF2), power_series_tower(GF5)),
        FieldMismatchError,
        r"^tensor over different fields$",
    ),
    (
        "hom-fields",
        lambda: hom_via_tensor(tate_from_finvect(GF2, FinVect(1)), tate_from_finvect(GF5, FinVect(1)), 1),
        FieldMismatchError,
        r"^hom over different fields$",
    ),
    ("embed-target", lambda: embed_tate(laurent_tate(GF2), "x"), ValueError, r"^unknown embedding target 'x'$"),
    ("materialize-type", lambda: materialize("x", 1), TypeError, r"^cannot materialize str$"),
    ("dual-type", lambda: dual_object("x"), TypeError, r"^cannot dualize str$"),
    ("serialize-type", lambda: space_tree("x"), TypeError, r"^cannot serialize str$"),
    (
        "serialize-unbounded-system",
        lambda: space_tree(power_series_tower(GF2)),
        ValueError,
        r"^serializing an unbounded system needs a depth$",
    ),
    (
        "serialize-unbounded-family",
        lambda: space_tree(embed_tate(laurent_tate(GF2), "indlc")),
        ValueError,
        r"^serializing an unbounded indlc family needs a depth$",
    ),
    ("lattice-mode", lambda: lattice_check(_flagged(), Matrix.zeros(GF2, 2, 0), "x"), ValueError, r"^unknown mode 'x'$"),
    (
        "verdict-tate",
        lambda: is_tate_verdict(laurent_tate(GF2), 2),
        TypeError,
        r"^verdict applies to Tower or IndTower presentations$",
    ),
    (
        "iso-tate",
        lambda: iso_certificate(laurent_tate(GF2), laurent_tate(GF2), 2),
        TypeError,
        r"^iso certificates apply to Tower or IndTower presentations$",
    ),
    ("tail-bound-float", lambda: TailDescriptor("bounded-ker", 1.5), ValueError, r"^bound 1\.5 is not an int$"),
    ("tail-bound-bool", lambda: TailDescriptor("bounded-coker", True), ValueError, r"^bound True is not an int$"),
    (
        "tate-c-lattice-kind",
        lambda: TateObj(polynomial_indtower(GF2), power_series_tower(GF2)),
        TypeError,
        r"^c-lattice: expected Tower, got IndTower$",
    ),
    (
        "tate-d-lattice-kind",
        lambda: TateObj(power_series_tower(GF2), power_series_tower(GF2)),
        TypeError,
        r"^d-lattice: expected IndTower, got Tower$",
    ),
    (
        "indlc-part-kind",
        lambda: IndLCObj.from_list(GF2, [polynomial_indtower(GF2)]),
        TypeError,
        r"^summand 1: expected Tower, got IndTower$",
    ),
    (
        "prodisc-part-kind",
        lambda: ProDiscObj.from_list(GF2, [polynomial_indtower(GF2), power_series_tower(GF2)]),
        TypeError,
        r"^factor 2: expected IndTower, got Tower$",
    ),
    ("pairing-kind", lambda: PairingFamily("x", []), ValueError, r"^unknown pairing kind 'x'$"),
    ("parse-grid-kind", lambda: parse_grid({"kind": "tower"}), ParseError, r"^\$\.kind: expected 'grid'$"),
]


@pytest.mark.parametrize("call,error,message", [row[1:] for row in REJECTED], ids=[row[0] for row in REJECTED])
def test_rejected_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_stabilizing_tower_is_tate():
    out = is_tate_verdict(constant_tower(GF2, 2), 4)
    assert out.verdict == "tate"
    assert out.evidence["note"] == "descriptor: transitions eventually isomorphisms"


def test_tate_object_rejects_lattices_over_two_fields():
    with pytest.raises(FieldMismatchError, match=r"^GF\(5\) d-lattice of a GF\(2\) c-lattice$"):
        TateObj(power_series_tower(GF2), polynomial_indtower(GF5))


@pytest.mark.parametrize("family,part", [(IndLCObj, power_series_tower), (ProDiscObj, polynomial_indtower)])
def test_family_rejects_a_part_over_another_field(family, part):
    key = family.parts_key[:-1]
    with pytest.raises(FieldMismatchError, match=rf"^GF\(5\) {key} 2 of a GF\(2\) family$"):
        family.from_list(GF2, [part(GF2), part(GF5)])


def test_filtered_space_rejects_a_flag_over_another_field():
    with pytest.raises(FieldMismatchError, match=r"^GF\(5\) flag 2 of a GF\(2\) space$"):
        FilteredSpace(GF2, 2, [M(GF2, [[1], [0]]), Matrix.zeros(GF5, 2, 0)])
