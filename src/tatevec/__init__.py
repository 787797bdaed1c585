"""Exact GF(p) computations with linearly topologized vector spaces.

Finite truncations of pro/ind systems of finite-dimensional spaces,
topological duality, completed * and ! tensor products, splitting
algorithms, and the block-diagonal decomposition of bidirected systems.
"""

from .exactla import (
    FieldSpec,
    Matrix,
    factor_through,
    kron,
    solve_linear,
)
from .spaces import (
    FilteredSpace,
    FinVect,
    IndLCObj,
    IndTower,
    LinMap,
    ProDiscObj,
    TailDescriptor,
    TateObj,
    Tower,
    builtin_space,
    is_tate_verdict,
    lattice_check,
    materialize,
    normalize_indtower,
    normalize_tower,
)
from .duality import (
    bidual_check,
    dual_object,
    ev_witness,
    extend_functional,
    self_dual_decompose,
)
from .tensor import (
    check_tensor_duality,
    embed_tate,
    hom_via_tensor,
    tensor_bang_tate,
    tensor_families,
    tensor_star_tate,
    tensor_systems,
)
from .splitting import lift_splitting, split_filtered_ses, topological_complement
from .bidirected import (
    BidirectedGrid,
    PairingFamily,
    SESWitness,
    SplitGrid,
    assemble_pairing,
    check_pd_intertwine,
    dual_grid,
    grid_decomposition,
    kappa_check,
    split_grid,
    validate_grid,
)

__all__ = [
    "FieldSpec",
    "Matrix",
    "solve_linear",
    "factor_through",
    "kron",
    "FinVect",
    "LinMap",
    "Tower",
    "IndTower",
    "TateObj",
    "IndLCObj",
    "ProDiscObj",
    "FilteredSpace",
    "TailDescriptor",
    "materialize",
    "builtin_space",
    "normalize_tower",
    "normalize_indtower",
    "lattice_check",
    "is_tate_verdict",
    "dual_object",
    "bidual_check",
    "self_dual_decompose",
    "extend_functional",
    "ev_witness",
    "tensor_systems",
    "tensor_families",
    "tensor_star_tate",
    "tensor_bang_tate",
    "embed_tate",
    "hom_via_tensor",
    "check_tensor_duality",
    "lift_splitting",
    "split_filtered_ses",
    "topological_complement",
    "BidirectedGrid",
    "SESWitness",
    "SplitGrid",
    "PairingFamily",
    "validate_grid",
    "split_grid",
    "grid_decomposition",
    "kappa_check",
    "dual_grid",
    "assemble_pairing",
    "check_pd_intertwine",
]

__version__ = "0.1.0"
