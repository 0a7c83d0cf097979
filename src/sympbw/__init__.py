"""Exact-arithmetic PBW degenerations for the symplectic Lie algebras.

The library computes, for a dominant weight of sp(2n): the integral points
of the Dyck-path polytope that index a monomial basis of the degenerate
module, the straightening law presenting that module as a polynomial ring
modulo an ideal, the fundamental-weight peeling of the point set, and an
independent tensor-space realization used to cross-check every dimension
count.  All arithmetic is exact; nothing here floats.
"""

from .decomp import (
    MinimalMarker,
    binomial_identity_check,
    fundamental_count,
    fundamental_points,
    minimal_marker,
    peel,
    peel_completely,
)
from .dyck import enumerate_paths, is_dyck_path
from .grmod import (
    SparsePolynomial,
    base_relations,
    ideal_generators,
    minimal_violations,
    monomial_compare,
    normal_form,
    order_key,
    partial_op,
    quotient_graded_dims,
    straightening_element,
    straightening_plan,
    violated_inequality,
)
from .linalg import IncrementalBasis
from .oracle import (
    RepresentationSpace,
    build_module,
    graded_action,
    monomial_rank,
    pbw_filtration_dims,
    tensor_cartan_dims,
)
from .polytope import (
    character,
    contains,
    enumerate_points,
    freudenthal_multiplicities,
    graded_character,
    inequalities,
    point_count,
    weyl_dim,
)
from .rootsys import (
    BarredIndex,
    ChevalleyRealization,
    DominantWeight,
    PositiveRoot,
    chevalley_realization,
    make_root,
    path_bound,
    positive_roots,
    simple_root,
    validate_weight,
)

__all__ = [
    "BarredIndex",
    "ChevalleyRealization",
    "DominantWeight",
    "IncrementalBasis",
    "MinimalMarker",
    "PositiveRoot",
    "RepresentationSpace",
    "SparsePolynomial",
    "base_relations",
    "binomial_identity_check",
    "build_module",
    "character",
    "chevalley_realization",
    "contains",
    "enumerate_paths",
    "enumerate_points",
    "freudenthal_multiplicities",
    "fundamental_count",
    "fundamental_points",
    "graded_action",
    "graded_character",
    "ideal_generators",
    "inequalities",
    "is_dyck_path",
    "make_root",
    "minimal_marker",
    "minimal_violations",
    "monomial_compare",
    "monomial_rank",
    "normal_form",
    "order_key",
    "partial_op",
    "path_bound",
    "pbw_filtration_dims",
    "peel",
    "peel_completely",
    "point_count",
    "positive_roots",
    "quotient_graded_dims",
    "simple_root",
    "straightening_element",
    "straightening_plan",
    "tensor_cartan_dims",
    "validate_weight",
    "violated_inequality",
    "weyl_dim",
]
