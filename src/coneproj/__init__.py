"""Metric projection onto closed convex cones and order-isotonicity analysis."""

from .cones import (
    ConeFormatError,
    DimensionMismatchError,
    Lorentz,
    MonotoneNonneg,
    Orthant,
    PolyhedralH,
    PolyhedralV,
    SignedOrthant,
    Simplicial,
    UnsupportedConeError,
    cone_from_dict,
    cone_margin,
    cone_to_dict,
    dual,
    facet_normals,
    generator_matrix,
    gram,
    is_proper,
    load_cone,
    membership,
    save_cone,
    sign_flip,
)
from .isotonic import (
    ContainmentReport,
    Counterexample,
    FalsifierConfig,
    Obstruction,
    OrthantIsotoneReport,
    SubdualWitness,
    alternatives_check,
    certify_necessary,
    check_subdual,
    falsify,
    leq,
    orthant_isotone_recognize,
    sign_flip_search,
    sign_flip_search_gram,
    triple_obstruction,
    verify_certificate,
)
from .kernels import (
    LpResult,
    NonConvergenceError,
    lp_feasible,
    nnls,
    pava,
)
from .projections import (
    ProjectionResult,
    moreau,
    project,
    project_oracle,
)

__version__ = "0.1.0"
