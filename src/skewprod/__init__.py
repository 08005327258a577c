"""Exact attraction-rate analysis of holomorphic skew-product germs.

Given f(z, w) = (p(z), q(z, w)) fixing the origin, the package
classifies f by the Newton polygon of q, predicts weight and
attraction-rate data for every iterate f^n, and verifies each
prediction against a brute-force exact iteration oracle.  All
arithmetic is over arbitrary-precision rationals; nothing is floating
point.
"""

from .classify import (
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    CaseData,
    Interval,
    case_variants,
    classify,
    equality_interval,
    r_map,
    r_step,
    weight_intervals,
)
from .exact import INF, format_exact, parse_rational
from .fuzz import FuzzConfig, FuzzSummary, fuzz
from .germ import (
    GermFileError,
    InvalidGermError,
    SkewGerm,
    compose_germ,
    format_germ_file,
    iterate_germ,
    parse_germ_file,
    substitute,
)
from .growth import gamma_n, geometric_sum
from .newton import NewtonPolygon, newton_polygon, weight
from .poly import (
    KERNEL_BACKEND,
    PolyParseError,
    ResourceCapError,
    ResourceLimits,
    SparsePoly2,
    format_poly,
    parse_poly,
)
from .predict import (
    AsymptoticRate,
    CqnBounds,
    RatePrediction,
    VertexClaim,
    asymptotic,
    critical_coeff_sequence,
    dominant_term,
    predict,
    predict_adjacent_vertices,
    predict_cfn,
    predict_cqn_bounds,
    predict_weight,
    theorem_bracket,
    vanishing_sum,
)
from .verify import VerificationReport, verify_germ

__version__ = "0.1.0"
