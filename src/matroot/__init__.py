"""matroot: the matrix equation X^n = a*I and its factor polynomials.

A small exact/numeric toolkit for studying when a non-simple n-th root of
a*I must annihilate a factor of X^n - a*I: factor-polynomial evaluation
over exact-rational, real, and complex backends, explicit witness
constructions, closed-form decision procedures, and a randomized
cross-checking search, plus a JSON-speaking command line front end.
"""

from .core import (
    BACKENDS,
    COMPLEX,
    DEFAULT_TOLERANCE,
    RATIONAL,
    REAL,
    BackendMismatch,
    DimensionMismatch,
    Matrix,
    MatrixError,
    Tolerance,
    as_backend,
    block_diag,
    determinant,
    identity,
    is_zero,
    mat_add,
    mat_eq,
    mat_mul,
    mat_pow,
    mat_sub,
    matrix_from_json,
    matrix_to_json,
    rotation,
    scalar_matrix,
    scalar_matrix_like,
    scalar_mul,
    zeros,
)
from .factors import (
    ConventionError,
    RootConvention,
    TriangularParams,
    exact_nth_root,
    geometric_factor_sum,
    lemma1_root_classifier,
    odd_factorization_product,
    quadratic_factor_eval,
    triangular_power_formula,
)
from .constructions import (
    CaseTag,
    Witness,
    case_counterexample,
    complex_counterexample,
    conjugate_matrix,
    conjugate_random,
    scale_from_unit,
    scale_to_unit,
    shift_nilpotent,
    swap_block,
    theorem2_counterexample,
    witness_from_json,
    witness_to_json,
)
from .instances import ApplicabilityError, ProblemInstance, Regime, classify_regime
from .theorems import (
    Verdict,
    VerdictMode,
    decide,
    evaluate,
    generate_candidates,
    is_quarantined,
    minus_identity_root_exists,
    search_counterexample,
    sentence1_holds_for,
    sentence2_holds_for,
    theorem1_holds,
    theorem2_holds,
    verdict_to_json,
    verify_witness,
)

__version__ = "0.1.0"
