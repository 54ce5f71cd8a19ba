"""Certified numerics for Schur multipliers on Schatten classes.

Norm computations return brackets [lower, upper] with machine-checkable
witnesses on both sides; structural identities are verified exactly; the
predual decomposition norm is searched constructively.  Sizes are desk
scale by design (n up to 64 for plain norms, smaller for doubled-index
maps); honesty comes from certificates, not solver theory.
"""

from .ascent import AscentOptions, AscentResult, norm_ascent
from .core import (
    INF,
    InputError,
    NormBracket,
    ResourceError,
    SchattenIndex,
    VERSION,
    as_index,
    conjugate_index,
    random_matrix,
    schatten_norm,
    schur_product,
    trace_pairing,
    truncate,
)
from .gamma2 import (
    CertificateCheck,
    Gamma2Certificate,
    check_certificate,
    gamma2,
)
from .herz import (
    HerzDecomposition,
    HerzNormResult,
    HerzOptions,
    contract_diagonal,
    contract_product,
    herz_norm,
    herz_schur_product,
    herz_tensor,
    herz_truncate,
    matrix_product,
    pair_with_multiplier,
    represent,
    submultiplicativity_check,
)
from .isometry import (
    DeviationWitness,
    DftTerm,
    IsometryVerdict,
    classify_isometric,
    dft_decompose,
    isometry_forward_check,
    isometry_witness_search,
    sign_average_entry,
)
from .multipliers import (
    LinearOperatorOnSp,
    averaging_projection,
    averaging_projection_grid,
    cb_norm_ladder,
    inclusion_monotonicity_report,
    multiplier_norm,
)
from .structure import (
    column_splice,
    diag_embed,
    diag_mask,
    diag_slice,
    partial_isometry_check,
    product_symbol,
    row_splice,
    splice_adjoint_defect,
    verify_diag_embed_diagram,
    verify_product_diagram,
)
from .verify import DEFAULT_P_GRID, SUITES, run_suite

__version__ = VERSION

__all__ = [
    "AscentOptions", "AscentResult", "norm_ascent",
    "DEFAULT_P_GRID", "VERSION",
    "INF", "InputError", "NormBracket", "ResourceError", "SchattenIndex",
    "as_index", "conjugate_index", "random_matrix", "schatten_norm",
    "schur_product", "trace_pairing", "truncate",
    "CertificateCheck", "Gamma2Certificate", "check_certificate", "gamma2",
    "HerzDecomposition", "HerzNormResult", "HerzOptions",
    "contract_diagonal", "contract_product", "herz_norm",
    "herz_schur_product", "herz_tensor", "herz_truncate", "matrix_product",
    "pair_with_multiplier", "represent", "submultiplicativity_check",
    "DeviationWitness", "DftTerm", "IsometryVerdict", "classify_isometric",
    "dft_decompose", "isometry_forward_check", "isometry_witness_search",
    "sign_average_entry",
    "LinearOperatorOnSp", "averaging_projection",
    "averaging_projection_grid", "cb_norm_ladder",
    "inclusion_monotonicity_report", "multiplier_norm",
    "column_splice", "diag_embed", "diag_mask", "diag_slice",
    "partial_isometry_check", "product_symbol", "row_splice",
    "splice_adjoint_defect", "verify_diag_embed_diagram",
    "verify_product_diagram",
    "SUITES", "run_suite",
    "__version__",
]
