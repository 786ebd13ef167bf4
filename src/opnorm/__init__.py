"""Certified operator p-norm bounds for complex matrices on l^p(n).

Exact values where structure allows it (balanced line sums, circulants,
cyclic Hankel layouts, rank-one block tensors, log-affine anchor pairs),
interpolation upper bounds and attained lower bounds everywhere else.
"""

from .core import (
    INF,
    Exponent,
    adjoint,
    as_exponent,
    as_matrix,
    as_square,
    as_vector,
    dual_exponent,
    vec_norm,
)
from .estimator import (
    Analysis,
    AscentResult,
    CertificateError,
    analyze,
    ascent_lower_bound,
    best_lower_bound,
    certified_bound,
    eigen_lower_bound,
    oracle_norm,
    oracle_search,
)
from .exact import (
    AnchorNorms,
    anchor_norms,
    norm_inf,
    norm_inf_attained,
    norm_one,
    norm_one_attained,
    norm_two,
)
from .interp import (
    LogAffineReport,
    NormBound,
    PNormProfile,
    default_grid,
    is_log_affine,
    la_envelope,
    la_report_from_anchors,
    profile,
    riesz_thorin_bound,
    upper_bound,
    upper_bound_from_anchors,
)
from .matio import MatrixParseError, read_matrix, write_matrix
from .structured import (
    Circulant,
    HankelMod,
    LAWitness,
    TensorRankOne,
    UnitaryPermutation,
    as_circulant,
    as_hankel,
    as_tensor_rank_one,
    as_unitary_permutation,
    block_grid_bound,
    circulant_two_norm,
    classify_circulant_la,
    column_embed,
    densify,
    direct_sum,
    doubly_balanced_norm,
    hankel_factor,
    magic3,
    magic4,
    random_unitary_permutation,
    row_embed,
    split_direct_sum,
    tensor_norm,
)

__version__ = "0.1.0"
