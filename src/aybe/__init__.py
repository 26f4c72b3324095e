"""Exact construction and verification of skew-symmetric constant
solutions of the associative Yang-Baxter equation, with the induced
quadratic Poisson brackets. All arithmetic is over exact rationals."""

from aybe.closedform import r_closed, r_closed_block, r_closed_distinct, r_closed_m1
from aybe.exactlin import (
    RatMatrix,
    SingularMatrix,
    format_rational,
    mat_inverse,
    parse_rational,
)
from aybe.frobenius import (
    DegenerateForm,
    LambdaSpec,
    bar_index,
    build_basis,
    cocycle_residual,
    make_lambda,
    r_from_algebra,
)
from aybe.poisson import (
    QuadraticBracket,
    jacobi_residual,
    matrix_bracket_from_r,
    scalar_bracket_closed_2m,
    scalar_bracket_from_r,
)
from aybe.tensor import (
    Tensor4,
    aybe_report,
    aybe_residual,
    check_skew,
    compare_tensors,
    gl_transform,
    transpose_dual,
)

__all__ = [
    "DegenerateForm",
    "LambdaSpec",
    "QuadraticBracket",
    "RatMatrix",
    "SingularMatrix",
    "Tensor4",
    "aybe_report",
    "aybe_residual",
    "bar_index",
    "build_basis",
    "check_skew",
    "cocycle_residual",
    "compare_tensors",
    "format_rational",
    "gl_transform",
    "jacobi_residual",
    "make_lambda",
    "mat_inverse",
    "matrix_bracket_from_r",
    "parse_rational",
    "r_closed",
    "r_closed_block",
    "r_closed_distinct",
    "r_closed_m1",
    "r_from_algebra",
    "scalar_bracket_closed_2m",
    "scalar_bracket_from_r",
    "transpose_dual",
]

__version__ = "0.1.0"
