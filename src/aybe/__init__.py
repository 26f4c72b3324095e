"""Exact construction and verification of skew-symmetric constant
solutions of the associative Yang-Baxter equation, with the induced
quadratic Poisson brackets. All arithmetic is over exact rationals.

`import aybe` loads a module only when one of its names is first used
(PEP 562), and looks the name up in that module on every access."""

import importlib
import sys

# Exact values outgrow Python's 4300-digit int/str limit (a residual squares
# its entries). Every `aybe.*` import runs this file first, so importing any
# part of the package lifts the limit process-wide. Before 3.10.7: no limit.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

# module -> the names re-exported from it
_EXPORTS = {
    "closedform": ("r_closed", "r_closed_block", "r_closed_distinct", "r_closed_m1"),
    "exactlin": ("RatMatrix", "SingularMatrix", "format_rational", "mat_inverse", "parse_rational"),
    "frobenius": ("LambdaSpec", "bar_index", "build_basis", "cocycle_residual", "r_from_algebra"),
    "poisson": ("QuadraticBracket", "jacobi_residual", "matrix_bracket_from_r",
                "scalar_bracket_closed_2m"),
    "tensor": ("Tensor4", "aybe_residual", "check_skew", "compare_tensors", "gl_transform",
               "transpose_dual"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
