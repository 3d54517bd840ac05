"""Multiple polylogarithm evaluation and numerical verification of the
depth-parity identities relating values at z and 1/z."""
from .numcore import (
    DEFAULT_CONFIG,
    DomainError,
    EvalConfig,
    EvaluationError,
    bernoulli_factor,
    log_minus,
    zeta,
)
from .words import ArgVector, Index, LinComb, Word, shuffle, stuffle
from .evaluate import (
    EvalResult,
    li,
    li_panels,
    li_series,
    li_shift,
    li_shift_blocks,
    li_shift_jet,
    li_star,
    li_word,
)
from .regularize import Decomposition, TPoly, decompose_shuffle, decompose_stuffle, reg_poly, reg_value, rho, rho_inv
from .parity import (
    ParityReport,
    check_derivative,
    limit_probe,
    main_sides,
    mzv_sides,
    reg_sides,
)
from .selftest import InvariantResult, run_selftest

__all__ = [
    "ArgVector", "DEFAULT_CONFIG", "Decomposition", "DomainError", "EvalConfig",
    "EvalResult", "EvaluationError", "Index", "InvariantResult", "LinComb", "ParityReport", "TPoly",
    "Word", "bernoulli_factor", "check_derivative", "decompose_shuffle",
    "decompose_stuffle", "li", "li_panels", "li_series", "li_shift",
    "li_shift_blocks", "li_shift_jet", "li_star", "li_word", "limit_probe", "log_minus",
    "main_sides", "mzv_sides", "reg_poly", "reg_sides", "reg_value", "rho",
    "rho_inv", "run_selftest", "shuffle", "stuffle", "zeta",
]

__version__ = "0.1.0"
