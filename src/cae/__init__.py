"""Combined slow/fast asymptotic expansions for singularly perturbed ODEs
at turning points: exact series algebra, special-function evaluation,
coefficient-generation engines, canard values, Gevrey fitting, and the
Ackerberg-O'Malley resonance test."""

from .errors import (
    BlowupError,
    CaeError,
    CompatibilityError,
    DomainError,
    InfeasibleError,
    InsufficientTailError,
    MissingEvaluatorError,
    NonDifferentiableError,
    SeriesError,
)
from .series import (
    AsymTail,
    BasisTerm,
    CombinedSeries,
    FastFn,
    Laurent,
    LogComponent,
    TaylorPoly,
    antiderivative,
    compose_left,
    differentiate,
    differentiate_with_log,
    evaluate_partial_sum,
    evaluate_with_log,
    extract_inner,
    extract_outer,
    multiply,
    reconstruct_from_matching,
    shift_fast,
    shift_slow,
)

__version__ = "0.1.0"

__all__ = [
    "AsymTail", "BasisTerm", "CombinedSeries", "FastFn", "Laurent",
    "LogComponent", "TaylorPoly", "antiderivative", "compose_left",
    "differentiate", "differentiate_with_log", "evaluate_partial_sum",
    "evaluate_with_log", "extract_inner", "extract_outer", "multiply",
    "reconstruct_from_matching", "shift_fast", "shift_slow",
    "BlowupError", "CaeError", "CompatibilityError", "DomainError",
    "InfeasibleError", "InsufficientTailError", "MissingEvaluatorError",
    "NonDifferentiableError", "SeriesError",
]
