"""Exact balancedness gating for LFSR-based keystream generators.

Counts the ones in one full output period straight from the combining
function, with no bit ever generated, then renders an Accept/Reject verdict
in exact rational arithmetic.  Brute-force oracles (truth-table walk and
full-period simulation) are included for cross-validation.
"""

__version__ = "0.1.0"

from .anf import AnfFunction, Register, RegisterLayout, parse_function
from .analyzer import (
    DEFAULT_TOLERANCE,
    AnalysisReport,
    RuleFinding,
    VerdictPolicy,
    analyze,
    check_isolated_linear_term,
    heuristic_findings,
    magnitude_label,
    verdict,
)
from .errors import (
    BalanceGateError,
    DisagreementError,
    ExpressionError,
    InternalCheckError,
    ResourceLimitError,
    UnverifiedPolynomialError,
    ValidationError,
)
from .lfsr import (
    PRIMITIVE_POLYNOMIALS,
    GeneratorInstance,
    LfsrConfig,
    count_ones_simulated,
    count_ones_truthtable,
    generate_output,
    iter_output_chunks,
    lfsr_step,
    state_cycle,
    verify_maximum_length,
)
from .minterms import (
    MintermSum,
    accumulate,
    exact_ones_multi,
    minterm_expansion,
)
from .specfile import GeneratorSpec, RegisterSpec, load_spec, parse_spec

__all__ = [
    "__version__",
    "AnfFunction",
    "Register",
    "RegisterLayout",
    "parse_function",
    "DEFAULT_TOLERANCE",
    "AnalysisReport",
    "RuleFinding",
    "VerdictPolicy",
    "analyze",
    "check_isolated_linear_term",
    "heuristic_findings",
    "magnitude_label",
    "verdict",
    "BalanceGateError",
    "DisagreementError",
    "ExpressionError",
    "InternalCheckError",
    "ResourceLimitError",
    "UnverifiedPolynomialError",
    "ValidationError",
    "PRIMITIVE_POLYNOMIALS",
    "GeneratorInstance",
    "LfsrConfig",
    "count_ones_simulated",
    "count_ones_truthtable",
    "generate_output",
    "iter_output_chunks",
    "lfsr_step",
    "state_cycle",
    "verify_maximum_length",
    "MintermSum",
    "accumulate",
    "exact_ones_multi",
    "minterm_expansion",
    "GeneratorSpec",
    "RegisterSpec",
    "load_spec",
    "parse_spec",
]
