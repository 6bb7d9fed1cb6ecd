"""Exact balancedness gating for LFSR-based keystream generators.

Counts the ones in one full output period straight from the combining
function, with no bit ever generated, then renders an Accept/Reject verdict
in exact rational arithmetic.  Brute-force oracles (truth-table walk and
full-period simulation) are included for cross-validation.  Every other
public name lives in the module that defines it.
"""

__version__ = "0.1.0"

from .anf import RegisterLayout, parse_function
from .analyzer import analyze
from .lfsr import count_ones_truthtable
from .minterms import minterm_expansion

__all__ = [
    "__version__",
    "RegisterLayout",
    "parse_function",
    "analyze",
    "count_ones_truthtable",
    "minterm_expansion",
]
