"""Verdict layer: exact counts into Accept/Reject, plus findings: bounds on
the count proven from the shape of the function.

All balancedness arithmetic is exact rational; no float ever touches a
decision boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .anf import AnfFunction, RegisterLayout, _shown
from .errors import ValidationError
from .minterms import DEFAULT_MAX_SUM_ENTRIES, accumulate, exact_ones_multi

__all__ = [
    "DEFAULT_TOLERANCE",
    "VerdictPolicy",
    "RuleFinding",
    "AnalysisReport",
    "verdict",
    "magnitude_label",
    "check_isolated_linear_term",
    "heuristic_findings",
    "findings",
    "analyze",
]

DEFAULT_TOLERANCE = Fraction(1, 100)

SEVERITY_GUARANTEE = "guarantee"

RULE_ISOLATED_LINEAR_TERM = "ISOLATED_LINEAR_TERM"
RULE_COMMON_FACTOR = "COMMON_FACTOR"

# the tolerance texts Fraction is given: an integer, p/q or a decimal, so no
# exponent makes it build a huge power of ten
_TOLERANCE_TEXT = re.compile(r"\s*[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?\s*")

# magnitude anchors in quarter-periods, with their display tags
_ANCHORS = (
    (0, "≈ 0"),
    (1, "≈ T/4"),
    (2, "≈ T/2"),
    (3, "≈ T/2 + T/4"),
    (4, "≈ T"),
)


@dataclass(frozen=True)
class VerdictPolicy:
    """Accept when |ones - T/2| <= tolerance * T, compared exactly.

    The tolerance is a Fraction, an int, or text of at most 100 characters
    that is an integer, p/q or a decimal such as "1/100" or "0.01", with
    optional sign and surrounding whitespace; a float or bool is refused,
    since it cannot carry an exact fraction, and so is any other text.  Its
    denominator must stay below 10**100, so the report can print it.
    """

    relative_tolerance: Fraction | int | str = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        raw = self.relative_tolerance
        text = isinstance(raw, str)
        try:
            if text and not (len(raw) <= 100 and _TOLERANCE_TEXT.fullmatch(raw)):
                raise ValueError
            if isinstance(raw, bool) or not isinstance(raw, (Fraction, int, str)):
                raise TypeError
            tol = Fraction(raw)
        except (TypeError, ValueError, ZeroDivisionError):
            shown = _shown(raw) if text else repr(raw)
            raise ValidationError(
                f'tolerance must be a fraction like "1/100", got {shown}'
            ) from None
        object.__setattr__(self, "relative_tolerance", tol)
        if not 0 <= tol <= Fraction(1, 2):
            raise ValidationError("tolerance must lie in [0, 1/2]")
        if tol.denominator >= 10**100:
            raise ValidationError("tolerance denominator must stay below 10**100")


@dataclass(frozen=True)
class RuleFinding:
    """One proven bound on the full-period ones count, read from the shape of
    the function; the evidence names the variables it rests on."""

    rule_id: str
    severity: str
    message: str
    evidence: tuple[str, ...]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the exact analysis produced, as plain data.

    The count comes from `accumulate`, which needs neither the weight
    histogram nor the sum built; `final_sum` is multiplied out by the
    function `accumulate` returned with the count, once, on first read, and
    within the entry cap `analyze` was given.
    """

    layout: RegisterLayout
    function_text: str
    period: int
    ones: int
    zeros: int
    expected_ones: int
    deviation: Fraction
    tolerance: Fraction
    verdict: str
    magnitude_label: str
    findings: tuple[RuleFinding, ...]
    _build_sum: Callable[[], dict[int, int]] = field(compare=False, repr=False)

    @cached_property
    def final_sum(self) -> dict[int, int]:
        """Minterm mask -> signed coefficient, nonzero."""
        return self._build_sum()

    def to_json_dict(self) -> dict:
        """JSON-ready dict; counts as decimal strings, rationals as p/q."""
        masks = sorted(self.final_sum)
        return {
            "function": self.function_text,
            "registers": [
                {"name": reg.name, "length": reg.length}
                for reg in self.layout.registers
            ],
            "period": str(self.period),
            "ones": str(self.ones),
            "zeros": str(self.zeros),
            "expected_ones": str(self.expected_ones),
            "deviation": str(self.deviation),
            "tolerance": str(self.tolerance),
            "verdict": self.verdict,
            "magnitude_label": self.magnitude_label,
            "findings": [
                {
                    "rule": f.rule_id,
                    "severity": f.severity,
                    "message": f.message,
                    "evidence": list(f.evidence),
                }
                for f in self.findings
            ],
            "sum": [
                {"mask": text, "coefficient": str(self.final_sum[mask])}
                for mask, text in zip(masks, self.layout.format_masks(masks))
            ],
        }


def verdict(ones: int, period: int, policy: VerdictPolicy | None = None) -> str:
    """"accept" when the ones count sits within tolerance of half the period."""
    if period < 1:
        raise ValidationError("period must be positive")
    if not 0 <= ones <= period:
        raise ValidationError(f"ones count {ones} outside [0, {period}]")
    policy = policy or VerdictPolicy()
    deviation = Fraction(abs(2 * ones - period), 2 * period)
    return "accept" if deviation <= policy.relative_tolerance else "reject"


def magnitude_label(ones: int, period: int) -> str:
    """Coarse human tag: nearest quarter-period anchor within 5% of the
    period, otherwise "irregular"."""
    if period < 1:
        raise ValidationError("period must be positive")
    if not 0 <= ones <= period:
        raise ValidationError(f"ones count {ones} outside [0, {period}]")
    best = min(_ANCHORS, key=lambda a: abs(4 * ones - a[0] * period))
    # distance is |ones - anchor| = |4*ones - q*T| / 4; within T/20 keeps the tag
    if 5 * abs(4 * ones - best[0] * period) <= period:
        return best[1]
    return "irregular"


def check_isolated_linear_term(f: AnfFunction) -> RuleFinding | None:
    """Bound the ones count by a linear monomial whose variable appears in no
    other monomial; the lowest such variable is reported.

    Write f = x ^ g, with x a stage of register r of n stages and g free of
    x.  Over the joint period T, flipping x pairs every nonzero state of r
    but the one that holds x alone, and each pair carries exactly one 1
    whatever the other registers hold.  So with M = T / (2**n - 1) the count
    lies between M * (2**(n-1) - 1) and M * 2**(n-1).  On one register M = 1,
    and g, having no constant term, is 0 at the unpaired state, so the count
    is exactly 2**(n-1).

    Raises:
        ValidationError: if the register lengths are not pairwise coprime,
            as for `RegisterLayout.period`, since the bound counts over the
            joint period.
    """
    layout = f.layout
    period = layout.period()
    singles = sorted(t for t in f.terms if t.bit_count() == 1)
    for term in singles:
        if any(other != term and other & term for other in f.terms):
            continue
        bit = term.bit_length() - 1
        name = layout.variable_name(bit)
        reg = layout.register_of(bit)
        if len(layout.registers) == 1:
            where, count = "", f"exactly 2^{reg.length - 1} ones"
        else:
            rest = period // ((1 << reg.length) - 1)
            half = 1 << (reg.length - 1)
            where = f" of register {reg.name}"
            count = f"between {rest * (half - 1)} and {rest * half} ones"
        return RuleFinding(
            rule_id=RULE_ISOLATED_LINEAR_TERM,
            severity=SEVERITY_GUARANTEE,
            message=(
                f"variable {name}{where} forms a monomial of its own and appears"
                f" in no other monomial; the full-period output carries {count}"
            ),
            evidence=(name,),
        )
    return None


def heuristic_findings(f: AnfFunction) -> list[RuleFinding]:
    """Bound the ones count by the variables that appear in every monomial.

    Write f = x_C * g, with x_C the product of the shared variables C.  Then
    f <= x_C pointwise, so over the joint period the count is at most the
    ones count of the single minterm x_C: the product of N_r over the
    registers, N_r = 2**(len_r - c_r) for a register holding c_r >= 1
    variables of C, and 2**len_r - 1 for any other.

    Raises:
        ValidationError: if the register lengths are not pairwise coprime,
            as for `RegisterLayout.period`, since the bound counts over the
            joint period.
    """
    layout = f.layout
    layout.period()
    common = ~0
    for t in f.terms:
        common &= t
    if not f.terms or not common:
        return []
    bound = exact_ones_multi({layout.weights(common): 1}, layout)
    names = tuple(
        layout.variable_name(b) for b in range(layout.total_length) if common >> b & 1
    )
    if len(names) > 1:
        subject = f"variables {', '.join(names)} appear"
    else:
        subject = f"variable {names[0]} appears"
    return [
        RuleFinding(
            rule_id=RULE_COMMON_FACTOR,
            severity=SEVERITY_GUARANTEE,
            message=(
                f"{subject} in every monomial; the full-period output carries at"
                f" most {bound} ones"
            ),
            evidence=names,
        )
    ]


def findings(f: AnfFunction) -> list[RuleFinding]:
    """Every structural finding, each a guarantee that bounds the ones count
    over the joint period: the isolated-term rule, then the common-factor
    rule.

    Raises:
        ValidationError: if the register lengths are not pairwise coprime.
    """
    isolated = check_isolated_linear_term(f)
    return ([isolated] if isolated else []) + heuristic_findings(f)


def analyze(
    f: AnfFunction,
    policy: VerdictPolicy | None = None,
    *,
    max_sum_entries: int = DEFAULT_MAX_SUM_ENTRIES,
) -> AnalysisReport:
    """Full exact analysis of a combining function over its layout.

    Counts the ones of one whole output period symbolically, renders the
    balancedness verdict under the policy, and attaches structural findings.
    No output bits are ever generated.
    """
    policy = policy or VerdictPolicy()
    layout = f.layout
    period = layout.period()
    ones, _, build_sum = accumulate(f, max_entries=max_sum_entries)
    return AnalysisReport(
        layout=layout,
        function_text=f.to_text(),
        period=period,
        ones=ones,
        zeros=period - ones,
        expected_ones=(period + 1) // 2,
        deviation=Fraction(abs(2 * ones - period), 2 * period),
        tolerance=policy.relative_tolerance,
        verdict=verdict(ones, period, policy),
        magnitude_label=magnitude_label(ones, period),
        findings=tuple(findings(f)),
        _build_sum=build_sum,
    )
