"""Verdict policy, magnitude tags, structural rules, full report assembly."""

import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from balancegate.analyzer import (
    RULE_COMMON_FACTOR,
    RULE_ISOLATED_LINEAR_TERM,
    SEVERITY_GUARANTEE,
    VerdictPolicy,
    analyze,
    check_isolated_linear_term,
    findings,
    heuristic_findings,
    magnitude_label,
    verdict,
)
from balancegate.anf import AnfFunction, RegisterLayout, parse_function
from balancegate.errors import ResourceLimitError, ValidationError
from balancegate.lfsr import count_ones_truthtable
from conftest import COPRIME_SHAPES, geffe_layout

GEFFE = "a0*b0 ^ b0*c0 ^ c0"


class TestVerdictPolicy:
    def test_default_and_coercion(self):
        assert VerdictPolicy().relative_tolerance == Fraction(1, 100)
        assert VerdictPolicy("3/200").relative_tolerance == Fraction(3, 200)
        assert VerdictPolicy(0).relative_tolerance == 0
        assert VerdictPolicy(" 1/14 ").relative_tolerance == Fraction(1, 14)
        assert VerdictPolicy("0.01").relative_tolerance == Fraction(1, 100)
        assert VerdictPolicy("+0.005\n").relative_tolerance == Fraction(1, 200)
        assert VerdictPolicy("0").relative_tolerance == 0

    @pytest.mark.parametrize("tol", ["51/100", "-1/100", 1])
    def test_rejects_out_of_range(self, tol):
        with pytest.raises(ValidationError):
            VerdictPolicy(tol)

    @pytest.mark.parametrize("tol", [0.01, True, "lots", "1/0"])
    def test_rejects_floats_bools_and_bad_text(self, tol):
        with pytest.raises(ValidationError):
            VerdictPolicy(tol)

    @pytest.mark.parametrize(
        "tol", ["1e-5000", "1e-99999999", "1_0/1000", "1/" + "3" * 4998]
    )
    def test_reads_only_the_documented_text_forms(self, tol):
        # an exponent would make Fraction build a huge power of ten, and the
        # last one, though a fraction, is past 100 characters
        start = time.perf_counter()
        with pytest.raises(ValidationError) as info:
            VerdictPolicy(tol)
        assert time.perf_counter() - start < 1
        assert len(str(info.value)) <= 200

    def test_denominator_stays_printable(self):
        # str() of a 5001-digit denominator passes Python's 4300-digit limit
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="below 10\\*\\*100"):
            VerdictPolicy(Fraction(1, 10**5000))
        assert time.perf_counter() - start < 1
        with pytest.raises(ValidationError):
            VerdictPolicy(Fraction(1, 10**100))
        f = parse_function(GEFFE, geffe_layout())
        report = analyze(f, VerdictPolicy(Fraction(1, 10**99)))
        assert report.to_json_dict()["tolerance"] == f"1/{10**99}"


class TestVerdict:
    # T = 200, tolerance 1/100: |ones - 100| <= 2 accepts
    @pytest.mark.parametrize("ones", [98, 99, 100, 101, 102])
    def test_accept_band(self, ones):
        assert verdict(ones, 200) == "accept"

    @pytest.mark.parametrize("ones", [97, 103, 0, 200])
    def test_reject_outside_band(self, ones):
        assert verdict(ones, 200) == "reject"

    def test_zero_tolerance_on_odd_period_never_accepts(self):
        policy = VerdictPolicy(0)
        assert all(
            verdict(ones, 7, policy) == "reject" for ones in range(8)
        )

    def test_exact_boundary_accepts(self):
        # deviation of 4/7 ones over period 7 is exactly 1/14
        assert verdict(4, 7, VerdictPolicy(Fraction(1, 14))) == "accept"
        assert verdict(4, 7, VerdictPolicy(Fraction(1, 15))) == "reject"

    def test_validates_inputs(self):
        with pytest.raises(ValidationError):
            verdict(8, 7)
        with pytest.raises(ValidationError):
            verdict(-1, 7)
        with pytest.raises(ValidationError):
            verdict(0, 0)


class TestMagnitudeLabel:
    @pytest.mark.parametrize(
        "ones, period, label",
        [
            (0, 651, "≈ 0"),
            (163, 651, "≈ T/4"),
            (326, 651, "≈ T/2"),
            (488, 651, "≈ T/2 + T/4"),
            (651, 651, "≈ T"),
            (392, 651, "irregular"),
            (510, 651, "≈ T/2 + T/4"),
            # inside vs outside the 5% band around T/2 = 10
            (11, 20, "≈ T/2"),
            (12, 20, "irregular"),
            # the wide three-register family
            (8282368, 16548735, "≈ T/2"),
            (12411328, 16548735, "≈ T/2 + T/4"),
            (4153472, 16548735, "≈ T/4"),
        ],
    )
    def test_labels(self, ones, period, label):
        assert magnitude_label(ones, period) == label

    def test_validates_inputs(self):
        with pytest.raises(ValidationError):
            magnitude_label(8, 7)
        with pytest.raises(ValidationError):
            magnitude_label(0, 0)


class TestIsolatedLinearTerm:
    def test_single_register_guarantee(self):
        f = parse_function("m1*m0 ^ m2", RegisterLayout.single(3))
        finding = check_isolated_linear_term(f)
        assert finding is not None
        assert finding.rule_id == RULE_ISOLATED_LINEAR_TERM
        assert finding.severity == SEVERITY_GUARANTEE
        assert finding.evidence == ("m2",)
        assert "2^2" in finding.message

    def test_reused_variable_disqualifies(self):
        f = parse_function("m1*m0 ^ m1", RegisterLayout.single(3))
        assert check_isolated_linear_term(f) is None

    def test_multi_register_interval(self):
        # T = 651 and register c has 31 states, so M = 21: 21·15 .. 21·16
        f = parse_function("a0*b0 ^ c0", geffe_layout())
        finding = check_isolated_linear_term(f)
        assert finding is not None
        assert finding.severity == SEVERITY_GUARANTEE
        assert finding.evidence == ("c0",)
        assert finding.message.endswith(
            "variable c0 of register c forms a monomial of its own and appears"
            " in no other monomial; the full-period output carries between 315"
            " and 336 ones"
        )
        assert 315 <= analyze(f).ones == 328 <= 336

    def test_reports_lowest_qualifying_variable(self):
        f = parse_function("m0 ^ m1 ^ m2*m1", RegisterLayout.single(3))
        finding = check_isolated_linear_term(f)
        assert finding.evidence == ("m0",)
        assert finding.severity == SEVERITY_GUARANTEE

    def test_pure_linear_function_qualifies(self):
        f = parse_function("m0 ^ m1", RegisterLayout.single(2))
        finding = check_isolated_linear_term(f)
        assert finding is not None
        assert finding.severity == SEVERITY_GUARANTEE

    def test_empty_function(self):
        f = AnfFunction(RegisterLayout.single(3), frozenset())
        assert check_isolated_linear_term(f) is None


class TestHeuristics:
    def test_common_factor_rule(self):
        # b0 = 1 leaves 3 · 4 · 31 joint states
        f = parse_function("a0*b0 ^ b0*c0 ^ b0", geffe_layout())
        findings = heuristic_findings(f)
        assert [x.rule_id for x in findings] == [RULE_COMMON_FACTOR]
        assert findings[0].severity == SEVERITY_GUARANTEE
        assert findings[0].evidence == ("b0",)
        assert findings[0].message == (
            "variable b0 appears in every monomial; the full-period output"
            " carries at most 372 ones"
        )
        assert analyze(f).ones == 188

    def test_bound_holds_where_half_the_period_is_passed(self):
        # 12 ones of 21, above half: the bound is 2 · 7
        layout = RegisterLayout.from_lengths([("a", 2), ("b", 3)])
        f = parse_function("b2*b1*a0 ^ b2*a0 ^ b1*a0", layout)
        (finding,) = heuristic_findings(f)
        assert finding.message.endswith("at most 14 ones")
        assert analyze(f).ones == 12

    def test_single_register_common_factor(self):
        f = parse_function("m2*m1 ^ m1*m0", RegisterLayout.single(3))
        findings = heuristic_findings(f)
        assert [x.rule_id for x in findings] == [RULE_COMMON_FACTOR]
        assert findings[0].evidence == ("m1",)

    def test_lone_product_term_shares_all_variables(self):
        f = parse_function("a0*b0", geffe_layout())
        findings = heuristic_findings(f)
        assert [x.rule_id for x in findings] == [RULE_COMMON_FACTOR]
        assert findings[0].evidence == ("a0", "b0")
        # a lone monomial meets its bound: 2 · 4 · 31
        assert findings[0].message.startswith("variables a0, b0 appear in")
        assert findings[0].message.endswith("at most 248 ones")
        assert analyze(f).ones == 248

    def test_quiet_functions(self):
        layout = geffe_layout()
        assert heuristic_findings(parse_function(GEFFE, layout)) == []
        assert heuristic_findings(parse_function("a0 ^ b0 ^ c0", layout)) == []
        assert heuristic_findings(parse_function("a0*b0 ^ c0", layout)) == []
        every_register_linear = "a0*b0 ^ b0*c0 ^ a0*c0 ^ a0 ^ b0 ^ c0"
        assert heuristic_findings(parse_function(every_register_linear, layout)) == []
        empty = AnfFunction(layout, frozenset())
        assert heuristic_findings(empty) == []


def printed_bound(message: str) -> tuple[int, int]:
    """The (low, high) range a finding's message states for the ones count."""
    if m := re.search(r"exactly 2\^([0-9]+) ones$", message):
        return 1 << int(m[1]), 1 << int(m[1])
    if m := re.search(r"between ([0-9]+) and ([0-9]+) ones$", message):
        return int(m[1]), int(m[2])
    m = re.search(r"at most ([0-9]+) ones$", message)
    assert m, message
    return 0, int(m[1])


@st.composite
def _functions(draw):
    """Few low-degree monomials over a coprime layout or one register of at
    most 14 stages; now and then every monomial takes a shared factor, or a
    linear monomial on a variable no other monomial reads is added."""
    shape = draw(
        st.one_of(
            st.sampled_from(COPRIME_SHAPES),
            st.integers(1, 14).map(lambda n: (("m", n),)),
        )
    )
    layout = RegisterLayout.from_lengths(list(shape))
    bits = st.integers(0, layout.total_length - 1)
    monomial = st.sets(bits, min_size=1, max_size=3).map(
        lambda chosen: sum(1 << b for b in chosen)
    )
    terms = set()
    for mask in draw(st.lists(monomial, min_size=1, max_size=6)):
        terms ^= {mask}
    if terms and draw(st.booleans()):
        common = draw(monomial)
        terms = {t | common for t in terms}
    if draw(st.booleans()):
        bit = draw(bits)
        terms = {t for t in terms if not t >> bit & 1} | {1 << bit}
    return AnfFunction(layout, frozenset(terms))


class TestFindingBounds:
    @settings(max_examples=400, deadline=None)
    @given(f=_functions())
    def test_every_printed_bound_holds(self, f):
        counts = (analyze(f).ones, count_ones_truthtable(f))
        for finding in findings(f):
            assert finding.severity == SEVERITY_GUARANTEE
            low, high = printed_bound(finding.message)
            for ones in counts:
                assert low <= ones <= high, (f.to_text(), finding.message)

    def test_non_coprime_layout_is_refused_as_by_the_period(self):
        layout = RegisterLayout.from_lengths([("a", 2), ("b", 4)])
        with pytest.raises(ValidationError) as period_error:
            layout.period()
        for text in ("a0", "a1*b0 ^ b2", "a0*b1"):
            f = parse_function(text, layout)
            for rule in (findings, check_isolated_linear_term, heuristic_findings):
                with pytest.raises(ValidationError) as info:
                    rule(f)
                assert str(info.value) == str(period_error.value)
        with pytest.raises(ValidationError):
            findings(AnfFunction(layout, frozenset()))


class TestAnalyze:
    def test_geffe_report(self):
        f = parse_function(GEFFE, geffe_layout())
        rep = analyze(f)
        assert rep.period == 651
        assert rep.ones == 392
        assert rep.zeros == 259
        assert rep.expected_ones == 326
        assert rep.deviation == Fraction(19, 186)
        assert rep.tolerance == Fraction(1, 100)
        assert rep.verdict == "reject"
        assert rep.magnitude_label == "irregular"
        assert rep.findings == ()
        assert rep.function_text == f.to_text()
        a0b0, b0c0, c0 = 0b0000000101, 0b0000100100, 0b0000100000
        assert rep.final_sum == {a0b0: 1, c0: 1, b0c0: -1}

    def test_guaranteed_half_accepts_at_loose_tolerance(self):
        f = parse_function("m1*m0 ^ m2", RegisterLayout.single(3))
        rep = analyze(f, VerdictPolicy(Fraction(1, 14)))
        assert rep.ones == 4
        assert rep.verdict == "accept"
        assert rep.findings[0].rule_id == RULE_ISOLATED_LINEAR_TERM
        assert analyze(f).verdict == "reject"

    def test_empty_function_report(self):
        f = AnfFunction(RegisterLayout.single(4), frozenset())
        rep = analyze(f)
        assert rep.ones == 0
        assert rep.zeros == 15
        assert rep.deviation == Fraction(1, 2)
        assert rep.verdict == "reject"
        assert rep.magnitude_label == "≈ 0"
        assert rep.final_sum == {}

    def test_multi_register_isolated_note_is_attached(self):
        f = parse_function("a0*b0 ^ c0", geffe_layout())
        rep = analyze(f)
        severities = {x.rule_id: x.severity for x in rep.findings}
        assert severities == {RULE_ISOLATED_LINEAR_TERM: SEVERITY_GUARANTEE}

    def test_entry_cap_propagates(self):
        f = parse_function(
            "m0 ^ m1 ^ m2 ^ m3 ^ m4 ^ m5", RegisterLayout.single(6)
        )
        with pytest.raises(ResourceLimitError):
            analyze(f, max_sum_entries=4)

    def test_layout_stage_cap_keeps_the_report_printable(self):
        # 2**15000 - 1 has 4516 digits, past Python's 4300-digit limit
        with pytest.raises(ValidationError, match="more than 10000 stages"):
            RegisterLayout.single(10_001)
        with pytest.raises(ValidationError, match="more than 10000 stages"):
            RegisterLayout.from_lengths([("a", 5000), ("b", 5001)])
        f = parse_function("m0*m1", RegisterLayout.single(10_000))
        assert analyze(f).to_json_dict()["period"] == str((1 << 10_000) - 1)

    def test_json_dict_shape_and_determinism(self):
        f = parse_function(GEFFE, geffe_layout())
        rep = analyze(f)
        d = rep.to_json_dict()
        assert d["period"] == "651"
        assert d["ones"] == "392"
        assert d["zeros"] == "259"
        assert d["expected_ones"] == "326"
        assert d["deviation"] == "19/186"
        assert d["tolerance"] == "1/100"
        assert d["verdict"] == "reject"
        assert d["registers"] == [
            {"name": "a", "length": 2},
            {"name": "b", "length": 3},
            {"name": "c", "length": 5},
        ]
        assert d["sum"][0] == {"mask": "00000 001 01", "coefficient": "1"}
        assert [e["coefficient"] for e in d["sum"]] == ["1", "1", "-1"]
        assert json.dumps(d) == json.dumps(analyze(f).to_json_dict())
