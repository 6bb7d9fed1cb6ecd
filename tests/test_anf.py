"""Layout, parsing, evaluation, and canonical-form behavior."""

import random
import re
import string

import numpy as np
import pytest

from balancegate.analyzer import analyze, findings
from balancegate.anf import AnfFunction, Register, RegisterLayout, parse_function
from balancegate.errors import ExpressionError, ValidationError
from conftest import (
    COPRIME_SHAPES,
    evaluate,
    geffe_layout,
    random_function,
    support_of,
)


class TestRegisterLayout:
    def test_from_lengths_assigns_cumulative_offsets(self):
        layout = geffe_layout()
        assert [(r.name, r.length, r.offset) for r in layout.registers] == [
            ("a", 2, 0),
            ("b", 3, 2),
            ("c", 5, 5),
        ]
        assert layout.total_length == 10

    def test_single(self):
        layout = RegisterLayout.single(7)
        assert layout.registers == (Register("m", 7, 0),)

    @pytest.mark.parametrize(
        "regs",
        [
            (),
            (Register("ab", 3, 0),),
            (Register("1", 3, 0),),
            (Register("a", 0, 0),),
            (Register("a", 3, 0), Register("a", 4, 3)),
            (Register("a", 3, 0), Register("b", 4, 5)),
            # letters to str.isalpha(), but no variable token starts with one
            (Register("é", 3, 0),),
            (Register("ª", 3, 0),),
        ],
    )
    def test_invalid_layouts_rejected(self, regs):
        with pytest.raises(ValidationError):
            RegisterLayout(regs)

    def test_period_single(self):
        assert RegisterLayout.single(3).period() == 7
        assert RegisterLayout.single(16).period() == 65535

    def test_period_multi_coprime(self):
        assert geffe_layout().period() == 3 * 7 * 31
        layout = RegisterLayout.from_lengths([("a", 7), ("b", 8), ("c", 9)])
        assert layout.period() == 16548735

    def test_period_rejects_non_coprime(self):
        layout = RegisterLayout.from_lengths([("a", 2), ("b", 4)])
        assert not layout.has_coprime_lengths()
        with pytest.raises(ValidationError):
            layout.period()

    def test_variable_name(self):
        layout = geffe_layout()
        assert layout.variable_name(0) == "a0"
        assert layout.variable_name(2) == "b0"
        assert layout.variable_name(9) == "c4"
        with pytest.raises(ValidationError):
            layout.variable_name(10)

    def test_weights_count_each_registers_stages(self):
        layout = geffe_layout()
        a0b0c0 = parse_function("a0*b0*c0", layout).terms
        assert [layout.weights(mask) for mask in a0b0c0] == [(1, 1, 1)]
        assert layout.weights(0) == (0, 0, 0)
        wide = RegisterLayout.single(128)
        assert wide.weights(1 << 127 | 1 << 64) == (2,)

    def test_format_masks_groups_first_register_rightmost(self):
        layout = geffe_layout()
        assert layout.format_masks([0b0000100101, 0b0000000101]) == [
            "00001 001 01",
            "00000 001 01",
        ]
        assert RegisterLayout.single(3).format_masks([0b101]) == ["101"]
        assert layout.format_masks([]) == []
        with pytest.raises(ValidationError):
            layout.format_masks([0b101, 1 << 10])


class TestParsing:
    def test_single_register_example(self):
        f = parse_function("m2*m0 ^ m2*m1 ^ m1", RegisterLayout.single(3))
        assert f.terms == {0b101, 0b110, 0b010}

    def test_multi_register_example(self):
        f = parse_function("a0*b0 ^ b0*c0 ^ c0", geffe_layout())
        assert f.terms == {0b0000000101, 0b0000100100, 0b0000100000}

    def test_plus_and_caret_both_mean_xor(self):
        layout = RegisterLayout.single(3)
        assert parse_function("m0 + m1", layout) == parse_function("m0 ^ m1", layout)

    def test_duplicate_monomials_cancel(self):
        f = parse_function("m0 ^ m0", RegisterLayout.single(3))
        assert f.terms == frozenset()

    def test_repeated_variable_collapses(self):
        f = parse_function("m1*m1", RegisterLayout.single(3))
        assert f.terms == {0b010}

    def test_whitespace_ignored(self):
        layout = RegisterLayout.single(3)
        assert parse_function("  m2 *m0^ m1 ", layout) == parse_function(
            "m2*m0 ^ m1", layout
        )

    def test_bare_index_in_single_register_layout(self):
        layout = RegisterLayout.single(3)
        assert parse_function("2*m1", layout).terms == {0b110}

    @pytest.mark.parametrize(
        "text",
        ["", "   ", "m0 ^ ^ m1", "m0 ^", "m0*", "m0**m1", "x0", "m3", "1",
         "0", "m0 ^ 1", "2m", "m-1", "m0&m1"],
    )
    def test_bad_expressions_rejected(self, text):
        with pytest.raises(ValidationError):
            parse_function(text, RegisterLayout.single(3))

    def test_bare_index_needs_letter_in_multi_register_layout(self):
        with pytest.raises(ExpressionError):
            parse_function("2", geffe_layout())

    def test_constant_rejected_with_dedicated_message(self):
        with pytest.raises(ExpressionError, match="constant"):
            parse_function("m0 ^ 1", RegisterLayout.single(3))

    def test_index_out_of_range_mentions_register(self):
        with pytest.raises(ExpressionError, match="register m of length 3"):
            parse_function("m3", RegisterLayout.single(3))


class TestAnfFunction:
    def test_rejects_constant_and_wide_terms(self):
        layout = RegisterLayout.single(3)
        with pytest.raises(ValidationError):
            AnfFunction(layout, frozenset({0}))
        with pytest.raises(ValidationError):
            AnfFunction(layout, frozenset({1 << 3}))

    def test_numpy_integer_terms_become_ints(self):
        f = AnfFunction(RegisterLayout.single(3), np.array([1, 6], dtype=np.int64))
        assert f.terms == frozenset({1, 6})
        assert {type(t) for t in f.terms} == {int}

    @pytest.mark.parametrize("term", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_refuses_non_integer_terms(self, term):
        with pytest.raises(ValidationError, match="is not an integer"):
            AnfFunction(RegisterLayout.single(3), [term])

    def test_duplicate_terms_cancel_in_pairs(self):
        layout = RegisterLayout.single(3)
        # as in the parser: m0 ^ m0 is the all-zero function, with no finding
        f = AnfFunction(layout, [1, 1])
        assert f == parse_function("m0 ^ m0", layout)
        assert f.terms == frozenset()
        assert (analyze(f).ones, findings(f)) == (0, [])
        assert AnfFunction(layout, [1, 1, 1, 6]).terms == frozenset({1, 6})

    def test_terms_are_read_once(self):
        # a one-shot iterator of numpy integers, duplicates included
        terms = iter(np.array([3, 6, 3, 5, 3], dtype=np.int64))
        f = AnfFunction(RegisterLayout.single(3), terms)
        assert f.terms == frozenset({3, 5, 6})
        assert {type(t) for t in f.terms} == {int}

    def test_out_of_range_message_names_the_mask(self):
        with pytest.raises(ValidationError, match="term mask 8 outside layout of 3 bits"):
            AnfFunction(RegisterLayout.single(3), [1, 6, 8])

    def test_terms_are_a_frozenset(self):
        f = AnfFunction(RegisterLayout.single(3), [6, 1])
        assert type(f.terms) is frozenset
        assert f.terms == frozenset({1, 6})

    def test_function_is_hashable(self):
        layout = RegisterLayout.single(3)
        f = AnfFunction(layout, [6, 1])
        assert hash(f) == hash(AnfFunction(layout, frozenset({1, 6})))
        assert {f: 1}[parse_function("m2*m1 ^ m0", layout)] == 1

    def test_empty_function_is_all_zero(self):
        f = AnfFunction(RegisterLayout.single(4), frozenset())
        assert all(evaluate(f, x) == 0 for x in range(16))
        assert f.to_text() == "0"

    def test_render_orders_terms_and_variables_descending(self):
        f = parse_function("m1 ^ m0*m2 ^ m2*m1", RegisterLayout.single(3))
        assert f.to_text() == "m2*m1 ^ m2*m0 ^ m1"

    @pytest.mark.parametrize(
        "shape, text",
        [
            # a 125-stage fold-wide benchmark design of 14 monomials
            (
                (("a", 29), ("b", 31), ("c", 32), ("d", 33)),
                "d18*d9*c5 ^ d18*c22*b29*a15 ^ d18*c15*a4 ^ d9*a1 ^ c28*c15*b25"
                " ^ c22*c15*b2 ^ c15*c5*a1 ^ c15*b25*a15 ^ c15 ^ b29*b25*b2*a15"
                " ^ b29*a15*a1 ^ b29 ^ b2 ^ a4",
            ),
            # the 128-stage design of the README
            ((("m", 128),), "m127*m64 ^ m100*m55*m3 ^ m0"),
        ],
        ids=["fold-wide", "readme-128"],
    )
    def test_render_of_wide_designs(self, shape, text):
        # parsed from the monomials and their variables in reverse order
        layout = RegisterLayout.from_lengths(shape)
        monomials = text.split(" ^ ")[::-1]
        scrambled = " ^ ".join("*".join(m.split("*")[::-1]) for m in monomials)
        assert parse_function(scrambled, layout).to_text() == text

    def test_support_is_the_union_of_the_monomials(self):
        assert AnfFunction(RegisterLayout.single(4), frozenset()).support == 0
        rng = random.Random(1004)
        for _ in range(200):
            layout = _random_layout(rng)
            f = random_function(rng, layout)
            assert f.support == support_of(f.terms)


def _random_layout(rng):
    if rng.random() < 0.5:
        return RegisterLayout.single(rng.randint(2, 10))
    return RegisterLayout.from_lengths(rng.choice(COPRIME_SHAPES))


# registers past 10 stages, whose stage indices render with two or three digits
_WIDE_SHAPES = [
    (("a", 11), ("b", 13)),
    (("m", 128),),
    (("a", 29), ("b", 31), ("c", 32), ("d", 33)),
]


def _round_trip_layouts(rng):
    for _ in range(300):
        yield _random_layout(rng)
    for shape in _WIDE_SHAPES * 20:
        yield RegisterLayout.from_lengths(list(shape))
    # every name a register may have
    for name in string.ascii_letters:
        yield RegisterLayout.from_lengths([(name, 5)])


def test_parse_render_round_trip():
    rng = random.Random(1001)
    for layout in _round_trip_layouts(rng):
        f = random_function(rng, layout)
        if not f.terms:
            continue
        assert parse_function(f.to_text(), layout) == f


def _raw_evaluate(text, layout, x):
    # deliberately unoptimized reading of the expression text
    total = 0
    for monomial in re.split(r"[+^]", text):
        value = 1
        for token in monomial.strip().split("*"):
            m = re.fullmatch(r"([A-Za-z])([0-9]+)", token.strip())
            reg = layout.register(m.group(1))
            value &= x >> (reg.offset + int(m.group(2))) & 1
        total ^= value
    return total


def test_canonical_form_preserves_semantics():
    # parse may cancel and collapse; the value at every assignment must not move
    rng = random.Random(1002)
    for _ in range(60):
        layout = _random_layout(rng)
        width = layout.total_length
        variables = [layout.variable_name(b) for b in range(width)]
        monomials = []
        for _ in range(rng.randint(1, 8)):
            monomials.append(
                "*".join(rng.choice(variables) for _ in range(rng.randint(1, 4)))
            )
        if rng.random() < 0.5:  # force duplicates
            monomials.append(rng.choice(monomials))
        text = " ^ ".join(monomials)
        f = parse_function(text, layout)
        for _ in range(40):
            x = rng.randrange(1 << width)
            assert evaluate(f, x) == _raw_evaluate(text, layout, x)


def test_xor_is_pointwise():
    rng = random.Random(1003)
    for _ in range(100):
        layout = _random_layout(rng)
        width = layout.total_length
        f, g = random_function(rng, layout), random_function(rng, layout)
        combined = AnfFunction(layout, f.terms ^ g.terms)
        assert combined.terms == f.terms ^ g.terms
        for _ in range(25):
            x = rng.randrange(1 << width)
            assert evaluate(combined, x) == (evaluate(f, x) ^ evaluate(g, x))
