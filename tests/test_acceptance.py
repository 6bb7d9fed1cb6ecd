"""The advertised behavior at its advertised scale, one check per promise.

Every test here pins an end-to-end guarantee: exact counts on the documented
generator families, bit-exact golden sequences, agreement between the
symbolic engine and both brute-force oracles, the structural identities the
engine is built on, and the stated runtime envelopes.
"""

import random
import time
from itertools import combinations_with_replacement

import numpy as np

from balancegate.analyzer import SEVERITY_GUARANTEE, analyze
from balancegate.anf import AnfFunction, RegisterLayout, parse_function
from balancegate.lfsr import (
    GeneratorInstance,
    LfsrConfig,
    count_ones_simulated,
    count_ones_truthtable,
)
from balancegate.minterms import minterm_expansion
from conftest import (
    COPRIME_SHAPES,
    expansion,
    family_layout,
    generate_output,
    geffe_layout,
    isolated_term_function,
    maximum_length_polynomials,
    minterm_function,
    random_function,
)

# the three-register case-study family over lengths 7, 8, 9
FAMILY = [
    ("a0*b0 ^ b0*c0 ^ a0*c0 ^ a0 ^ b0 ^ c0", 12411328, "reject", "≈ T/2 + T/4"),
    ("a0*b0 ^ b0*c0 ^ a0 ^ b0 ^ c0", 12427712, "reject", "≈ T/2 + T/4"),
    ("a0*b0 ^ b0*c0 ^ b0", 4153472, "reject", "≈ T/4"),
    ("a0*b0 ^ b0*c0 ^ a0", 8314944, "accept", "≈ T/2"),
    ("a0*b0 ^ c0", 8282368, "accept", "≈ T/2"),
]
FAMILY_PERIOD = 127 * 255 * 511

# the worked three-stage register and its seven one-hot golden sequences
WORKED = LfsrConfig(3, frozenset({3, 2, 0}), 0b011)
WORKED_SEQUENCES = {
    0b111: [0, 0, 0, 0, 0, 0, 1],
    0b110: [0, 0, 0, 0, 0, 1, 0],
    0b101: [0, 0, 0, 0, 1, 0, 0],
    0b010: [0, 0, 0, 1, 0, 0, 0],
    0b100: [0, 0, 1, 0, 0, 0, 0],
    0b001: [0, 1, 0, 0, 0, 0, 0],
    0b011: [1, 0, 0, 0, 0, 0, 0],
}


def family_instance(text):
    layout = family_layout()
    f = parse_function(text, layout)
    configs = tuple(LfsrConfig.standard(reg.length) for reg in layout.registers)
    return GeneratorInstance(layout, configs, f)


def test_three_register_family_exact_counts():
    layout = family_layout()
    started = time.perf_counter()
    reports = [analyze(parse_function(text, layout)) for text, *_ in FAMILY]
    elapsed = time.perf_counter() - started
    for (text, ones, wanted_verdict, label), report in zip(FAMILY, reports):
        assert report.ones == ones, text
        assert report.period == FAMILY_PERIOD == 16548735
        assert report.expected_ones == 8274368
        assert report.verdict == wanted_verdict, text
        assert report.magnitude_label == label, text
    assert elapsed < 1.0, f"five symbolic analyses took {elapsed:.3f}s"


def test_three_register_family_simulation_agrees():
    started = time.perf_counter()
    for text, ones, *_ in FAMILY:
        g = family_instance(text)
        assert count_ones_simulated(g) == ones, text
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"five full-period simulations took {elapsed:.1f}s"


def test_geffe_three_way_agreement():
    layout = geffe_layout()
    f = parse_function("a0*b0 ^ b0*c0 ^ c0", layout)
    report = analyze(f)
    assert report.period == 651
    assert report.ones == 392
    assert count_ones_truthtable(f) == 392
    configs = tuple(LfsrConfig.standard(reg.length) for reg in layout.registers)
    assert count_ones_simulated(GeneratorInstance(layout, configs, f)) == 392


def test_worked_register_golden_sequences():
    layout = RegisterLayout.single(3)
    for mask, wanted in WORKED_SEQUENCES.items():
        f = minterm_function(mask, 3)
        g = GeneratorInstance(layout, (WORKED,), f)
        assert generate_output(g, 7) == wanted, f"minterm {mask:03b}"
    terms = frozenset()
    for mask in (0b001, 0b010, 0b100):
        terms ^= minterm_function(mask, 3).terms
    mixed = AnfFunction(layout, terms)
    g = GeneratorInstance(layout, (WORKED,), mixed)
    assert generate_output(g, 7) == [0, 1, 1, 1, 0, 0, 0]


def test_conversion_worked_example():
    f = parse_function("m2*m0 ^ m2*m1 ^ m1", RegisterLayout.single(3))
    assert minterm_expansion(f).tolist() == [0b010, 0b011, 0b101, 0b111]
    assert analyze(f).ones == 4
    assert count_ones_truthtable(f) == 4


def test_isolated_term_guarantee_suite():
    rng = random.Random(6001)
    lengths = list(range(4, 17))
    for i in range(200):
        length = lengths[i % len(lengths)]
        f, _ = isolated_term_function(rng, length)
        report = analyze(f)
        assert report.ones == 1 << (length - 1), f.to_text()
        assert count_ones_truthtable(f) == 1 << (length - 1), f.to_text()
        assert any(x.severity == SEVERITY_GUARANTEE for x in report.findings)


def test_oracle_equivalence_suite():
    rng = random.Random(7001)
    # 500 random functions, symbolic vs truth table
    for i in range(500):
        if i % 2 == 0:
            layout = RegisterLayout.single(2 + (i // 2) % 11)
        else:
            layout = RegisterLayout.from_lengths(list(COPRIME_SHAPES[(i // 2) % 10]))
        f = random_function(rng, layout)
        assert analyze(f).ones == count_ones_truthtable(f), f.to_text()

    # 50 of them simulated as well, under the two maximum-length polynomials
    # of each degree with the smallest masks: the count must not depend on
    # the polynomial or seed choice
    simulated_shapes = [s for s in COPRIME_SHAPES if all(n >= 3 for _, n in s)]
    for k in range(50):
        if k % 2 == 0:
            layout = RegisterLayout.single(3 + (k // 2) % 8)
        else:
            layout = RegisterLayout.from_lengths(
                list(simulated_shapes[(k // 2) % len(simulated_shapes)])
            )
        f = random_function(rng, layout)
        expected = analyze(f).ones
        for choice in (0, 1):
            configs = []
            for reg in layout.registers:
                table = maximum_length_polynomials(reg.length)
                exponents = table[min(choice, len(table) - 1)]
                seed = rng.randrange(1, 1 << reg.length)
                configs.append(LfsrConfig(reg.length, frozenset(exponents), seed))
            g = GeneratorInstance(layout, tuple(configs), f)
            assert count_ones_simulated(g) == expected, f.to_text()


def _expansion_indicator(mask: int, length: int) -> int:
    # bit t set exactly when t is a superset of mask; built independently of
    # the engine, straight from the subset test
    x = np.arange(1 << length, dtype=np.int64)
    arr = (x & mask) == mask
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def test_expansion_identity_suite():
    rng = random.Random(8001)
    for length in range(1, 11):
        universe = 1 << length
        indicator = [0] * universe
        size = [0] * universe
        for mask in range(1, universe):
            indicator[mask] = _expansion_indicator(mask, length)
            size[mask] = 1 << (length - mask.bit_count())
            # expansion size, and the engine agrees with the independent route
            assert indicator[mask].bit_count() == size[mask]
            engine = expansion(mask, length)
            assert sum(1 << t for t in engine) == indicator[mask]

        for a, b in combinations_with_replacement(range(1, universe), 2):
            union = a | b
            # shared monomials are exactly the expansion of the mask union
            assert indicator[a] & indicator[b] == indicator[union]
            # XOR cancels the shared monomials pairwise
            assert (indicator[a] ^ indicator[b]).bit_count() == (
                size[a] + size[b] - 2 * size[union]
            )

        layout = RegisterLayout.single(length)
        for mask in range(1, universe):
            f = AnfFunction(layout, frozenset({mask}))
            back = AnfFunction(layout, minterm_expansion(f))
            assert minterm_expansion(back).tolist() == sorted(f.terms)
        for _ in range(20):
            f = random_function(rng, layout, max_terms=8)
            back = AnfFunction(layout, minterm_expansion(f))
            assert minterm_expansion(back).tolist() == sorted(f.terms)


def test_wide_register_symbolic_only_path():
    layout = RegisterLayout.single(128)
    started = time.perf_counter()
    f = parse_function("m127*m64 ^ m100*m55*m3 ^ m0", layout)
    report = analyze(f)
    elapsed = time.perf_counter() - started
    assert report.ones == 1 << 127
    assert report.period == (1 << 128) - 1
    assert report.verdict == "accept"
    assert elapsed < 1.0, f"wide-register analysis took {elapsed:.3f}s"
