"""Register simulation, polynomial verification, brute-force counting oracles."""

import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from balancegate import lfsr
from balancegate.anf import MAX_STAGES, AnfFunction, RegisterLayout, parse_function
from balancegate.errors import (
    MissingPolynomialError,
    ResourceLimitError,
    UnverifiedPolynomialError,
    ValidationError,
)
from balancegate.lfsr import (
    DEFAULT_SIMULATION_BUDGET,
    GeneratorInstance,
    LfsrConfig,
    count_ones_simulated,
    count_ones_truthtable,
    iter_output_chunks,
    state_cycle,
    verify_maximum_length,
)
from conftest import (
    COPRIME_SHAPES,
    generate_output,
    geffe_layout,
    maximum_length_polynomials,
    minterm_function,
    naive_ones_count,
    random_function,
    returns_after_period,
    step,
)

# the worked three-stage register: P = x^3 + x^2 + 1, seed 110 (stage 0 first)
WORKED = LfsrConfig(3, frozenset({3, 2, 0}), 0b011)
# 70 stages, more than a 64-bit word holds
WIDE = LfsrConfig(70, frozenset({70, 69, 55, 54, 0}))


def cycle_states(config):
    """The states of state_cycle's stream: state t is the `length`-bit window
    from t, stage i at clock t being stage 0 at clock t + i, read round the
    cycle."""
    stream = state_cycle(config)
    n = len(stream)
    return [
        sum(stream[(t + i) % n] << i for i in range(config.length)) for t in range(n)
    ]


def stepped(config, steps):
    """`_walk`'s result by `step`: stage 0 over `steps` clocks from the seed,
    and the state after them."""
    s, stream = config.initial_state, bytearray()
    for _ in range(steps):
        stream.append(s & 1)
        s = step(s, config)
    return stream, s


def layout_of(*lengths):
    return RegisterLayout.from_lengths(
        [(chr(ord("a") + i), n) for i, n in enumerate(lengths)]
    )


@st.composite
def small_functions(draw):
    """A function over 1 to 12 stages cut into one to three registers, so
    tables shorter than one 64-assignment word, exactly one word and
    registers that straddle stage 6 all occur."""
    lengths = draw(
        st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(
            lambda ls: sum(ls) <= 12
        )
    )
    layout = layout_of(*lengths)
    mask = st.integers(1, (1 << layout.total_length) - 1)
    return AnfFunction(layout, draw(st.frozensets(mask, max_size=8)))


def single_register_generator(text, config):
    layout = RegisterLayout.single(config.length)
    return GeneratorInstance(layout, (config,), parse_function(text, layout))


def minterm_generator(mask, config):
    layout = RegisterLayout.single(config.length)
    f = minterm_function(mask, config.length)
    return GeneratorInstance(layout, (config,), f)


class TestLfsrConfig:
    def test_defaults_to_all_ones_seed(self):
        cfg = LfsrConfig(4, frozenset({4, 1, 0}))
        assert cfg.initial_state == 0b1111

    def test_standard_is_the_smallest_maximum_length_mask(self):
        # found by walking each candidate, without the library's order test
        for length in range(2, 17):
            first = maximum_length_polynomials(length)[0]
            assert LfsrConfig.standard(length).polynomial == frozenset(first)
        assert LfsrConfig.standard(5).polynomial == frozenset({5, 2, 0})
        # past the walks' reach, up to the bound the order test vouches for
        for length in range(17, lfsr.DEFAULT_VERIFICATION_BOUND + 1):
            assert verify_maximum_length(LfsrConfig.standard(length)) is True
        for length in (0, 1, lfsr.DEFAULT_VERIFICATION_BOUND + 1):
            with pytest.raises(MissingPolynomialError) as info:
                LfsrConfig.standard(length)
            assert isinstance(info.value, ValidationError)
            assert str(info.value) == (
                f"no built-in maximum-length polynomial for length {length}"
            )

    def test_polynomial_as_int(self):
        assert WORKED.polynomial_as_int == 0b1101

    @pytest.mark.parametrize(
        "length, poly, state",
        [
            (0, {1, 0}, None),
            (3, {3, 2}, None),  # no constant term
            (3, {2, 0}, None),  # no degree term
            (3, {4, 0}, None),  # exponent out of range
            (3, {3, -1, 0}, None),
            (3, {3, 2, 0}, 0),  # zero seed
            (3, {3, 2, 0}, 8),  # seed too wide
            (3, {3, 2, 0}, -1),
            (MAX_STAGES + 1, {MAX_STAGES + 1, 0}, None),  # past the layout's cap
        ],
    )
    def test_rejects_bad_configs(self, length, poly, state):
        with pytest.raises(ValidationError):
            LfsrConfig(length, frozenset(poly), state)

    def test_huge_length_is_refused_before_any_state_is_built(self):
        # the all-ones seed of this register alone would take ~375 MB
        length = 3_000_000_000
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValidationError, match="stage cap"):
                LfsrConfig(length, frozenset({length, 0}))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20


class TestStepAndCycle:
    def test_worked_example_cycle(self):
        assert cycle_states(WORKED) == [3, 1, 4, 2, 5, 6, 7]

    def test_cycle_visits_every_nonzero_state(self):
        rng = random.Random(3000)
        for length in range(2, 17):
            for exponents in maximum_length_polynomials(length):
                seed = rng.randrange(1, 1 << length)
                cfg = LfsrConfig(length, frozenset(exponents), seed)
                states = cycle_states(cfg)
                assert len(states) == (1 << length) - 1
                assert set(states) == set(range(1, 1 << length))
                # each state, the last included, clocks into the next
                for s, nxt in zip(states, states[1:] + states[:1]):
                    assert step(s, cfg) == nxt

    def test_degenerate_single_stage(self):
        cfg = LfsrConfig(1, frozenset({1, 0}))
        assert cycle_states(cfg) == [1]

    def test_short_cycle_polynomial_rejected(self):
        # x^3 + x^2 + x + 1 = (x + 1)^3 never sustains the 7-step period
        cfg = LfsrConfig(3, frozenset({3, 2, 1, 0}), 0b011)
        with pytest.raises(ValidationError):
            state_cycle(cfg)

    @pytest.mark.parametrize(
        "config",
        [LfsrConfig.standard(n) for n in range(2, 17)]
        # x^L + 1: the smallest exponent is L, so a pass makes L * stride clocks
        + [
            LfsrConfig(n, frozenset({n, 0}), seed)
            for n, seed in ((1, 1), (4, 0b0110), (9, 3))
        ]
        # several terms, the smallest above 1
        + [LfsrConfig(16, frozenset({16, 15, 13, 4, 0}), 0x1234)],
        ids=lambda cfg: f"L{cfg.length}-{cfg.polynomial_as_int:x}",
    )
    def test_walk_matches_stepwise(self, config):
        period = (1 << config.length) - 1
        for steps in (0, 1, config.length, 2 * config.length + 1, period, period + 5):
            assert lfsr._walk(config, steps) == stepped(config, steps)

    @pytest.mark.parametrize(
        "config",
        [
            # cycles of 4 and of 16 steps, neither dividing 2**L - 1
            LfsrConfig(4, frozenset({4, 0}), 0b0001),
            LfsrConfig(16, frozenset({16, 0}), 1),
            # x^8 + x^6 + x^5 + x^4 + 1 is primitive; times x + 1 it is not
            LfsrConfig(9, frozenset({9, 8, 7, 4, 1, 0}), 1),
        ],
    )
    def test_cycle_refuses_a_walk_that_misses_the_seed(self, config):
        assert not returns_after_period(config)
        with pytest.raises(ValidationError, match="does not return to the seed"):
            state_cycle(config)

    def test_seed_only_rotates_the_cycle(self):
        reference = cycle_states(WORKED)
        for seed in range(1, 8):
            cycle = cycle_states(LfsrConfig(3, frozenset({3, 2, 0}), seed))
            k = reference.index(seed)
            assert cycle == reference[k:] + reference[:k]


class TestGeneratorOutput:
    def test_minterm_functions_emit_one_hot_sequences(self):
        # each minterm fires exactly at its own state visit
        cycle = cycle_states(WORKED)
        for mask in range(1, 8):
            g = minterm_generator(mask, WORKED)
            expected = [1 if s == mask else 0 for s in cycle]
            assert generate_output(g, 7) == expected
            assert sum(expected) == 1

    def test_weight_one_minterm_mix(self):
        # XOR of the three single-bit-state minterms: fires at states 1, 2, 4
        layout = RegisterLayout.single(3)
        f = parse_function("m2*m1*m0 ^ m2 ^ m1 ^ m0", layout)
        g = GeneratorInstance(layout, (WORKED,), f)
        assert generate_output(g, 7) == [0, 1, 1, 1, 0, 0, 0]

    def test_stage_output_function(self):
        g = single_register_generator("m0", WORKED)
        assert generate_output(g, 7) == list(state_cycle(WORKED))

    def test_output_repeats_with_the_period(self):
        g = single_register_generator("m1*m0 ^ m2", WORKED)
        bits = generate_output(g, 21)
        assert bits[:7] == bits[7:14] == bits[14:]

    def test_rejects_negative_steps(self):
        g = single_register_generator("m0", WORKED)
        with pytest.raises(ValidationError):
            generate_output(g, -1)

    def test_chunked_path_matches_stepwise(self, monkeypatch):
        rng = random.Random(3001)
        cases = []
        for lengths in [(("m", 5),), (("a", 3), ("b", 4)), (("a", 2), ("b", 3), ("c", 5))]:
            layout = RegisterLayout.from_lengths(list(lengths))
            f = random_function(rng, layout, max_terms=5)
            if not f.terms:
                continue
            configs = tuple(LfsrConfig.standard(r.length) for r in layout.registers)
            period = layout.period()
            # none, part of one period, exactly one (whose walk runs past the
            # period by the stages read), a few past it, three laps and a bit
            steps = (0, period // 2, period, period + 3, 3 * period + 1)
            cases.append((GeneratorInstance(layout, configs, f), steps))
        # a register past 64 stages, read up to its top stage, beside one that
        # wraps round its period several times
        layout = RegisterLayout.from_lengths([("a", 3), ("b", 70)])
        f = parse_function("a0*b69 ^ b66*b0 ^ a2 ^ b61*a1*b7", layout)
        configs = (LfsrConfig.standard(3), WIDE)
        cases.append((GeneratorInstance(layout, configs, f), (0, 7, 30)))
        for g, step_counts in cases:
            for steps in step_counts:
                expected = generate_output(g, steps)
                for chunk in (1, 7, 64, 10**6):
                    monkeypatch.setattr(lfsr, "_CHUNK", chunk)
                    chunks = list(iter_output_chunks(g, steps))
                    flat = [int(b) for arr in chunks for b in arr]
                    assert flat == expected

    @pytest.mark.parametrize(
        "config, text, steps, error",
        [
            (WORKED, "m0", -1, ValidationError),
            (WORKED, "m0", DEFAULT_SIMULATION_BUDGET + 1, ResourceLimitError),
            # 2**25 - 1 states of the register the function reads
            (LfsrConfig(25, frozenset({25, 3, 0})), "m0", 1 << 25, ResourceLimitError),
        ],
        ids=["negative-steps", "budget", "state-cap"],
    )
    def test_limits_raise_when_called(self, monkeypatch, config, text, steps, error):
        def walked(*args):
            raise AssertionError("a register was walked")

        monkeypatch.setattr(lfsr, "state_cycle", walked)
        monkeypatch.setattr(lfsr, "_walk", walked)
        g = single_register_generator(text, config)
        # the call alone raises; no item is ever requested
        with pytest.raises(error):
            iter_output_chunks(g, steps)

    def test_every_chunk_but_the_last_is_whole_64_bit_lines(self):
        layout = geffe_layout()
        f = parse_function("a0*b0 ^ b0*c0 ^ c0", layout)
        configs = tuple(LfsrConfig.standard(r.length) for r in layout.registers)
        g = GeneratorInstance(layout, configs, f)
        for steps in (0, 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5):
            sizes = [len(chunk) for chunk in iter_output_chunks(g, steps)]
            assert sum(sizes) == steps
            assert all(n % 64 == 0 for n in sizes[:-1])

    def test_sixty_three_read_stages_match_stepwise(self):
        # the all-ones seed keeps the 63-stage product at 1 for the first 8
        # clocks, until the first zero fed in at stage 69 reaches stage 62
        product = "*".join(f"m{i}" for i in range(63))
        g = single_register_generator(product, WIDE)
        assert generate_output(g, 9) == [1] * 8 + [0]
        for text in (product, product + " ^ m62*m1 ^ m40"):
            g = single_register_generator(text, WIDE)
            chunks = list(iter_output_chunks(g, 100))
            flat = [int(b) for arr in chunks for b in arr]
            assert flat == generate_output(g, 100)

    def test_instance_validation(self):
        layout = geffe_layout()
        f = parse_function("a0*b0 ^ b0*c0 ^ c0", layout)
        good = (LfsrConfig.standard(2), LfsrConfig.standard(3), LfsrConfig.standard(5))
        with pytest.raises(ValidationError):
            GeneratorInstance(layout, good[:2], f)
        with pytest.raises(ValidationError):
            GeneratorInstance(layout, (good[0], good[1], LfsrConfig.standard(4)), f)
        other = parse_function("m0", RegisterLayout.single(3))
        with pytest.raises(ValidationError):
            GeneratorInstance(layout, good, other)


class TestVerifyMaximumLength:
    def test_known_answers(self):
        assert verify_maximum_length(LfsrConfig(3, frozenset({3, 2, 0}))) is True
        assert verify_maximum_length(LfsrConfig(2, frozenset({2, 1, 0}))) is True
        # irreducible but of order 5, not 15
        assert (
            verify_maximum_length(LfsrConfig(4, frozenset({4, 3, 2, 1, 0}))) is False
        )
        # reducible
        assert verify_maximum_length(LfsrConfig(3, frozenset({3, 2, 1, 0}))) is False

    def test_bound_forces_explicit_trust(self):
        cfg = LfsrConfig(25, frozenset({25, 3, 0}))
        with pytest.raises(UnverifiedPolynomialError) as info:
            verify_maximum_length(cfg)
        assert info.value.exit_code == 2
        assert lfsr._is_primitive(cfg.polynomial_as_int, 25) is True

    def test_table_entries_are_maximum_length(self):
        for length in range(2, 17):
            entries = maximum_length_polynomials(length)
            assert len(entries) == (1 if length == 2 else 2)
            for exponents in entries:
                cfg = LfsrConfig(length, frozenset(exponents))
                assert verify_maximum_length(cfg) is True

    @pytest.mark.parametrize("degree", range(2, 10))
    def test_agrees_with_cycle_enumeration(self, degree):
        # every polynomial of this degree with a constant term
        for middle in range(1 << (degree - 1)):
            poly = (1 << degree) | (middle << 1) | 1
            exponents = frozenset(
                e for e in range(degree + 1) if (poly >> e) & 1
            )
            cfg = LfsrConfig(degree, frozenset(exponents), 1)
            assert verify_maximum_length(cfg) is returns_after_period(cfg)


class TestCountingOracles:
    def test_truthtable_matches_naive_walk(self):
        rng = random.Random(3002)
        shapes = [(("m", 4),), (("m", 7),)] + list(COPRIME_SHAPES[:4])
        for shape in shapes:
            layout = RegisterLayout.from_lengths(list(shape))
            for _ in range(5):
                f = random_function(rng, layout, max_terms=6)
                assert count_ones_truthtable(f) == naive_ones_count(f)

    @settings(max_examples=150, deadline=None)
    @given(f=small_functions())
    # shorter than one word, exactly one, and b straddling stage 6
    @example(f=AnfFunction(layout_of(2, 3), frozenset({0b00101, 0b11000, 0b10})))
    @example(f=AnfFunction(layout_of(6), frozenset({0b111111, 0b1, 0b100100})))
    @example(
        f=AnfFunction(
            layout_of(4, 5, 3),
            frozenset({0b000_10001_0011, 1 << 11, 0b011_11111_0000}),
        )
    )
    def test_packed_truthtable_matches_naive_walk(self, f):
        assert count_ones_truthtable(f) == naive_ones_count(f)

    def test_truthtable_guard(self):
        f = parse_function("m0", RegisterLayout.single(24))
        with pytest.raises(ResourceLimitError):
            count_ones_truthtable(f)
        f = parse_function("m0", RegisterLayout.single(20))
        assert count_ones_truthtable(f) == 1 << 19

    def test_simulated_known_count(self):
        layout = geffe_layout()
        f = parse_function("a0*b0 ^ b0*c0 ^ c0", layout)
        configs = tuple(LfsrConfig.standard(r.length) for r in layout.registers)
        g = GeneratorInstance(layout, configs, f)
        assert count_ones_simulated(g) == 392

    def test_simulated_count_ignores_seed_and_polynomial_choice(self):
        layout = geffe_layout()
        f = parse_function("a0*b0 ^ b0*c0 ^ c0", layout)
        rng = random.Random(3003)
        for _ in range(4):
            configs = []
            for reg in layout.registers:
                table = maximum_length_polynomials(reg.length)
                exponents = table[rng.randrange(len(table))]
                seed = rng.randrange(1, 1 << reg.length)
                configs.append(LfsrConfig(reg.length, frozenset(exponents), seed))
            g = GeneratorInstance(layout, tuple(configs), f)
            assert count_ones_simulated(g) == 392

    def test_simulated_budget(self):
        g = single_register_generator("m0", LfsrConfig.standard(5))
        with pytest.raises(ResourceLimitError):
            count_ones_simulated(g, max_steps=30)

    def test_simulated_rejects_short_cycle_polynomial(self):
        cfg = LfsrConfig(4, frozenset({4, 3, 2, 1, 0}))
        g = single_register_generator("m0", cfg)
        with pytest.raises(ValidationError):
            count_ones_simulated(g)
        # trusting skips verification; the walk then covers three laps of the
        # order-5 cycle and simply reports what the sequence does
        trusted = count_ones_simulated(g, verify_polynomials=False)
        assert trusted == sum(generate_output(g, 15))

    def test_simulated_walk_holds_a_byte_per_clock(self):
        import numpy  # noqa: F401  (loaded first, so its import is not counted)

        layout = RegisterLayout.from_lengths([("a", 3), ("b", 16)])
        f = parse_function("a0*b15 ^ a2*b0 ^ b7", layout)
        configs = (LfsrConfig.standard(3), LfsrConfig.standard(16))
        g = GeneratorInstance(layout, configs, f)
        tracemalloc.start()
        try:
            ones = count_ones_simulated(g, verify_polynomials=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ones == count_ones_truthtable(f)
        # b's stream of one byte per clock takes 64 KiB; a Python int per
        # state of its 65,535 would take several MiB
        assert peak < 2 << 20

    def test_simulated_agrees_with_truthtable(self):
        rng = random.Random(3004)
        layout = RegisterLayout.from_lengths([("a", 3), ("b", 4)])
        configs = (LfsrConfig.standard(3), LfsrConfig.standard(4))
        for _ in range(10):
            f = random_function(rng, layout, max_terms=6)
            g = GeneratorInstance(layout, configs, f)
            assert count_ones_simulated(g) == count_ones_truthtable(f)
