"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from functools import cache

from balancegate.anf import AnfFunction, RegisterLayout
from balancegate.errors import ValidationError
from balancegate.lfsr import GeneratorInstance, LfsrConfig
from balancegate.minterms import minterm_expansion

# multi-register shapes with pairwise coprime lengths, total width <= 14
COPRIME_SHAPES = [
    (("a", 3), ("b", 4)),
    (("a", 3), ("b", 5)),
    (("a", 4), ("b", 5)),
    (("a", 3), ("b", 7)),
    (("a", 4), ("b", 7)),
    (("a", 5), ("b", 7)),
    (("a", 4), ("b", 9)),
    (("a", 2), ("b", 3), ("c", 5)),
    (("a", 3), ("b", 4), ("c", 5)),
    (("a", 3), ("b", 4), ("c", 7)),
]


def geffe_layout() -> RegisterLayout:
    return RegisterLayout.from_lengths([("a", 2), ("b", 3), ("c", 5)])


def family_layout() -> RegisterLayout:
    return RegisterLayout.from_lengths([("a", 7), ("b", 8), ("c", 9)])


def function_of(masks, width: int) -> AnfFunction:
    """The function over one width-stage register whose monomials are masks,
    which must be distinct."""
    terms = frozenset(masks)
    assert len(terms) == len(masks), "duplicate masks would collapse"
    return AnfFunction(RegisterLayout.single(width), terms)


def expansion(mask: int, length: int) -> frozenset[int]:
    """Minterms of one monomial over a length-stage register: every superset
    of its mask."""
    f = AnfFunction(RegisterLayout.single(length), frozenset({mask}))
    return frozenset(minterm_expansion(f).tolist())


def minterm_function(mask: int, length: int) -> AnfFunction:
    """The minterm function of mask over a length-stage register.  The
    expansion is an involution, so its ANF is the expansion of the mask."""
    return AnfFunction(RegisterLayout.single(length), expansion(mask, length))


def random_function(
    rng: random.Random, layout: RegisterLayout, max_terms: int = 6
) -> AnfFunction:
    width = layout.total_length
    terms = set()
    for _ in range(rng.randint(0, max_terms)):
        terms.add(rng.randrange(1, 1 << width))
    return AnfFunction(layout, frozenset(terms))


def isolated_term_function(
    rng: random.Random, length: int, max_extra_terms: int = 7
) -> tuple[AnfFunction, int]:
    """A function with one standalone linear monomial whose variable stays out
    of every other monomial; returns (function, isolated bit)."""
    j = rng.randrange(length)
    other_bits = [b for b in range(length) if b != j]
    terms = {1 << j}
    for _ in range(rng.randint(0, max_extra_terms)):
        k = rng.randint(1, min(4, length - 1))
        mask = 0
        for b in rng.sample(other_bits, k):
            mask |= 1 << b
        terms.add(mask)
    return AnfFunction(RegisterLayout.single(length), frozenset(terms)), j


def evaluate(f: AnfFunction, x: int) -> int:
    """Value of f at assignment x, bit i of x being global stage i."""
    return sum(x & t == t for t in f.terms) & 1


def support_of(masks) -> int:
    """The stages any of the masks holds."""
    support = 0
    for mask in masks:
        support |= mask
    return support


def naive_ones_count(f: AnfFunction) -> int:
    """Plain-loop oracle: walk every assignment with all segments nonzero."""
    layout = f.layout
    width = layout.total_length
    terms = sorted(f.terms)
    segments = [
        (reg.offset, (1 << reg.length) - 1) for reg in layout.registers
    ]
    total = 0
    for x in range(1 << width):
        if any((x >> off) & m == 0 for off, m in segments):
            continue
        acc = 0
        for t in terms:
            if x & t == t:
                acc ^= 1
        total += acc
    return total


def per_entry_ones(entries: dict[int, int], layout: RegisterLayout) -> int:
    """Ones count per joint period of a signed sum, mask to coefficient.

    Plain per-entry reference path: each entry's register weights give its
    factor, 2**(len - d) for weight d >= 1 and 2**len - 1 for d = 0.
    `minterms.exact_ones_multi`, which counts from the weight histogram
    instead, is cross-checked against it.
    """
    total = 0
    for mask, coeff in entries.items():
        factor = 1
        for reg in layout.registers:
            d = (mask >> reg.offset & ((1 << reg.length) - 1)).bit_count()
            factor *= (1 << (reg.length - d)) if d else (1 << reg.length) - 1
        total += coeff * factor
    return total


def step(state: int, cfg: LfsrConfig) -> int:
    """The state after one clock, for a reference independent of `lfsr._walk`.

    Term x**e of the polynomial P(x), e >= 1, taps stage L - e, and their
    XOR enters stage L - 1 as every stage moves down one.
    """
    feedback = 0
    for e in cfg.polynomial:
        if e:
            feedback ^= state >> (cfg.length - e) & 1
    return state >> 1 | feedback << (cfg.length - 1)


def returns_after_period(cfg: LfsrConfig) -> bool:
    """Whether the walk by `step` from the seed first comes back to it after
    exactly 2**L - 1 clocks, the period of a maximum-length register."""
    period = (1 << cfg.length) - 1
    s = cfg.initial_state
    for clocks in range(1, period + 1):
        s = step(s, cfg)
        if s == cfg.initial_state:
            return clocks == period
    return False


@cache
def maximum_length_polynomials(length: int) -> tuple[tuple[int, ...], ...]:
    """The two maximum-length polynomials of a degree with the smallest
    coefficient masks, as exponent tuples, found by `returns_after_period`
    alone.  Degree 2 has only one, and below degree 2 none is returned: the
    library has no built-in there."""
    found = []
    # x^length and 1 with every set of middle terms, in ascending mask order
    for middle in range(1 << (length - 1) if length >= 2 else 0):
        exponents = frozenset(
            {length, 0} | {e for e in range(1, length) if middle >> (e - 1) & 1}
        )
        if returns_after_period(LfsrConfig(length, exponents, 1)):
            found.append(tuple(sorted(exponents, reverse=True)))
            if len(found) == 2:
                break
    return tuple(found)


def generate_output(g: GeneratorInstance, steps: int) -> list[int]:
    """First `steps` output bits, all registers clocking simultaneously.

    Plain per-step reference path; the chunked `lfsr.iter_output_chunks` is
    cross-checked against it.
    """
    if steps < 0:
        raise ValidationError("steps must be non-negative")
    states = [cfg.initial_state for cfg in g.lfsrs]
    offsets = [reg.offset for reg in g.layout.registers]
    out = []
    for _ in range(steps):
        joint = 0
        for s, off in zip(states, offsets):
            joint |= s << off
        out.append(evaluate(g.function, joint))
        for i, cfg in enumerate(g.lfsrs):
            states[i] = step(states[i], cfg)
    return out
