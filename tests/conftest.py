"""Shared helpers for the test suite."""

from __future__ import annotations

import random

from balancegate.anf import AnfFunction, RegisterLayout
from balancegate.errors import ValidationError
from balancegate.lfsr import GeneratorInstance, lfsr_step
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
    return minterm_expansion(
        AnfFunction(RegisterLayout.single(length), frozenset({mask}))
    )


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


def generate_output(g: GeneratorInstance, steps: int) -> list[int]:
    """First `steps` output bits, all registers clocking simultaneously.

    Plain per-step reference path; the chunked `lfsr.iter_output_chunks` is
    cross-checked against it.
    """
    if steps < 0:
        raise ValidationError("steps must be non-negative")
    states = [cfg.initial_state for cfg in g.lfsrs]
    offsets = [reg.offset for reg in g.layout.registers]
    evaluate = g.function.evaluate
    out = []
    for _ in range(steps):
        joint = 0
        for s, off in zip(states, offsets):
            joint |= s << off
        out.append(evaluate(joint))
        for i, cfg in enumerate(g.lfsrs):
            _, states[i] = lfsr_step(states[i], cfg)
    return out
