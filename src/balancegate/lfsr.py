"""Shift-register simulation: the brute-force ground truth for ones counting.

States are integers with bit i holding stage i, so stage 0 is both the output
stage and the least significant bit.  A clock emits stage 0, shifts every
stage down by one, and feeds the XOR of the tapped stages into stage L-1.
The taps come from the reciprocal of the connection polynomial: term x**e of
P(x) taps stage L-e (the constant term is the shift itself, not a tap).

Since every stage moves down one per clock, stage i at clock t is stage 0 at
clock t + i.  A walk therefore keeps only stage 0, one byte per clock, and
each stage a function reads is that stream from clock i on.  `_walk` is the
only code that clocks a register, and it makes the stream by its recurrence
rather than clock by clock: s[t + L] is the XOR over e in P, e >= 1, of
s[t + L - e], and since P(x)**(2**j) = P(x**(2**j)) over GF(2), so is
s[t + L*2**j] of s[t + (L - e)*2**j].  One numpy pass per exponent thus
makes e_min * 2**j clocks at once, e_min being P's smallest positive
exponent.

The truth-table walk packs the table 64 assignments to a uint64 word: bit k
of word w is assignment 64*w + k, so a stage below 6 is one constant word
pattern and a stage from 6 on selects whole words.

The register states themselves are plain ints.  numpy is imported only inside
the functions that build arrays, so importing this module, as every command
does, does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from operator import and_, or_
from typing import TYPE_CHECKING, Callable, Iterator

from .anf import MAX_STAGES, AnfFunction, RegisterLayout
from .errors import (
    MissingPolynomialError,
    ResourceLimitError,
    UnverifiedPolynomialError,
    ValidationError,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_SIMULATION_BUDGET",
    "ENV_MAX_PERIOD",
    "DEFAULT_VERIFICATION_BOUND",
    "DEFAULT_TRUTHTABLE_BITS",
    "LfsrConfig",
    "GeneratorInstance",
    "state_cycle",
    "iter_output_chunks",
    "count_ones_simulated",
    "count_ones_truthtable",
    "verify_maximum_length",
    "require_maximum_length",
]

DEFAULT_SIMULATION_BUDGET = 1 << 31
# the environment variable through which the command line moves that budget
ENV_MAX_PERIOD = "BALANCEGATE_MAX_PERIOD"
DEFAULT_VERIFICATION_BOUND = 24
DEFAULT_TRUTHTABLE_BITS = 20

# Vectorized output materializes one byte per clock of each read register's
# walk, and yields it in chunks so the arrays per chunk stay small.
_VECTOR_CYCLE_CAP = 1 << 24
_CHUNK = 1 << 16

# The truth table's word of stage b < 6: bit k of a word is set where bit b of
# k is, as for assignment 64*w + k of any word w.
_FULL_WORD = (1 << 64) - 1
_STAGE_WORDS = tuple(
    sum(1 << k for k in range(64) if k >> b & 1) for b in range(6)
)


def _stage_words(mask: int) -> list[int]:
    return [_STAGE_WORDS[b] for b in range(6) if mask >> b & 1]


@dataclass(frozen=True)
class LfsrConfig:
    """One register: stage count, connection polynomial, starting state.

    The polynomial is the set of exponents with coefficient 1; it must have
    degree equal to the register length and a constant term.  The default
    starting state is all ones.
    """

    length: int
    polynomial: frozenset[int]
    initial_state: int | None = None

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValidationError("register length must be positive")
        # checked before any 1 << length, an int of length bits
        if self.length > MAX_STAGES:
            raise ValidationError(f"register length is past the {MAX_STAGES}-stage cap")
        exponents = frozenset(self.polynomial)
        object.__setattr__(self, "polynomial", exponents)
        if any(not 0 <= e <= self.length for e in exponents):
            raise ValidationError(
                f"polynomial exponents must lie in [0, {self.length}]"
            )
        if 0 not in exponents or self.length not in exponents:
            raise ValidationError(
                f"connection polynomial needs both the x^{self.length} term and"
                " a constant term"
            )
        if self.initial_state is None:
            object.__setattr__(self, "initial_state", (1 << self.length) - 1)
        if not 0 < self.initial_state < (1 << self.length):
            raise ValidationError(
                "initial state must be nonzero and fit the register"
            )

    @classmethod
    def standard(cls, length: int, initial_state: int | None = None) -> "LfsrConfig":
        """Config using the built-in polynomial: the maximum-length one with
        the smallest coefficient mask, for lengths 2 to
        DEFAULT_VERIFICATION_BOUND, where verify_maximum_length vouches for it.

        Raises:
            MissingPolynomialError: any other length.
        """
        if not 2 <= length <= DEFAULT_VERIFICATION_BOUND:
            raise MissingPolynomialError(
                f"no built-in maximum-length polynomial for length {length}"
            )
        mask = _smallest_primitive(length)
        exponents = frozenset(e for e in range(length + 1) if mask >> e & 1)
        return cls(length, exponents, initial_state)

    @property
    def polynomial_as_int(self) -> int:
        return sum(1 << e for e in self.polynomial)


@dataclass(frozen=True)
class GeneratorInstance:
    """A layout, one configured register per layout entry, and the function
    combining the joint stage contents into the output bit."""

    layout: RegisterLayout
    lfsrs: tuple[LfsrConfig, ...]
    function: AnfFunction

    def __post_init__(self) -> None:
        if len(self.lfsrs) != len(self.layout.registers):
            raise ValidationError("one register config per layout entry required")
        for cfg, reg in zip(self.lfsrs, self.layout.registers):
            if cfg.length != reg.length:
                raise ValidationError(
                    f"register {reg.name}: config length {cfg.length} does not"
                    f" match layout length {reg.length}"
                )
        if self.function.layout != self.layout:
            raise ValidationError("function layout does not match generator layout")


def _walk(config: LfsrConfig, steps: int) -> tuple[bytearray, int]:
    """Stage 0 over the first `steps` clocks from the seed, one byte per
    clock, and the state after them."""
    import numpy as np

    length, seed = config.length, config.initial_state
    exponents = sorted(e for e in config.polynomial if e)
    # the L bytes past `steps` are the end state, stage i at clock steps + i
    buf = bytearray(steps + length)
    buf[:length] = bytes((seed >> i) & 1 for i in range(length))
    s = np.frombuffer(buf, dtype=np.uint8)
    done, stride = length, 1
    while done < len(s):
        # the largest stride with L * stride bytes done; s[t + L*stride], the
        # XOR of s[t + (L-e)*stride], then reads only done bytes for the next
        # e_min * stride values of t
        while length * stride * 2 <= done:
            stride *= 2
        n = min(exponents[0] * stride, len(s) - done)
        block, first = s[done : done + n], done - length * stride
        for e in exponents:
            start = first + (length - e) * stride
            block ^= s[start : start + n]
        done += n
    s = block = None  # buf cannot be trimmed while an array views it
    end = sum(bit << i for i, bit in enumerate(buf[steps:]))
    del buf[steps:]
    return buf, end


def state_cycle(config: LfsrConfig) -> bytearray:
    """Stage 0 over one nominal period from the seed, one byte per clock; the
    state at clock t is the `length`-byte window from t, read round the cycle.

    The walk takes exactly 2**length - 1 steps and checks that it lands back
    on the seed, so a polynomial whose cycle length does not divide the
    nominal period is rejected here.
    """
    period = (1 << config.length) - 1
    stream, s = _walk(config, period)
    if s != config.initial_state:
        raise ValidationError(
            "state walk does not return to the seed after"
            f" {period} steps; the connection polynomial does not sustain the"
            " nominal period"
        )
    return stream


def iter_output_chunks(
    g: GeneratorInstance, steps: int, *, max_steps: int | None = None
) -> Iterator[np.ndarray]:
    """Output bits as uint8 arrays, built from each read register's stream.

    Every chunk but the last holds exactly _CHUNK = 2**16 bits, a whole
    number of 64-bit lines, and the last holds the rest (no chunk at all for
    zero steps).

    Each register the function reads is walked once as its stage-0 output,
    one byte per clock, and a stage it reads is a slice of that stream.  A
    run of at most one period walks steps clocks plus one per stage up to the
    highest read; a longer run repeats the register's state_cycle, whose
    seed-return check rejects a polynomial that does not sustain the period.
    Each chunk is the XOR over the terms of the AND of their stages' slices,
    so the function may read any number of stages.

    This is the one place a simulation is checked.  In this order, at the
    call and before any register is walked, it raises:
        ValidationError: steps is negative.
        ResourceLimitError: steps exceeds max_steps, DEFAULT_SIMULATION_BUDGET
            when None; its hint names ENV_MAX_PERIOD.
        ResourceLimitError: a register the function reads would walk more
            than 2**24 states.
    """
    if steps < 0:
        raise ValidationError("steps must be non-negative")
    budget = DEFAULT_SIMULATION_BUDGET if max_steps is None else max_steps
    if steps > budget:
        refusal = ResourceLimitError(
            f"{steps} steps exceed the simulation budget {budget}"
        )
        refusal.hint = f"set {ENV_MAX_PERIOD} to raise it"
        raise refusal
    walked = []
    for cfg, reg in zip(g.lfsrs, g.layout.registers):
        read = g.function.support >> reg.offset & ((1 << reg.length) - 1)
        if not read:
            continue
        count = min(steps, (1 << cfg.length) - 1)
        if count > _VECTOR_CYCLE_CAP:
            raise ResourceLimitError(
                f"register {reg.name}: {count} states too many to materialize"
                " for vectorized output"
            )
        walked.append((cfg, reg.offset, read))
    return _output_chunks(walked, sorted(g.function.terms), steps)


def _output_chunks(walked: list, terms: list[int], steps: int) -> Iterator[np.ndarray]:
    """iter_output_chunks' walk and yield, once its limits have been checked."""
    import numpy as np

    head = min(_CHUNK, steps)
    # global stage -> its stream from clock 0 on, and its register's period
    stages = {}
    for cfg, offset, read in walked:
        period, top = (1 << cfg.length) - 1, read.bit_length() - 1
        if steps > period:
            # one period, repeated so no chunk's slice runs off the end
            cycle = np.frombuffer(state_cycle(cfg), dtype=bool)
            stream = np.tile(cycle, 1 + -(-(head + top) // period))
        else:
            stream = np.frombuffer(_walk(cfg, steps + top)[0], dtype=bool)
        for i in range(top + 1):
            if read >> i & 1:
                stages[offset + i] = (stream[i:], period)
    factors = [[b for b in stages if t >> b & 1] for t in terms]
    for start in range(0, steps, _CHUNK):
        n = min(_CHUNK, steps - start)
        cols = {b: col[start % p : start % p + n] for b, (col, p) in stages.items()}
        product = lambda factor: reduce(and_, map(cols.__getitem__, factor))
        yield _values(factors, product, np.zeros(n, dtype=bool)).view(np.uint8)


def _values(terms: list, product: Callable, out: np.ndarray) -> np.ndarray:
    """f at every point of out, which starts at zero: the XOR over its terms
    of product(term), that term's value at each point.  A point is one bool,
    or a word of 64 bits."""
    for t in terms:
        out ^= product(t)
    return out


def count_ones_simulated(
    g: GeneratorInstance,
    *,
    max_steps: int | None = None,
    verify_polynomials: bool = True,
) -> int:
    """Ones in exactly one full period of generated output.

    The count depends only on the combining function and the register
    lengths: seeds rotate the sequence and maximum-length polynomials permute
    the state order, neither changes the multiset of joint states visited.

    Raises:
        ResourceLimitError: iter_output_chunks' budget and state limits on
            the full period, with max_steps as its budget, before any register
            is walked.
        UnverifiedPolynomialError: a polynomial cannot be verified and
            verify_polynomials was left on; checked after the limits above.
        ValidationError: a polynomial fails maximum-length verification, or,
            with verify_polynomials off, a walk does not return to its seed.
    """
    chunks = iter_output_chunks(g, g.layout.period(), max_steps=max_steps)
    if verify_polynomials:
        require_maximum_length(g)
    import numpy as np

    return sum(int(np.count_nonzero(bits)) for bits in chunks)


def count_ones_truthtable(f: AnfFunction) -> int:
    """Ones per period counted assignment by assignment.

    Evaluates f at every joint assignment whose register segments are all
    nonzero (each register visits each of its nonzero states; the zero state
    never occurs) and counts those where it is 1.  The table holds 64
    assignments to a uint64 word, so each numpy pass evaluates one term or
    one register's mask on 64 assignments per element.
    """
    layout = f.layout
    length = layout.total_length
    if length > DEFAULT_TRUTHTABLE_BITS:
        raise ResourceLimitError(
            f"{length}-bit layout above the {DEFAULT_TRUTHTABLE_BITS}-bit"
            " truth-table guard"
        )
    import numpy as np

    w = np.arange(max(1, (1 << length) >> 6), dtype=np.int64)
    zero, full = np.uint64(0), np.uint64(_FULL_WORD)

    def term(t: int) -> np.ndarray:
        # the stages below 6 AND into one pattern, the others pick words
        hi, word = t >> 6, reduce(and_, _stage_words(t), _FULL_WORD)
        return np.where((w & hi) == hi, np.uint64(word), zero)

    on = _values(sorted(f.terms), term, np.zeros(len(w), dtype=np.uint64))
    for reg in layout.registers:
        # nonzero segment: its stages OR'd, a whole word where one above 5 is set
        segment = ((1 << reg.length) - 1) << reg.offset
        hi, word = segment >> 6, reduce(or_, _stage_words(segment), 0)
        on &= np.where((w & hi) != 0, full, np.uint64(word))
    if length < 6:
        # the one word holds 2**length assignments, and its other bits none
        on &= np.uint64((1 << (1 << length)) - 1)
    return int.from_bytes(on.tobytes(), "little").bit_count()


def verify_maximum_length(config: LfsrConfig) -> bool:
    """True exactly when every nonzero seed walks a full 2**L - 1 state cycle.

    Decided through the multiplicative order of x modulo the polynomial,
    which equals the state cycle length; the equivalence is exercised against
    direct cycle enumeration in the tests.

    Raises:
        UnverifiedPolynomialError: degree above DEFAULT_VERIFICATION_BOUND;
            such a polynomial can only be accepted by explicit trust, never
            silently.
    """
    if config.length > DEFAULT_VERIFICATION_BOUND:
        raise UnverifiedPolynomialError(
            f"degree {config.length} is above the verification bound"
            f" {DEFAULT_VERIFICATION_BOUND};"
            " the polynomial can only be trusted explicitly"
        )
    return _is_primitive(config.polynomial_as_int, config.length)


def require_maximum_length(g: GeneratorInstance) -> None:
    """Raise unless every register's polynomial verifies as maximum-length.

    Raises:
        ValidationError: a polynomial is not maximum-length.
        UnverifiedPolynomialError: a degree is above DEFAULT_VERIFICATION_BOUND.
    """
    for cfg, reg in zip(g.lfsrs, g.layout.registers):
        try:
            ok = verify_maximum_length(cfg)
        except UnverifiedPolynomialError as exc:
            raise UnverifiedPolynomialError(f"register {reg.name}: {exc}") from None
        if not ok:
            raise ValidationError(
                f"register {reg.name}: connection polynomial is not maximum-length"
            )


# -- GF(2) polynomial arithmetic on integer masks ----------------------------


def _poly_mod(a: int, mod: int) -> int:
    deg = mod.bit_length() - 1
    while a.bit_length() - 1 >= deg and a:
        a ^= mod << (a.bit_length() - 1 - deg)
    return a


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
    return _poly_mod(result, mod)


def _poly_powmod(base: int, exponent: int, mod: int) -> int:
    result = 1
    base = _poly_mod(base, mod)
    while exponent:
        if exponent & 1:
            result = _poly_mulmod(result, base, mod)
        base = _poly_mulmod(base, base, mod)
        exponent >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


@cache
def _smallest_primitive(degree: int) -> int:
    # an even number of terms makes x + 1 a factor, so only odd weights can be
    # primitive; the scan starts at x^degree + 1 and always ends (there is a
    # primitive polynomial of every degree)
    poly = (1 << degree) | 1
    while poly.bit_count() % 2 == 0 or not _is_primitive(poly, degree):
        poly += 2
    return poly


def _is_primitive(poly: int, degree: int) -> bool:
    # order of x modulo the polynomial must be exactly 2**degree - 1
    n = (1 << degree) - 1
    x = 0b10
    if _poly_powmod(x, n, poly) != 1:
        return False
    return all(_poly_powmod(x, n // p, poly) != 1 for p in _prime_factors(n))
