"""Boolean functions in algebraic normal form over the stages of shift registers.

A monomial is the integer mask of its variable set; a function is a set of
monomial masks combined by exclusive OR.  Bit 0 is the rightmost position.
Registers partition the global positions: the first register owns the lowest
bits, the second the bits directly above it, and so on.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import index, itemgetter

from .errors import ExpressionError, ValidationError

__all__ = [
    "MAX_STAGES",
    "Register",
    "RegisterLayout",
    "AnfFunction",
    "parse_function",
]

# 2**10000 has 3011 digits, so every count and fraction of the period prints
# within Python's 4300-digit limit on converting an int to text
MAX_STAGES = 10_000

# a register's name, and the letter its variables start with
_LETTER = "[A-Za-z]"
_VAR_RE = re.compile(f"({_LETTER}?)([0-9]+)")
_XOR_SPLIT = re.compile(r"[+^]")


@dataclass(frozen=True)
class Register:
    """One shift register: single-letter name, stage count, global bit offset."""

    name: str
    length: int
    offset: int


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered registers partitioning global bit positions 0 .. L-1."""

    registers: tuple[Register, ...]

    def __post_init__(self) -> None:
        if not self.registers:
            raise ValidationError("layout needs at least one register")
        seen = set()
        offset = 0
        for reg in self.registers:
            if not re.fullmatch(_LETTER, reg.name):
                raise ValidationError(
                    f"register name must be a single letter, got {reg.name!r}"
                )
            if reg.name in seen:
                raise ValidationError(f"duplicate register name {reg.name!r}")
            seen.add(reg.name)
            if reg.length < 1:
                raise ValidationError(f"register {reg.name}: length must be positive")
            if reg.offset != offset:
                raise ValidationError(
                    f"register {reg.name}: offset {reg.offset} is not cumulative"
                    f" (expected {offset})"
                )
            offset += reg.length
        if offset > MAX_STAGES:
            raise ValidationError(f"layout holds more than {MAX_STAGES} stages in all")

    @classmethod
    def from_lengths(cls, items) -> "RegisterLayout":
        """Build a layout from (name, length) pairs."""
        regs = []
        offset = 0
        for name, length in items:
            regs.append(Register(name, length, offset))
            offset += length
        return cls(tuple(regs))

    @classmethod
    def single(cls, length: int) -> "RegisterLayout":
        return cls((Register("m", length, 0),))

    @property
    def total_length(self) -> int:
        last = self.registers[-1]
        return last.offset + last.length

    def register(self, name: str) -> Register:
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise ValidationError(f"unknown register {name!r}")

    def has_coprime_lengths(self) -> bool:
        lengths = [r.length for r in self.registers]
        return all(
            gcd(lengths[i], lengths[j]) == 1
            for i in range(len(lengths))
            for j in range(i + 1, len(lengths))
        )

    def period(self) -> int:
        """Joint output period: the product of the per-register periods 2**len - 1.

        Raises:
            ValidationError: if the register lengths are not pairwise coprime,
                in which case the product formula does not apply.
        """
        if not self.has_coprime_lengths():
            raise ValidationError(
                "register lengths must be pairwise coprime for period computation"
            )
        t = 1
        for reg in self.registers:
            t *= (1 << reg.length) - 1
        return t

    def weights(self, mask: int) -> tuple[int, ...]:
        """How many stages of each register mask holds, in register order."""
        # a list builds faster than a generator feeds tuple()
        return tuple(
            [
                (mask >> reg.offset & ((1 << reg.length) - 1)).bit_count()
                for reg in self.registers
            ]
        )

    def register_of(self, bit: int) -> Register:
        """The register owning a global bit position."""
        for reg in self.registers:
            if reg.offset <= bit < reg.offset + reg.length:
                return reg
        raise ValidationError(f"bit {bit} outside layout")

    def variable_name(self, bit: int) -> str:
        reg = self.register_of(bit)
        return f"{reg.name}{bit - reg.offset}"

    def format_masks(self, masks: list[int]) -> list[str]:
        """Grouped bit-string form of each mask, one group per register, first
        register rightmost, with the range checked once."""
        length = self.total_length
        for mask in (min(masks, default=0), max(masks, default=0)):
            if not 0 <= mask < (1 << length):
                raise ValidationError(f"mask {mask} outside layout of {length} bits")
        spec = f"0{length}b"
        # one register's form is its bit string, with nothing to cut; cutting
        # it anyway doubles the time of a million-mask listing
        if len(self.registers) == 1:
            return [format(mask, spec) for mask in masks]
        # character i of the bit string is stage length - 1 - i
        cut = itemgetter(
            *(
                slice(length - reg.offset - reg.length, length - reg.offset)
                for reg in reversed(self.registers)
            )
        )
        return [" ".join(cut(format(mask, spec))) for mask in masks]


@dataclass(frozen=True)
class AnfFunction:
    """Exclusive-OR combination of monomials, kept canonical.

    Canonical means: no duplicate monomials, no constant term, every mask
    nonzero and inside the layout.  The empty term set is legal and denotes
    the all-zero function.  Any iterable of integer masks is taken: each
    becomes an int, duplicates cancel in pairs (XOR is self-inverse), and
    the result is stored as a frozenset; a bool, float or other non-integer
    term is refused.
    """

    layout: RegisterLayout
    terms: frozenset[int]

    def __post_init__(self) -> None:
        terms = self.terms
        if type(terms) is not frozenset:
            terms = tuple(terms)
        if not all(type(t) is int for t in terms):
            terms = tuple(map(_term_mask, terms))
        if type(terms) is not frozenset:
            unique = frozenset(terms)
            if len(unique) < len(terms):
                # XOR is self-inverse: a monomial given twice cancels
                unique = frozenset(t for t, n in Counter(terms).items() if n % 2)
            terms = unique
        limit = 1 << self.layout.total_length
        for mask in (min(terms, default=1), max(terms, default=1)):
            if not 0 < mask < limit:
                raise ValidationError(
                    f"term mask {mask} outside layout of {self.layout.total_length} bits"
                )
        object.__setattr__(self, "terms", terms)

    @cached_property
    def support(self) -> int:
        """The mask of the stages any monomial reads."""
        support = 0
        for t in self.terms:
            support |= t
        return support

    def to_text(self) -> str:
        """Render in the input grammar; round-trips through parse_function.

        The empty function renders as "0" for display, which is deliberately
        not re-parseable (constants are rejected on input).
        """
        if not self.terms:
            return "0"
        # the names of the set bits of the support only, so the work grows
        # with the variables read, not with the layout's width
        names = {}
        support = self.support
        while support:
            low = support & -support
            b = low.bit_length() - 1
            names[b] = self.layout.variable_name(b)
            support ^= low
        monomials = []
        for mask in sorted(self.terms, reverse=True):
            # the set bits of mask, highest first
            variables = []
            while mask:
                top = mask.bit_length() - 1
                variables.append(names[top])
                mask ^= 1 << top
            monomials.append("*".join(variables))
        return " ^ ".join(monomials)


def _term_mask(t) -> int:
    """An integer-like term as an int; a bool, float or str is refused."""
    try:
        if isinstance(t, bool):
            raise TypeError
        return index(t)
    except TypeError:
        raise ValidationError(f"term mask {t!r} is not an integer") from None


def parse_function(text: str, layout: RegisterLayout) -> AnfFunction:
    """Parse an ANF expression over the layout's variables.

    Grammar: variables are <register-letter><decimal-index> (m0, a12, ...);
    '*' joins variables into a monomial; '^' or '+' joins monomials, both
    meaning exclusive OR; whitespace is ignored.  In a single-register layout
    the letter may be dropped for indices 2 and up; bare "0" and "1" always
    read as the unsupported constants and are rejected (write m0 / m1).

    Duplicate variables inside a monomial collapse (x*x = x) and duplicate
    monomials cancel in pairs, so the result is canonical; cancelling down to
    the empty function is legal, empty input text is not.
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    masks = []
    for monomial_text in _XOR_SPLIT.split(text):
        monomial_text = monomial_text.strip()
        if not monomial_text:
            raise ExpressionError("empty monomial (stray '^' or '+')")
        mask = 0
        for token in monomial_text.split("*"):
            token = token.strip()
            if not token:
                raise ExpressionError(
                    f"empty variable (stray '*') in monomial {_shown(monomial_text)}"
                )
            mask |= _variable_bit(token, layout)
        masks.append(mask)
    return AnfFunction(layout, masks)


def _variable_bit(token: str, layout: RegisterLayout) -> int:
    m = _VAR_RE.fullmatch(token)
    if not m:
        raise ExpressionError(f"malformed variable {_shown(token)}")
    name, digits = m.groups()
    if name:
        reg = layout.register(name)
    elif token in ("0", "1"):
        raise ExpressionError(
            f"constant term {token!r} is not supported; functions must be"
            " constant-free"
        )
    elif len(layout.registers) == 1:
        reg = layout.registers[0]
    else:
        raise ExpressionError(
            f"variable {_shown(token)} needs a register letter in a multi-register"
            " layout"
        )
    digits = digits.lstrip("0") or "0"
    # an index with more digits than the length is out of range; testing that
    # first keeps int() off texts past its 4300-digit limit
    if len(digits) > len(str(reg.length)) or int(digits) >= reg.length:
        # a long index is named by its digit count rather than echoed
        if len(token) <= 20:
            what = f"variable {token}: index {digits}"
        else:
            what = f"variable index of {len(digits)} digits"
        raise ExpressionError(
            f"{what} out of range for register {reg.name} of length {reg.length}"
        )
    return 1 << (reg.offset + int(digits))


def _shown(text: str) -> str:
    """text quoted for an error message, cut to 20 characters if longer."""
    if len(text) <= 20:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"
