"""Generator description files: JSON schema, validation, model building.

A description names the registers with their lengths, optionally pins a
connection polynomial (exponent list) and a starting state (stage-0-first
bit string) per register, gives the combining function as an ANF expression,
and may set the accept tolerance:

    {
      "registers": [
        {"name": "a", "length": 2},
        {"name": "b", "length": 3, "polynomial": [3, 1, 0], "initial_state": "110"},
        {"name": "c", "length": 5}
      ],
      "function": "a0*b0 ^ b0*c0 ^ c0",
      "tolerance": "1/100"
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .analyzer import VerdictPolicy
from .anf import AnfFunction, RegisterLayout, parse_function
from .errors import ValidationError
from .lfsr import GeneratorInstance, LfsrConfig

__all__ = ["RegisterSpec", "GeneratorSpec", "load_spec", "parse_spec"]

_TOP_KEYS = {"registers", "function", "tolerance"}
_REGISTER_KEYS = {"name", "length", "polynomial", "initial_state"}


@dataclass(frozen=True)
class RegisterSpec:
    name: str
    length: int
    polynomial: tuple[int, ...] | None
    initial_state: int | None


@dataclass(frozen=True)
class GeneratorSpec:
    """Validated file content, still symbolic (no LFSR configs built yet)."""

    registers: tuple[RegisterSpec, ...]
    function_text: str
    tolerance: Fraction | None

    def layout(self) -> RegisterLayout:
        return RegisterLayout.from_lengths([(r.name, r.length) for r in self.registers])

    def function(self) -> AnfFunction:
        return parse_function(self.function_text, self.layout())

    def instance(self, *, notice: Callable[[str], None] | None = None) -> GeneratorInstance:
        """Build a runnable generator, filling in defaults where the file is
        silent: the built-in polynomial for the length, and an all-ones seed.
        Each applied default is reported through `notice`.
        """
        layout = self.layout()
        configs = []
        for reg in self.registers:
            if reg.polynomial is not None:
                cfg = LfsrConfig(
                    reg.length, frozenset(reg.polynomial), reg.initial_state
                )
            else:
                try:
                    cfg = LfsrConfig.standard(reg.length, reg.initial_state)
                except ValidationError as exc:
                    raise ValidationError(f"register {reg.name}: {exc}") from None
                if notice is not None:
                    degrees = "+".join(
                        f"x^{e}" if e else "1"
                        for e in sorted(cfg.polynomial, reverse=True)
                    )
                    notice(
                        f"register {reg.name}: using built-in polynomial {degrees}"
                    )
            if reg.initial_state is None and notice is not None:
                notice(f"register {reg.name}: using all-ones initial state")
            configs.append(cfg)
        return GeneratorInstance(layout, tuple(configs), self.function())


def load_spec(path: str) -> GeneratorSpec:
    """Read and validate a generator description file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # ValueError covers malformed JSON and text that is not UTF-8
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    return parse_spec(data)


def parse_spec(data) -> GeneratorSpec:
    if not isinstance(data, dict):
        raise ValidationError("description must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown keys: {', '.join(sorted(unknown))}")
    if "registers" not in data or "function" not in data:
        raise ValidationError('description needs "registers" and "function"')

    raw_registers = data["registers"]
    if not isinstance(raw_registers, list) or not raw_registers:
        raise ValidationError('"registers" must be a non-empty list')
    registers = tuple(_parse_register(entry, i) for i, entry in enumerate(raw_registers))
    # the layout's rules, its stage cap among them, keep a huge length out
    # of LfsrConfig
    RegisterLayout.from_lengths([(r.name, r.length) for r in registers])
    for i, reg in enumerate(registers):
        # x^L + 1 stands in for an unpinned polynomial: it only has to be well formed
        exponents = (reg.length, 0) if reg.polynomial is None else reg.polynomial
        try:
            LfsrConfig(reg.length, frozenset(exponents), reg.initial_state)
        except ValidationError as exc:
            raise ValidationError(f"registers[{i}]: {exc}") from None

    function_text = data["function"]
    if not isinstance(function_text, str) or not function_text.strip():
        raise ValidationError('"function" must be a non-empty string')

    tolerance = None
    if "tolerance" in data:
        tolerance = VerdictPolicy(data["tolerance"]).relative_tolerance

    return GeneratorSpec(registers, function_text, tolerance)


def _parse_register(entry, index: int) -> RegisterSpec:
    where = f"registers[{index}]"
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: must be an object")
    unknown = set(entry) - _REGISTER_KEYS
    if unknown:
        raise ValidationError(f"{where}: unknown keys: {', '.join(sorted(unknown))}")
    name = entry.get("name")
    if not isinstance(name, str):
        raise ValidationError(f'{where}: "name" must be a string')
    length = entry.get("length")
    if not isinstance(length, int) or isinstance(length, bool) or length < 1:
        raise ValidationError(f'{where}: "length" must be a positive integer')

    polynomial = None
    if "polynomial" in entry:
        raw = entry["polynomial"]
        if not isinstance(raw, list) or not all(
            isinstance(e, int) and not isinstance(e, bool) for e in raw
        ):
            raise ValidationError(f'{where}: "polynomial" must be a list of integers')
        if len(set(raw)) != len(raw):
            raise ValidationError(f'{where}: "polynomial" has repeated exponents')
        polynomial = tuple(sorted(raw, reverse=True))

    initial_state = None
    if "initial_state" in entry:
        raw = entry["initial_state"]
        if not isinstance(raw, str) or len(raw) != length or set(raw) - {"0", "1"}:
            raise ValidationError(
                f'{where}: "initial_state" must be a {length}-character string'
                " of 0s and 1s (stage 0 first)"
            )
        initial_state = int(raw[::-1], 2)
    return RegisterSpec(name, length, polynomial, initial_state)
