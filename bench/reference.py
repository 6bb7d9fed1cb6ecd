"""Independent reference answers for every benchmark operation.

Nothing here imports the program.  Counts come from a support-projected
evaluation: only the k variables f actually uses matter, so f is evaluated
at all 2^k assignments of them (a Moebius transform of its ANF, in numpy),
and each assignment with f = 1 stands for every joint register state that
projects onto it.  A register of length n with d support variables has
2^(n-d) nonzero states per nonzero projection and 2^(n-d) - 1 for the zero
projection; register lengths are pairwise coprime, so the joint period
visits every combination once.  Those weights are Python integers.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

import workloads

# the README's example outputs, verbatim
GEFFE_ANALYZE = """\
function:   c0*b0 ^ c0 ^ b0*a0
registers:  a(2), b(3), c(5)
period:     651
ones:       392
zeros:      259
expected:   326
deviation:  19/186 of the period
magnitude:  irregular
tolerance:  1/100
verdict:    REJECT
final sum:
  +[1] 00000 001 01
  +[1] 00001 000 00
  -[1] 00001 001 00
"""
GEFFE_VERIFY = """\
symbolic:    392
truth-table: 392
simulated:   392
agreement:   PASS
"""
TOY_EXPAND = "111, 101, 011, 010 (4 minterms)\n"
WIDE_ONES = 1 << 127
WIDE_PERIOD = (1 << 128) - 1
FAMILY_PERIOD = 127 * 255 * 511
# the signed-sum entry guard `analyze` applies by default, as documented
MAX_SUM_ENTRIES = 1_000_000

_VAR = re.compile(r"([A-Za-z])([0-9]+)")


def parse(spec: dict):
    """(register (offset, length) pairs, monomials as sets of global bits)."""
    offsets = {}
    registers = []
    offset = 0
    for reg in spec["registers"]:
        offsets[reg["name"]] = offset
        registers.append((offset, reg["length"]))
        offset += reg["length"]
    terms = set()
    for monomial in re.split(r"[+^]", spec["function"]):
        bits = frozenset(
            offsets[m.group(1)] + int(m.group(2))
            for m in (_VAR.fullmatch(v.strip()) for v in monomial.split("*"))
        )
        terms ^= {bits}
    return registers, terms


def truth_table(terms, variables) -> np.ndarray:
    """f at every assignment of the listed variables (bit i = variables[i])."""
    position = {v: i for i, v in enumerate(variables)}
    table = np.zeros(1 << len(variables), dtype=np.uint8)
    for term in terms:
        table[sum(1 << position[b] for b in term)] ^= 1
    for i in range(len(variables)):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 1, :] ^= view[:, 0, :]
    return table


def projected_ones(spec: dict) -> int:
    """Ones in one full period of the generator the spec describes."""
    registers, terms = parse(spec)
    support = sorted(set().union(*terms)) if terms else []
    table = truth_table(terms, support).astype(bool)
    x = np.arange(1 << len(support), dtype=np.uint32)
    pattern = np.zeros(x.shape, dtype=np.uint8)
    weights_on, weights_off = [], []
    for r, (offset, length) in enumerate(registers):
        local = 0
        for i, b in enumerate(support):
            if offset <= b < offset + length:
                local |= 1 << i
        d = local.bit_count()
        if local:
            pattern |= ((x & local) != 0).astype(np.uint8) << r
        weights_on.append(1 << (length - d))
        weights_off.append((1 << (length - d)) - 1)
    per_pattern = np.bincount(pattern[table], minlength=1 << len(registers))
    total = 0
    for p, count in enumerate(per_pattern.tolist()):
        if count:
            weight = 1
            for r in range(len(registers)):
                weight *= weights_on[r] if p >> r & 1 else weights_off[r]
            total += count * weight
    return total


def expansion_digest(spec: dict) -> dict:
    """Count and SHA-256 of the ascending assignments where f is 1, as
    little-endian 64-bit integers: the minterms `expand` must list."""
    registers, terms = parse(spec)
    width = sum(length for _, length in registers)
    ones = np.flatnonzero(truth_table(terms, list(range(width)))).astype("<i8")
    return {"minterms": int(ones.size), "sha256": hashlib.sha256(ones.tobytes()).hexdigest()}


def must_refuse_fold(design: dict) -> bool:
    """True when `analyze` with its default guard has to refuse the design.

    XORing k distinct single-variable minterms gives, by inclusion-exclusion,
    the coefficient (-2)^(|S|-1) on the minterm of every nonempty subset S of
    them: 2^k - 1 entries, all nonzero.  Past the default guard a
    ResourceLimitError is a right output for the design, as is its exact
    count.
    """
    _, terms = parse(design["spec"])
    return all(len(t) == 1 for t in terms) and (1 << len(terms)) - 1 > MAX_SUM_ENTRIES


# REFUSALS[workload](design): a ResourceLimitError is the right output
REFUSALS = {"fold-wide": must_refuse_fold}


def check_fold(design: dict, out: dict) -> str | None:
    """None when the reported count is right, else what is wrong."""
    want = projected_ones(design["spec"])
    if out["ones"] != str(want):
        return f"ones {out['ones']}, reference {want}"
    return None


def check_verify(design: dict, out: dict) -> str | None:
    spec = design["spec"]
    want = projected_ones(spec)
    if "ones" in design and design["ones"] != want:
        return f"reference {want} differs from the stated count {design['ones']}"
    width = sum(r["length"] for r in spec["registers"])
    small = width <= 20
    problems = []
    if out["ones"] != str(want):
        problems.append(f"symbolic {out['ones']}")
    if out["truthtable"] != (str(want) if small else None):
        problems.append(f"truth table {out['truthtable']}")
    if not all(out["primitive"]):
        problems.append(f"primitive {out['primitive']}")
    if out["simulated"] != str(want):
        problems.append(f"simulated {out['simulated']}")
    if out["expansion"] != (expansion_digest(spec) if small else None):
        problems.append(f"expansion {out['expansion']}")
    if problems:
        return f"{', '.join(problems)}; reference {want}"
    return None


def _lines_with(stdout: str, *lines: str) -> bool:
    got = stdout.splitlines()
    return all(line in got for line in lines)


def _json_fields(stdout: str, **fields) -> bool:
    try:
        data = json.loads(stdout)
    except ValueError:
        return False
    return all(data.get(k) == v for k, v in fields.items())


def _expect_cli(kind: str, code: int, stdout: str, stderr: str) -> bool:
    if "Traceback" in stderr:
        return False
    if kind == "analyze-geffe":
        return code == 3 and stdout == GEFFE_ANALYZE
    if kind == "analyze-geffe-json":
        return code == 3 and _json_fields(
            stdout, ones="392", zeros="259", period="651", verdict="reject"
        )
    family_ones = str(workloads.FAMILY[4][1])
    if kind == "analyze-family":
        return code == 0 and _lines_with(
            stdout,
            f"period:     {FAMILY_PERIOD}",
            f"ones:       {family_ones}",
            "verdict:    ACCEPT",
        )
    if kind == "analyze-family-json":
        return code == 0 and _json_fields(
            stdout, ones=family_ones, period=str(FAMILY_PERIOD), verdict="accept"
        )
    if kind == "analyze-wide":
        return code == 0 and _lines_with(
            stdout,
            f"period:     {WIDE_PERIOD}",
            f"ones:       {WIDE_ONES}",
            "verdict:    ACCEPT",
        )
    if kind == "analyze-wide-json":
        return code == 0 and _json_fields(
            stdout, ones=str(WIDE_ONES), period=str(WIDE_PERIOD), verdict="accept"
        )
    if kind == "check-rules-wide":
        return code == 0 and any(
            line.startswith("[guarantee] ISOLATED_LINEAR_TERM (m0):")
            and line.endswith("exactly 2^127 ones")
            for line in stdout.splitlines()
        )
    if kind == "expand-toy":
        return code == 0 and stdout == TOY_EXPAND
    if kind == "verify-geffe":
        return code == 0 and stdout == GEFFE_VERIFY
    if kind == "simulate-geffe":
        return code == 0 and stdout == "steps: 651\nones: 392\n"
    if kind == "analyze-malformed":
        return code == 2 and stdout == "" and stderr.startswith("error: ")
    raise KeyError(kind)


def check_cli(design: dict, out: dict) -> str | None:
    if _expect_cli(design["kind"], out["code"], out["stdout"], out["stderr"]):
        return None
    return (
        f"{design['kind']}: exit {out['code']}, stdout {out['stdout'][:200]!r},"
        f" stderr {out['stderr'][-200:]!r}"
    )


CHECKS = {"fold-wide": check_fold, "verify-small": check_verify, "cli-cold": check_cli}
