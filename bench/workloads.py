"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical designs.  Designs are plain JSON-ready dicts holding a spec
file body (the format `balancegate.specfile.parse_spec` reads), so the
program under test only ever receives generated inputs.  Nothing here
imports the program.
"""

from __future__ import annotations

import random
from math import gcd

# 125 stages, period (2^29-1)(2^31-1)(2^32-1)(2^33-1), about 4.2e37
FOLD_LAYOUT = (("a", 29), ("b", 31), ("c", 32), ("d", 33))
FOLD_SUPPORTS = tuple(range(12, 21))
# one tail design per this many: its support sits past the point where the
# signed sum outgrows the default entry guard
FOLD_TAIL_EVERY = 20
FOLD_TAIL_SUPPORTS = (22, 23, 24)
# designs per pass; a run makes at least one whole pass
FOLD_POOL = 60

# the three-register case-study family over lengths 7, 8, 9, with the ones
# counts stated for it by hand (tests/test_acceptance.py)
FAMILY_LAYOUT = (("a", 7), ("b", 8), ("c", 9))
FAMILY = (
    ("a0*b0 ^ b0*c0 ^ a0*c0 ^ a0 ^ b0 ^ c0", 12411328),
    ("a0*b0 ^ b0*c0 ^ a0 ^ b0 ^ c0", 12427712),
    ("a0*b0 ^ b0*c0 ^ b0", 4153472),
    ("a0*b0 ^ b0*c0 ^ a0", 8314944),
    ("a0*b0 ^ c0", 8282368),
)
VERIFY_WIDTHS = tuple(range(12, 21))
# one case-study design per this many
VERIFY_FAMILY_EVERY = 20
VERIFY_POOL = 100
# lengths with a built-in maximum-length polynomial
_BUILTIN_LENGTHS = range(2, 17)


def _spec(layout, terms, initial_states=None) -> dict:
    """Spec body for a layout and monomials given as sets of global bit positions."""
    names = []
    registers = []
    for i, (name, length) in enumerate(layout):
        names.extend(f"{name}{stage}" for stage in range(length))
        reg = {"name": name, "length": length}
        if initial_states is not None:
            reg["initial_state"] = initial_states[i]
        registers.append(reg)
    function = " ^ ".join(
        "*".join(names[b] for b in sorted(term, reverse=True))
        for term in sorted(terms, key=lambda t: sorted(t, reverse=True), reverse=True)
    )
    return {"registers": registers, "function": function}


def _random_terms(rng: random.Random, variables, n_terms: int, max_degree: int):
    """n_terms distinct monomials of degree 1..max_degree over the variables,
    every variable used at least once, so the support is exactly `variables`."""
    order = list(variables)
    rng.shuffle(order)
    terms = set()
    while len(terms) < n_terms:
        degree = rng.randint(1, max_degree)
        anchor = order[len(terms)] if len(terms) < len(order) else rng.choice(order)
        rest = [v for v in order if v != anchor]
        term = frozenset([anchor, *rng.sample(rest, degree - 1)])
        terms.add(term)
    return terms


def _spread(rng: random.Random, k: int) -> list[float]:
    """k points in [0, 1) that cover it evenly in every prefix: a van der
    Corput sequence under a seeded rotation."""
    shift = rng.random()
    points = []
    for j in range(k):
        v, denominator = 0.0, 1.0
        while j:
            denominator *= 2
            j, bit = divmod(j, 2)
            v += bit / denominator
        points.append((v + shift) % 1.0)
    return points


def fold_wide(seed: int, count: int = FOLD_POOL) -> list[dict]:
    """Random functions over the 125-stage layout, in-process `analyze` only.

    Support cycles through 12..20, and per support the monomial count runs
    evenly over support..2*support, so any prefix of the list holds the same
    mix; monomials have degree 1..4.  Every FOLD_TAIL_EVERY-th design is a
    tail design: a linear function of 22..24 variables, whose signed sum has
    2^support - 1 entries and outgrows the default guard after 20 steps.

    The monomial structures over abstract variables come from one stream
    shared by every seed; the seed places each design's variables on
    register stages, keeping their order.  The fold takes the monomials in
    mask order, which an order-keeping placement does not change, so every
    seed asks the fold for the same work on different functions (common
    random numbers).  Fold cost varies far more between structures and
    orders than the bench's bounds allow between seeds.
    """
    shapes = random.Random("fold-wide:structures")
    place = random.Random(f"fold-wide:{seed}")
    width = sum(n for _, n in FOLD_LAYOUT)
    share = {s: iter(_spread(shapes, count)) for s in FOLD_SUPPORTS}
    designs = []
    for i in range(count):
        tail = i % FOLD_TAIL_EVERY == FOLD_TAIL_EVERY - 1
        if tail:
            support = FOLD_TAIL_SUPPORTS[i // FOLD_TAIL_EVERY % len(FOLD_TAIL_SUPPORTS)]
            abstract = [frozenset([v]) for v in range(support)]
        else:
            support = FOLD_SUPPORTS[i % len(FOLD_SUPPORTS)]
            n_terms = support + min(support, int(next(share[support]) * (support + 1)))
            abstract = _random_terms(shapes, range(support), n_terms, 4)
        variables = sorted(place.sample(range(width), support))
        terms = {frozenset(variables[v] for v in t) for t in abstract}
        designs.append(
            {
                "id": i,
                "kind": "tail" if tail else "body",
                "spec": _spec(FOLD_LAYOUT, terms),
            }
        )
    return designs


def coprime_layouts(widths=VERIFY_WIDTHS, max_registers: int = 3):
    """Every layout of 2..max_registers pairwise coprime lengths, each with a
    built-in polynomial, ascending, whose total width is in `widths`."""
    out = []

    def extend(prefix):
        if len(prefix) >= 2 and sum(prefix) in widths:
            out.append(tuple(prefix))
        if len(prefix) == max_registers:
            return
        start = prefix[-1] + 1 if prefix else _BUILTIN_LENGTHS[0]
        for n in range(start, _BUILTIN_LENGTHS[-1] + 1):
            if sum(prefix) + n > max(widths):
                break
            if all(gcd(n, m) == 1 for m in prefix):
                extend(prefix + [n])

    extend([])
    return out


def verify_small(seed: int, count: int = VERIFY_POOL) -> list[dict]:
    """Designs small enough for every oracle, plus the case-study family.

    Width cycles through 12..20 over pairwise coprime layouts, with 3..8
    monomials of degree 1..4; every VERIFY_FAMILY_EVERY-th design is the
    next of the five 7/8/9 family functions.  Layouts and functions come
    from one stream shared by every seed, and the seed draws the starting
    states, which rotate each register's sequence but never change its
    count.  Expansion cost depends on which stages a function uses, down to
    how its masks hash, so moving them per seed would spread the runs past
    any useful bound (common random numbers, as in `fold_wide`).
    """
    shapes = random.Random("verify-small:structures")
    place = random.Random(f"verify-small:{seed}")
    by_width: dict[int, list] = {}
    for lengths in coprime_layouts():
        by_width.setdefault(sum(lengths), []).append(lengths)
    designs = []
    family_next = 0
    for i in range(count):
        if i % VERIFY_FAMILY_EVERY == VERIFY_FAMILY_EVERY - 1:
            text, ones = FAMILY[family_next % len(FAMILY)]
            family_next += 1
            spec = {
                "registers": [{"name": n, "length": m} for n, m in FAMILY_LAYOUT],
                "function": text,
            }
            designs.append({"id": i, "kind": "family", "spec": spec, "ones": ones})
            continue
        width = VERIFY_WIDTHS[i % len(VERIFY_WIDTHS)]
        lengths = shapes.choice(by_width[width])
        n_terms = shapes.randint(3, 8)
        terms = set()
        while len(terms) < n_terms:
            terms.add(frozenset(shapes.sample(range(width), shapes.randint(1, 4))))
        states = [
            "".join(place.choice("01") for _ in range(n)).replace("0" * n, "1" * n)
            for n in lengths
        ]
        layout = tuple(zip("abc", lengths))
        designs.append(
            {"id": i, "kind": "random", "spec": _spec(layout, terms, states)}
        )
    return designs


GEFFE = {
    "registers": [
        {"name": "a", "length": 2},
        {"name": "b", "length": 3},
        {"name": "c", "length": 5},
    ],
    "function": "a0*b0 ^ b0*c0 ^ c0",
}
TOY = {"registers": [{"name": "m", "length": 3}], "function": "m2*m0 ^ m2*m1 ^ m1"}
FAMILY_SPEC = {
    "registers": [{"name": n, "length": m} for n, m in FAMILY_LAYOUT],
    "function": FAMILY[4][0],
}
WIDE = {
    "registers": [{"name": "m", "length": 128}],
    "function": "m127*m64 ^ m100*m55*m3 ^ m0",
}
# the register length is missing, so loading must fail with exit code 2
MALFORMED = {"registers": [{"name": "a"}], "function": "a0"}

# (name, spec, command arguments after the spec path)
CLI_MIX = (
    ("analyze-geffe", GEFFE, ("analyze",), ()),
    ("analyze-geffe-json", GEFFE, ("analyze",), ("--json",)),
    ("analyze-family", FAMILY_SPEC, ("analyze",), ()),
    ("analyze-family-json", FAMILY_SPEC, ("analyze",), ("--json",)),
    ("analyze-wide", WIDE, ("analyze",), ()),
    ("analyze-wide-json", WIDE, ("analyze",), ("--json",)),
    ("check-rules-wide", WIDE, ("check-rules",), ()),
    ("expand-toy", TOY, ("expand",), ()),
    ("verify-geffe", GEFFE, ("verify",), ()),
    ("simulate-geffe", GEFFE, ("simulate",), ("--full-period",)),
    ("analyze-malformed", MALFORMED, ("analyze",), ()),
)
CLI_ROUNDS = 10
# ends every traced run after one round of CLI_MIX: a fold refused by its
# entry cap, so the refusal path is timed on every workload
CLI_REFUSED = ("analyze-refused", GEFFE, ("analyze",), ("--max-h-entries", "2"))


def cli_cold(seed: int, rounds: int = CLI_ROUNDS) -> list[dict]:
    """The fixed command mix, each round in a seeded order."""
    rng = random.Random(f"cli-cold:{seed}")
    designs = []
    for r in range(rounds):
        order = list(range(len(CLI_MIX)))
        rng.shuffle(order)
        for k in order:
            name, spec, head, tail = CLI_MIX[k]
            designs.append(
                {
                    "id": len(designs),
                    "kind": name,
                    "spec": spec,
                    "argv": [*head, "{spec}", *tail],
                }
            )
    return designs


GENERATORS = {
    "fold-wide": fold_wide,
    "verify-small": verify_small,
    "cli-cold": cli_cold,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
