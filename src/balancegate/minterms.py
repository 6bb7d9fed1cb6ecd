"""Signed minterm sums: exact ones counting without generating a single bit.

Each ANF monomial doubles as the mask of a minterm function, which emits
exactly one 1 per period.  XORing minterm functions makes their expansions
cancel pairwise; the engine tracks that cancellation symbolically as a signed
integer combination of minterm masks and converts the final combination into
the ones count of the full-period output sequence.  Parts of the function
that share no variable are combined separately and multiplied out, and a part
that reads few variables gets its combination from an integer Moebius
transform over them instead (see `accumulate`); the truth table that
transform starts from lists the minterms (see `minterm_expansion`).
"""

from __future__ import annotations

from typing import Iterable

from .anf import AnfFunction, RegisterLayout
from .errors import InternalCheckError, ResourceLimitError, ValidationError

__all__ = [
    "DEFAULT_MAX_SUM_ENTRIES",
    "DEFAULT_MAX_EXPANSION_TERMS",
    "accumulate",
    "exact_ones_multi",
    "minterm_expansion",
]

DEFAULT_MAX_SUM_ENTRIES = 1_000_000
DEFAULT_MAX_EXPANSION_TERMS = 1 << 20
# widest support the truth-table transform takes: its table has 2**k cells,
# and int32 holds the dense engine's coefficients, whose magnitude stays
# within 2**(k - 1)
_DENSE_MAX_SUPPORT = 24
# fold entry-steps (n * 2**k, for n masks over k bits) under which a
# component folds although the dense rule takes it: below this the fold beats
# the transform's fixed numpy cost of 25-60 us (measured crossover, k = 1..10)
_FOLD_MAX_STEPS = 1024


def accumulate(
    masks: Iterable[int],
    width: int,
    *,
    max_entries: int = DEFAULT_MAX_SUM_ENTRIES,
) -> dict[int, int]:
    """Fold minterm masks into the signed sum describing their XOR combination.

    The sum is a dict from minterm mask to its nonzero coefficient: the XOR
    combination's integer normal form, which is unique, so the result is
    independent of the input order and of the engine that builds it.

    The masks split into variable-disjoint components, and each component's
    sum is built on its own.  Unions of masks from disjoint components never
    collide, so the XOR g + h - 2*g*h of component sums of e_1 .. e_c
    entries multiplies out to prod(1 + e_i) - 1 entries, one more when an
    odd number of masks is 0 (mask 0 is the constant 1, and 1 XOR g is
    1 - g).  That count is checked against max_entries before each
    component is built, so building stops once it passes the cap, and again
    before anything is multiplied out.

    A component with k support bits and n masks takes one of two engines.
    The dense engine, an integer Moebius transform over the k support
    variables (k * 2**k entry-steps), runs when k <= 24 and n >= k, unless
    the fold's bound n * 2**k is at most 1024 entry-steps; the fold, which
    adds one mask at a time (at most n * 2**min(n, k) entry-steps), runs
    otherwise.

    Raises:
        ResourceLimitError: if any signed sum the engine holds would pass
            max_entries: the fold's running sum after every mask, the dense
            engine's final sum, or the product of the component sums.
    """
    if width < 1:
        raise ValidationError("sum width must be positive")
    masks = list(masks)
    limit = 1 << width
    for mask in masks:
        if not 0 <= mask < limit:
            raise ValidationError(f"mask {mask} wider than {width} bits")
    parts = []
    count = 1
    for group in _components(masks):
        # a partial product's count never exceeds the final one
        _check_cap(count - 1, max_entries, "at least ")
        parts.append(_component_sum(group, max_entries))
        count *= 1 + len(parts[-1])
    constant = masks.count(0) & 1
    if constant:
        parts.append({0: 1})
    _check_cap(count - 1 + constant, max_entries)
    # the largest sum is the base, so each XOR step copies only the smaller
    product, *others = sorted(parts, key=len, reverse=True) or [{}]
    for part in others:
        _xor_into(product, part)
    return product


def _components(masks: list[int]) -> list[list[int]]:
    """The nonzero masks, grouped into components that share no variable.

    Union-find over stage positions: each mask joins its stages to its
    lowest one, so two masks land in one group exactly when a chain of
    masks, each sharing a stage with the next, links them.
    """
    parent: dict[int, int] = {}

    def root(stage: int) -> int:
        while parent.setdefault(stage, stage) != stage:
            parent[stage] = stage = parent[parent[stage]]
        return stage

    nonzero = [mask for mask in masks if mask]
    lowest = []
    for mask in nonzero:
        low, *rest = _stages(mask)
        lowest.append(low)
        for stage in rest:
            parent[root(stage)] = root(low)
    groups: dict[int, list[int]] = {}
    for mask, low in zip(nonzero, lowest):
        groups.setdefault(root(low), []).append(mask)
    return list(groups.values())


def _stages(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    stages = []
    while mask:
        low = mask & -mask
        stages.append(low.bit_length() - 1)
        mask ^= low
    return stages


def _component_sum(masks: list[int], max_entries: int) -> dict[int, int]:
    """One component's signed sum, from the engine its shape picks."""
    support = 0
    for mask in masks:
        support |= mask
    k = support.bit_count()
    n = len(masks)
    # the dense engine's k * 2**k entry-steps stay within the fold's
    # n * 2**min(n, k) when n >= k
    if k <= _DENSE_MAX_SUPPORT and n >= k and n << k > _FOLD_MAX_STEPS:
        return _dense_sum(masks, max_entries)
    return _fold_sum(masks, max_entries)


def _check_cap(count: int, max_entries: int, bound: str = "") -> None:
    if count > max_entries:
        raise ResourceLimitError(
            f"signed sum has {bound}{count} entries, past the cap of {max_entries};"
            " raise the cap to continue"
        )


def _xor_into(g: dict[int, int], h: dict[int, int]) -> None:
    """Turn the signed sum g into that of g XOR h: g + h - 2*g*h.

    The product g*h carries each pair of entries onto the union of their
    masks, whose expansion is the overlap of the two; entries that cancel
    drop out of g.
    """
    delta = dict(h)
    get = delta.get
    for b, y in h.items():
        y2 = 2 * y
        for a, x in g.items():
            union = a | b
            delta[union] = get(union, 0) - y2 * x
    get = g.get
    for union, d in delta.items():
        total = get(union, 0) + d
        if total:
            g[union] = total
        else:
            g.pop(union, None)


def _fold_sum(masks: list[int], max_entries: int) -> dict[int, int]:
    """The signed-sum fold of `accumulate`, one mask at a time, with its
    running sum checked against max_entries after every mask."""
    entries: dict[int, int] = {}
    for mask in masks:
        _xor_into(entries, {mask: 1})
        _check_cap(len(entries), max_entries)
    return entries


def _dense_sum(masks: list[int], max_entries: int) -> dict[int, int]:
    """The final sum of `accumulate` as an integer Moebius transform.

    k integer butterflies turn the truth table over the k support bits into
    the coefficients of the integer normal form: coefficient S is the sum of
    (-1)**(|S| - |T|) * f(T) over the subsets T of S.
    """
    import numpy as np

    bits, table = _truth_table(masks)
    coeffs = table.astype(np.int32)
    del table
    for j in range(len(bits)):
        pairs = coeffs.reshape(-1, 2, 1 << j)
        pairs[:, 1, :] -= pairs[:, 0, :]
    _check_cap(int(np.count_nonzero(coeffs)), max_entries)
    indices = np.flatnonzero(coeffs)
    values = coeffs[indices].tolist()
    del coeffs
    global_masks = _global_masks(indices, bits).tolist()
    return dict(zip(global_masks, values))


def _truth_table(masks: list[int]):
    """Support bits and truth table of the XOR of the monomials in masks.

    The masks, projected onto the k support bits (bit j of a projected index
    is stage bits[j]), XOR into an ANF table of 2**k cells, and k XOR
    butterflies turn it into the truth table over the support assignments.
    """
    import numpy as np

    support = 0
    for mask in masks:
        support |= mask
    bits = _stages(support)
    index = np.zeros(len(masks), dtype=np.int64)
    # only the 32-bit words that hold support bits
    for lo in sorted({b & -32 for b in bits}):
        word = np.fromiter(
            (mask >> lo & 0xFFFFFFFF for mask in masks), np.int64, len(masks)
        )
        for j, b in enumerate(bits):
            if lo <= b < lo + 32:
                index |= (word >> (b - lo) & 1) << j
    table = np.zeros(1 << len(bits), dtype=np.uint8)
    np.bitwise_xor.at(table, index, 1)
    for j in range(len(bits)):
        pairs = table.reshape(-1, 2, 1 << j)
        pairs[:, 1, :] ^= pairs[:, 0, :]
    return bits, table


def _global_masks(indices, bits: list[int]):
    """Object array of the global masks of projected indices over bits."""
    import numpy as np

    # each byte of a projected index maps back through a 256-cell table
    masks = np.zeros(indices.size, dtype=object)
    for lo in range(0, len(bits), 8):
        table = [0]
        for b in bits[lo : lo + 8]:
            table += [t | 1 << b for t in table]
        masks |= np.array(table, dtype=object)[(indices >> lo) & 0xFF]
    return masks


def exact_ones_multi(entries: dict[int, int], layout: RegisterLayout) -> int:
    """Ones count per joint period of the signed sum `entries`, mask to
    coefficient, for one register or several.

    Register segments with weight d >= 1 contribute a factor 2**(len - d);
    an all-zero segment means the register contributes no variable of its
    own, and the factor is its whole period 2**len - 1 (every nonzero state,
    zero state excluded).  Lengths must be pairwise coprime.  Entries with
    the same segment weights share a factor, so each group's coefficients
    are summed first and the factor is multiplied once.
    """
    length = layout.total_length
    period = layout.period()
    if entries.get(0):
        raise InternalCheckError("zero mask in a final signed sum")
    segments = [((1 << reg.length) - 1) << reg.offset for reg in layout.registers]
    weights_of = [[(mask & seg).bit_count() for mask in entries] for seg in segments]
    groups: dict[tuple[int, ...], int] = {}
    for weights, (mask, coeff) in zip(zip(*weights_of), entries.items()):
        if mask >> length:
            raise ValidationError(f"mask {mask} does not fit the {length}-stage layout")
        groups[weights] = groups.get(weights, 0) + coeff
    total = 0
    for weights, coeff in groups.items():
        factor = 1
        for reg, d in zip(layout.registers, weights):
            factor *= (1 << (reg.length - d)) if d else ((1 << reg.length) - 1)
        total += coeff * factor
    if not 0 <= total <= period:
        raise InternalCheckError(
            f"ones count {total} outside [0, {period}]; signed sum is inconsistent"
        )
    return total


def minterm_expansion(f: AnfFunction) -> frozenset[int]:
    """Masks of the minterms making up f: the assignments where f is 1.

    The truth table over the k stages f reads is the transform the dense
    engine of `accumulate` starts from.  Each of its ones stands for
    2**(L - k) minterms, one per assignment of the L - k stages f does not
    read.

    Raises:
        ResourceLimitError: if f reads more than 24 stages, or has more than
            DEFAULT_MAX_EXPANSION_TERMS minterms; both are known before any
            mask is built.
    """
    import numpy as np

    length = f.layout.total_length
    support = 0
    for mask in f.terms:
        support |= mask
    k = support.bit_count()
    if k > _DENSE_MAX_SUPPORT:
        raise ResourceLimitError(
            f"minterm expansion reads {k} variables, past the"
            f" {_DENSE_MAX_SUPPORT} it can take"
        )
    bits, table = _truth_table(list(f.terms))
    count = int(np.count_nonzero(table)) << (length - k)
    if not count:
        return frozenset()
    if count > DEFAULT_MAX_EXPANSION_TERMS:
        raise ResourceLimitError(
            f"minterm expansion has {count} minterms, above the"
            f" {DEFAULT_MAX_EXPANSION_TERMS} guard"
        )
    free = [b for b in range(length) if not support >> b & 1]
    ones = _global_masks(np.flatnonzero(table), bits)
    spread = _global_masks(np.arange(1 << len(free)), free)
    return frozenset((ones[:, None] | spread).ravel().tolist())
