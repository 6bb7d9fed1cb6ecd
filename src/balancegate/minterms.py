"""Signed minterm sums: exact ones counting without generating a single bit.

Each ANF monomial doubles as the mask of a minterm function, which emits
exactly one 1 per period.  XORing minterm functions makes their expansions
cancel pairwise; the engine tracks that cancellation symbolically as a signed
integer combination of minterm masks.  Parts of the function that share no
variable are combined separately and multiplied out, and a part that reads
few variables gets its combination from an integer Moebius transform over
them instead (see `accumulate`); the truth table that transform starts from
lists the minterms (see `minterm_expansion`).

A minterm's share of the ones count depends only on how many stages its
mask holds in each register, so the count reads the combination's weight
histogram, per-register weight tuple to summed coefficient, not its entries
(see `exact_ones_multi`).  The engine builds that histogram part by part
while it builds the combination: from the transform's nonzero cells, or
from the entries of a folded part.
"""

from __future__ import annotations

from operator import add, or_

from .anf import AnfFunction, RegisterLayout
from .errors import InternalCheckError, ResourceLimitError

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
    f: AnfFunction, *, max_entries: int = DEFAULT_MAX_SUM_ENTRIES
) -> tuple[dict[int, int], dict[tuple[int, ...], int]]:
    """The signed sum describing f's monomials, folded in sorted mask order,
    and its weight histogram.

    The sum is a dict from minterm mask to its nonzero coefficient: the XOR
    combination's integer normal form, which is unique, so the result is
    independent of the fold order and of the engine that builds it.  The
    masks are f's terms, so none is 0 and each fits the layout.

    The histogram maps each tuple of per-register weights (d_1 .. d_R), the
    number of stages a mask holds in each register, to the sum of the
    coefficients of the masks with those weights; tuples whose sum is 0 are
    left out.  It is all `exact_ones_multi` needs.

    The masks split into variable-disjoint components, and each component's
    sum is built on its own, together with its histogram.  Unions of masks
    from disjoint components never collide, so the XOR g + h - 2*g*h of
    component sums of e_1 .. e_c entries multiplies out to prod(1 + e_i) - 1
    entries.  That count is checked against max_entries before each
    component is built, so building stops once it passes the cap, and again
    before anything is multiplied out.  The histograms combine by the same
    XOR step, with weights added where masks are joined, since disjoint
    components' weights add.

    A component with k support bits and n masks takes one of two engines.
    The dense engine, an integer Moebius transform over the k support
    variables (k * 2**k entry-steps), runs when k <= 24 and n >= k, unless
    the fold's bound n * 2**k is at most 1024 entry-steps; it reads its
    histogram off the transform's nonzero cells.  The fold, which adds one
    mask at a time (at most n * 2**min(n, k) entry-steps), runs otherwise,
    and its histogram is summed over its own entries.

    Raises:
        ResourceLimitError: if any signed sum the engine holds would pass
            max_entries: the fold's running sum after every mask, the dense
            engine's final sum, or the product of the component sums.
    """
    places = _places(f.layout)
    parts = []
    count = 1
    for group in _components(sorted(f.terms)):
        # a partial product's count never exceeds the final one
        _check_cap(count - 1, max_entries, "at least ")
        parts.append(_component_sum(group, max_entries, places))
        count *= 1 + len(parts[-1][0])
    _check_cap(count - 1, max_entries)
    # the largest sum is the base, so each XOR step copies only the smaller
    parts.sort(key=lambda part: len(part[0]), reverse=True)
    (product, weights), *others = parts or [({}, {})]
    for part, part_weights in others:
        _xor_into(product, part)
        _xor_into(weights, part_weights, add)
    # each weight key back into its tuple, one column of digits per register
    keys = list(weights)
    columns = [[key // place % radix for key in keys] for _, place, radix in places]
    return product, dict(zip(zip(*columns), weights.values()))


def _places(layout: RegisterLayout) -> list[tuple[int, int, int]]:
    """(stage mask, place value, radix) of each register.

    A weight key is the mixed-radix number sum(d_r * place_r) of a mask's
    per-register weights d_r, with radix len_r + 1.  Weights of masks over
    disjoint stages sum to at most len_r, so adding two keys adds their
    weights digit by digit.
    """
    places = []
    place = 1
    for reg in layout.registers:
        places.append((((1 << reg.length) - 1) << reg.offset, place, reg.length + 1))
        place *= reg.length + 1
    return places


def _components(masks: list[int]) -> list[list[int]]:
    """The masks, none of them 0, grouped into components that share no
    variable.

    Union-find over stage positions: each mask joins its stages to its
    lowest one, so two masks land in one group exactly when a chain of
    masks, each sharing a stage with the next, links them.
    """
    parent: dict[int, int] = {}

    def root(stage: int) -> int:
        while parent.setdefault(stage, stage) != stage:
            parent[stage] = stage = parent[parent[stage]]
        return stage

    lowest = []
    for mask in masks:
        low, *rest = _stages(mask)
        lowest.append(low)
        for stage in rest:
            parent[root(stage)] = root(low)
    groups: dict[int, list[int]] = {}
    for mask, low in zip(masks, lowest):
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


def _component_sum(
    masks: list[int], max_entries: int, places: list[tuple[int, int, int]]
) -> tuple[dict[int, int], dict[int, int]]:
    """One component's signed sum, from the engine its shape picks, and its
    weight histogram, keyed as `_places` describes."""
    support = 0
    for mask in masks:
        support |= mask
    k = support.bit_count()
    n = len(masks)
    # only the registers the component reads carry a weight
    places = [p for p in places if p[0] & support]
    # the dense engine's k * 2**k entry-steps stay within the fold's
    # n * 2**min(n, k) when n >= k
    if k <= _DENSE_MAX_SUPPORT and n >= k and n << k > _FOLD_MAX_STEPS:
        return _dense_sum(masks, max_entries, places)
    entries = _fold_sum(masks, max_entries)
    return entries, _weights(entries, places)


def _weights(entries: dict[int, int], places) -> dict[int, int]:
    """Weight histogram of a signed sum over the registers in places, which
    hold every stage its masks read, one entry at a time."""
    weights: dict[int, int] = {}
    for mask, coeff in entries.items():
        key = 0
        for segment, place, _ in places:
            key += (mask & segment).bit_count() * place
        weights[key] = weights.get(key, 0) + coeff
    return {key: c for key, c in weights.items() if c}


def _check_cap(count: int, max_entries: int, bound: str = "") -> None:
    if count > max_entries:
        raise ResourceLimitError(
            f"signed sum has {bound}{count} entries, past the cap of {max_entries};"
            " raise the cap to continue"
        )


def _xor_into(g: dict[int, int], h: dict[int, int], join=or_) -> None:
    """Turn the signed sum g into that of g XOR h: g + h - 2*g*h.

    The product g*h carries each pair of entries onto the union of their
    masks, whose expansion is the overlap of the two; entries that cancel
    drop out of g.  With join=add the keys are weight keys, and the pair
    lands on the sum of its weights instead.
    """
    delta = dict(h)
    get = delta.get
    for b, y in h.items():
        y2 = 2 * y
        for a, x in g.items():
            union = join(a, b)
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


def _dense_sum(
    masks: list[int], max_entries: int, places: list[tuple[int, int, int]]
) -> tuple[dict[int, int], dict[int, int]]:
    """The final sum of `accumulate` as an integer Moebius transform, and its
    weight histogram over the registers in places.

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
    values = coeffs[indices]
    del coeffs
    global_masks = _bit_sums(indices, [1 << b for b in bits]).tolist()
    return (
        dict(zip(global_masks, values.tolist())),
        _dense_weights(indices, values, bits, places),
    )


def _dense_weights(indices, values, bits: list[int], places) -> dict[int, int]:
    """Weight histogram of the nonzero cells of a transform over bits, over
    the registers in places, which hold every one of the bits.

    Each cell first gets a local key, a mixed-radix number over the k_r
    support bits of each register in places (radix k_r + 1), which stays
    below 2**k; bit j of a projected index adds its register's local place.
    The coefficients are summed per local key in int64, which holds them:
    the k-bit transform has at most 2**k cells of magnitude at most
    2**(k - 1), so each sum stays within 2**47.  The sums take
    prod(k_r + 1) <= 2**k cells.  Each local key with a nonzero sum then
    becomes a weight key, and each sum a Python int.
    """
    import numpy as np

    local = []
    per_bit = []
    local_place = 1
    for segment, place, _ in places:
        k_r = sum(segment >> b & 1 for b in bits)
        local.append((local_place, k_r + 1, place))
        per_bit += [local_place] * k_r
        local_place *= k_r + 1
    sums = np.zeros(local_place, dtype=np.int64)
    # int64 on both sides keeps add.at on its fast path
    np.add.at(sums, _bit_sums(indices, per_bit, np.intp), values.astype(np.int64))
    keys = np.flatnonzero(sums)
    weights = np.zeros(keys.size, dtype=object)
    for lp, radix, place in local:
        weights += (keys // lp % radix).astype(object) * place
    return dict(zip(weights.tolist(), sums[keys].tolist()))


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


def _bit_sums(indices, values: list[int], dtype=object):
    """For each projected index, the sum of values[j] over its set bits j.

    Each byte of an index maps through a 256-cell table of the sums over
    its bits; with values 1 << stage the sums are global masks.
    """
    import numpy as np

    sums = np.zeros(indices.size, dtype=dtype)
    for lo in range(0, len(values), 8):
        table = [0]
        for v in values[lo : lo + 8]:
            table += [t + v for t in table]
        sums += np.array(table, dtype=dtype)[(indices >> lo) & 0xFF]
    return sums


def exact_ones_multi(
    weights: dict[tuple[int, ...], int], layout: RegisterLayout
) -> int:
    """Ones count per joint period of a signed sum, for one register or
    several, from its weight histogram: per-register weight tuple to summed
    coefficient, as `accumulate` returns it.

    A minterm's register segments with weight d >= 1 contribute a factor
    2**(len - d); an all-zero segment means the register contributes no
    variable of its own, and the factor is its whole period 2**len - 1 (every
    nonzero state, zero state excluded).  Minterms with the same weights
    share a factor, so the count is the sum of each tuple's coefficient times
    its factor.  Lengths must be pairwise coprime.
    """
    period = layout.period()
    if weights.get((0,) * len(layout.registers)):
        raise InternalCheckError("zero mask in a final signed sum")
    total = 0
    for key, coeff in weights.items():
        factor = 1
        for reg, d in zip(layout.registers, key):
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
    ones = _bit_sums(np.flatnonzero(table), [1 << b for b in bits])
    spread = _bit_sums(np.arange(1 << len(free)), [1 << b for b in free])
    return frozenset((ones[:, None] | spread).ravel().tolist())
