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
mask holds in each register, the weight tuple `RegisterLayout.weights`
gives, so the count reads the combination's weight histogram, keyed by
those tuples, not its entries (see `exact_ones_multi`).  The engine builds
that histogram part by part, from the transform's nonzero cells or from the
entries of a folded part, and combines the histograms, not the parts: the
combination itself is multiplied out only for a caller that shows it, by
the function `accumulate` returns with the histogram.
"""

from __future__ import annotations

from functools import partial
from operator import add, or_
from typing import TYPE_CHECKING, Callable

from .anf import AnfFunction, RegisterLayout
from .errors import InternalCheckError, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

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
# and the dense engine's coefficients stay within 2**(k - 1) in magnitude, so
# int32 holds them; the transform climbs int8 -> int16 -> int32, running each
# butterfly j in the narrowest type that holds 2**j (see `_dense_sum`)
_DENSE_MAX_SUPPORT = 24
# fold entry-steps (n * 2**k, for n masks over k bits) under which a
# component folds although the dense rule takes it: below this the fold beats
# the transform's fixed numpy cost of 25-60 us (measured crossover, k = 1..10)
_FOLD_MAX_STEPS = 1024
# widest pair of halves, in bytes, whose butterfly walks across the pairs:
# numpy's inner loop then runs over the 2**(k - j - 1) pairs, not over the
# 2**j cells of one half, whose per-call cost dominates the low bits
# (measured crossover: int32 at j = 3, a 64-byte pair, is slower walked across)
_BUTTERFLY_ACROSS_BYTES = 32


def accumulate(
    f: AnfFunction, *, max_entries: int = DEFAULT_MAX_SUM_ENTRIES
) -> tuple[dict[tuple[int, ...], int], Callable[[], dict[int, int]]]:
    """The weight histogram of the signed sum describing f's monomials, and
    a function of no arguments that multiplies that sum out.

    The histogram maps each tuple of per-register weights (d_1 .. d_R), the
    number of stages a mask holds in each register, to the sum of the
    coefficients of the masks with those weights; tuples whose sum is 0 are
    left out.  It is all `exact_ones_multi` needs.

    The sum itself is a dict from minterm mask to its nonzero coefficient:
    the XOR combination's integer normal form, which is unique, so it is
    independent of the fold order and of the engine that builds it.  Its
    masks are f's terms, so none is 0 and each fits the layout.  It is left
    unbuilt: the masks split into variable-disjoint components, each
    component's engine leaves its part of the sum as it ended, and each call
    of the returned function multiplies the parts out into a new dict.

    Unions of masks from disjoint components never collide, so the XOR
    g + h - 2*g*h of component sums of e_1 .. e_c entries multiplies out to
    prod(1 + e_i) - 1 entries.  That count is checked against max_entries
    before each component is built, so building stops once it passes the
    cap, and once more after the last, so every sum the returned function
    builds stays within the cap.  The histograms combine by the same XOR
    step, with weights added where masks are joined, since disjoint
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
    histograms = []
    builds = []
    count = 1
    for group in _components(sorted(f.terms)):
        # a partial product's count never exceeds the final one
        _check_cap(count - 1, max_entries, "at least ")
        weights, entries, build = _component_sum(group, max_entries, f.layout)
        histograms.append(weights)
        builds.append(build)
        count *= 1 + entries
    _check_cap(count - 1, max_entries)
    return _xor_product(histograms, _add_weights), partial(_multiply_out, builds)


def _multiply_out(builds: list) -> dict[int, int]:
    """A new dict of the signed sum whose component sums the builds make."""
    return _xor_product([build() for build in builds])


def _xor_product(sums: list[dict], join=or_) -> dict:
    """The XOR of the signed sums of disjoint components, in place on the
    largest, so each step copies only the smaller; with join=_add_weights,
    of their weight histograms."""
    sums.sort(key=len, reverse=True)
    product, *others = sums or [{}]
    for other in others:
        _xor_into(product, other, join)
    return product


def _add_weights(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The weights of the union of two masks over disjoint stages."""
    return tuple(map(add, a, b))


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


def _component_sum(masks: list[int], max_entries: int, layout: RegisterLayout):
    """One component's weight histogram, the number of entries in its part of
    the signed sum, and a function of no arguments that builds that part as
    a new dict, from the engine its shape picks: the fold, or the transform
    (see `_dense_sum`)."""
    support = 0
    for mask in masks:
        support |= mask
    k = support.bit_count()
    n = len(masks)
    # the dense engine's k * 2**k entry-steps stay within the fold's
    # n * 2**min(n, k) when n >= k
    if k <= _DENSE_MAX_SUPPORT and n >= k and n << k > _FOLD_MAX_STEPS:
        return _dense_sum(masks, support, max_entries, layout)
    entries = _fold_sum(masks, max_entries)
    return _weights(entries, layout), len(entries), entries.copy


def _weights(
    entries: dict[int, int], layout: RegisterLayout
) -> dict[tuple[int, ...], int]:
    """Weight histogram of a signed sum, one entry at a time."""
    weights: dict[tuple[int, ...], int] = {}
    for mask, coeff in entries.items():
        key = layout.weights(mask)
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
    drop out of g.  With join=_add_weights the keys are weight tuples, and
    the pair lands on the element-wise sum of its weights instead.
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
    masks: list[int], support: int, max_entries: int, layout: RegisterLayout
):
    """The weight histogram, the count and the builder, as `_component_sum`
    returns them, of the nonzero cells of an integer Moebius transform over
    the support bits of masks: the signed sum of `accumulate` for one
    component, left unbuilt.

    k integer butterflies turn the truth table over the k support bits into
    the coefficients of the integer normal form: coefficient S is the sum of
    (-1)**(|S| - |T|) * f(T) over the subsets T of S.  They run in place on
    the truth table's own buffer, read as int8.  After j butterflies every
    magnitude is at most 2**(j - 1), so butterfly j needs a type that holds
    2**j: the buffer widens to int16 just before butterfly 7 and to int32
    just before butterfly 15, and int32 holds the 2**23 of 24 support bits.
    Bit j of a cell's index stands for stage bits[j], so the cell's mask is
    the sum of 1 << bits[j] over its set bits (see `_cell_sum`).
    """
    import numpy as np

    bits, coeffs = _truth_table(masks, support)
    coeffs = coeffs.view(np.int8)
    for j in range(len(bits)):
        if 1 << j > np.iinfo(coeffs.dtype).max:
            coeffs = coeffs.astype(f"i{2 * coeffs.itemsize}")
        _butterfly(coeffs, j, np.subtract)
    _check_cap(int(np.count_nonzero(coeffs)), max_entries)
    indices = np.flatnonzero(coeffs)
    values = coeffs[indices]
    del coeffs
    weights = _dense_weights(indices, values, support, layout)
    return weights, indices.size, partial(_cell_sum, bits, indices, values)


def _cell_sum(bits: list[int], indices, values) -> dict[int, int]:
    """The signed sum of a transform's nonzero cells, over the stages bits."""
    masks = _bit_sums(indices, [1 << b for b in bits]).tolist()
    return dict(zip(masks, values.tolist()))


def _dense_weights(
    indices, values, support: int, layout: RegisterLayout
) -> dict[tuple[int, ...], int]:
    """Weight histogram, weight tuple to summed coefficient, of the nonzero
    cells of a transform over the support bits.

    The support holds k_r stages of register r, and its bits run in
    register order, so bit j of a projected index adds the place of its
    register: each cell's weights d_r become the mixed-radix number with
    radix k_r + 1, which stays below 2**k and indexes the sums.  The
    coefficients are summed per index in int64, which holds them: the k-bit
    transform has at most 2**k cells of magnitude at most 2**(k - 1), so each
    sum stays within 2**47.  The digits of each nonzero sum's index then make
    its weight tuple, and each sum becomes a Python int.
    """
    import numpy as np

    radixes = [k_r + 1 for k_r in layout.weights(support)]
    places = []
    per_bit = []
    place = 1
    for radix in radixes:
        places.append(place)
        per_bit += [place] * (radix - 1)
        place *= radix
    sums = np.zeros(place, dtype=np.int64)
    # int64 on both sides keeps add.at on its fast path
    np.add.at(sums, _bit_sums(indices, per_bit, np.intp), values.astype(np.int64))
    keys = np.flatnonzero(sums)
    digits = [(keys // place % radix).tolist() for place, radix in zip(places, radixes)]
    return dict(zip(zip(*digits), sums[keys].tolist()))


def _truth_table(masks: list[int], support: int):
    """Support bits and truth table of the XOR of the monomials in masks,
    whose union is support.

    The masks, projected onto the k support bits (bit j of a projected index
    is stage bits[j]), XOR into an ANF table of 2**k cells, and k XOR
    butterflies turn it into the truth table over the support assignments.
    """
    import numpy as np

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
        _butterfly(table, j, np.bitwise_xor)
    return bits, table


def _butterfly(table, j: int, op) -> None:
    """Butterfly j of a transform, in place on table: each cell whose index
    has bit j set becomes op(cell, its partner without bit j).

    Narrow pairs are walked across, in C order over the transposed halves,
    so that numpy's inner loop is long.
    """
    pairs = table.reshape(-1, 2, 1 << j)
    lo, hi = pairs[:, 0, :], pairs[:, 1, :]
    if (2 << j) * table.itemsize <= _BUTTERFLY_ACROSS_BYTES:
        op(hi.T, lo.T, out=hi.T, order="C")
    else:
        op(hi, lo, out=hi)


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


def minterm_expansion(f: AnfFunction) -> np.ndarray:
    """The minterms of f, where f is 1, as strictly ascending int64 masks.

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
    support = f.support
    k = support.bit_count()
    if k > _DENSE_MAX_SUPPORT:
        raise ResourceLimitError(
            f"minterm expansion reads {k} variables, past the"
            f" {_DENSE_MAX_SUPPORT} it can take"
        )
    bits, table = _truth_table(list(f.terms), support)
    count = int(np.count_nonzero(table)) << (length - k)
    if not count:
        return np.empty(0, np.int64)
    if count > DEFAULT_MAX_EXPANSION_TERMS:
        raise ResourceLimitError(
            f"minterm expansion has {count} minterms, above the"
            f" {DEFAULT_MAX_EXPANSION_TERMS} guard"
        )
    # the guards leave k <= 24 read stages and 2**(L - k) <= 2**20 minterms
    # for each one of the table: at most 44 stages, so int64 holds every mask
    free = [b for b in range(length) if not support >> b & 1]
    ones = _bit_sums(np.flatnonzero(table), [1 << b for b in bits], np.int64)
    spread = _bit_sums(np.arange(1 << len(free)), [1 << b for b in free], np.int64)
    masks = (ones[:, None] | spread).ravel()
    masks.sort()
    return masks
