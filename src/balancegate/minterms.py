"""Signed minterm sums: exact ones counting without generating a single bit.

Each ANF monomial doubles as the mask of a minterm function, which emits
exactly one 1 per period.  XORing minterm functions makes their expansions
cancel pairwise; the engine tracks that cancellation symbolically as a signed
integer combination of minterm masks.  Parts of the function that share no
variable are combined separately and multiplied out, and a part that reads
few variables gets its combination from its truth table over them instead
(see `accumulate`); the same truth table, taken over every layout stage,
lists the minterms (see `minterm_expansion`).

A minterm's share of the ones count depends only on how many stages its
mask holds in each register, the weight tuple `RegisterLayout.weights`
gives, so the count reads the combination's weight histogram, keyed by
those tuples, not its entries (see `exact_ones_multi`).  The engine
reduces each part to its biases: one value per set of registers its masks
touch, from which the part's bias, the mean of (-1)**g with any set of
registers held at 0, follows.  A dense part reads them off the popcounts
of its packed truth table on the cells where each set of registers is 0,
a folded part sums them over its own entries.  Parts on disjoint
variables are independent, so their biases multiply (the piling-up lemma),
and the count follows from the product by inclusion and exclusion over the
registers held at 0 (see `_ones`).  Neither a histogram nor the
combination is built unless a caller asks for it, by the functions
`accumulate` returns with the count, and a part's integer Moebius
transform runs only for a caller
that reads the combination or where an entry cap could trip, that is,
where the cap is below a bound on the number of unions of f's terms, the
masks every sum is made of (see `_union_bound`).
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb
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
# widest truth table the module builds, in stages: the dense engine's, over
# a component's support, and the minterm expansion's, over the whole layout.
# The table has 2**k cells, and the dense engine's coefficients stay within
# 2**(k - 1) in magnitude, so int32 holds them; the transform starts in int8
# and widens to int16 and int32 only as far as its measured values can reach
# (see `_transform`)
_DENSE_MAX_SUPPORT = 24
# fold entry-steps (n * 2**k, for n masks over k bits) up to which a
# component folds although the dense rule takes it: the dense engine's fixed
# cost is 100-180 us at k = 5..10, and the fold beats it up to about 17-24
# masks at any k, so no step count splits them exactly; this one put the
# fewest measured components on the slower engine (k = 5..12)
_FOLD_MAX_STEPS = 1536
# widest pair of halves, in bytes, whose butterfly walks across the pairs:
# numpy's inner loop then runs over the 2**(k - j - 1) pairs, not over the
# 2**j cells of one half, whose per-call cost dominates the low bits
# (measured crossover: int32 at j = 3, a 64-byte pair, is slower walked across)
_BUTTERFLY_ACROSS_BYTES = 32


def accumulate(
    f: AnfFunction, *, max_entries: int = DEFAULT_MAX_SUM_ENTRIES
) -> tuple[
    int, Callable[[], dict[tuple[int, ...], int]], Callable[[], dict[int, int]]
]:
    """The ones count of f per joint period, and two functions of no
    arguments: one builds the weight histogram of the signed sum describing
    f's monomials, the other multiplies that sum out.

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
    of the third function multiplies the parts out into a new dict.  The
    histogram is left unbuilt the same way, each component's kept as its
    engine ended it, and each call of the second function combines them.

    The count needs neither.  Each component reduces its part to its
    biases, at most one value per set of registers its masks touch (see
    `_biases`), and the biases of disjoint components multiply, as in the
    piling-up lemma (see `_bias_product`); the count is read off the
    product (see `_ones`).  Its checks are those of `exact_ones_multi`: the
    layout's lengths must be pairwise coprime, and the count must lie in
    [0, period].

    Unions of masks from disjoint components never collide, so the XOR
    g + h - 2*g*h of component sums of e_1 .. e_c entries multiplies out to
    prod(1 + e_i) - 1 entries.  That count is checked against max_entries
    before each component is built, so building stops once it passes the
    cap, and once more after the last, so every sum the third function
    builds stays within the cap.  The histograms combine by the same XOR
    step, with weights added where masks are joined, since disjoint
    components' weights add.

    Every mask of every sum the engine holds is a union of f's terms: the
    fold's running sums, a dense part's cells (its integer normal form is
    the sum over sets T of terms of (-2)**(|T| - 1) times the mask of their
    union) and the products of the parts.  So where max_entries is at least
    the number of such unions no check can trip, and none is made.  That
    number is bounded by 2**|support| - 1 and, where the cap is below that,
    by the sharper bound of `_union_bound`; the bound is worked out only
    where it can clear the cap.

    A component with k support bits and n masks takes one of two engines.
    The dense engine works from the truth table over the k support
    variables, packed 64 cells to a word, and runs when k <= 24 and n >= k,
    unless the fold's bound n * 2**k is at most 1536 entry-steps.  It reads
    its biases off the table's popcounts on the cells where each set of
    registers is 0, at most 2**R of them for R registers, and builds its
    histogram, from the popcounts of every weight class, only for a caller
    of the second function.  The integer Moebius transform that gives its
    part of the sum (k * 2**k entry-steps) runs only where a cap check is
    made, or once the sum is read: a caller that reads only the count pays
    no transform where the bound clears the cap, and a reader of the sum
    pays it when it reads.  The fold, which adds one mask at a time (at
    most n * 2**min(n, k) entry-steps), runs otherwise, and its biases are
    summed over its own entries.

    Raises:
        ResourceLimitError: if any signed sum the engine holds would pass
            max_entries: the fold's running sum after every mask, the dense
            engine's final sum, or the product of the component sums.
        ValidationError: if the register lengths are not pairwise coprime.
        InternalCheckError: if the count comes out inconsistent.
    """
    # every sum the engine can hold is a set of distinct unions of f's terms;
    # where the cap has room for all of them, none can trip.  There are at
    # most 2**k - 1 of them, and the sharper bound is at least 2**(k - 1) - 1
    k = f.support.bit_count()
    full = (1 << k) - 1
    fits = full <= max_entries or (
        full >> 1 <= max_entries and _union_bound(f.terms, k) <= max_entries
    )
    cap = None if fits else max_entries
    biases = []
    weighs = []
    builds = []
    count = 1
    for group in _components(sorted(f.terms)):
        # a partial product's count never exceeds the final one
        _check_cap(count - 1, cap, "at least ")
        bias, entries, weigh, build = _component_sum(group, cap, f.layout)
        biases.append(bias)
        weighs.append(weigh)
        builds.append(build)
        if cap is not None:
            count *= 1 + entries
    _check_cap(count - 1, cap)
    return (
        _ones(_bias_product(biases), k, f.layout),
        partial(_multiply_out, weighs, _add_weights),
        partial(_multiply_out, builds),
    )


def _union_bound(masks, k: int) -> int:
    """An upper bound on the number of distinct nonempty unions of masks,
    distinct nonzero masks over k support bits in all.

    Take a stage v, held by the masks m_1 .. m_t, and let a_i = |m_i| - 1.
    A union that holds v holds some m_i whole, so a set S that holds v but
    no m_i is no union.  Over the 2**(k - 1) sets S - v of the other
    stages, the events "S - v misses a stage of m_i - v" are decreasing, so
    by Harris's inequality (Harris 1960) they hold together on at least
    2**(k - 1) * prod_i (1 - 2**-a_i) of those sets; their number is an
    integer, so at least the ceiling Z_v of that.  A stage that is itself a
    mask has the factor 1 - 2**0 = 0.  So at most 2**k - 1 - max_v Z_v
    unions exist; since Z_v <= 2**(k - 1), the bound is never below
    2**(k - 1) - 1.

    One pass over the masks counts each stage's masks by a_i; Z_v is then
    exact in integers: prod_i (2**a_i - 1), shifted by k - 1 - sum_i a_i.
    Only the largest Z_v is worked out, so no other number grows with k.
    """
    counts: dict[tuple[int, int], int] = {}
    for mask in masks:
        a = mask.bit_count() - 1
        for stage in _stages(mask):
            counts[stage, a] = counts.get((stage, a), 0) + 1
    products: dict[int, int] = {}
    shifts: dict[int, int] = {}
    for (stage, a), count in counts.items():
        products[stage] = products.get(stage, 1) * ((1 << a) - 1) ** count
        shifts[stage] = shifts.get(stage, 0) + a * count
    # the stage with the largest product / 2**shift, compared crosswise, and
    # its Z_v: the ceiling of its product times 2**(k - 1 - shift)
    top, shift = 0, 0
    for stage, product in products.items():
        if product << shift > top << shifts[stage]:
            top, shift = product, shifts[stage]
    return (1 << k) - 1 - (-(-top << (k - 1) >> shift) if top else 0)


def _multiply_out(builds: list, join=or_) -> dict:
    """A new dict of the signed sum whose component sums the builds make;
    with join=_add_weights, of the weight histogram whose component
    histograms they make."""
    return _xor_product([build() for build in builds], join)


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


def _component_sum(
    masks: list[int], max_entries: int | None, layout: RegisterLayout
):
    """One component's biases (see `_biases`), the number of entries in its
    part of the signed sum, and two functions of no arguments, one building
    its weight histogram, the other that part, each as a new dict, from the
    engine its shape picks: the fold, or the truth table (see `_dense_sum`).
    With max_entries None, no cap is checked."""
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
    return (
        _biases(_touch_sums(entries, support, layout), k),
        len(entries),
        partial(_weights, entries, layout),
        entries.copy,
    )


def _weights(
    entries: dict[int, int], layout: RegisterLayout
) -> dict[tuple[int, ...], int]:
    """Weight histogram of a signed sum, one entry at a time."""
    weights: dict[tuple[int, ...], int] = {}
    for mask, coeff in entries.items():
        key = layout.weights(mask)
        weights[key] = weights.get(key, 0) + coeff
    return {key: c for key, c in weights.items() if c}


def _touch_sums(
    entries: dict[int, int], support: int, layout: RegisterLayout
) -> dict[int, int]:
    """The touch sums (see `_biases`) of a signed sum over the stages of
    support, one entry at a time."""
    k = support.bit_count()
    # the registers the support reaches, each as its bit and its stages
    spans = [
        (1 << r, span)
        for r, reg in enumerate(layout.registers)
        if (span := ((1 << reg.length) - 1) << reg.offset) & support
    ]
    sums: dict[int, int] = {}
    for mask, coeff in entries.items():
        touched = 0
        for bit, span in spans:
            if mask & span:
                touched |= bit
        sums[touched] = sums.get(touched, 0) + (coeff << (k - mask.bit_count()))
    return sums


def _biases(sums: dict[int, int], k: int) -> dict[int, int]:
    """The biases of a signed sum over k stages, from its touch sums.

    The touch sum at a set T of registers, kept as a bitmask, is the sum of
    W(d) * 2**(k - |d|) over the weight tuples d of the sum's histogram W
    whose nonzero weights lie exactly on T.  Hold the registers of a set z
    at 0 and draw the other stages at random: a minterm of |d| stages that
    misses z is then 1 with probability 2**-|d|, so the function g the sum
    describes is 1 with probability V(z), the sum of the touch sums over the
    T that miss z, over 2**k.  The bias of g there, the mean of (-1)**g, is
    1 - 2*V(z); times 2**k, it is the sum of biases[T] over the T that miss
    z, with biases[T] = -2 * sums[T] and 2**k added at T = 0.  A sum with
    no zero mask has no touch sum at T = 0.  The fold's part and
    `exact_ones_multi` come here; the dense engine reads the same biases off
    its truth table, with no touch sum (see `_table_biases`).
    """
    biases = {touched: -2 * s for touched, s in sums.items()}
    biases[0] = (1 << k) + biases.get(0, 0)
    return biases


def _bias_product(biases: list[dict[int, int]]) -> dict[int, int]:
    """The biases of the XOR of variable-disjoint components, from theirs.

    With registers z zeroed, disjoint components are independent, so the
    bias of their XOR is the product of theirs (the piling-up lemma,
    Matsui, EUROCRYPT '93).  Expanded over the sets each misses, the
    product carries each pair of biases onto the union of their sets, and
    its scale is the product of the scales: 2**k over all k support stages.
    No pair is costlier than the pair of entries it stands for, so the
    product takes at most prod(1 + e_i) steps for component sums of e_i
    entries.
    """
    product, *others = biases or [{0: 1}]
    for other in others:
        step: dict[int, int] = {}
        for t, x in product.items():
            for u, y in other.items():
                step[t | u] = step.get(t | u, 0) + x * y
        product = step
    return product


def _ones(biases: dict[int, int], k: int, layout: RegisterLayout) -> int:
    """Ones count per joint period of a signed sum over k stages, from its
    biases (see `_biases`); the lengths must be pairwise coprime.

    Register r of n_r stages runs through its 2**n_r - 1 nonzero states,
    and a state drawn from all 2**n_r of them is nonzero unless it is 0.  So
    by inclusion and exclusion over the registers z held at 0, the count is
    the sum over z of (-1)**|z| * 2**(sum of n_r, r not in z) * V(z), with
    V = (1 - B) / 2.  Its 1 sums to the period; a bias at T sums to F(T),
    the product of 2**n_r over the registers in T and 2**n_r - 1 over the
    rest, since only the z that miss T see it.  So 2**(k + 1) times the
    count is 2**k * period less the sum of bias[T] * F(T).
    """
    period = layout.period()
    if biases.get(0, 1 << k) != 1 << k:
        raise InternalCheckError("zero mask in a final signed sum")
    # each register's bit, length and factor outside T
    registers = [
        (1 << r, reg.length, (1 << reg.length) - 1)
        for r, reg in enumerate(layout.registers)
    ]
    total = 0
    for touched, bias in biases.items():
        shift = 0
        for bit, n, whole in registers:
            if touched & bit:
                shift += n
            else:
                bias *= whole
        total += bias << shift
    ones, rest = divmod((period << k) - total, 2 << k)
    if rest:
        raise InternalCheckError(
            f"ones count is {rest} / 2**{k + 1} off a whole number;"
            " signed sum is inconsistent"
        )
    if not 0 <= ones <= period:
        raise InternalCheckError(
            f"ones count {ones} outside [0, {period}]; signed sum is inconsistent"
        )
    return ones


def _check_cap(count: int, max_entries: int | None, bound: str = "") -> None:
    """Refuse a sum of count entries past max_entries; None is no cap."""
    if max_entries is not None and count > max_entries:
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


def _fold_sum(masks: list[int], max_entries: int | None) -> dict[int, int]:
    """The signed-sum fold of `accumulate`, one mask at a time, with its
    running sum checked against max_entries after every mask."""
    entries: dict[int, int] = {}
    for mask in masks:
        _xor_into(entries, {mask: 1})
        _check_cap(len(entries), max_entries)
    return entries


def _dense_sum(
    masks: list[int], support: int, max_entries: int | None, layout: RegisterLayout
):
    """The biases, the count and the two builders, as `_component_sum`
    returns them, of one component's part of the signed sum of `accumulate`,
    from its truth table over the support bits of masks.

    The biases come from the packed truth table alone (see
    `_table_biases`).  The histogram needs the popcounts of every weight
    class (see `_table_weights`), so its builder counts them when called.
    The sum's cells need the integer transform (see `_transform`).
    Where max_entries can trip, the transform runs here: the count of its
    nonzero cells is checked against the cap, and the transformed array is
    kept for the builder, which lists its cells only when the sum is read.
    With max_entries None no cap can trip, the count is None, and the
    transform waits for the builder, that is, for a caller that reads the
    sum.  `accumulate` passes None wherever its bound on the unions of f's
    terms fits the cap.
    """
    import numpy as np

    bits = _dense_stages(support, layout)
    table = _truth_table(masks, bits)
    biases = _table_biases(table, bits, layout)

    def weigh():
        return _weight_dict(*_table_weights(table, bits, layout))

    if max_entries is None:
        return biases, None, weigh, partial(_cell_sum, bits, table)
    coeffs = _transform(table, len(bits))
    count = np.count_nonzero(coeffs)
    _check_cap(count, max_entries)
    return biases, count, weigh, partial(_cell_sum, bits, table, coeffs)


def _dense_stages(support: int, layout: RegisterLayout) -> list[int]:
    """The stages of support in the order the dense engine's table takes
    them: grouped by register, as `_table_biases` needs, each register's in
    ascending order, and the register with the most stages first, so that it
    takes the lowest index bits: a word's 64 cells then fall into few weight
    classes, and few registers share the bits within a word."""
    spans = [
        _stages(support & ((1 << reg.length) - 1) << reg.offset)
        for reg in layout.registers
    ]
    return [b for span in sorted(spans, key=len, reverse=True) for b in span]


def _transform(table, k: int):
    """The integer Moebius transform of a packed truth table over k bits:
    the 2**k coefficients of the integer normal form, where coefficient S is
    the sum of (-1)**(|S| - |T|) * f(T) over the subsets T of S.

    Butterflies 0-2 come from one gather over the table's bytes (see
    `_byte_transforms`), cut to 2**k cells; a butterfly j >= k leaves every
    cell below 2**k as it is, so that holds for k < 3 too.  The other
    butterflies run in place, starting in int8.  After j butterflies every
    magnitude is at most 2**(j - 1), so the type holds butterfly j while it
    holds 2**j.  Past that, each butterfly at most doubles the largest
    magnitude m, so if m * 2**(k - j) fits the type, every later butterfly
    runs in it; otherwise the array widens to the next type, and int32
    holds the 2**23 of 24 support bits.
    """
    import numpy as np

    coeffs = _byte_transforms()[table.astype("<u8", copy=False).view(np.uint8)]
    coeffs = coeffs.view(np.int8)[: 1 << k]
    settled = False
    for j in range(3, k):
        top = int(np.iinfo(coeffs.dtype).max)
        if not settled and 1 << j > top:
            peak = max(int(coeffs.max()), -int(coeffs.min()))
            settled = peak << (k - j) <= top
            if not settled:
                coeffs = coeffs.astype(f"i{2 * coeffs.itemsize}")
        _butterfly(coeffs, j, np.subtract)
    return coeffs


@lru_cache(maxsize=None)
def _byte_transforms():
    """For each byte value v, the uint64 word whose 8 bytes are the int8
    cells of v, read little-endian as `_cells` reads it, after butterflies
    0-2 of the integer transform."""
    import numpy as np

    cells = np.unpackbits(np.arange(256, dtype=np.uint8), bitorder="little")
    cells = cells.view(np.int8)
    for j in range(3):
        _butterfly(cells, j, np.subtract)
    words = cells.view(np.uint64)
    # every caller shares the cached array
    words.flags.writeable = False
    return words


def _cell_sum(bits: list[int], table, coeffs=None) -> dict[int, int]:
    """The signed sum of the transform's nonzero cells, over the stages bits:
    bit j of a cell's index stands for stage bits[j].  The transform runs
    here unless coeffs holds its result; the cells are listed here in any
    case, since only a reader of the sum needs them."""
    import numpy as np

    if coeffs is None:
        coeffs = _transform(table, len(bits))
    indices = np.flatnonzero(coeffs)
    masks = _bit_sums(indices, [1 << b for b in bits]).tolist()
    return dict(zip(masks, coeffs[indices].tolist()))


def _table_weights(table, bits: list[int], layout: RegisterLayout):
    """Weight histogram of the signed sum whose truth table over the stages
    bits is the packed table, with no integer transform: a flat int64 array
    of summed coefficients, indexed by the weight tuple read as a mixed-radix
    number, the first register's digit fastest, and the radixes, k_r + 1 for
    register r's k_r stages among bits.

    With z_i standing for stage i, the sum of c(S) * z**S over the masks S
    equals the sum of f(T) * prod(z_i, i in T) * prod(1 - z_i, i not in T)
    over the cells T.  Set every z_i of register r to z_r: a cell with t_r
    of register r's k_r support stages set adds z_r**t_r * (1 - z_r)**(k_r -
    t_r) per register.  So W(d), the histogram, is the sum over t of H(t) *
    prod_r (-1)**(d_r - t_r) * C(k_r - t_r, d_r - t_r), where H(t) counts
    the ones of the table in weight class t: one binomial matrix per
    register axis (see `_binomial`).

    The low 6 bits of a cell's index pick its place in a word, and the
    cells of a word that share their low weights make a pattern: the
    popcount of a word under each pattern counts that class in the word.
    The high bits pick the word, so their weights sort the words, and each
    run of sorted words sums to one class of H.  Every count is an exact
    int64 with no float near it: H(t) is at most prod_r C(k_r, t_r), the
    cells of its class, and the sum over t of C(k, t) * C(k - t, d - t) is
    C(k, d) * 2**d <= 3**k, so no entry of any binomial pass passes
    3**24 < 2**39 in magnitude.

    Only the histogram's builder reads it; the count reads the table's
    biases instead (see `_table_biases`).
    """
    import numpy as np

    # each cell's weights t_r make the mixed-radix number with radix k_r + 1,
    # which indexes the histogram: bit j of a cell's index adds the place of
    # the register that owns stage bits[j]
    radixes = [k_r + 1 for k_r in layout.weights(sum(1 << b for b in bits))]
    places = []
    place = 1
    for radix in radixes:
        places.append(place)
        place *= radix
    per_bit = [
        at
        for b in bits
        for reg, at in zip(layout.registers, places)
        if reg.offset <= b < reg.offset + reg.length
    ]
    # the offset each pattern's low bits add, and the one each word's
    # high bits add; the words sorted by it, and where each run starts
    offsets, patterns = _word_classes(tuple(per_bit[:6]))
    high = _bit_sums(np.arange(table.size), per_bit[6:], np.intp)
    order = np.argsort(high)
    high = high[order]
    starts = np.flatnonzero(np.diff(high, prepend=-1))
    counts = _popcount(table[order] & np.array(patterns, dtype=np.uint64)[:, None])
    hist = np.zeros(place, dtype=np.int64)
    np.add.at(
        hist,
        np.add.outer(offsets, high[starts]),
        np.add.reduceat(counts, starts, axis=1).astype(np.int64),
    )
    # the last register's digit is the slowest: each pass maps it from t_r
    # to d_r and makes it the fastest, so after R passes the order is back
    for radix in reversed(radixes):
        hist = hist.reshape(radix, -1).T @ _binomial(radix - 1)
    return hist.ravel(), radixes


def _weight_dict(hist, radixes: list[int]) -> dict[tuple[int, ...], int]:
    """The weight histogram array of `_table_weights` as a dict, weight
    tuple to nonzero summed coefficient."""
    import numpy as np

    keys = np.flatnonzero(hist)
    # the last register's digit is the slowest
    digits = np.unravel_index(keys, radixes[::-1])
    return dict(zip(zip(*[d.tolist() for d in digits[::-1]]), hist[keys].tolist()))


def _table_biases(table, bits: list[int], layout: RegisterLayout) -> dict[int, int]:
    """The biases (see `_biases`) of the signed sum whose truth table over
    the stages bits, grouped by register, is the packed table, read off the
    table's ones: no transform and no histogram.

    Hold the support stages of a set z of registers at 0 and draw the other
    stages at random: g is then 1 with probability P(z) / 2**(k - k_z),
    where P(z) counts the ones of the table on the cells that are 0 on z's
    k_z stages.  That probability is V(z) of `_biases`, so the sum of
    biases[T] over the T that miss z is 2**k - 2**(k_z + 1) * P(z), and a
    subset Moebius pass over the registers the stages reach gives each
    biases[T].  It equals what `_biases` makes of the histogram's touch
    sums.  Per register, the histogram takes the ones of weight class t_r to
    weight d_r by the binomial matrix of `_table_weights`, and the touch
    sums take weight d_r to 2**k_r untouched at d_r = 0 and 2**(k_r - d_r)
    touched past it; since the sum over j of (-1)**j * C(m, j) * 2**(m - j)
    is 1, the product of the two maps takes t_r to [2**k_r, 1 - 2**k_r]
    at t_r = 0 and to [0, 1] past it.  So the touch sums see the table's
    ones only through which registers have no stage set.

    A register's stages are a run of the cell index's bits: those below 6
    pick cells within a word, the rest pick words.  So the words that are 0
    on z's high bits are a basic slice of the table, viewed with one axis
    per register, and an in-word mask keeps the cells that are 0 on z's low
    bits.  P(z) is the popcount of the slice under the mask, in a Python
    int, and so are the biases: no table size can overflow them.
    """
    import numpy as np

    # the registers the stages reach, each as its bit and the indices j of
    # its stages bits[j], in the order they come in bits
    reached = []
    for r, reg in enumerate(layout.registers):
        own = [j for j, b in enumerate(bits) if reg.offset <= b < reg.offset + reg.length]
        if own:
            reached.append((own, 1 << r))
    reached.sort()
    # the first register's high bits are the fastest axis, so the last one.
    # For each set z of held registers, by doubling, as `_bit_sums` builds
    # its sums: the slice index, z's low bits, k_z and z's register bits
    shape = []
    holds = [((), 0, 0, 0)]
    for own, bit in reached:
        low = sum(1 << j for j in own if j < 6)
        shape.insert(0, 1 << (len(own) - low.bit_count()))
        holds = [
            ((slice(None),) + index, held, k_z, touched)
            for index, held, k_z, touched in holds
        ] + [
            ((0,) + index, held | low, k_z + len(own), touched | bit)
            for index, held, k_z, touched in holds
        ]
    words = table.reshape(shape)
    # each in-word mask is applied to the whole table once
    masked = {0: words}
    full = 1 << len(bits)
    sums = []
    for index, low, k_z, _ in holds:
        if low not in masked:
            masked[low] = words & np.uint64(_zero_cells(low))
        ones = int.from_bytes(masked[low][index].tobytes(), "little").bit_count()
        sums.append(full - (ones << (k_z + 1)))
    # sums[a], for the set a of reached registers that are not held, is the
    # sum of biases[T] over the T within a; the Moebius pass leaves biases[a]
    sums.reverse()
    for i in range(len(reached)):
        for a in range(len(sums)):
            if a >> i & 1:
                sums[a] -= sums[a ^ 1 << i]
    biases = {0: sums[0]}
    for (*_, touched), bias in zip(holds[1:], sums[1:]):
        if bias:
            biases[touched] = bias
    return biases


@lru_cache(maxsize=None)
def _zero_cells(low: int) -> int:
    """The 64-bit mask of the cells of a word whose index has no bit of
    low set."""
    return sum(1 << cell for cell in range(64) if not cell & low)


@lru_cache(maxsize=None)
def _word_classes(per_bit: tuple[int, ...]):
    """The cells of a word grouped by the offset their index adds, where bit
    j adds per_bit[j]: the offsets, and for each the pattern of its cells."""
    classes: dict[int, int] = {}
    for cell in range(1 << len(per_bit)):
        offset = sum(p for j, p in enumerate(per_bit) if cell >> j & 1)
        classes[offset] = classes.get(offset, 0) | 1 << cell
    return list(classes), list(classes.values())


@lru_cache(maxsize=None)
def _binomial(k: int):
    """The k + 1 by k + 1 int64 matrix (-1)**(d - t) * C(k - t, d - t), row
    t, column d, zero where d < t."""
    import numpy as np

    rows = [
        [(-1) ** (d - t) * comb(k - t, d - t) if d >= t else 0 for d in range(k + 1)]
        for t in range(k + 1)
    ]
    return np.array(rows, dtype=np.int64)


def _popcount(words):
    """The number of set bits of each uint64 word, counted in parallel in
    the word, in place: numpy 1.24 has no bitwise_count."""
    import numpy as np

    m1, m2, m4, h01 = (np.uint64(0x0101010101010101 * b) for b in (0x55, 0x33, 0xF, 1))
    # one spare buffer, so that no step allocates
    spare = words >> np.uint64(1)
    spare &= m1
    words -= spare
    np.right_shift(words, np.uint64(2), out=spare)
    spare &= m2
    words &= m2
    words += spare
    np.right_shift(words, np.uint64(4), out=spare)
    words += spare
    words &= m4
    words *= h01
    words >>= np.uint64(56)
    return words


def _cells(table, k: int):
    """The 2**k cells of a packed truth table, one uint8 each."""
    import numpy as np

    return np.unpackbits(
        table.astype("<u8", copy=False).view(np.uint8), count=1 << k, bitorder="little"
    )


def _truth_table(masks: list[int], bits: list[int]):
    """Truth table of the XOR of the monomials in masks over the stages bits,
    packed 64 cells to a uint64 word: cell i, the assignment that sets stage
    bits[j] for each set bit j of i, is bit i % 64 of word i // 64.

    The masks, projected onto the k bits, XOR into a packed ANF table of
    2**k cells, and k XOR butterflies turn it into the truth table: the
    first 6 within each word, by shifts and masks, the rest across words.
    """
    import numpy as np

    k = len(bits)
    index = np.zeros(len(masks), dtype=np.int64)
    # only the 32-bit words that hold support bits
    for lo in sorted({b & -32 for b in bits}):
        word = np.fromiter(
            (mask >> lo & 0xFFFFFFFF for mask in masks), np.int64, len(masks)
        )
        for j, b in enumerate(bits):
            if lo <= b < lo + 32:
                index |= (word >> (b - lo) & 1) << j
    table = np.zeros(max(1 << k >> 6, 1), dtype=np.uint64)
    np.bitwise_xor.at(
        table, index >> 6, np.uint64(1) << (index & 63).astype(np.uint64)
    )
    for j in range(min(k, 6)):
        # the cells of each word whose index has bit j clear
        clear = ((1 << 64) - 1) // ((1 << (2 << j)) - 1) * ((1 << (1 << j)) - 1)
        table ^= (table & np.uint64(clear)) << np.uint64(1 << j)
    for j in range(6, k):
        _butterfly(table, j - 6, np.bitwise_xor)
    return table


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
    coefficient, as the histogram builder of `accumulate` returns it.

    A minterm's register segments with weight d >= 1 contribute a factor
    2**(len - d); an all-zero segment means the register contributes no
    variable of its own, and the factor is its whole period 2**len - 1 (every
    nonzero state, zero state excluded).  Minterms with the same weights
    share a factor, so the count is the sum of each tuple's coefficient times
    its factor.  It is worked out as `accumulate` works out its own: the
    tuples are reduced to the histogram's touch sums and biases, over the
    most stages a tuple holds, and read off by the same step (see `_ones`).
    Lengths must be pairwise coprime.
    """
    k = max(map(sum, weights), default=0)
    sums: dict[int, int] = {}
    for key, coeff in weights.items():
        touched = sum(1 << r for r, d in enumerate(key) if d)
        sums[touched] = sums.get(touched, 0) + (coeff << (k - sum(key)))
    return _ones(_biases(sums, k), k, layout)


def minterm_expansion(f: AnfFunction) -> np.ndarray:
    """The minterms of f, where f is 1, as strictly ascending int64 masks.

    They are the indices of the ones of f's truth table over every layout
    stage, the table the dense engine of `accumulate` builds: cell i is the
    assignment whose mask is i.

    Raises:
        ResourceLimitError: if f is not empty and its layout holds more than
            24 stages, or f has more than DEFAULT_MAX_EXPANSION_TERMS
            minterms; the minterms are counted on the packed table, before
            its cells are unpacked or any mask is built.
    """
    import numpy as np

    if not f.terms:
        return np.empty(0, np.int64)
    length = f.layout.total_length
    if length > _DENSE_MAX_SUPPORT:
        raise ResourceLimitError(
            f"minterm expansion: the layout holds {length} stages, past the"
            f" {_DENSE_MAX_SUPPORT} it can take"
        )
    table = _truth_table(list(f.terms), list(range(length)))
    # counted on the packed words, so a refusal never unpacks the cells
    count = int.from_bytes(table.tobytes(), "little").bit_count()
    if count > DEFAULT_MAX_EXPANSION_TERMS:
        raise ResourceLimitError(
            f"minterm expansion has {count} minterms, above the"
            f" {DEFAULT_MAX_EXPANSION_TERMS} guard"
        )
    cells = _cells(table, length).view(bool)
    return np.flatnonzero(cells).astype(np.int64, copy=False)
