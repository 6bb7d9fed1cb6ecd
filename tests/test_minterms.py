"""The signed-sum engine: accumulation, exact counting, expansions."""

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from balancegate.analyzer import analyze, findings, verdict
from balancegate.anf import AnfFunction, RegisterLayout, parse_function
from balancegate.errors import InternalCheckError, ResourceLimitError, ValidationError
from balancegate.lfsr import count_ones_truthtable
from balancegate.minterms import (
    DEFAULT_MAX_SUM_ENTRIES,
    accumulate,
    exact_ones_multi,
    minterm_expansion,
)
from balancegate import minterms
from conftest import (
    COPRIME_SHAPES,
    evaluate,
    expansion,
    function_of,
    geffe_layout,
    minterm_function,
    per_entry_ones,
    random_function,
    support_of,
)

TOY = "m2*m0 ^ m2*m1 ^ m1"

# 10-bit masks over registers a(2) b(3) c(5)
A0 = 0b0000000001
B0 = 0b0000000100
C0 = 0b0000100000
A0B0 = A0 | B0
B0C0 = B0 | C0
A0C0 = A0 | C0
A0B0C0 = A0 | B0 | C0

# over a(3) b(4) c(7): the dense m0*m_i ^ m_i, i = 1..7, across all three
# registers, and the folds c1*c2 ^ c2 and c4 ^ c5*c6
MIXED = AnfFunction(
    RegisterLayout.from_lengths([("a", 3), ("b", 4), ("c", 7)]),
    frozenset(
        [1 | 1 << i for i in range(1, 8)]
        + [1 << i for i in range(1, 8)]
        + [0b11 << 8, 1 << 9, 1 << 11, 0b11 << 12]
    ),
)

# the bound on the unions of MIXED's terms: 2**13 - 1, less the 2**11 sets
# that hold c1 but not c2, whose only holder is c1*c2
MIXED_BOUND = (1 << 13) - 1 - (1 << 11)


def fold(masks):
    """The fold of a mask list, duplicates and mask 0 allowed, in list order."""
    return minterms._fold_sum(masks, DEFAULT_MAX_SUM_ENTRIES)


def summed(f, **kwargs):
    """The signed sum `accumulate` leaves unbuilt, multiplied out, and its
    weight histogram."""
    weights, build_sum = accumulate(f, **kwargs)
    return build_sum(), weights


def part_sum(result):
    """The signed sum and weight histogram of one component, from the
    (histogram, entry count, builder) `_component_sum` and `_dense_sum`
    return; the count is the built sum's."""
    weights, entries, build = result
    part = build()
    assert len(part) == entries
    return part, weights


class TestCommonDevelopment:
    """The fold subtracts twice each entry carried onto its union with the
    new mask; these pin that step through the fold itself."""

    def test_mask_union(self):
        # the shared minterm of a pair is their bitwise union, subtracted twice
        assert fold([0b0011, 0b1001]) == {
            0b0011: 1,
            0b1001: 1,
            0b1011: -2,
        }
        # a mask's union with itself is the mask: x ^ x cancels entirely
        assert fold([0b0101, 0b0101]) == {}
        # mask 0 is the constant 1, and 1 ^ x is 1 - x
        assert fold([0, 0b10]) == {0: 1, 0b10: -1}

    def test_union_is_shared_expansion(self):
        # the expansion of the union is exactly the overlap of the expansions
        for a, b in [(0b0011, 0b1001), (0b0001, 0b0110), (0b1111, 0b0001)]:
            shared = expansion(a, 4) & expansion(b, 4)
            assert shared == expansion(a | b, 4)

    def test_sum_carries_coefficients_onto_unions(self):
        before, _ = summed(function_of([A0B0, B0C0], 10))
        after, _ = summed(function_of([A0B0, B0C0, C0], 10))
        step = {m: after.get(m, 0) - before.get(m, 0) for m in before.keys() | after}
        # +c0, minus twice the common development {b0c0: 1, a0b0c0: -1}
        assert {m: d for m, d in step.items() if d} == {C0: 1, B0C0: -2, A0B0C0: 2}

    def test_sum_collapses_colliding_unions(self):
        # 0011 and 1111 both land on unions already held and cancel to zero
        h = fold([0b1100, 0b0011, 0b0011])
        assert h == {0b1100: 1}


class TestAccumulate:
    def test_single_register_example(self):
        f = parse_function(TOY, RegisterLayout.single(3))
        h, _ = summed(f)
        assert h == {0b101: 1, 0b110: -1, 0b010: 1}

    def test_single_register_intermediate(self):
        # after the first two masks, before the final one cancels the triple
        h, _ = summed(function_of([0b101, 0b110], 3))
        assert h == {0b101: 1, 0b110: 1, 0b111: -2}

    def test_geffe_masks(self):
        h, _ = summed(function_of([A0B0, B0C0, C0], 10))
        assert h == {A0B0: 1, C0: 1, B0C0: -1}

    def test_geffe_weights(self):
        # one weight tuple per register of a(2) b(3) c(5)
        f = AnfFunction(geffe_layout(), frozenset({A0B0, B0C0, C0}))
        weights, _ = accumulate(f)
        assert weights == {(1, 1, 0): 1, (0, 0, 1): 1, (0, 1, 1): -1}

    def test_two_mask_intermediate(self):
        h, _ = summed(function_of([A0B0, B0C0], 10))
        assert h == {A0B0: 1, B0C0: 1, A0B0C0: -2}

    def test_all_terms_function_with_all_linear_terms(self):
        # six masks, coefficients settle to +1 on the linear and -1 on the
        # quadratic minterms
        h, _ = summed(function_of([A0B0, B0C0, A0C0, A0, B0, C0], 10))
        assert h == {
            A0: 1,
            B0: 1,
            C0: 1,
            A0B0: -1,
            B0C0: -1,
            A0C0: -1,
        }

    def test_five_mask_variant(self):
        h, _ = summed(function_of([A0B0, B0C0, A0, B0, C0], 10))
        assert h == {
            A0: 1,
            B0: 1,
            C0: 1,
            A0B0: -1,
            B0C0: -1,
            A0C0: -2,
            A0B0C0: 2,
        }

    def test_common_factor_function(self):
        h, _ = summed(function_of([A0B0, B0C0, B0], 10))
        assert h == {A0B0: -1, B0C0: -1, A0B0C0: 2, B0: 1}

    def test_two_product_one_linear(self):
        h, _ = summed(function_of([A0B0, B0C0, A0], 10))
        assert h == {A0B0: -1, B0C0: 1, A0: 1}

    def test_order_independence(self):
        # the fold's result is the same for every order of its masks
        rng = random.Random(2001)
        for _ in range(40):
            width = rng.randint(3, 10)
            n = rng.randint(2, 8)
            masks = [rng.randrange(1, 1 << width) for _ in range(n)]
            reference = fold(masks)
            if n <= 5:
                orders = itertools.permutations(masks)
            else:
                orders = []
                for _ in range(10):
                    shuffled = masks[:]
                    rng.shuffle(shuffled)
                    orders.append(shuffled)
            for order in orders:
                assert fold(list(order)) == reference

    def test_result_masks_are_unions_of_inputs(self):
        rng = random.Random(2002)
        for _ in range(40):
            width = rng.randint(3, 10)
            masks = [rng.randrange(1, 1 << width) for _ in range(rng.randint(1, 7))]
            closure = set()
            for r in range(1, len(masks) + 1):
                for combo in itertools.combinations(masks, r):
                    u = 0
                    for m in combo:
                        u |= m
                    closure.add(u)
            h, _ = part_sum(
                minterms._component_sum(
                    masks, DEFAULT_MAX_SUM_ENTRIES, RegisterLayout.single(width)
                )
            )
            assert h.keys() <= closure

    def test_entry_cap_aborts(self):
        f = function_of([1 << i for i in range(6)], 6)
        with pytest.raises(ResourceLimitError) as info:
            accumulate(f, max_entries=4)
        assert info.value.exit_code == 4

    def test_sorted_fold_order_fixes_the_refusal(self):
        # one component, folded in sorted order: 181 and 213 make 3 entries
        # and 296 takes the running sum to 6; folded in descending order it
        # would stay within 5, so no listing of the terms changes the answer
        f = function_of([429, 296, 213, 181], 9)
        with pytest.raises(
            ResourceLimitError, match="has 6 entries, past the cap of 5;"
        ):
            accumulate(f, max_entries=5)
        assert len(minterms._fold_sum([429, 296, 213, 181], 5)) == 5


def subset_transform(cells, signed):
    """The transform of a table of 2**k cells, cell by cell from its
    definition: cell S becomes the XOR of the cells T over the subsets T of
    S, or with signed the sum of (-1)**(|S| - |T|) * cell T."""
    out = []
    for s in range(len(cells)):
        total = 0
        t = s
        while True:
            if signed:
                total += (-1) ** (s ^ t).bit_count() * cells[t]
            else:
                total ^= cells[t]
            if not t:
                break
            t = (t - 1) & s
        out.append(total)
    return out


@st.composite
def butterfly_tables(draw):
    """(op, table): 2**k cells, k <= 10, in uint8 or in uint64, the packed
    truth table's words, for XOR butterflies or in int8, int16 or int32 for
    subtracting ones, each cell at most
    max >> k in magnitude, so that no transform leaves the type."""
    k = draw(st.integers(0, 10))
    dtype = draw(st.sampled_from(["uint8", "uint64", "int8", "int16", "int32"]))
    if dtype.startswith("u"):
        op, cells = np.bitwise_xor, st.integers(0, int(np.iinfo(dtype).max))
    else:
        bound = int(np.iinfo(dtype).max) >> k
        op, cells = np.subtract, st.integers(-bound, bound)
    table = draw(st.lists(cells, min_size=1 << k, max_size=1 << k))
    return op, np.array(table, dtype=dtype)


@st.composite
def packed_tables(draw):
    """(table, bits, layout): the packed truth table of up to 40 masks, mask
    0 and duplicates included, over 1..14 support stages of a layout of 1..4
    registers of 1..8 stages, so that k < 6, words shared between registers
    and registers with fewer than 6 support stages are all common; the
    stages in any order, or grouped by register as the dense engine takes
    them."""
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    layout = RegisterLayout.from_lengths(zip("abcd", lengths))
    width = layout.total_length
    k = draw(st.integers(1, min(14, width)))
    bits = draw(st.permutations(range(width)))[:k]
    if draw(st.booleans()):
        bits.sort()
    picks = draw(st.lists(st.integers(0, (1 << k) - 1), max_size=40))
    masks = [sum(1 << b for j, b in enumerate(bits) if pick >> j & 1) for pick in picks]
    return minterms._truth_table(masks, bits), bits, layout


def packed(cells: int, k: int):
    """The packed table of 2**k cells whose cell i is bit i of cells."""
    words = cells.to_bytes(8 * max(1 << k >> 6, 1), "little")
    return np.frombuffer(words, "<u8").astype(np.uint64)


@st.composite
def cell_tables(draw):
    """(table, k): a packed table of 2**k cells, k <= 14: any cells; a few
    ones, whose coefficients stay small enough for the transform to settle
    in int8 or int16; or the parity of the index bits in sel, most often
    all of them, or its complement, whose coefficients on S reach
    -+(-2)**(|S| - 1), the widest magnitudes a transform holds."""
    k = draw(st.integers(0, 14))
    size = 1 << k
    kind = draw(st.sampled_from(["any", "few", "parity"]))
    if kind == "any":
        cells = draw(st.integers(0, (1 << size) - 1))
    elif kind == "few":
        cells = sum(1 << c for c in draw(st.sets(st.integers(0, size - 1), max_size=4)))
    else:
        sel = draw(st.one_of(st.just(size - 1), st.integers(0, size - 1)))
        flip = draw(st.integers(0, 1))
        cells = sum(
            1 << i for i in range(size) if (i & sel).bit_count() & 1 ^ flip
        )
    return packed(cells, k), k


@st.composite
def mask_lists(draw):
    """(width, masks) drawn from a small pool, so duplicates are common."""
    width = draw(st.integers(1, 12))
    pool = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=8))
    return width, draw(st.lists(st.sampled_from(pool), max_size=16))


@st.composite
def split_mask_lists(draw):
    """(width, a, b): a mask_lists draw cut in two, so both parts share one
    pool of masks, duplicates and mask 0 included."""
    width, masks = draw(mask_lists())
    cut = draw(st.integers(0, len(masks)))
    return width, masks[:cut], masks[cut:]


@st.composite
def component_lists(draw):
    """(width, masks) over disjoint blocks of stages, shuffled: mask 0 and
    duplicates are common, and so are many components."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    masks = []
    offset = 0
    for size in sizes:
        block = st.integers(0, (1 << size) - 1).map(lambda m, o=offset: m << o)
        masks += draw(st.lists(block, max_size=4))
        offset += size
    return offset, draw(st.permutations(masks))


@st.composite
def functions(draw):
    """The function of the distinct nonzero masks of a mask_lists or
    component_lists draw, over one register."""
    width, masks = draw(st.one_of(mask_lists(), component_lists()))
    return function_of(sorted(set(masks) - {0}), width)


def disjoint_groups(masks):
    """The masks merged into groups that share no stage."""
    groups = []
    for mask in masks:
        joined = [g for g in groups if g[0] & mask]
        support = mask
        members = [mask]
        for g in joined:
            groups.remove(g)
            support |= g[0]
            members += g[1]
        groups.append((support, members))
    return [members for _, members in groups]


@st.composite
def coprime_functions(draw):
    """A function over a coprime layout with fewer monomials than support
    bits (the fold's side of the engine switch) or at least as many."""
    layout = RegisterLayout.from_lengths(draw(st.sampled_from(COPRIME_SHAPES)))
    width = layout.total_length
    few = draw(st.booleans())
    n = draw(st.integers(1, 3) if few else st.integers(width, 2 * width))
    terms = draw(st.sets(st.integers(1, (1 << width) - 1), min_size=n, max_size=n))
    support = 0
    for t in terms:
        support |= t
    assume(few == (n < support.bit_count()))
    return AnfFunction(layout, frozenset(terms))


@st.composite
def engine_mixes(draw):
    """A function over a coprime layout or one register of 1..16 stages,
    its stages dealt into blocks that each hold either 1..3 masks (the
    fold's side of the engine switch) or enough masks for the dense engine:
    at least k over k stages, and more than _FOLD_MAX_STEPS / 2**k."""
    single = st.integers(1, 16).map(lambda n: (("m", n),))
    layout = RegisterLayout.from_lengths(
        draw(st.one_of(st.sampled_from(COPRIME_SHAPES), single))
    )
    stages = draw(st.permutations(range(layout.total_length)))
    terms = set()
    while stages:
        k = draw(st.integers(1, len(stages)))
        block, stages = stages[:k], stages[k:]
        least = max(k, (minterms._FOLD_MAX_STEPS >> k) + 1)
        if least < 1 << k and draw(st.booleans()):
            n = draw(st.integers(least, min(2 * least, (1 << k) - 1)))
        else:
            n = draw(st.integers(1, min(3, (1 << k) - 1)))
        picks = draw(st.sets(st.integers(1, (1 << k) - 1), min_size=n, max_size=n))
        for pick in picks:
            terms.add(sum(1 << block[j] for j in range(k) if pick >> j & 1))
    return AnfFunction(layout, frozenset(terms))


@st.composite
def partly_read_functions(draw):
    """A function over a coprime layout that leaves some stages unread."""
    layout = RegisterLayout.from_lengths(draw(st.sampled_from(COPRIME_SHAPES)))
    width = layout.total_length
    read = draw(st.integers(1, (1 << width) - 2))
    terms = draw(
        st.sets(
            st.integers(1, read).map(lambda t: t & read).filter(bool), max_size=8
        )
    )
    return AnfFunction(layout, frozenset(terms))


class TestEngines:
    """The dense engine and the fold compute the same final sum."""

    @settings(max_examples=300, deadline=None)
    @given(mask_lists())
    @example((3, []))
    @example((3, [0]))
    @example((4, [0, 0b0101, 0]))
    def test_dense_sum_equals_fold(self, case):
        width, masks = case
        cap = 1 << width
        layout = RegisterLayout.single(width)
        entries = minterms._fold_sum(masks, cap)
        assert part_sum(
            minterms._dense_sum(masks, support_of(masks), cap, layout)
        ) == (entries, minterms._weights(entries, layout))

    @pytest.mark.parametrize("m", [7, 8, 15, 16])
    def test_dense_sum_at_the_dtype_edges(self, m):
        # the parity x_0 ^ .. ^ x_{m-1} has coefficient (-2)**(|S| - 1) on
        # each nonempty S, and x_m * (1 ^ parity), as x_m ^ x_m*x_0 ^ .. ^
        # x_m*x_{m-1}, has 1 on x_m and the negated ones on S + x_m, which
        # its cells hold from butterfly m - 1 on: between them they reach
        # -2**(m - 1) and +2**(m - 1), the widest magnitudes after m
        # butterflies, +128 past int8 at m = 8 and +32768 past int16 at 16
        top = 1 << m
        parity = {s: (-2) ** (s.bit_count() - 1) for s in range(1, top)}
        guarded = {top: 1} | {s | top: -c for s, c in parity.items()}
        reached = set(parity.values()) | set(guarded.values())
        assert {-(top >> 1), top >> 1} <= reached
        layout = RegisterLayout.single(m + 1)
        for masks, expected in (
            ([1 << i for i in range(m)], parity),
            ([top] + [top | 1 << i for i in range(m)], guarded),
        ):
            assert part_sum(
                minterms._dense_sum(masks, support_of(masks), len(expected), layout)
            ) == (expected, minterms._weights(expected, layout))

    @settings(max_examples=100, deadline=None)
    @given(butterfly_tables())
    @example((np.bitwise_xor, np.arange(1 << 10, dtype=np.uint8)))
    @example((np.subtract, np.arange(1 << 10, dtype=np.int32) % 7 - 3))
    def test_butterflies_make_the_subset_transform(self, case):
        # every k >= 6 takes both ways through the pairs in every type: walked
        # across while a pair spans at most 32 bytes (j <= 2 for int32, j <= 4
        # for a byte), each pair in turn from j = 5 on
        op, table = case
        table = table.copy()
        cells = table.tolist()
        for j in range(table.size.bit_length() - 1):
            minterms._butterfly(table, j, op)
        assert table.tolist() == subset_transform(cells, op is np.subtract)

    @settings(max_examples=200, deadline=None)
    @given(cell_tables())
    @example((packed(1, 0), 0))
    @example((packed(0b0110, 2), 2))
    # 1 ^ the parity of 8 bits: +128 on the full mask, from its last butterfly
    @example((packed(sum(1 << i for i in range(256) if i.bit_count() % 2 == 0), 8), 8))
    def test_transform_is_the_int64_butterflies(self, case):
        table, k = case
        expected = minterms._cells(table, k).astype(np.int64)
        for j in range(k):
            minterms._butterfly(expected, j, np.subtract)
        assert minterms._transform(table, k).tolist() == expected.tolist()

    def test_byte_lookup_holds_the_first_three_butterflies(self):
        words = minterms._byte_transforms()
        assert words.size == 256
        assert words.view(np.int8).reshape(256, 8).tolist() == [
            subset_transform([v >> i & 1 for i in range(8)], True) for v in range(256)
        ]

    @pytest.mark.parametrize(
        "masks, k, entries, widened",
        [
            # the parity of m0..m7 reaches 2**7, past int8, on m0*..*m7
            ([1 << i for i in range(8)], 8, 255, {3: "int8", 7: "int16"}),
            # the parity of m0..m15 reaches 2**15, past int16
            (
                [1 << i for i in range(16)],
                16,
                (1 << 16) - 1,
                {3: "int8", 7: "int16", 15: "int32"},
            ),
            # m0*..*m14 * (1 ^ m15)*..*(1 ^ m19), one cell of 20 support
            # bits, as its 32 monomials: every coefficient is +-1, so the
            # magnitude 1 measured before butterfly 15 keeps int16 to the end
            (
                [(1 << 15) - 1 | s << 15 for s in range(32)],
                20,
                32,
                {3: "int8", 7: "int16"},
            ),
        ],
        ids=["parity-8", "parity-16", "one-cell-20"],
    )
    def test_transform_widens_by_measured_magnitude(
        self, monkeypatch, masks, k, entries, widened
    ):
        # the type of every subtracting butterfly past the byte lookup, which
        # is built before the recording starts
        minterms._byte_transforms()
        butterfly = minterms._butterfly
        subtractions = []

        def recording(table, j, op):
            if op is np.subtract:
                subtractions.append((j, table.dtype.name))
            butterfly(table, j, op)

        monkeypatch.setattr(minterms, "_butterfly", recording)
        layout = RegisterLayout.single(k)
        _, count, build = minterms._dense_sum(
            masks, support_of(masks), 1 << k, layout
        )
        expected = []
        dtype = None
        for j in range(3, k):
            dtype = widened.get(j, dtype)
            expected.append((j, dtype))
        assert subtractions == expected
        assert count == len(build()) == entries

    def test_cap_check_lists_no_cells_until_the_sum_is_read(self, monkeypatch):
        # MIXED's dense component under a cap that can trip, one below the
        # bound on its unions, yet above its 3,059 final entries: the count
        # is checked on the transformed array, whose cells wait for a reader
        cell_sum = minterms._cell_sum
        calls = []

        def recording(bits, table, coeffs=None):
            calls.append(coeffs is not None)
            return cell_sum(bits, table, coeffs)

        monkeypatch.setattr(minterms, "_cell_sum", recording)
        full = (1 << 13) - 1
        report = analyze(MIXED, max_sum_entries=MIXED_BOUND - 1)
        assert report.ones == count_ones_truthtable(MIXED)
        assert calls == []
        assert report.final_sum == minterms._fold_sum(sorted(MIXED.terms), full)
        assert calls == [True]

    @settings(max_examples=300, deadline=None)
    @given(packed_tables())
    def test_packed_histogram_is_the_transform_histogram(self, case):
        # read off the table's popcounts and binomials, and summed over the
        # nonzero cells of the integer transform
        table, bits, layout = case
        cells = minterms._cell_sum(bits, table)
        assert minterms._table_weights(table, bits, layout) == minterms._weights(
            cells, layout
        )

    @settings(max_examples=300, deadline=None)
    @given(functions())
    @example(function_of([], 3))
    @example(function_of([0b0011, 0b1100], 4))
    def test_component_product_equals_fold(self, f):
        cap = 1 << f.layout.total_length
        result, _ = summed(f, max_entries=cap)
        assert result == minterms._fold_sum(sorted(f.terms), cap)
        product = 1
        for group in disjoint_groups(f.terms):
            product *= 1 + len(minterms._fold_sum(group, cap))
        assert len(result) == product - 1

    @settings(max_examples=300, deadline=None)
    @given(split_mask_lists())
    @example((3, [0, 0b011], [0b011, 0b110, 0]))
    @example((4, [0b0011, 0b0101], [0b0110, 0b0011, 0b0101]))
    def test_xor_step_on_overlapping_sums(self, case):
        # both operands come from one pool, so their masks and unions
        # collide, as they never do between variable-disjoint components
        width, a, b = case
        cap = 1 << width
        g = minterms._fold_sum(a, cap)
        minterms._xor_into(g, minterms._fold_sum(b, cap))
        assert g == minterms._fold_sum(a + b, cap)

    @settings(max_examples=150, deadline=None)
    @given(coprime_functions())
    def test_count_matches_truth_table_on_both_sides_of_the_switch(self, f):
        assert analyze(f).ones == count_ones_truthtable(f)

    def test_dense_guard_names_the_final_entry_count(self):
        # one component, m0 ^ m0*m1 ^ ... ^ m0*m21 (k = n = 22), whose sum
        # m0 * (1 - INF(m1 ^ ... ^ m21)) has 2**21 entries
        with pytest.raises(ResourceLimitError) as info:
            accumulate(function_of([1] + [1 | 1 << i for i in range(1, 22)], 22))
        assert info.value.exit_code == 4
        assert str(1 << 21) in str(info.value)
        assert str(minterms.DEFAULT_MAX_SUM_ENTRIES) in str(info.value)

    def test_dense_cap_bounds_the_final_sum(self):
        # one component, k = 11 and n = 20, so the dense engine runs: the
        # fold's running sum would reach 1023 entries before cancelling
        masks = [1 | 1 << i for i in range(1, 11)] * 2
        layout = RegisterLayout.single(11)
        assert part_sum(minterms._component_sum(masks, 100, layout)) == ({}, {})

    def test_fold_serves_sparse_and_wide_supports(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense engine chosen")

        # one component of 5 variables spread over 128 stages, 3 monomials
        wide = parse_function(
            "m127*m64 ^ m100*m64*m3 ^ m3*m0", RegisterLayout.single(128)
        )
        # five components of 4 variables, 1 monomial each
        sparse = parse_function(
            "m0*m1*m2*m3 ^ m4*m5*m6*m7 ^ m8*m9*m10*m11 ^ m12*m13*m14*m15"
            " ^ m16*m17*m18*m19",
            RegisterLayout.single(20),
        )
        expected = [
            per_entry_ones(
                part_sum(
                    minterms._dense_sum(
                        sorted(f.terms), support_of(f.terms), 1 << 20, f.layout
                    )
                )[0],
                f.layout,
            )
            for f in (wide, sparse)
        ]
        monkeypatch.setattr(minterms, "_dense_sum", refuse)
        assert [analyze(wide).ones, analyze(sparse).ones] == expected
        # one component, m0*m1 ^ ... ^ m0*m25: k = 26 > 24 with n < k, so the
        # fold runs, and its running cap trips
        f = function_of([1 | 1 << i for i in range(1, 26)], 26)
        with pytest.raises(
            ResourceLimitError, match="has 1023 entries, past the cap of 1000"
        ):
            accumulate(f, max_entries=1000)

    @pytest.fixture
    def dense_widths(self, monkeypatch):
        """Support width of every component the dense engine takes."""
        dense_sum = minterms._dense_sum
        widths = []

        def recording(masks, support, max_entries, layout):
            widths.append(support.bit_count())
            return dense_sum(masks, support, max_entries, layout)

        monkeypatch.setattr(minterms, "_dense_sum", recording)
        return widths

    def test_guard_refuses_disjoint_singletons_before_any_wide_transform(
        self, dense_widths
    ):
        # 24 components of one entry each: (1 + 1)**24 - 1 entries in the
        # end, and building stops at the 20th, once 2**20 - 1 passes the cap
        with pytest.raises(ResourceLimitError) as info:
            accumulate(function_of([1 << i for i in range(24)], 24))
        assert info.value.exit_code == 4
        assert f"at least {(1 << 20) - 1} entries" in str(info.value)
        assert str(minterms.DEFAULT_MAX_SUM_ENTRIES) in str(info.value)
        assert not [width for width in dense_widths if width > 1]

    def test_guard_stops_building_once_the_product_passes_the_cap(
        self, dense_widths
    ):
        # five components m_a ^ m_a*m_(a+1) ^ ... ^ m_a*m_(a+10), k = n = 11
        # and 2**10 entries each: two of them make 1025**2 - 1 entries
        component = [1] + [1 | 1 << i for i in range(1, 11)]
        masks = [mask << 12 * c for c in range(5) for mask in component]
        with pytest.raises(ResourceLimitError) as info:
            accumulate(function_of(masks, 60), max_entries=100_000)
        assert f"at least {1025**2 - 1} entries" in str(info.value)
        assert dense_widths == [11, 11]

    def test_cap_bounds_the_final_sum_not_a_cancelling_fold(self):
        # each stage appears twice and cancels; a fold over all 52 masks
        # would hold 2**26 - 1 entries before the second half cancels them,
        # while each of the 26 components cancels on its own
        masks = [1 << i for i in range(26)] * 2
        with pytest.raises(ResourceLimitError):
            minterms._fold_sum(masks, 1000)
        groups = minterms._components(masks)
        assert sorted(groups) == [[1 << i] * 2 for i in range(26)]
        layout = RegisterLayout.single(26)
        assert [part_sum(minterms._component_sum(g, 1000, layout)) for g in groups] == [
            ({}, {})
        ] * 26

    def test_folded_component_of_a_dense_rule_list_has_a_running_cap(self):
        # the list splits in two; its component 832 ^ 800 ^ 800 (k = 4,
        # n = 3) folds, through a running sum of 3 entries, to 1 entry, and
        # the cap bounds that running sum too
        masks = [832, 8, 800, 9, 800, 8, 9]
        assert sorted(minterms._components(masks)) == [[8, 9, 8, 9], [832, 800, 800]]
        layout = RegisterLayout.single(10)
        with pytest.raises(
            ResourceLimitError, match="has 3 entries, past the cap of 2;"
        ):
            minterms._component_sum([832, 800, 800], 2, layout)
        # 832 holds three stages of the one register, weights (3,)
        assert part_sum(minterms._component_sum([832, 800, 800], 3, layout)) == (
            {832: 1},
            {(3,): 1},
        )

    def test_dense_weights_need_no_bitwise_count(self, monkeypatch, dense_widths):
        # numpy 1.24, the declared floor, has no bitwise_count: the dense
        # engine counts bits in parallel in uint64.  m0*m_i ^ m_i, i = 1..10,
        # over a(3) b(4) c(7), k = 11 and n = 20 across all three registers
        import numpy

        layout = RegisterLayout.from_lengths([("a", 3), ("b", 4), ("c", 7)])
        masks = [1 | 1 << i for i in range(1, 11)] + [1 << i for i in range(1, 11)]
        f = AnfFunction(layout, frozenset(masks))
        monkeypatch.delattr(numpy, "bitwise_count", raising=False)
        final_sum, _ = summed(f)
        assert dense_widths == [11]
        assert analyze(f).ones == per_entry_ones(final_sum, layout)
        assert analyze(f).ones == count_ones_truthtable(f)

    def test_components_within_1024_fold_steps_skip_the_transform(
        self, dense_widths
    ):
        # m0 (k = n = 1, 2 fold steps), m1*m2 ^ m2*m3 ^ m3 (k = n = 3, 24)
        # and m4 ^ m4*m5 ^ ... ^ m4*m11 (k = n = 8, 2048)
        masks = [1, 0b0110, 0b1100, 0b1000, 1 << 4]
        masks += [1 << 4 | 1 << i for i in range(5, 12)]
        cap = 1 << 12
        assert summed(function_of(masks, 12))[0] == minterms._fold_sum(masks, cap)
        assert dense_widths == [8]


class TestFinalSumOnRead:
    """`analyze` counts from the weight histogram alone; the report's final
    sum is multiplied out from the component parts on first read."""

    def test_transform_runs_where_a_cap_can_trip_or_the_sum_is_read(
        self, monkeypatch
    ):
        # MIXED reads 13 stages, and its one dense component m0*m_i ^ m_i,
        # i = 1..7, 8; every sum the engine holds fits a cap of MIXED_BOUND,
        # the bound on its unions, and one less can trip, though none does.
        # Butterflies 0-2 come from the byte lookup, built once per process
        minterms._byte_transforms()
        butterfly = minterms._butterfly
        subtractions = []

        def recording(table, j, op):
            if op is np.subtract:
                subtractions.append(j)
            butterfly(table, j, op)

        monkeypatch.setattr(minterms, "_butterfly", recording)
        full = (1 << MIXED.support.bit_count()) - 1
        assert full == (1 << 13) - 1
        loose = analyze(MIXED, max_sum_entries=MIXED_BOUND)
        assert subtractions == []
        loose_sum = loose.final_sum
        assert subtractions == list(range(3, 8))
        assert len(loose_sum) < MIXED_BOUND - 1
        subtractions.clear()
        tight = analyze(MIXED, max_sum_entries=MIXED_BOUND - 1)
        assert subtractions == list(range(3, 8))
        assert tight.final_sum == loose_sum and tight.ones == loose.ones
        # the cells the cap check made serve the read
        assert subtractions == list(range(3, 8))
        assert loose_sum == minterms._fold_sum(sorted(MIXED.terms), full)

    def test_count_verdict_and_findings_need_no_final_sum(self, monkeypatch):
        def refuse(builds):
            raise AssertionError("final sum built")

        monkeypatch.setattr(minterms, "_multiply_out", refuse)
        report = analyze(MIXED)
        ones = count_ones_truthtable(MIXED)
        assert report.ones == ones
        assert report.verdict == verdict(ones, MIXED.layout.period())
        assert report.findings == tuple(findings(MIXED))
        with pytest.raises(AssertionError, match="final sum built"):
            report.final_sum

    def test_final_sum_is_built_once_on_first_read(self):
        report = analyze(MIXED)
        assert "final_sum" not in report.__dict__
        final_sum = report.final_sum
        assert report.__dict__["final_sum"] is final_sum
        assert report.final_sum is final_sum
        # a new build of the same function gives the same sum
        _, build_sum = accumulate(MIXED)
        assert build_sum() == final_sum

    @pytest.mark.parametrize(
        "f",
        [MIXED, function_of([0b011, 0b010, 0b001, 0b1000], 4)],
        ids=["mixed", "two-folded"],
    )
    def test_each_build_is_a_new_dict(self, f):
        # the XOR product runs in place on the largest component's sum, so
        # a builder that handed out a component's own dict would change it
        _, build_sum = accumulate(f)
        first = build_sum()
        second = build_sum()
        assert first == second and first is not second
        expected = dict(second)
        first.clear()
        assert second == expected and build_sum() == expected

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(functions(), coprime_functions()))
    @example(MIXED)
    def test_built_sum_is_the_fold_and_gives_the_count(self, f):
        report = analyze(f)
        cap = 1 << f.layout.total_length
        assert report.final_sum == minterms._fold_sum(sorted(f.terms), cap)
        assert per_entry_ones(report.final_sum, f.layout) == report.ones


@st.composite
def low_degree_functions(draw):
    """A function over one register of 1..12 stages whose masks hold 1..4
    stages each, so that many stages are no mask of their own."""
    width = draw(st.integers(1, 12))
    stages = st.sets(st.integers(0, width - 1), min_size=1, max_size=4)
    masks = draw(st.sets(stages.map(lambda s: sum(1 << i for i in s)), max_size=36))
    return function_of(sorted(masks), width)


def union_functions():
    """Functions of at most 12 stages: low-degree ones, and the distinct
    nonzero masks of a mask_lists draw."""
    pooled = mask_lists().map(
        lambda case: function_of(sorted(set(case[1]) - {0}), case[0])
    )
    return st.one_of(low_degree_functions(), pooled)


def unions(masks) -> set[int]:
    """Every distinct nonempty union of masks, by brute force."""
    found: set[int] = set()
    for mask in masks:
        found |= {union | mask for union in found} | {mask}
    return found


class TestUnionBound:
    """Every mask of every sum the engine holds is a union of f's terms, and
    `accumulate` makes no cap check where a bound on their number fits."""

    @settings(max_examples=300, deadline=None)
    @given(union_functions())
    @example(MIXED)
    @example(function_of([], 3))
    def test_bound_lies_between_the_unions_and_all_sets(self, f):
        k = f.support.bit_count()
        bound = minterms._union_bound(f.terms, k)
        assert len(unions(f.terms)) <= bound <= (1 << k) - 1
        # the floor `accumulate` relies on to skip the bound
        assert (1 << k) - 1 >> 1 <= bound

    def test_bound_of_a_worked_example(self):
        # stages 1..4 are masks of their own, and stage 0 is held by masks of
        # sizes 2, 3 and 3: at least ceil(2**4 * 1/2 * 3/4 * 3/4) = 5 of the
        # sets that hold it are no union; here exactly 5 are not, so the
        # bound is the number of unions
        masks = [0b00011, 0b01101, 0b10101] + [1 << i for i in range(1, 5)]
        assert minterms._union_bound(masks, 5) == 31 - 5 == len(unions(masks))
        assert minterms._union_bound(MIXED.terms, 13) == MIXED_BOUND
        # a stage that is itself a mask rules out nothing, as in a linear
        # function, whose every nonempty set is a union
        linear = [1 << i for i in range(6)]
        assert minterms._union_bound(linear, 6) == len(unions(linear)) == 63

    @settings(max_examples=200, deadline=None)
    @given(union_functions(), st.integers(0, 1 << 12))
    @example(MIXED, 0)
    def test_no_sum_passes_a_cap_at_or_above_the_bound(self, f, slack):
        cap = minterms._union_bound(f.terms, f.support.bit_count()) + slack
        found = unions(f.terms)
        product = 1
        for group in minterms._components(sorted(f.terms)):
            # the fold's running sums, after every mask
            folded: dict[int, int] = {}
            for mask in group:
                minterms._xor_into(folded, {mask: 1})
                assert len(folded) <= cap and folded.keys() <= found
            # the dense engine's part, checked against the cap as it is built
            _, count, build = minterms._dense_sum(
                group, support_of(group), cap, f.layout
            )
            assert build() == folded and count == len(folded)
            product *= 1 + len(folded)
        assert product - 1 <= cap
        weights, build_sum = accumulate(f, max_entries=cap)
        final_sum = build_sum()
        assert len(final_sum) == product - 1 and final_sum.keys() <= found
        assert (final_sum, weights) == summed(f)

    def test_bound_takes_linear_time_on_a_wide_layout(self):
        # a few thousand monomials of 1..4 stages over a 9,973-stage register:
        # eight times the monomials take about eight times as long, where
        # work growing with the square would take 64 times
        rng = random.Random(9973)
        width = 9973
        masks = list(
            {
                sum(1 << s for s in rng.sample(range(width), rng.randint(1, 4)))
                for _ in range(4000)
            }
        )
        k = support_of(masks).bit_count()

        def best(count):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                minterms._union_bound(masks[:count], k)
                times.append(time.perf_counter() - start)
            return min(times)

        small, large = best(500), best(4000)
        assert large < 1 and large < 24 * small
        # and the refusal at a small cap is the one the plain check gave
        f = function_of(sorted(masks), width)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            analyze(f, max_sum_entries=2)
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            "signed sum has 3 entries, past the cap of 2; raise the cap to continue"
        )


class TestExactOnes:
    """The count from a weight histogram: per-register weight tuple to
    summed coefficient."""

    def test_single_register_example(self):
        # the sum {101: 1, 110: -1, 010: 1}: the two weight-2 masks cancel
        weights = {(2,): 1 - 1, (1,): 1}
        assert exact_ones_multi(weights, RegisterLayout.single(3)) == 4

    @pytest.mark.parametrize("length", range(1, 13))
    def test_unit_mask_gives_half_period(self, length):
        weights = {(1,): 1}
        assert exact_ones_multi(weights, RegisterLayout.single(length)) == 1 << (
            length - 1
        )

    def test_empty_sum_counts_zero(self):
        assert exact_ones_multi({}, RegisterLayout.single(4)) == 0
        assert exact_ones_multi({}, geffe_layout()) == 0

    def test_internal_errors_on_inconsistent_sums(self):
        layout = RegisterLayout.single(2)
        with pytest.raises(InternalCheckError):
            exact_ones_multi({(1,): 3}, layout)  # 6 > period 3
        with pytest.raises(InternalCheckError):
            exact_ones_multi({(1,): -1}, layout)
        with pytest.raises(InternalCheckError, match="zero mask"):
            exact_ones_multi({(0,): 1}, layout)
        with pytest.raises(InternalCheckError, match="zero mask"):
            exact_ones_multi({(0, 0, 0): 1, (1, 0, 0): 1}, geffe_layout())

    def test_multi_register_count(self):
        # the Geffe sum {a0b0: 1, c0: 1, b0c0: -1}
        weights = {(1, 1, 0): 1, (0, 0, 1): 1, (0, 1, 1): -1}
        assert exact_ones_multi(weights, geffe_layout()) == 392

    def test_zero_segment_contributes_whole_register_period(self):
        # c0 alone: a and b contribute (2^2-1)(2^3-1), c contributes 2^4
        assert exact_ones_multi({(0, 0, 1): 1}, geffe_layout()) == 3 * 7 * 16

    def test_wide_layout_count(self):
        # the sum {a0b0: 1, c0: 1, a0b0c0: -2}
        layout = RegisterLayout.from_lengths([("a", 7), ("b", 8), ("c", 9)])
        weights = {(1, 1, 0): 1, (0, 0, 1): 1, (1, 1, 1): -2}
        assert exact_ones_multi(weights, layout) == 8282368

    def test_multi_rejects_non_coprime_layout(self):
        layout = RegisterLayout.from_lengths([("a", 2), ("b", 4)])
        with pytest.raises(ValidationError):
            exact_ones_multi({(1, 0): 1}, layout)

    @settings(max_examples=150, deadline=None)
    @given(engine_mixes())
    # fold only, over one register and over Geffe's three
    @example(function_of([0b0011, 0b0110, 0b1000], 4))
    @example(AnfFunction(geffe_layout(), frozenset({A0B0, B0C0, C0})))
    # dense only: m0*m_i ^ m_i, i = 1..10 (k = 11, n = 20)
    @example(
        function_of(
            [1 | 1 << i for i in range(1, 11)] + [1 << i for i in range(1, 11)], 11
        )
    )
    @example(MIXED)
    def test_histogram_count_equals_per_entry_count(self, f):
        final_sum, weights = summed(f)
        layout = f.layout
        grouped: dict[tuple[int, ...], int] = {}
        for mask, coeff in final_sum.items():
            key = tuple(
                (mask >> reg.offset & ((1 << reg.length) - 1)).bit_count()
                for reg in layout.registers
            )
            grouped[key] = grouped.get(key, 0) + coeff
        assert weights == {key: c for key, c in grouped.items() if c}
        ones = analyze(f).ones
        assert ones == per_entry_ones(final_sum, layout)
        if layout.total_length <= 20:
            assert ones == count_ones_truthtable(f)


class TestExpansion:
    def test_examples(self):
        assert expansion(0b011, 3) == {0b011, 0b111}
        assert expansion(0b001, 3) == {0b001, 0b011, 0b101, 0b111}
        assert expansion(0b111, 3) == {0b111}

    def test_expansion_size_everywhere(self):
        for length in range(1, 11):
            for mask in range(1, 1 << length):
                size = 1 << (length - mask.bit_count())
                assert len(expansion(mask, length)) == size

    def test_guards_growth(self):
        # m0 over 22 stages has 2**21 minterms, past the 2**20 guard
        f = AnfFunction(RegisterLayout.single(22), frozenset({1}))
        with pytest.raises(ResourceLimitError):
            minterm_expansion(f)

    def test_minterm_function_is_the_expansion_of_its_mask(self):
        f = minterm_function(0b011, 3)
        assert f.terms == {0b011, 0b111}
        assert f.to_text() == "m2*m1*m0 ^ m1*m0"

    def test_function_minterms_example(self):
        f = parse_function(TOY, RegisterLayout.single(3))
        assert minterm_expansion(f).tolist() == [0b010, 0b011, 0b101, 0b111]

    def test_empty_function_has_no_minterms(self):
        for length in (3, 128):
            f = AnfFunction(RegisterLayout.single(length), frozenset())
            expanded = minterm_expansion(f)
            assert expanded.dtype == np.int64
            assert expanded.tolist() == []

    def test_minterms_are_the_support(self):
        # mask present exactly when the function evaluates to 1 there
        rng = random.Random(2003)
        for _ in range(60):
            length = rng.randint(2, 10)
            layout = RegisterLayout.single(length)
            f = random_function(rng, layout, max_terms=8)
            expanded = minterm_expansion(f)
            assert expanded.dtype == np.int64
            support = [x for x in range(1, 1 << length) if evaluate(f, x) == 1]
            assert expanded.tolist() == support

    def test_expansion_is_involutive(self):
        rng = random.Random(2004)
        for _ in range(60):
            length = rng.randint(2, 10)
            layout = RegisterLayout.single(length)
            f = random_function(rng, layout, max_terms=8)
            back = AnfFunction(layout, minterm_expansion(f))
            assert minterm_expansion(back).tolist() == sorted(f.terms)

    def test_expansion_holds_eight_bytes_per_minterm(self):
        # m0 over 20 stages: 2**19 masks, 4 MiB as int64, built from a few
        # arrays of that size; a set of Python ints over them takes several
        # times as much
        f = AnfFunction(RegisterLayout.single(20), frozenset({1}))
        tracemalloc.start()
        try:
            masks = minterm_expansion(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(masks) == 1 << 19
        assert peak < 24 << 20

    def test_guard_on_wide_layouts(self):
        f = parse_function("m0", RegisterLayout.single(30))
        with pytest.raises(ResourceLimitError):
            minterm_expansion(f)

    @settings(max_examples=100, deadline=None)
    @given(partly_read_functions())
    def test_minterms_are_the_ones_with_unread_stages(self, f):
        width = f.layout.total_length
        ones = [b for b in range(1, 1 << width) if evaluate(f, b)]
        assert minterm_expansion(f).tolist() == ones

    def test_guard_bounds_the_minterms_not_the_monomials(self):
        # m0*(1+m1)*...*(1+m21): every odd mask is a monomial, and m0 alone
        # expands to 2**21 minterms, yet f is 1 only at m0
        f = AnfFunction(RegisterLayout.single(22), frozenset(range(1, 1 << 22, 2)))
        assert minterm_expansion(f).tolist() == [1]

    def test_refuses_a_support_past_24_and_names_it(self):
        # 2**5 minterms, but the truth table over 30 stages is not built
        f = AnfFunction(RegisterLayout.single(30), frozenset({(1 << 25) - 1}))
        with pytest.raises(ResourceLimitError, match="layout holds 30 stages"):
            minterm_expansion(f)

    def test_refusal_unpacks_no_cells(self, monkeypatch):
        # m0 over 24 stages has 2**23 minterms, counted on the packed table
        # with no bitwise_count, which numpy 1.24 lacks
        def refuse(*args):
            raise AssertionError("cells unpacked")

        monkeypatch.setattr(minterms, "_cells", refuse)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        f = AnfFunction(RegisterLayout.single(24), frozenset({1}))
        with pytest.raises(ResourceLimitError) as refusal:
            minterm_expansion(f)
        assert refusal.value.exit_code == 4
        assert f"has {1 << 23} minterms," in str(refusal.value)

    @pytest.mark.parametrize(
        "length, terms, size, ends",
        [
            (1, {0b1}, 1, (1, 1)),
            # m0*m1*m2*m3: every mask with the low 4 bits set
            (24, {0b1111}, 1 << 20, (15, (1 << 24) - 1)),
            # 2**5 minterms, but the layout is past the widest table
            (25, {(1 << 20) - 1}, None, None),
            (128, set(), 0, None),
        ],
    )
    def test_the_table_spans_the_layout(self, length, terms, size, ends):
        f = AnfFunction(RegisterLayout.single(length), frozenset(terms))
        if size is None:
            with pytest.raises(ResourceLimitError) as refusal:
                minterm_expansion(f)
            assert refusal.value.exit_code == 4
            return
        masks = minterm_expansion(f)
        assert masks.dtype == np.int64
        assert masks.size == size
        if size:
            # a single monomial's minterms are the masks that hold it
            (term,) = terms
            assert np.all(masks & term == term)
            assert np.all(np.diff(masks) > 0)
            assert (masks[0], masks[-1]) == ends
