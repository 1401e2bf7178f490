"""Entropy estimators checked against worked examples and a brute-force oracle."""

import math
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedfs import info
from fedfs.ce import evaluate_objective, sample_masks
from fedfs.datasets import partition_iid
from fedfs.info import (
    DiscreteDataset,
    conditional_entropy,
    discretize,
    entropy,
    mutual_information,
)


def oracle_entropy(values) -> float:
    """Plug-in entropy via a plain dict of counts; no numpy."""
    counts = Counter(values)
    n = len(values)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def oracle_conditional_entropy(features, labels, mask) -> float:
    """H(y|U) by explicit grouping on the masked tuples."""
    idx = [i for i, bit in enumerate(mask) if bit]
    groups: dict[tuple, list] = {}
    for row, label in zip(features, labels):
        groups.setdefault(tuple(row[i] for i in idx), []).append(label)
    n = len(labels)
    return sum(len(g) / n * oracle_entropy(g) for g in groups.values())


def reference_discretize(data: np.ndarray, bins: int) -> np.ndarray:
    """Equal-width binning one column at a time, as fedfs first did it."""
    codes = np.zeros(data.shape, dtype=np.int64)
    for j in range(data.shape[1]):
        col = data[:, j]
        lo, hi = col.min(), col.max()
        if hi == lo:
            continue
        scaled = (col - lo) / (hi - lo) * bins
        codes[:, j] = np.clip(np.floor(scaled).astype(np.int64), 0, bins - 1)
    return codes


class TestDiscretize:
    def test_two_point_extremes(self):
        codes = discretize(np.array([[0.0], [1.0]]), 2)
        assert codes[:, 0].tolist() == [0, 1]

    def test_constant_column(self):
        codes = discretize(np.array([[5.0], [5.0], [5.0]]), 4)
        assert codes[:, 0].tolist() == [0, 0, 0]

    def test_midpoint_goes_to_upper_bin(self):
        codes = discretize(np.array([[0.0], [0.49], [0.51], [1.0]]), 2)
        assert codes[:, 0].tolist() == [0, 0, 1, 1]

    def test_boundary_value_goes_up(self):
        codes = discretize(np.array([[0.0], [0.5], [1.0]]), 2)
        assert codes[:, 0].tolist() == [0, 1, 1]

    def test_non_finite_rejected_with_column(self):
        bad = np.array([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(ValueError, match="column 1"):
            discretize(bad, 2)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_not_a_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="input matrix must be 2-D"):
            discretize(np.zeros(shape), 2)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            discretize(np.array([[5.0], [5.0]]), 0)
        with pytest.raises(ValueError, match="column 1"):
            discretize(np.array([[5.0, 0.0], [5.0, 1.0]]), 1)

    def test_overflowing_range_rejected_with_column(self):
        wide = np.array([[0.0, -1e308], [0.0, 0.0], [0.0, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="column 1 range overflows"):
                discretize(wide, 4)

    def test_first_faulty_column_reported(self):
        # Column order decides which fault is reported, as a column-by-column loop would.
        with pytest.raises(ValueError, match="column 0 varies"):
            discretize(np.array([[0.0, np.nan], [1.0, 2.0]]), 1)
        with pytest.raises(ValueError, match="non-finite value in column 0"):
            discretize(np.array([[np.inf, 0.0], [1.0, 1e308], [1.0, -1e308]]), 1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda m: st.tuples(
                st.lists(
                    st.lists(
                        st.one_of(
                            st.floats(-1e6, 1e6, allow_nan=False),
                            st.integers(-8, 8).map(lambda k: k / 4),
                        ),
                        min_size=m,
                        max_size=m,
                    ),
                    min_size=1,
                    max_size=20,
                ),
                st.lists(st.booleans(), min_size=m, max_size=m),
            )
        ),
        st.integers(2, 40),
    )
    def test_matches_column_loop(self, rows_and_constant, bins):
        rows, constant = rows_and_constant
        data = np.array(rows, dtype=np.float64)
        data[:, constant] = data[0, constant]
        assert np.array_equal(discretize(data, bins), reference_discretize(data, bins))
        # Values on the bin edges of each column's range.
        edges = data.min(axis=0) + np.arange(bins + 1)[:, None] * np.ptp(data, axis=0) / bins
        assert np.array_equal(discretize(edges, bins), reference_discretize(edges, bins))
        codes = discretize(data, bins)
        assert codes.dtype == np.int64 and codes.min() >= 0 and codes.max() < bins


class TestEntropy:
    def test_fair_binary(self):
        assert entropy(np.array([0, 0, 1, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate(self):
        assert entropy(np.array([7, 7, 7, 7])) == 0.0

    def test_three_quarters(self):
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert entropy(np.array([0, 0, 0, 1])) == pytest.approx(expected, abs=1e-12)
        assert entropy(np.array([0, 0, 0, 1])) == pytest.approx(0.811278, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            entropy(np.array([], dtype=np.int64))


class TestConditionalEntropy:
    def test_xor_full_mask(self, xor_dataset):
        assert conditional_entropy(xor_dataset, [1, 1]) == 0.0

    def test_xor_empty_mask_is_label_entropy(self, xor_dataset):
        assert conditional_entropy(xor_dataset, [0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_xor_single_feature_uninformative(self, xor_dataset):
        assert conditional_entropy(xor_dataset, [1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_mask_length_mismatch(self, xor_dataset):
        with pytest.raises(ValueError):
            conditional_entropy(xor_dataset, [1, 0, 1])

    def test_non_binary_mask_rejected(self, xor_dataset):
        with pytest.raises(ValueError):
            conditional_entropy(xor_dataset, [2, 0])

    def test_never_negative_large_cardinality(self):
        rng = np.random.default_rng(5)
        ds = DiscreteDataset(rng.integers(0, 50, size=(40, 3)), rng.integers(0, 50, size=40))
        assert conditional_entropy(ds, [1, 1, 1]) >= 0.0


class TestMutualInformation:
    def test_xor_full_mask(self, xor_dataset):
        assert mutual_information(xor_dataset, [1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_xor_single_feature(self, xor_dataset):
        assert mutual_information(xor_dataset, [1, 0]) == 0.0

    def test_empty_mask(self, xor_dataset):
        assert mutual_information(xor_dataset, [0, 0]) == 0.0


class TestBruteForceOracle:
    """Estimators must match dict-based joint counting to 1e-12 on small data."""

    def test_random_small_datasets(self):
        rng = np.random.default_rng(99)
        for trial in range(200):
            n = int(rng.integers(1, 65))
            m = int(rng.integers(1, 7))
            card = int(rng.integers(2, 5))
            features = rng.integers(0, card, size=(n, m))
            labels = rng.integers(0, 3, size=n)
            ds = DiscreteDataset(features, labels)
            mask = rng.integers(0, 2, size=m)
            ours = conditional_entropy(ds, mask)
            ref = oracle_conditional_entropy(features.tolist(), labels.tolist(), mask.tolist())
            assert ours == pytest.approx(ref, abs=1e-12), f"trial {trial}"
            assert entropy(labels) == pytest.approx(oracle_entropy(labels.tolist()), abs=1e-12)

    def test_chain_rule_consistency(self):
        # H(y|U) = H(U, y) - H(U) computed two independent ways.
        rng = np.random.default_rng(3)
        features = rng.integers(0, 3, size=(48, 4))
        labels = rng.integers(0, 2, size=48)
        ds = DiscreteDataset(features, labels)
        mask = [1, 0, 1, 1]
        pairs = [tuple(row[[0, 2, 3]]) + (y,) for row, y in zip(features, labels)]
        joints = [tuple(row[[0, 2, 3]]) for row in features]
        ref = oracle_entropy(pairs) - oracle_entropy(joints)
        assert conditional_entropy(ds, mask) == pytest.approx(ref, abs=1e-12)


@st.composite
def small_datasets(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    m = draw(st.integers(min_value=1, max_value=5))
    features = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    labels = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    return DiscreteDataset(np.array(features), np.array(labels))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_datasets())
    def test_conditioning_never_increases_entropy(self, ds):
        full = np.ones(ds.m, dtype=np.int64)
        assert conditional_entropy(ds, full) <= entropy(ds.labels) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(small_datasets(), st.randoms())
    def test_monotone_in_mask(self, ds, rnd):
        # Adding features to the conditioning set cannot increase H(y|U).
        mask = np.array([rnd.randint(0, 1) for _ in range(ds.m)])
        grown = mask.copy()
        grown[rnd.randrange(ds.m)] = 1
        assert conditional_entropy(ds, grown) <= conditional_entropy(ds, mask) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(small_datasets())
    def test_row_permutation_invariance(self, ds):
        order = np.random.default_rng(0).permutation(ds.n)
        shuffled = DiscreteDataset(ds.features[order], ds.labels[order])
        full = np.ones(ds.m, dtype=np.int64)
        assert conditional_entropy(shuffled, full) == pytest.approx(
            conditional_entropy(ds, full), abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(small_datasets())
    def test_mutual_information_non_negative(self, ds):
        full = np.ones(ds.m, dtype=np.int64)
        assert mutual_information(ds, full) >= 0.0


class TestJointCodeOverflow:
    def test_large_cardinality_columns_compact_without_overflow(self):
        # Per-column cardinalities whose raw radix product overflows 2**62.
        rng = np.random.default_rng(11)
        features = rng.integers(0, 2**16, size=(64, 5))
        labels = rng.integers(0, 2, size=64)
        ds = DiscreteDataset(features, labels)
        ours = conditional_entropy(ds, np.ones(5, dtype=np.int64))
        ref = oracle_conditional_entropy(features.tolist(), labels.tolist(), [1] * 5)
        assert ours == pytest.approx(ref, abs=1e-12)


def mixed_radix_codes(columns: np.ndarray) -> np.ndarray:
    """One int64 code per distinct row, in row-tuple order (the former estimator's encoding)."""
    codes = np.zeros(columns.shape[0], dtype=np.int64)
    radix = 1
    for j in range(columns.shape[1]):
        col = columns[:, j]
        card = int(col.max()) + 1
        if radix * card >= 2**62:
            _, codes = np.unique(codes, return_inverse=True)
            radix = int(codes.max()) + 1
            assert radix * card < 2**62, "joint state space too large to encode"
        codes = codes * card + col
        radix *= card
    return codes


def entropy_of_codes(codes: np.ndarray) -> float:
    _, counts = np.unique(codes, return_counts=True)
    probs = counts / codes.shape[0]
    return float(-np.sum(probs * np.log2(probs)))


def mixed_radix_conditional_entropy(ds: DiscreteDataset, mask) -> float:
    """H(y|U) by mixed-radix row codes and np.unique: the estimator the packed rows replaced."""
    selected = np.asarray(mask).astype(bool)
    if not selected.any():
        return entropy_of_codes(ds.labels)
    joint = mixed_radix_codes(ds.features[:, selected])
    pair = np.column_stack([joint, ds.labels])
    value = entropy_of_codes(mixed_radix_codes(pair)) - entropy_of_codes(joint)
    return 0.0 if -1e-12 < value < 0.0 else value


@st.composite
def packed_layouts(draw):
    """Datasets with given column and label bit widths, and the widths' total.

    The total is often 63, 64 or 65 bits, so the label lands at the end of
    the only word, exactly fills it, or spills into a second; otherwise up
    to eight columns of up to 41 bits (codes up to 2**40) span several words.
    """
    label_width = draw(st.sampled_from([1, 2, 10]))
    total = draw(st.sampled_from([63, 64, 65, None]))
    if total is None:
        widths = draw(st.lists(st.integers(1, 41), min_size=1, max_size=8))
    else:
        widths = []
        while sum(widths) < total - label_width:
            widths.append(min(draw(st.integers(1, 41)), total - label_width - sum(widths)))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for width in widths + [label_width]:
        top = 2**width - 1
        # A few distinct values per column, so rows share groups; the top one
        # fixes the column's width. Some columns are constant.
        pool = np.array([top, 0, int(rng.integers(0, top + 1))], dtype=np.int64)
        distinct = draw(st.integers(1, 3))
        values = pool[rng.integers(0, distinct, size=n)]
        values[rng.integers(0, n)] = top
        columns.append(values)
    if draw(st.booleans()):
        # Many-class labels: up to n distinct classes.
        columns[-1] = rng.integers(0, 2**label_width, size=n)
        columns[-1][0] = 2**label_width - 1
    data = np.column_stack(columns)
    return DiscreteDataset(data[:, :-1], data[:, -1]), sum(widths) + label_width


class TestPackedRows:
    """The packed-row estimator against the mixed-radix one, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(packed_layouts(), st.randoms())
    def test_bitwise_equal_to_mixed_radix(self, layout, rnd):
        ds, total = layout
        masks = [np.zeros(ds.m, dtype=np.uint8), np.ones(ds.m, dtype=np.uint8)]
        masks += [np.eye(ds.m, dtype=np.uint8)[j] for j in range(ds.m)]
        masks.append(np.array([rnd.randint(0, 1) for _ in range(ds.m)], dtype=np.uint8))
        for mask in masks:
            assert conditional_entropy(ds, mask) == mixed_radix_conditional_entropy(ds, mask)
        if total <= 65:
            assert ds.packed.words.shape[1] == (1 if total <= 64 else 2)

    def test_bitwise_equal_on_planted50(self, planted50):
        rng = np.random.default_rng(8)
        masks = (rng.random((40, planted50.m)) < rng.random((40, 1))).astype(np.uint8)
        for mask in masks:
            expected = mixed_radix_conditional_entropy(planted50, mask)
            assert conditional_entropy(planted50, mask) == expected

    def test_packed_once_on_first_use(self, monkeypatch):
        built = []
        pack = info._pack_rows
        monkeypatch.setattr(info, "_pack_rows", lambda f, y: built.append(1) or pack(f, y))
        ds = DiscreteDataset(np.array([[0, 1], [1, 1], [1, 0]]), np.array([0, 1, 1]))
        assert built == [] and "packed" not in vars(ds)
        first = conditional_entropy(ds, [1, 0])
        packed = ds.packed
        assert conditional_entropy(ds, [1, 0]) == first
        mutual_information(ds, [0, 1])
        assert built == [1] and ds.packed is packed
        assert not packed.words.flags.writeable


class TestBatchScoring:
    """One batch call scores each mask as a lone call does, however the batch is chunked."""

    @settings(max_examples=200, deadline=None)
    @given(packed_layouts(), st.integers(1, 4), st.integers(0, 3), st.randoms())
    def test_batch_equals_single_calls(self, layout, per_chunk, extra, rnd):
        ds, _ = layout
        count = 3 * per_chunk + extra
        rows = [[0] * ds.m, [1] * ds.m]
        rows += [[rnd.randint(0, 1) for _ in range(ds.m)] for _ in range(count - 2)]
        rnd.shuffle(rows)
        masks = np.array(rows, dtype=np.uint8)
        singles = [conditional_entropy(ds, mask) for mask in masks]
        # A budget of per_chunk masks, so the batch spans at least 3 chunks.
        with mock.patch.object(info, "_CHUNK_WORDS", per_chunk * ds.packed.words.size):
            assert evaluate_objective(ds, masks).tolist() == singles
            assert evaluate_objective(ds, masks[:1]).tolist() == singles[:1]
        assert evaluate_objective(ds, masks).tolist() == singles

    def test_single_row(self):
        ds = DiscreteDataset(np.array([[2**62, 3, 1]]), np.array([1]))
        masks = np.array([[0, 0, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)
        assert ds.packed.words.shape == (1, 2)
        assert evaluate_objective(ds, masks).tolist() == [0.0, 0.0, 0.0]

    def test_peak_memory_stays_chunked(self, planted50):
        # 1000 masks of n = 4096 one-word rows: unchunked, each (S, n) uint64
        # temporary alone would take 32 MB. The bound is about 1.5x the peak
        # at the current chunk budget; twice that budget exceeds it.
        rng = np.random.default_rng(3)
        density = rng.choice([0.1, 0.2, 0.5], (1000, 1))
        masks = (rng.random((1000, planted50.m)) < density).astype(np.uint8)
        evaluate_objective(planted50, masks[:1])
        tracemalloc.start()
        try:
            evaluate_objective(planted50, masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 750_000


@st.composite
def wide_layouts(draw):
    """Binary data over two to four packed words, with its masks.

    Rows start out random, so most masks tell them apart on one word; then
    some rows are copied onto others, and some others are copied in word 0's
    64 columns only, so they differ only outside it. Most masks select a
    share of word 0's columns and a smaller share of the rest.
    """
    n = draw(st.integers(2, 60))
    m = draw(st.integers(65, 250))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.integers(0, 2, size=(n, m))
    labels = rng.integers(0, draw(st.integers(2, 4)), size=n)
    copied, near = draw(st.integers(0, n // 2)), draw(st.integers(0, n // 2))
    features[rng.integers(0, n, copied)] = features[rng.integers(0, n, copied)]
    features[rng.integers(0, n, near), :64] = features[rng.integers(0, n, near), :64]
    inside, outside = rng.random((2, 12, 1))
    masks = np.concatenate(
        [rng.random((12, 64)) < inside, rng.random((12, m - 64)) < outside * inside], axis=1
    )
    masks = np.vstack([masks, np.zeros(m, bool), np.ones(m, bool)])
    return DiscreteDataset(features, labels), masks


def two_word_dataset(first_word, later, labels):
    """Binary rows over two packed words: 64 columns fill word 0, and column 64
    shares word 1 with the label. Columns 0 and 1 take ``first_word``, column
    64 ``later`` and the rest 0."""
    features = np.zeros((len(labels), 65), dtype=np.int64)
    features[:, :2] = first_word
    features[:, 64] = later
    ds = DiscreteDataset(features, labels)
    assert ds.packed.words.shape[1] == 2
    return ds


class TestOneWordExit:
    """Masks whose rows the first live word tells apart score 0.0 without the wide sort."""

    def check(self, ds, masks):
        expected = [mixed_radix_conditional_entropy(ds, mask) for mask in masks]
        assert evaluate_objective(ds, masks).tolist() == expected
        assert [conditional_entropy(ds, mask) for mask in masks] == expected
        # Three masks per one-word chunk, so the batch spans several.
        with mock.patch.object(info, "_CHUNK_WORDS", 3 * ds.n):
            assert evaluate_objective(ds, masks).tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(packed_layouts(), st.randoms())
    def test_packed_layouts(self, layout, rnd):
        ds, _ = layout
        assume(ds.packed.words.shape[1] > 1)
        masks = [[1] * ds.m, [0] * ds.m] + np.eye(ds.m, dtype=int).tolist()
        masks += [[rnd.randint(0, 1) for _ in range(ds.m)] for _ in range(6)]
        self.check(ds, np.array(masks, dtype=bool))

    @settings(max_examples=150, deadline=None)
    @given(wide_layouts())
    def test_wide_layouts(self, layout):
        ds, masks = layout
        assert ds.packed.words.shape[1] > 1
        self.check(ds, masks)

    # Masks: every column; columns 0, 1 and 64; column 0 alone; column 64 alone,
    # whose only live word is the label's; none.
    masks = np.zeros((5, 65), dtype=bool)
    masks[0] = True
    masks[1, [0, 1, 64]] = True
    masks[2, 0] = True
    masks[3, 64] = True

    def test_rows_equal_on_the_first_word_split_on_a_later_one(self):
        ds = two_word_dataset([[1, 0]] * 6, [0, 0, 1, 1, 1, 0], [0, 1, 1, 1, 0, 1])
        self.check(ds, self.masks)
        # Column 64 splits the rows 3 + 3, each group's labels 2 to 1.
        assert evaluate_objective(ds, self.masks[:2]) == pytest.approx([math.log2(3) - 2 / 3] * 2)

    def test_rows_distinct_on_the_first_word(self):
        ds = two_word_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0], [0, 1, 1, 1])
        self.check(ds, self.masks)
        assert evaluate_objective(ds, self.masks[:2]).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("top", [1, 2**40])
    def test_empty_batch(self, top):
        ds = DiscreteDataset(np.array([[top, 0], [1, top]]), np.array([0, 1]))
        values = evaluate_objective(ds, np.zeros((0, 2), dtype=bool))
        assert values.dtype == np.float64 and values.shape == (0,)


class TestObjectiveFloor:
    """No objective rounds below 0.0: the CE step stops scoring once masks that score
    0.0 fill its cutoff, since no mask left can rank before them."""

    @staticmethod
    def check(ds, masks):
        # The default chunks, and one mask per chunk.
        for budget in (info._CHUNK_WORDS, 1):
            with mock.patch.object(info, "_CHUNK_WORDS", budget):
                values = evaluate_objective(ds, masks)
            assert (np.round(values, 12) >= 0.0).all()

    @settings(max_examples=200, deadline=None)
    @given(packed_layouts(), st.randoms())
    def test_one_and_several_word_layouts(self, layout, rnd):
        ds, _ = layout
        masks = [[1] * ds.m, [0] * ds.m] + np.eye(ds.m, dtype=int).tolist()
        masks += [[rnd.randint(0, 1) for _ in range(ds.m)] for _ in range(6)]
        self.check(ds, np.array(masks, dtype=bool))

    @settings(max_examples=150, deadline=None)
    @given(wide_layouts())
    def test_wide_layouts(self, layout):
        ds, masks = layout
        assert ds.packed.words.shape[1] > 1
        self.check(ds, masks)

    def test_planted50_masks_holding_the_relevant_set(self, planted50):
        # Every superset of the planted set sits on the floor, H(y | U) = 0,
        # on all 4096 rows and on one 409-row client.
        rng = np.random.default_rng(9)
        masks = rng.random((200, planted50.m)) < rng.choice([0.05, 0.3, 0.8], (200, 1))
        masks[:, [0, 1, 2, 3]] = True
        for ds in (planted50, partition_iid(planted50, 10)[0]):
            self.check(ds, masks)


def loop_entropy_gaps(starts: np.ndarray, terms_of: np.ndarray) -> np.ndarray:
    """H(y|U) from (2, S, n) group-start flags, one ``np.add.reduce`` per mask and
    grouping: the loop the kernel's segmented sum replaced, kept as its oracle."""
    count, n = starts.shape[1:]
    values = np.zeros(count)
    groups = np.count_nonzero(starts, axis=2)
    split = np.flatnonzero(groups[0] != groups[1])
    if not split.size:
        return values
    flags = np.append(starts[:, split], True)
    terms = terms_of[np.diff(np.flatnonzero(flags))]
    bounds = np.concatenate(([0], np.cumsum(groups[:, split]))).tolist()
    for j, r in enumerate(split.tolist()):
        pair = -np.add.reduce(terms[bounds[j] : bounds[j + 1]])
        joint = -np.add.reduce(terms[bounds[split.size + j] : bounds[split.size + j + 1]])
        value = pair - joint
        values[r] = 0.0 if -1e-12 < value < 0.0 else value
    return values


def tuple_starts(ds: DiscreteDataset, masks) -> np.ndarray:
    """(2, S, n) flags where each mask's (columns, label) tuples, sorted as
    ``np.unique`` sorts them, begin a (U, y) group, and a U group."""
    starts = np.ones((2, len(masks), ds.n), dtype=bool)
    for j, mask in enumerate(masks):
        columns = ds.features[:, np.asarray(mask, dtype=bool)]
        table = np.column_stack([columns, ds.labels]).astype(np.int64)
        table = table[np.lexsort(table.T[::-1])]
        step = table[1:] != table[:-1]
        starts[0, j, 1:] = step.any(axis=1)
        starts[1, j, 1:] = step[:, :-1].any(axis=1)
    return starts


def layout_with_widths(widths, label_width, n, seed):
    """Columns of the given bit widths, each drawing from three codes (its top code
    among them) so rows share groups, and labels of ``label_width`` bits."""
    rng = np.random.default_rng(seed)
    columns = []
    for width in list(widths) + [label_width]:
        top = 2**width - 1
        values = np.array([0, top, int(rng.integers(0, top + 1))])[rng.integers(0, 3, n)]
        values[0] = top
        columns.append(values)
    data = np.column_stack(columns)
    return DiscreteDataset(data[:, :-1], data[:, -1])


class TestSegmentedSums:
    """One ``np.add.reduceat`` per chunk gives the bits of one ``np.add.reduce`` per mask."""

    @pytest.mark.parametrize("lengths", [(1, 7), (8, 128), (129, 3000)])
    @pytest.mark.parametrize("segments", [1, 40])
    def test_zero_led_reduceat_segment_is_reduce(self, lengths, segments):
        # The kernel relies on this numpy property: reduceat sums a segment as
        # its first element + the pairwise sum of the rest, and np.add.reduce
        # sums as 0.0 + the pairwise sum of all, so a leading 0.0 makes them agree.
        rng = np.random.default_rng(lengths[0] * 100 + segments)
        for _ in range(50):
            sizes = rng.integers(lengths[0], lengths[1] + 1, segments)
            parts = [-rng.random(size) * rng.random() for size in sizes]
            heads = np.cumsum([0] + [part.size + 1 for part in parts[:-1]])
            sums = np.add.reduceat(np.concatenate([np.append(0.0, part) for part in parts]), heads)
            assert sums.tobytes() == np.array([np.add.reduce(part) for part in parts]).tobytes()

    def check(self, ds, masks):
        expected = loop_entropy_gaps(tuple_starts(ds, masks), ds.group_terms)
        assert evaluate_objective(ds, masks).tobytes() == expected.tobytes()
        with mock.patch.object(info, "_CHUNK_WORDS", ds.packed.words.size):
            assert evaluate_objective(ds, masks).tobytes() == expected.tobytes()
        starts = info._group_starts(ds.packed, masks)
        gaps = info._entropy_gaps(starts, ds.group_terms)
        assert gaps.tobytes() == loop_entropy_gaps(starts, ds.group_terms).tobytes()
        return expected

    @pytest.mark.parametrize("rows", [409, 4096])
    def test_planted50_batches(self, planted50, rows):
        ds = planted50 if rows == 4096 else partition_iid(planted50, 10)[0]
        assert ds.n == rows and ds.packed.words.shape[1] == 1
        rng = np.random.default_rng(rows)
        # One to three noise columns leave every mask's labels mixed: all split.
        noise = np.zeros((60, ds.m), dtype=bool)
        for mask in noise:
            mask[rng.choice(np.arange(10, ds.m), rng.integers(1, 4), replace=False)] = True
        assert (self.check(ds, noise) > 0).all()
        # The four relevant columns fix the label: no mask splits.
        fixed = rng.random((60, ds.m)) < 0.5
        fixed[:, :4] = True
        starts = info._group_starts(ds.packed, fixed)
        assert (starts[0] == starts[1]).all()
        assert (self.check(ds, fixed) == 0.0).all()
        mixed = rng.random((120, ds.m)) < rng.choice([0.02, 0.1, 0.3, 0.6], (120, 1))
        mixed[0], mixed[1] = False, True
        self.check(ds, mixed)

    @pytest.mark.parametrize("prob", [0.5, 0.05, 0.01, 0.002])
    def test_mav_partition_batches(self, mav_partitions, prob):
        # 34 packed words a row. At p = 0.5 each of the 20 masks has no repeat on
        # its first live word and ends there; at the sparse p each takes the
        # sort on every live word.
        ds = mav_partitions[0]
        assert ds.packed.words.shape[1] == 34
        self.check(ds, sample_masks(np.full(ds.m, prob), 20, [1, 1]).astype(bool))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "widths, words", [((20, 20, 21), 1), ((20, 20, 24), 2), ((30, 34, 5, 20), 2)]
    )
    def test_label_at_the_word_edges(self, widths, words, seed):
        # 61 column bits and a 3-bit label fill one word exactly; 64 column bits
        # put the label in a word of its own, whose step never begins a U group.
        ds = layout_with_widths(widths, 3, 200, seed)
        assert ds.packed.words.shape[1] == words
        rng = np.random.default_rng(seed)
        masks = [np.zeros(ds.m), np.ones(ds.m), np.eye(ds.m), rng.random((8, ds.m)) < 0.5]
        masks = np.vstack(masks).astype(bool)
        assert (info._group_starts(ds.packed, masks) == tuple_starts(ds, masks)).all()
        self.check(ds, masks)
        assert not info._group_starts(ds.packed, masks[:1])[1, 0, 1:].any()


class TestGroupTerms:
    """The (c/n) log2(c/n) table is built once per dataset and cannot be written."""

    def test_read_only_table_kept_across_calls(self):
        features = np.array([[0, 1], [1, 1], [1, 0], [0, 0], [1, 1]])
        ds = DiscreteDataset(features, np.array([0, 1, 1, 0, 1]))
        masks = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=bool)
        assert "group_terms" not in vars(ds)
        first = evaluate_objective(ds, masks).tolist()
        terms = ds.group_terms
        probs = np.arange(1, 6) / 5
        assert terms.tolist() == [0.0] + (probs * np.log2(probs)).tolist()
        assert not terms.flags.writeable
        with pytest.raises(ValueError):
            terms[1] = 0.0
        assert evaluate_objective(ds, masks).tolist() == first
        assert ds.group_terms is terms


class TestDatasetValidation:
    def test_rejects_negative_codes(self):
        with pytest.raises(ValueError):
            DiscreteDataset(np.array([[-1, 0]]), np.array([0]))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            DiscreteDataset(np.array([[0.5, 0.0]]), np.array([0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteDataset(np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize(
        "codes", [np.array([["a"]]), np.array([[b"a"]]), np.array([[1]], dtype=object), np.array([[1 + 0j]])]
    )
    def test_rejects_codes_that_are_not_numbers(self, codes):
        with pytest.raises(ValueError, match="^feature values must be numbers$"):
            DiscreteDataset(codes, [0])
        with pytest.raises(ValueError, match="^label values must be numbers$"):
            DiscreteDataset([[0]], codes[0])

    @pytest.mark.parametrize(
        "labels, names, match",
        [
            ([[0], [1]], (), "labels must be a vector with one entry per row"),
            ([0], (), "labels must be a vector with one entry per row"),
            ([0, 1], ("a",), "feature_names length must equal feature count"),
            ([0, 1], ("a", "b", "c"), "feature_names length must equal feature count"),
        ],
    )
    def test_rejects_mismatched_labels_or_names(self, labels, names, match):
        with pytest.raises(ValueError, match=match):
            DiscreteDataset(np.array([[0, 1], [1, 0]]), np.array(labels), names)

    def test_bool_codes_stored_as_uint8(self):
        ds = DiscreteDataset(np.array([[True, False]]), np.array([True]))
        assert ds.features.dtype == ds.labels.dtype == np.uint8
        assert ds.features.tolist() == [[1, 0]] and ds.labels.tolist() == [1]

    def test_immutable_arrays(self, xor_dataset):
        with pytest.raises(ValueError):
            xor_dataset.features[0, 0] = 9

    def test_default_names(self, xor_dataset):
        assert xor_dataset.feature_names == ("f0", "f1")


class TestStoredDtypes:
    """Codes are kept in the narrowest unsigned dtype that holds them, never uint64."""

    @pytest.mark.parametrize(
        "top, dtype",
        [(1, np.uint8), (255, np.uint8), (300, np.uint16), (2**20, np.uint32), (2**40, np.int64)],
    )
    def test_features_take_the_narrowest_dtype(self, top, dtype):
        features = np.array([[0, top], [1, 0]], dtype=np.int64)
        ds = DiscreteDataset(features, np.array([0, 1]))
        assert ds.features.dtype == dtype
        assert np.array_equal(ds.features, features)

    def test_labels_narrowed_the_same_way(self):
        ds = DiscreteDataset(np.array([[0], [1]]), np.array([0, 300]))
        assert ds.labels.dtype == np.uint16
        assert DiscreteDataset(np.array([[0]]), np.array([2**40])).labels.dtype == np.int64

    def test_float_coded_integers_stored_as_unsigned_integers(self):
        ds = DiscreteDataset(np.array([[0.0, 300.0]]), np.array([1.0]))
        assert ds.features.dtype == np.uint16 and ds.labels.dtype == np.uint8
        assert np.array_equal(ds.features, [[0, 300]]) and ds.labels.tolist() == [1]

    def test_codes_past_int64_refused(self):
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            DiscreteDataset(np.array([[2**63]], dtype=np.uint64), np.array([0]))

    @pytest.mark.parametrize("big", [1e30, 2.0**63])
    def test_float_codes_past_int64_refused_without_a_cast_warning(self, big):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^feature values must be below 2\\*\\*63$"):
                DiscreteDataset(np.array([[big]]), np.array([0]))
            with pytest.raises(ValueError, match="^label values must be below 2\\*\\*63$"):
                DiscreteDataset(np.array([[0]]), np.array([big]))
            with pytest.raises(ValueError, match="^feature values must be non-negative$"):
                DiscreteDataset(np.array([[-big]]), np.array([0]))

    def test_largest_float_below_2_63_stored_exactly(self):
        top = np.nextafter(2.0**63, 0.0)
        ds = DiscreteDataset(np.array([[top]]), np.array([top]))
        assert ds.features.dtype == ds.labels.dtype == np.int64
        assert int(ds.features[0, 0]) == int(ds.labels[0]) == 2**63 - 1024

    def test_both_arrays_read_only_and_copied(self):
        features, labels = np.array([[0, 300]]), np.array([2])
        ds = DiscreteDataset(features, labels)
        features[0, 0] = labels[0] = 7
        assert ds.features[0, 0] == 0 and ds.labels[0] == 2
        for arr in (ds.features, ds.labels):
            with pytest.raises(ValueError):
                arr[0] = 1
