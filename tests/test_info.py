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
from fedfs.ce import evaluate_objective
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


def sorted_only(ds, masks):
    """evaluate_objective with the one-word exit bypassed: every mask takes the sort."""
    undecided = lambda packed, batch: np.zeros(batch.shape[0], dtype=bool)
    with mock.patch.object(info, "_told_apart_by_one_word", undecided):
        return evaluate_objective(ds, masks)


class TestOneWordExit:
    """Masks whose rows one packed word tells apart score 0.0 without the wide sort."""

    def check(self, ds, masks):
        expected = [mixed_radix_conditional_entropy(ds, mask) for mask in masks]
        assert evaluate_objective(ds, masks).tolist() == expected
        assert sorted_only(ds, masks).tolist() == expected
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

    def test_decided_masks_skip_the_sort(self, monkeypatch, planted50):
        rng = np.random.default_rng(4)
        wide = DiscreteDataset(rng.integers(0, 2, (300, 200)), rng.integers(0, 3, 300))
        masks = rng.random((30, 200)) < rng.choice([0.01, 0.05, 0.5], (30, 1))
        sorted_masks = []
        group_starts = info._group_starts

        def spy(packed, batch):
            sorted_masks.extend(batch.tolist())
            return group_starts(packed, batch)

        monkeypatch.setattr(info, "_group_starts", spy)
        decided = info._told_apart_by_one_word(wide.packed, masks)
        assert 0 < decided.sum() < len(masks)
        values = evaluate_objective(wide, masks)
        assert sorted_masks == masks[~decided].tolist()
        assert values[decided].tolist() == [0.0] * decided.sum()
        # Single-word rows skip the exit: every mask is sorted.
        sorted_masks.clear()
        monkeypatch.setattr(info, "_told_apart_by_one_word", None)
        evaluate_objective(planted50, masks[:, :50])
        assert sorted_masks == masks[:, :50].tolist()

    @pytest.mark.parametrize("top", [1, 2**40])
    def test_empty_batch(self, top):
        ds = DiscreteDataset(np.array([[top, 0], [1, top]]), np.array([0, 1]))
        values = evaluate_objective(ds, np.zeros((0, 2), dtype=bool))
        assert values.dtype == np.float64 and values.shape == (0,)


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
