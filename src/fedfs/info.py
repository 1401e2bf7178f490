"""Discrete information-theoretic estimators and the feature-selection objective.

All estimators are plug-in (maximum-likelihood) estimates over empirical
frequencies, in bits (log base 2). The selection objective is the conditional
entropy of the labels given a candidate feature subset: a subset that fully
determines the labels drives it to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

# Negative values smaller than this are floating-point cancellation, not signal.
NEG_CLAMP = 1e-12

_WORD_BITS = 64
# 2**0 .. 2**62: the count of these <= v is v.bit_length() for any int64 v >= 0.
_POWERS_OF_TWO = 2 ** np.arange(63, dtype=np.int64)
_ZERO = np.uint64(0)
# Packed words (masks x n x words per row) that one chunk of evaluate_objective
# sorts at once: 2**14 words or one mask, whichever is larger, so peak
# memory stays flat in S. Wide data (mav: 727 x 34 words) gets one mask per
# chunk, whose temporaries each exceed the budget. Its one-word early exit
# sorts masks x n single words per chunk, under the same budget.
_CHUNK_WORDS = 2**14
# Code dtypes from narrowest to widest, each with the largest value it holds.
# Never uint64: numpy promotes uint64 with int64 to float64.
_CODE_DTYPES = tuple((np.iinfo(t).max, t) for t in (np.uint8, np.uint16, np.uint32, np.int64))


@dataclass(frozen=True)
class DiscreteDataset:
    """Integer-coded feature matrix with labels.

    ``features`` is an n x m matrix of non-negative integer codes and
    ``labels`` an n-vector of non-negative integer codes. Discretization
    happens before construction. Each is stored read-only in the narrowest
    of uint8, uint16 and uint32 that holds its largest code, or as int64
    above 2**32 - 1; codes past 2**63 - 1 are refused. Instances are
    immutable.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        features = np.asarray(self.features)
        labels = np.asarray(self.labels)
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-D matrix")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError("labels must be a vector with one entry per row")
        for arr, what in ((features, "feature"), (labels, "label")):
            # Float codes are range-checked before any cast, which would wrap past 2**63.
            if not np.issubdtype(arr.dtype, np.integer):
                if not np.all(np.isfinite(arr)) or np.any(arr != np.floor(arr)):
                    raise ValueError(f"{what} values must be finite integers")
            if arr.min() < 0:
                raise ValueError(f"{what} values must be non-negative")
            top = int(arr.max())
            for limit, dtype in _CODE_DTYPES:
                if top <= limit:
                    break
            else:
                raise ValueError(f"{what} values must be below 2**63")
            codes = arr.astype(dtype, copy=True)
            codes.setflags(write=False)
            object.__setattr__(self, f"{what}s", codes)
        names = self.feature_names
        if not names:
            names = tuple(f"f{i}" for i in range(features.shape[1]))
        else:
            names = tuple(names)
            if len(names) != features.shape[1]:
                raise ValueError("feature_names length must equal feature count")
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    @cached_property
    def packed(self) -> PackedRows:
        """The rows as bit fields in uint64 words, built on first use and kept."""
        return _pack_rows(self.features, self.labels)

    @cached_property
    def group_terms(self) -> np.ndarray:
        """Read-only table of (c/n) log2(c/n) for c = 0..n (0 at c = 0), built on first use."""
        probs = np.arange(1, self.n + 1) / self.n
        terms = np.concatenate(([0.0], probs * np.log2(probs)))
        terms.setflags(write=False)
        return terms


@dataclass(frozen=True)
class PackedRows:
    """The rows of a dataset as bit fields in uint64 words.

    Column j takes ``max(1, max_j.bit_length())`` bits. Columns fill each
    word from its most significant end in column order and never straddle
    two words; the label takes the lowest bits of the last word, which is a
    word of its own when the last column word lacks the room. Comparing
    two rows word by word, most significant bit first, therefore compares
    their (column 0, ..., column m-1, label) tuples lexicographically.
    """

    words: np.ndarray  # (n, W) uint64
    fields: np.ndarray  # (m,) uint64: the bits of column j within its word
    word_starts: np.ndarray  # first column of each word that holds columns
    label_field: np.uint64  # the label's bits within the last word


def _bit_widths(values: np.ndarray) -> np.ndarray:
    return np.maximum(1, np.searchsorted(_POWERS_OF_TWO, values, side="right"))


def _pack_rows(features: np.ndarray, labels: np.ndarray) -> PackedRows:
    widths = _bit_widths(features.max(axis=0))
    ends = np.cumsum(widths)
    starts: list[int] = []
    shifts = np.empty(widths.size, dtype=np.uint64)
    first, used = 0, 0
    while first < widths.size:
        stop = int(np.searchsorted(ends, used + _WORD_BITS, side="right"))
        shifts[first:stop] = _WORD_BITS - (ends[first:stop] - used)
        starts.append(first)
        first, used = stop, int(ends[stop - 1])
    label_width = int(_bit_widths(labels.max()))
    spare = int(shifts[-1])
    words = np.zeros((features.shape[0], len(starts) + (label_width > spare)), dtype=np.uint64)
    for w, (first, stop) in enumerate(zip(starts, starts[1:] + [widths.size])):
        shifted = features[:, first:stop].astype(np.uint64) << shifts[first:stop]
        words[:, w] = np.bitwise_or.reduce(shifted, axis=1)
    words[:, -1] |= labels.astype(np.uint64)
    one = np.uint64(1)
    fields = ((one << widths.astype(np.uint64)) - one) << shifts
    label_field = (one << np.uint64(label_width)) - one
    words.setflags(write=False)
    return PackedRows(words, fields, np.array(starts, dtype=np.intp), label_field)


def validate_mask(mask: np.ndarray | Sequence[int], m: int, ndim: int = 1) -> np.ndarray:
    """Check a binary feature mask against a feature count and return it as bools.

    With ``ndim=2`` the input is a batch with one mask per row.
    """
    arr = np.asarray(mask)
    if arr.ndim != ndim or arr.shape[-1] != m:
        raise ValueError(f"mask has shape {arr.shape}; expected {ndim}-D, last axis {m}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("mask entries must be 0 or 1")
    return arr.astype(bool)


def discretize(real_matrix: np.ndarray, bins: int = 10) -> np.ndarray:
    """Map each column of a real-valued matrix to one of ``bins`` equal-width bins.

    A value at the boundary between two bins goes to the upper bin; the
    column maximum goes to the last bin. Constant columns map to bin 0.
    All columns are binned in one pass, each as ``(x - lo) / (hi - lo) * bins``.
    """
    data = np.asarray(real_matrix, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("input matrix must be 2-D")
    if bins < 1:
        raise ValueError(f"bin count must be positive, got {bins}")
    lo, hi = data.min(axis=0), data.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
    # The first column at fault: a non-finite value, too few bins or an overflowing span.
    faults = ~np.isfinite(span) | ((span != 0) & (bins < 2))
    if faults.any():
        j = int(faults.argmax())
        if not np.isfinite([lo[j], hi[j]]).all():
            raise ValueError(f"non-finite value in column {j}")
        if bins < 2:
            raise ValueError(f"column {j} varies but has fewer than 2 bins")
        raise ValueError(f"column {j} range overflows float64")
    scaled = data - lo
    scaled /= np.where(span == 0, 1.0, span)
    scaled *= bins
    return np.clip(np.floor(scaled, out=scaled), 0, bins - 1, out=scaled).astype(np.int64)


def entropy(labels: np.ndarray | Sequence[int]) -> float:
    """Plug-in entropy of an integer vector, in bits."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("labels must be a non-empty vector")
    _, counts = np.unique(arr, return_counts=True)
    probs = counts / arr.shape[0]
    return float(-np.add.reduce(probs * np.log2(probs)))


def _group_starts(packed: PackedRows, masks: np.ndarray) -> np.ndarray:
    """(2, S, n) flags: where each mask's sorted rows begin a (U, y) group, and a U group.

    The label takes the low bits of the last word, so masking that word to
    its column bits leaves what the U groups compare.
    """
    count, (n, width) = masks.shape[0], packed.words.shape
    # Each mask's selected column bits, per word.
    columns = np.zeros((count, width), dtype=np.uint64)
    selected = np.where(masks, packed.fields, _ZERO)
    columns[:, : packed.word_starts.size] = np.bitwise_or.reduceat(
        selected, packed.word_starts, axis=1
    )
    kept = columns.copy()
    kept[:, -1] |= packed.label_field
    live = kept.any(axis=0).nonzero()[0]
    starts = np.empty((2, count, n), dtype=bool)
    starts[:, :, 0] = True
    if live.size == 1:
        rows = packed.words[:, live[0]] & kept[:, live]
        rows.sort(axis=1)
        np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[0, :, 1:])
        rows &= columns[:, -1:]
        np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[1, :, 1:])
        return starts
    words = packed.words if live.size == width else packed.words[:, live]
    keys = (words & kept[:, None, live]).astype(">u8", order="C")
    # Read the sorted big-endian words back as native ones: XOR and AND
    # work bytewise, so which results are zero does not change.
    rows = np.sort(keys.view(np.dtype((np.void, live.size * 8))), axis=1).view(np.uint64)
    step = rows[:, 1:] ^ rows[:, :-1]
    tail = step[..., -1]
    np.not_equal(tail, 0, out=starts[0, :, 1:])
    tail &= columns[:, -1:].astype(">u8").view(np.uint64)
    np.not_equal(tail, 0, out=starts[1, :, 1:])
    starts[:, :, 1:] |= step[..., :-1].any(axis=2)
    return starts


def _entropy_gaps(starts: np.ndarray, terms_of: np.ndarray) -> np.ndarray:
    """H(y|U) = H(U, y) - H(U) for each mask, from :func:`_group_starts` flags.

    A group of c of the n rows adds ``terms_of[c]`` = (c/n) log2(c/n) to -H.
    Each mask's two entropies are each one ``np.add.reduce`` over that
    grouping's terms, as for a lone vector of counts, so the bits do not
    depend on how many masks share a chunk. Every U group start is a (U, y)
    group start, so equal group counts mean equal groupings and H(y|U) = 0:
    those masks are not summed.
    """
    count, n = starts.shape[1:]
    values = np.zeros(count)
    groups = np.count_nonzero(starts, axis=2)
    split = np.flatnonzero(groups[0] != groups[1])
    if not split.size:
        return values
    # The split masks' blocks back to back, and a closing start.
    flags = np.append(starts[:, split], True)
    terms = terms_of[np.diff(np.flatnonzero(flags))]
    bounds = np.concatenate(([0], np.cumsum(groups[:, split]))).tolist()
    for j, r in enumerate(split.tolist()):
        pair = -np.add.reduce(terms[bounds[j] : bounds[j + 1]])
        joint = -np.add.reduce(terms[bounds[split.size + j] : bounds[split.size + j + 1]])
        value = pair - joint
        values[r] = 0.0 if -NEG_CLAMP < value < 0.0 else value
    return values


def _told_apart_by_one_word(packed: PackedRows, masks: np.ndarray) -> np.ndarray:
    """Whether each mask's selected bits in one packed word already make its rows distinct.

    The word is the one holding the most of the mask's selected columns.
    Rows distinct on part of the mask are distinct on all of it.
    """
    counts = np.add.reduceat(masks, packed.word_starts, axis=1, dtype=np.intp)
    best = counts.argmax(axis=1)
    selected = np.where(masks, packed.fields, _ZERO)
    bits = np.bitwise_or.reduceat(selected, packed.word_starts, axis=1)
    keys = packed.words.T[best]
    keys &= bits[np.arange(masks.shape[0]), best, None]
    keys.sort(axis=1)
    return (keys[:, 1:] != keys[:, :-1]).all(axis=1)


def _scored(packed: PackedRows, terms_of: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The sorting path of :func:`evaluate_objective`, one chunk of masks at a time."""
    values = np.zeros(masks.shape[0])
    chunk = max(1, _CHUNK_WORDS // packed.words.size)
    for i in range(0, masks.shape[0], chunk):
        values[i : i + chunk] = _entropy_gaps(_group_starts(packed, masks[i : i + chunk]), terms_of)
    return values


def evaluate_objective(dataset: DiscreteDataset, masks: np.ndarray) -> np.ndarray:
    """:func:`conditional_entropy` of each row of an (S, m) batch of masks, unchecked.

    The caller checks the batch, as with ``validate_mask(masks, m, ndim=2)``.

    Each mask keeps the masked columns' bits and the label bits of every
    packed row, and a mask's rows are sorted: on a single word as integers,
    on several as big-endian byte strings, whose order is the lexicographic
    order of the (masked columns, label) tuples. Adjacent sorted rows that
    differ in any kept bit start a new (U, y) group, and those that differ
    in a column bit start a new U group. Both groupings come out in the
    order ``np.unique`` gives the tuples, so the counts, and the sums over
    them, are the same as grouping on the tuples directly.

    Masks are scored in chunks of ``_CHUNK_WORDS`` packed words or one mask,
    whichever is larger, one (chunk, n) sort per chunk, so the temporaries
    do not grow with S.

    Rows that span several words first take an early exit. Each mask's
    rows are sorted on one word alone, the word that holds the most of its
    selected columns, masked to those columns; ``_CHUNK_WORDS // n`` masks
    (at least one) share each (chunk, n) uint64 sort. A mask whose rows all
    differ on that word has only singleton groups, so H(U) = H(U, y) and it
    scores 0.0, as the sort on every word gives it; only the other masks
    take that sort. The empty mask selects no bits, so it passes only when
    n = 1, where both give 0.0. Single-word rows skip the exit.
    """
    packed, terms_of = dataset.packed, dataset.group_terms
    masks = np.asarray(masks, dtype=bool)
    if packed.words.shape[1] == 1:
        return _scored(packed, terms_of, masks)
    values = np.zeros(masks.shape[0])
    step = max(1, _CHUNK_WORDS // packed.words.shape[0])
    for i in range(0, masks.shape[0], step):
        batch = masks[i : i + step]
        rest = np.flatnonzero(~_told_apart_by_one_word(packed, batch))
        values[i + rest] = _scored(packed, terms_of, batch[rest])
    return values


def conditional_entropy(dataset: DiscreteDataset, mask: np.ndarray | Sequence[int]) -> float:
    """Plug-in conditional entropy of the labels given the masked features, in bits.

    Rows are grouped on the exact tuple of masked feature values; the empty
    mask reduces to the label entropy.
    """
    return float(evaluate_objective(dataset, validate_mask(mask, dataset.m)[None])[0])


def mutual_information(dataset: DiscreteDataset, mask: np.ndarray | Sequence[int]) -> float:
    """I(U; y) = H(y) - H(y|U) in bits; tiny negative rounding is clamped to 0."""
    value = entropy(dataset.labels) - conditional_entropy(dataset, mask)
    return 0.0 if abs(value) < NEG_CLAMP else max(value, 0.0)
