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
# Packed words (masks x n x words per row) that one chunk of evaluate_objective
# sorts at once: 2**14 words or one mask, whichever is larger, so peak
# memory stays flat in S. Wide data (mav: 727 x 34 words) gets one mask per
# chunk, whose temporaries each exceed the budget.
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
            if arr.dtype.kind not in "biuf":
                raise ValueError(f"{what} values must be numbers")
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

    A (U, y) group begins where adjacent sorted rows differ in a kept bit.
    The label holds the lowest bits of the last word, so a U group begins
    where they still differ with every label bit set: where the XOR ``step``
    of their last words exceeds ``label_field``, or an earlier word's is nonzero.

    Every mask's rows are first sorted on the first live word alone. On
    several words, a mask with no repeat there has only singleton groups,
    as rows that differ on part of its bits differ on all of them; only
    the masks with a repeat take the sort on every live word.
    """
    count, (n, width) = masks.shape[0], packed.words.shape
    fields = np.bitwise_or.reduceat(masks * packed.fields, packed.word_starts, axis=1)
    kept = np.zeros((count, width), dtype=np.uint64)
    kept[:, : fields.shape[1]] = fields
    kept[:, -1] |= packed.label_field
    live = kept.any(axis=0).nonzero()[0]
    starts = np.empty((2, count, n), dtype=bool)
    rows = packed.words[:, live[0]] & kept[:, live[0], None]
    rows.sort(axis=1)
    if live.size == 1:
        starts[:, :, 0] = True
        # Compared in place: an XOR array would be a second (S, n) temporary.
        np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[0, :, 1:])
        rows |= packed.label_field
        np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[1, :, 1:])
        return starts
    wide = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    starts.fill(True)
    if not wide.any():
        return starts
    words = packed.words if live.size == width else packed.words[:, live]
    keys = (words & kept[wide][:, None, live]).astype(">u8", order="C")
    # Sorted as big-endian bytes, read back as native words: XOR is bytewise,
    # so which words differ does not change, and a byteswap gives the tail its value.
    rows = np.sort(keys.view(np.dtype((np.void, live.size * 8))), axis=1).view(np.uint64)
    step = rows[:, 1:] ^ rows[:, :-1]
    tail = step[..., -1].byteswap()
    head = step[..., :-1].any(axis=2)
    starts[0, wide, 1:] = head | (tail != 0)
    starts[1, wide, 1:] = head | (tail > packed.label_field)
    return starts


def _entropy_gaps(starts: np.ndarray, terms_of: np.ndarray) -> np.ndarray:
    """H(y|U) = H(U, y) - H(U) for each mask, from :func:`_group_starts` flags.

    A group of c of the n rows adds ``terms_of[c]`` = (c/n) log2(c/n) to -H.
    The groupings are laid out as blocks of a sentinel start and n row
    flags, and one ``np.add.reduceat`` at the sentinels, whose terms are 0.0,
    sums every block: a segment led by 0.0 gives the bits of ``np.add.reduce``
    over the rest, so a mask scores the same alone or in any chunk. A mask
    whose two flag rows agree sums to exactly 0.0. The batch must not be empty.
    """
    count, n = starts.shape[1:]
    flags = np.ones(2 * count * (n + 1) + 1, dtype=bool)
    flags[:-1].reshape(2, count, n + 1)[:, :, 1:] = starts
    at = np.flatnonzero(flags)
    heads = np.searchsorted(at, np.arange(0, at[-1], n + 1))
    # At most two n-scale temporaries alive: with three, the heap shrank and regrew every chunk.
    sizes = np.diff(at)
    del at
    terms = terms_of[sizes]
    terms[heads] = 0.0
    pair, joint = -np.add.reduceat(terms, heads).reshape(2, count)
    values = pair - joint
    values[(-NEG_CLAMP < values) & (values < 0.0)] = 0.0
    return values


def evaluate_objective(
    dataset: DiscreteDataset, masks: np.ndarray, copies: np.ndarray | None = None, need: int = 0
) -> np.ndarray:
    """:func:`conditional_entropy` of each row of an (S, m) batch of masks, unchecked.

    The caller checks the batch, as with ``validate_mask(masks, m, ndim=2)``.

    Each mask keeps the masked columns' bits and the label bits of every
    packed row, and a mask's rows are sorted: on a single word as integers,
    on several as big-endian byte strings, whose order is the lexicographic
    order of the (masked columns, label) tuples. Adjacent sorted rows that
    differ in a kept bit begin a (U, y) group, and in a column bit a U group,
    in the order ``np.unique`` gives the tuples. Each grouping's terms are
    summed as one ``np.add.reduce`` per mask, with no Python loop per mask,
    so the values are the bits of grouping on the tuples directly; a mask
    whose two groupings agree scores exactly 0.0.

    Rows that span several words are first sorted on the first word any
    mask of the chunk keeps, masked to each mask's bits there. A mask whose
    rows all differ on that word has only singleton groups and scores 0.0,
    as the full sort gives it; only the other masks take the full sort.

    Masks are scored in chunks of ``_CHUNK_WORDS`` packed words or one mask,
    whichever is larger, one (chunk, n) sort per chunk, so the temporaries
    do not grow with S.

    With ``copies`` (each mask's count in its batch) and ``need``, the batch
    is an elite scan. The loop stops after the first chunk by whose end the
    copies of masks scoring 0.0 reach ``need``; every other mask, unscanned
    or split, then reads +inf. The sums of split masks wait, their flags
    packed eight rows to a byte, and run only if the scan ends short of
    ``need``: the values are then exact, as without ``copies``.
    """
    packed, terms_of = dataset.packed, dataset.group_terms
    masks = np.asarray(masks, dtype=bool)
    count, n = masks.shape[0], dataset.n
    values = np.zeros(count)
    chunk = max(1, _CHUNK_WORDS // packed.words.size)
    deferred = []
    zeros = 0
    for i in range(0, count, chunk):
        starts = _group_starts(packed, masks[i : i + chunk])
        if copies is None:
            values[i : i + chunk] = _entropy_gaps(starts, terms_of)
            continue
        split = (starts[0] != starts[1]).any(axis=1)
        if split.any():
            at = i + np.flatnonzero(split)
            values[at] = np.inf
            deferred.append((at, np.packbits(starts[:, split], axis=2)))
        zeros += int(copies[i : i + chunk][~split].sum())
        if zeros >= need:
            values[i + chunk :] = np.inf
            return values
    for at, flags in deferred:
        values[at] = _entropy_gaps(np.unpackbits(flags, axis=2, count=n).view(bool), terms_of)
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
