"""One cross-entropy optimization round over Bernoulli feature masks.

A round samples S candidate masks from the current per-feature Bernoulli
probability vector, scores each mask by the conditional entropy of the labels
given the masked features, keeps the elite fraction of best-ranked masks,
and pulls the probability vector toward the elite selection frequencies with
smoothing factor alpha.

Masks are ranked best by objective, then by fewest features, then by a fixed
digest of the mask bits. The plug-in objective is 0 for most masks on small
partitions, so without the last two keys nearly every mask would tie into the
elite and the update would lose its selection pressure; with them only
identical masks tie, and every client breaks ties between equally small,
equally informative subsets the same way. The digest mixes every bit, so the
tie-break favours no feature position.

The ordering lives in :func:`rank_masks` alone and the cut in
:func:`elite_update` alone, which takes any number of batches at once and
reads only the order of their ranks. :func:`ce_update` scans the distinct
masks of one batch in their order at objective 0, one kernel chunk at a
time, and stops once masks that score 0, the objective's floor, fill the
cutoff: only those need a score, so the exact sums of the others run only
when the scan ends short (on data that no feature set separates, none
scores 0, so the scan never settles and sums every mask it sorted);
:mod:`fedfs.bounds` reads the ranks of every live Monte-Carlo trial from a
table of all masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .info import DiscreteDataset, evaluate_objective, validate_mask

# Keeps every mask reachable: the frequency update alone can pin a
# probability to exactly 0 or 1, which freezes exploration.
DEFAULT_CLAMP = 1e-6
DEFAULT_THRESHOLD = 0.99


@dataclass(frozen=True)
class CEParams:
    """Knobs for one optimization round.

    ``alpha_mode`` is either "fixed" (use ``alpha`` as-is) or "schedule"
    (per-round alpha of 1/(t*m), see :func:`alpha_schedule`).
    """

    sample_count: int = 100
    beta: float = 0.9
    alpha: float = 0.7
    alpha_mode: str = "fixed"
    clamp_eps: float = DEFAULT_CLAMP
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.alpha_mode not in ("fixed", "schedule"):
            raise ValueError("alpha_mode must be 'fixed' or 'schedule'")
        if not 0.0 < self.clamp_eps < 0.5:
            raise ValueError("clamp_eps must be in (0, 0.5)")


def alpha_schedule(round_index: int, m: int) -> float:
    """Per-round smoothing factor 1/(t*m); its slow decay drives the miss bounds."""
    if round_index < 1 or m < 1:
        raise ValueError("round_index and m must be positive")
    return 1.0 / (round_index * m)


def clamp_probs(p: np.ndarray, eps: float = DEFAULT_CLAMP) -> np.ndarray:
    """Clip a probability vector into [eps, 1-eps]."""
    return np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)


def uniform_probs(m: int) -> np.ndarray:
    """The standard all-0.5 initialization."""
    return np.full(m, 0.5)


def validate_probs(p: np.ndarray | Sequence[float], m: int) -> np.ndarray:
    """Check a probability vector: m entries, each finite and in [0, 1]; return it as float64."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (m,):
        raise ValueError("probability vector length must equal feature count")
    # min and max propagate NaN, which fails both comparisons.
    if not (0.0 <= p.min() and p.max() <= 1.0):
        raise ValueError("probabilities must be finite and in [0, 1]")
    return p


def sample_masks(p: np.ndarray, count: int, rng_seed) -> np.ndarray:
    """Draw ``count`` independent Bernoulli masks per vector; bit i is 1 with probability p[..., i].

    p is (..., m) and the result (..., count, m), drawn in row order from one
    stream. ``rng_seed`` is anything ``numpy.random.default_rng`` accepts, so
    callers can pass entropy lists like ``[seed, round]`` for derived streams,
    or a ``Generator`` to keep drawing from.
    """
    p = np.asarray(p, dtype=np.float64)
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(rng_seed)
    return (rng.random(p.shape[:-1] + (count, p.shape[-1])) < p[..., None, :]).astype(np.uint8)


def digest_masks(masks: np.ndarray) -> np.ndarray:
    """A fixed 64-bit digest of each (S, m) mask row, a function of its bits alone.

    The bits are packed eight to a byte, first feature in the high bit, and
    read as little-endian uint64 words, the last one zero-padded. Word w is
    weighted by the odd key (w+1)*0x9E3779B97F4A7C15 | 1, and splitmix64's
    finalizer mixes the weighted sum mod 2**64. Both steps are bijections on
    one word, so distinct masks of at most 64 bits never share a digest.
    """
    packed = np.packbits(masks, axis=1)
    words = np.zeros((packed.shape[0], -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    words = words.view("<u8")
    keys = np.arange(1, words.shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)
    z = (words * keys).sum(axis=1, dtype=np.uint64)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(factor)
    return z ^ (z >> np.uint64(31))


def rank_masks(masks: np.ndarray, objectives: Sequence[float]) -> np.ndarray:
    """Dense ranks of the (S, m) masks, 0 for the best, on the elite ordering key.

    The key is (objective rounded to 1e-12, popcount, :func:`digest_masks`)
    ascending, ordered by one ``np.lexsort``. Identical masks share a rank;
    distinct masks differ in it unless their digests collide. No key depends
    on the rest of the batch, so masks keep their order in any batch. Masks
    of any dtype are read as bool.
    """
    masks = np.asarray(masks, dtype=bool)
    objectives = np.asarray(objectives, dtype=np.float64)
    if objectives.shape != masks.shape[:1]:
        raise ValueError("objectives must hold one value per mask")
    keys = (np.round(objectives, 12), masks.sum(axis=1, dtype=np.int32), digest_masks(masks))
    order = np.lexsort(keys[::-1])
    changes = np.zeros(len(order), dtype=bool)
    for ordered in (key[order] for key in keys):
        changes[1:] |= ordered[1:] != ordered[:-1]
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.cumsum(changes)
    return ranks


def _cutoff(size: int, beta: float) -> int:
    """Index ceil((1-beta)*size)-1 of the nearest-rank percentile, clamped into range."""
    return min(max(math.ceil((1.0 - beta) * size) - 1, 0), size - 1)


def elite_update(
    p: np.ndarray, masks: np.ndarray, ranks: np.ndarray, params: CEParams, round_index: int
) -> np.ndarray:
    """Pull p toward the selection frequency of its elite masks, for a whole batch at once.

    p is (..., m), masks (..., S, m) and ranks (..., S): one vector, one
    mask batch and its ranks per leading index. gamma is each row's sorted
    rank at index ceil((1-beta)*S)-1, and the elite is every mask ranked
    <= gamma: the best ceil((1-beta)*S) masks plus every mask ranked equal
    to the last of them. Only the order of ``ranks`` matters. The elite's
    selection counts are one float64 matmul, exact in any summation order
    since they are integers below 2**53. The result is
    (1-alpha)*p + alpha*frequency, clamped into [eps, 1-eps]; p is not
    modified, and ``round_index`` only sets alpha under the "schedule" mode.
    """
    p = np.asarray(p, dtype=np.float64)
    masks = np.asarray(masks)
    ranks = np.asarray(ranks)
    shape = masks.shape
    if len(shape) < 2 or shape[:-1] != ranks.shape or shape[:-2] + shape[-1:] != p.shape or not shape[-2]:
        raise ValueError("p, masks and ranks have inconsistent shapes or an empty batch")
    if params.alpha_mode == "schedule":
        alpha = alpha_schedule(round_index, p.shape[-1])
    else:
        alpha = params.alpha
    gamma = np.sort(ranks, axis=-1)[..., _cutoff(ranks.shape[-1], params.beta), None]
    elite = ranks <= gamma
    counts = np.matmul(elite[..., None, :], masks, dtype=np.float64)[..., 0, :]
    freq = counts / elite.sum(axis=-1, keepdims=True)
    return clamp_probs((1.0 - alpha) * p + alpha * freq, params.clamp_eps)


def ce_update(
    dataset: DiscreteDataset,
    p: np.ndarray,
    masks: np.ndarray,
    params: CEParams,
    round_index: int,
) -> np.ndarray:
    """Score already-sampled masks, as far as the elite needs, and pull p toward their elite.

    p must hold m finite probabilities in [0, 1]. The (S, m) batch is checked
    once and deduplicated. The distinct masks are scanned in the order
    :func:`rank_masks` gives them at objective 0 (by popcount, then digest)
    by one :func:`evaluate_objective` call, chunk by chunk. The scan stops
    after the first chunk by whose end the copies of masks whose objective
    rounds to 0.0 reach ``need``, the elite's nearest-rank size
    ceil((1-beta)*S), and never between masks of equal scan rank. Only then
    are masks that score above 0 summed: if the scan settles, they read +inf,
    as unscanned ones do.

    No objective is below 0, so every mask that does not score 0 ranks after
    those zeros, and the nearest-rank cutoff falls on one of them: the elite
    is the one scoring every mask would give. Each mask ranks by its rounded
    objective, then its scan rank, which is the :func:`rank_masks` order. On
    data where not even every feature together fixes the label, no mask
    scores 0: the scan never settles and sums every distinct mask exactly.
    :func:`elite_update` makes the cut over all S ranks, as
    :func:`fedfs.bounds.miss_rate_curve` does over its table.
    """
    p = validate_probs(p, dataset.m)
    checked = validate_mask(masks, dataset.m, ndim=2)
    bits = np.packbits(checked, axis=1)
    rows = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
    _, first, owner, copies = np.unique(rows, return_index=True, return_inverse=True, return_counts=True)
    scan = rank_masks(checked[first], np.zeros(len(first)))
    order = np.argsort(scan, kind="stable")
    unique, copies, scan = checked[first[order]], copies[order], scan[order]
    need = _cutoff(len(checked), params.beta) + 1
    objectives = np.round(evaluate_objective(dataset, unique, copies, need, scan), 12)
    # rank_masks's key, whose (popcount, digest) part the scan rank already orders.
    ranks = np.empty_like(scan)
    ranks[order] = np.unique(objectives, return_inverse=True)[1] * len(unique) + scan
    return elite_update(p, checked, ranks[owner], params, round_index)


def ce_round(
    dataset: DiscreteDataset,
    p_in: np.ndarray,
    params: CEParams,
    round_index: int = 1,
) -> np.ndarray:
    """Sample ``params.sample_count`` masks from p_in, then :func:`ce_update`, which checks p_in.

    Deterministic given (dataset, p_in, params, round_index): the sampling
    stream is derived from the seed and the round index.
    """
    masks = sample_masks(p_in, params.sample_count, [params.rng_seed, round_index])
    return ce_update(dataset, p_in, masks, params, round_index)


def select_features(p: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> list[int]:
    """Indices whose selection probability exceeds the threshold, ascending."""
    if not 0.5 < threshold < 1.0:
        raise ValueError("threshold must be in (0.5, 1)")
    return [int(i) for i in np.flatnonzero(np.asarray(p) > threshold)]
