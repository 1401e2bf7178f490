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
equally informative subsets the same way. The digest is a hash, so the
tie-break favours no feature position.

The elite step, :func:`elite_update`, reads only the order of its ranks:
:func:`ce_update` ranks a batch for it, :mod:`fedfs.bounds` reads a table.
"""

from __future__ import annotations

import hashlib
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


def sample_masks(p: np.ndarray, count: int, rng_seed) -> np.ndarray:
    """Draw ``count`` independent Bernoulli masks; bit i is 1 with probability p[i].

    ``rng_seed`` is anything ``numpy.random.default_rng`` accepts, so callers
    can pass entropy lists like ``[seed, round]`` for derived streams.
    """
    p = np.asarray(p, dtype=np.float64)
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(rng_seed)
    return (rng.random((count, p.shape[0])) < p).astype(np.uint8)


def rank_masks(masks: np.ndarray, objectives: Sequence[float]) -> np.ndarray:
    """Dense ranks of the masks, 0 for the best, on the elite ordering key.

    The key is (objective rounded to 1e-12, popcount, BLAKE2b digest of the
    packed mask bits) ascending. Identical masks share a rank; distinct masks
    differ in it unless their 64-bit digests collide.
    """
    masks = np.asarray(masks, dtype=np.uint8)
    counts = masks.sum(axis=1)
    digests = [
        hashlib.blake2b(row.tobytes(), digest_size=8).digest()
        for row in np.packbits(masks, axis=1)
    ]
    keys = [(round(float(o), 12), int(c), d) for o, c, d in zip(objectives, counts, digests)]
    rank_of = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return np.array([rank_of[key] for key in keys], dtype=np.int64)


def compute_gamma(objectives: Sequence[float], beta: float) -> float:
    """Nearest-rank (1-beta)-percentile of the objective values.

    Sort ascending and take the element at index ceil((1-beta)*S)-1, clamped
    into range; this guarantees at least one sample scores <= gamma.
    """
    values = sorted(objectives)
    if not values:
        raise ValueError("objectives must be non-empty")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    return values[_cutoff(len(values), beta)]


def _cutoff(size: int, beta: float) -> int:
    """Index ceil((1-beta)*size)-1 of the nearest-rank percentile, clamped into range."""
    return min(max(math.ceil((1.0 - beta) * size) - 1, 0), size - 1)


def update_probabilities(
    p: np.ndarray,
    masks: np.ndarray,
    objectives: Sequence[float],
    gamma: float,
    alpha: float,
    eps: float = DEFAULT_CLAMP,
) -> np.ndarray:
    """Pull p toward the per-feature frequency over the elite masks.

    Elite masks are those with objective <= gamma (weak inequality, so ties
    at gamma are included). The new vector is (1-alpha)*p + alpha*frequency,
    clamped into [eps, 1-eps]; the input is not modified.
    """
    p = np.asarray(p, dtype=np.float64)
    masks = np.asarray(masks)
    objectives = np.asarray(objectives, dtype=np.float64)
    if masks.shape != (objectives.shape[0], p.shape[0]):
        raise ValueError("masks, objectives and p have inconsistent shapes")
    elite = objectives <= gamma
    if not elite.any():
        raise RuntimeError("empty elite set; gamma must be a sampled objective value")
    freq = masks[elite].mean(axis=0)
    return clamp_probs((1.0 - alpha) * p + alpha * freq, eps)


def elite_update(
    p: np.ndarray, masks: np.ndarray, ranks: Sequence[int], params: CEParams, round_index: int
) -> np.ndarray:
    """Pull p toward the elite of ranked masks: alpha by mode, percentile, update.

    ``ranks`` order the (S, m) batch best first; only that order matters, so
    any order-preserving map of them gives the same elite: the best
    ceil((1-beta)*S) masks, plus every mask ranked equal to the last of them.
    ``round_index`` only sets alpha under the "schedule" mode.
    """
    if params.alpha_mode == "schedule":
        alpha = alpha_schedule(round_index, len(p))
    else:
        alpha = params.alpha
    gamma = compute_gamma(ranks, params.beta)
    return update_probabilities(p, masks, ranks, gamma, alpha, params.clamp_eps)


def ce_update(
    dataset: DiscreteDataset,
    p: np.ndarray,
    masks: np.ndarray,
    params: CEParams,
    round_index: int,
) -> np.ndarray:
    """Score already-sampled masks and pull p toward their elite.

    The (S, m) batch is checked once and each distinct mask in it is scored
    once, by one :func:`evaluate_objective` call. The elite is that of
    :func:`rank_masks` over all S: the distinct masks are ordered on
    (rounded objective, popcount), copies counted, up to the mask at the
    ceil((1-beta)*S) cutoff, and digests are taken only for the masks tied
    with it on both keys. :func:`elite_update` then gets rank 0 for the
    elite and 1 for the rest.
    """
    checked = validate_mask(masks, dataset.m, ndim=2)
    bits = np.packbits(checked, axis=1)
    rows = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
    _, first, owner, copies = np.unique(rows, return_index=True, return_inverse=True, return_counts=True)
    unique = checked[first]
    # Python's round, as rank_masks keys it; np.round rounds differently.
    objectives = np.array([round(v, 12) for v in evaluate_objective(dataset, unique).tolist()])
    counts = unique.sum(axis=1)
    order = np.lexsort((counts, objectives))
    cut = _cutoff(len(owner), params.beta)
    # The distinct mask whose copies cover sorted position `cut`.
    edge = order[np.argmax(np.cumsum(copies[order]) > cut)]
    same = objectives == objectives[edge]
    elite = (objectives < objectives[edge]) | (same & (counts < counts[edge]))
    # The cutoff falls among the masks tied with the edge on both keys; digests order them.
    tied = np.flatnonzero(same & (counts == counts[edge]))
    digests = [hashlib.blake2b(bits[first[i]].tobytes(), digest_size=8).digest() for i in tied]
    by_digest = sorted(range(tied.size), key=digests.__getitem__)
    covered = np.cumsum(copies[tied[by_digest]]) > cut - copies[elite].sum()
    last = digests[by_digest[np.argmax(covered)]]
    elite[tied] = [d <= last for d in digests]
    return elite_update(p, checked, np.where(elite[owner], 0, 1), params, round_index)


def ce_round(
    dataset: DiscreteDataset,
    p_in: np.ndarray,
    params: CEParams,
    round_index: int = 1,
) -> np.ndarray:
    """Sample ``params.sample_count`` masks from p_in, then :func:`ce_update`.

    Deterministic given (dataset, p_in, params, round_index): the sampling
    stream is derived from the seed and the round index.
    """
    p_in = np.asarray(p_in, dtype=np.float64)
    if p_in.shape[0] != dataset.m:
        raise ValueError("probability vector length must equal feature count")
    masks = sample_masks(p_in, params.sample_count, [params.rng_seed, round_index])
    return ce_update(dataset, p_in, masks, params, round_index)


def select_features(p: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> list[int]:
    """Indices whose selection probability exceeds the threshold, ascending."""
    if not 0.5 < threshold < 1.0:
        raise ValueError("threshold must be in (0.5, 1)")
    return [int(i) for i in np.flatnonzero(np.asarray(p) > threshold)]
