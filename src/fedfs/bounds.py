"""Centralized convergence bound of the cross-entropy search and its Monte-Carlo check.

The bound is an upper bound on the probability that no sampled mask up to a
horizon t' equals the unique optimal mask, for the smoothing schedule
alpha_t = 1/(t*m). The Monte-Carlo runner measures the same miss event
empirically on tiny datasets where the optimum is found by exhaustive search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ce import CEParams, alpha_schedule, elite_update, rank_masks, sample_masks, uniform_probs
from .info import NEG_CLAMP, DiscreteDataset, evaluate_objective


@dataclass(frozen=True)
class BoundInputs:
    """Terms of the miss-probability bound.

    ``p0`` is the scalar uniform initialization; ``optimal_mask`` identifies
    the unique optimum; ``alpha_seq`` overrides the 1/(t*m) schedule when
    given.
    """

    t_prime: int
    sample_count: int
    optimal_mask: tuple[int, ...]
    p0: float = 0.5
    alpha_seq: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "optimal_mask", tuple(int(b) for b in self.optimal_mask))
        if self.t_prime < 0:
            raise ValueError("t_prime must be non-negative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if any(b not in (0, 1) for b in self.optimal_mask) or not self.optimal_mask:
            raise ValueError("optimal_mask must be a non-empty binary tuple")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError("p0 must be in (0, 1)")
        if self.alpha_seq is not None:
            object.__setattr__(self, "alpha_seq", tuple(self.alpha_seq))
            if any(not 0.0 <= a < 1.0 for a in self.alpha_seq):
                raise ValueError("alpha_seq entries must be in [0, 1)")

    @property
    def m(self) -> int:
        return len(self.optimal_mask)

    def alpha(self, j: int) -> float:
        if self.alpha_seq is not None:
            return self.alpha_seq[j - 1] if j - 1 < len(self.alpha_seq) else self.alpha_seq[-1]
        return alpha_schedule(j, self.m)

    def first_draw_hit_probability(self) -> float:
        """Probability that a single initial draw equals the optimal mask."""
        ones = sum(self.optimal_mask)
        return self.p0**ones * (1.0 - self.p0) ** (self.m - ones)


def _decay(inputs: BoundInputs, tau: int, exponent: int) -> float:
    """prod_{j=1}^{tau-1} (1 - alpha_j)**exponent."""
    prod = 1.0
    for j in range(1, tau):
        prod *= (1.0 - inputs.alpha(j)) ** exponent
    return prod


def centralized_miss_bound(inputs: BoundInputs) -> float:
    """Upper bound on the probability no sample equals the optimum by t'."""
    if inputs.t_prime == 0:
        return 1.0
    p_hit = inputs.first_draw_hit_probability()
    bound = 1.0 - p_hit
    for tau in range(2, inputs.t_prime + 1):
        bound *= (1.0 - p_hit * _decay(inputs, tau, inputs.m)) ** inputs.sample_count
    return min(max(bound, 0.0), 1.0)


def candidate_masks(m: int) -> np.ndarray:
    """All 2^m masks over m <= 4 features; row i holds the bits of i, feature j at bit j."""
    if m > 4:
        raise ValueError("exhaustive search supports at most 4 features")
    return ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(np.uint8)


def find_optimal_mask(dataset: DiscreteDataset) -> np.ndarray:
    """Exhaustively locate the unique minimal-cardinality objective minimizer.

    Ties on the objective are broken by cardinality (a superset of an
    optimal mask scores the same); a tie at the minimal cardinality means
    the optimum is not unique and is rejected.
    """
    candidates = candidate_masks(dataset.m)
    return _unique_optimum(candidates, evaluate_objective(dataset, candidates))


def _unique_optimum(candidates: np.ndarray, objectives: np.ndarray) -> np.ndarray:
    best_value = math.inf
    masks = []
    for mask, value in zip(candidates, objectives.tolist()):
        if value < best_value - NEG_CLAMP:
            best_value = value
            masks = [mask]
        elif value <= best_value + NEG_CLAMP:
            masks.append(mask)
    min_ones = min(int(mask.sum()) for mask in masks)
    winners = [mask for mask in masks if int(mask.sum()) == min_ones]
    if len(winners) != 1:
        raise ValueError("multiple optimal masks; the bound assumes a unique optimum")
    return winners[0]


def miss_rate_curve(
    dataset: DiscreteDataset,
    params: CEParams,
    t_max: int,
    trials: int,
    p0: Optional[np.ndarray] = None,
) -> list[float]:
    """Observed miss rates for every horizon 1..t_max from seeded trials.

    Trial s uses streams derived from (params.rng_seed, s, round); a trial
    misses horizon t' when none of its samples up to round t' equals the
    exhaustively-found optimum. All 2^m masks are ranked once by
    :func:`fedfs.ce.rank_masks`, whose key does not depend on the batch, so
    the table orders any round as ``ce_update`` would. A round before t_max
    that misses runs the optimizer's :func:`fedfs.ce.elite_update` on ranks
    read from it; a hit stops the trial, and the last round updates nothing
    because no later sample would use its update.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful rate")
    candidates = candidate_masks(dataset.m)
    objectives = evaluate_objective(dataset, candidates)
    optimum = _unique_optimum(candidates, objectives)
    table = rank_masks(candidates, objectives)
    bit_values = 1 << np.arange(dataset.m)
    init = uniform_probs(dataset.m) if p0 is None else np.asarray(p0, dtype=np.float64)
    # The round each trial first hits; t_max + 1 if it never does.
    hit_rounds = np.full(trials, t_max + 1)
    for s in range(trials):
        p = init
        for t in range(1, t_max + 1):
            masks = sample_masks(p, params.sample_count, [params.rng_seed, s, t])
            if np.any(np.all(masks == optimum, axis=1)):
                hit_rounds[s] = t
                break
            if t < t_max:
                p = elite_update(p, masks, table[masks @ bit_values], params, t)
    misses = np.count_nonzero(hit_rounds > np.arange(1, t_max + 1)[:, None], axis=1)
    return [float(c) / trials for c in misses]
