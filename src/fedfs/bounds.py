"""Centralized convergence bound of the cross-entropy search and its Monte-Carlo check.

The bound is an upper bound on the probability that no sampled mask up to a
horizon t' equals the unique optimal mask, for the smoothing schedule
alpha_t = 1/(t*m). The Monte-Carlo runner measures the same miss event
empirically on tiny datasets where the optimum is found by exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ce import CEParams, alpha_schedule, elite_update, rank_masks, sample_masks, uniform_probs, validate_probs
from .info import NEG_CLAMP, DiscreteDataset, evaluate_objective

# Uniform draws (trials x sample_count x m) one block of Monte-Carlo trials
# may take per round; bounds the sampling arrays whatever the trial count.
_DRAW_BUDGET = 2**18


@dataclass(frozen=True)
class BoundInputs:
    """Terms of the miss-probability bound.

    ``p0`` is the scalar uniform initialization; ``optimal_mask`` identifies
    the unique optimum; ``alpha_seq`` overrides the 1/(t*m) schedule when
    given. An alpha of 1 makes every later decay 0, so the bound stays at
    1 - p_hit, the bound of round 1 alone.
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
            if not self.alpha_seq or any(not 0.0 <= a <= 1.0 for a in self.alpha_seq):
                raise ValueError("alpha_seq must be non-empty, with entries in [0, 1]")

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


def centralized_miss_bound(inputs: BoundInputs) -> float:
    """Upper bound on the probability no sample equals the optimum by t'."""
    if inputs.t_prime == 0:
        return 1.0
    p_hit = inputs.first_draw_hit_probability()
    bound = 1.0 - p_hit
    # prod_{j=1}^{tau-1} (1 - alpha_j)**m, one factor more each round.
    decay = 1.0
    for tau in range(2, inputs.t_prime + 1):
        decay *= (1.0 - inputs.alpha(tau - 1)) ** inputs.m
        bound *= (1.0 - p_hit * decay) ** inputs.sample_count
    return min(max(bound, 0.0), 1.0)


def candidate_masks(m: int) -> np.ndarray:
    """All 2^m masks over m <= 4 features; row i holds the bits of i, feature j at bit j."""
    if m > 4:
        raise ValueError("exhaustive search supports at most 4 features")
    return ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(np.uint8)


def find_optimal_mask(dataset: DiscreteDataset) -> np.ndarray:
    """Exhaustively locate the unique minimal-cardinality objective minimizer.

    Every mask within ``NEG_CLAMP`` of the minimum objective ties, whatever
    the order of the candidates. Ties are broken by cardinality (a superset
    of an optimal mask scores the same); a tie at the minimal cardinality
    means the optimum is not unique and is rejected.
    """
    candidates = candidate_masks(dataset.m)
    return _unique_optimum(candidates, evaluate_objective(dataset, candidates))


def _unique_optimum(candidates: np.ndarray, objectives: np.ndarray) -> np.ndarray:
    near = candidates[objectives <= objectives.min() + NEG_CLAMP]
    ones = near.sum(axis=1)
    winners = near[ones == ones.min()]
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

    Round t has one stream, derived from (params.rng_seed, t), and every
    trial still missing at round t draws its masks from it, in trial order.
    A trial misses horizon t' when none of its samples up to round t' equals
    the exhaustively-found optimum. All 2^m masks are ranked once by
    :func:`fedfs.ce.rank_masks`, whose key does not depend on the batch, so
    the table gives any round the elite ``ce_update`` would. The trials that miss
    a round before t_max take one batched :func:`fedfs.ce.elite_update` on
    ranks read from it; a hit stops the trial, and the last round updates
    nothing because no later sample would use its update. Trials run in
    blocks of at most ``_DRAW_BUDGET`` uniform draws per round, so memory
    stays flat in ``trials``; consecutive draws from one stream equal one
    draw of their total size, so the blocks do not change the curve. A given
    ``p0`` must pass :func:`fedfs.ce.validate_probs`, as ``ce_update``'s p does,
    and ``t_max`` must be at least 1.
    """
    if t_max < 1:
        raise ValueError("t_max must be positive")
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful rate")
    candidates = candidate_masks(dataset.m)
    objectives = evaluate_objective(dataset, candidates)
    table = rank_masks(candidates, objectives)
    bit_values = 1 << np.arange(dataset.m)
    target = _unique_optimum(candidates, objectives) @ bit_values
    init = uniform_probs(dataset.m) if p0 is None else validate_probs(p0, dataset.m)
    streams = [np.random.default_rng([params.rng_seed, t]) for t in range(1, t_max + 1)]
    block = max(1, _DRAW_BUDGET // (params.sample_count * dataset.m))
    # The round each trial first hits; t_max + 1 if it never does.
    hit_rounds = np.full(trials, t_max + 1)
    for start in range(0, trials, block):
        live = np.arange(start, min(start + block, trials))
        p = np.broadcast_to(init, (live.size, dataset.m))
        for t, stream in enumerate(streams, start=1):
            masks = sample_masks(p, params.sample_count, stream)
            codes = masks @ bit_values
            hit = np.any(codes == target, axis=1)
            hit_rounds[live[hit]] = t
            miss = ~hit
            live = live[miss]
            if t == t_max or not live.size:
                break
            p = elite_update(p[miss], masks[miss], table[codes[miss]], params, t)
    misses = np.count_nonzero(hit_rounds > np.arange(1, t_max + 1)[:, None], axis=1)
    return [float(c) / trials for c in misses]
