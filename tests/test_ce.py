"""Cross-entropy round mechanics: sampling, percentile, update, selection."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfs import ce
from fedfs.ce import (
    CEParams,
    alpha_schedule,
    ce_round,
    ce_update,
    clamp_probs,
    compute_gamma,
    elite_update,
    evaluate_objective,
    rank_masks,
    sample_masks,
    select_features,
    uniform_probs,
    update_probabilities,
)
from fedfs.datasets import PlantedSpec, generate_planted
from fedfs.info import DiscreteDataset, conditional_entropy


class TestSampleMasks:
    def test_near_degenerate(self):
        eps = 1e-6
        masks = sample_masks(np.array([1.0 - eps, eps]), 3, rng_seed=0)
        assert masks.tolist() == [[1, 0]] * 3

    def test_frequency_concentration(self):
        masks = sample_masks(np.array([0.5]), 10_000, rng_seed=42)
        freq = masks.mean()
        assert 0.48 <= freq <= 0.52

    def test_determinism(self):
        p = np.array([0.2, 0.8, 0.5])
        a = sample_masks(p, 50, rng_seed=[7, 3])
        b = sample_masks(p, 50, rng_seed=[7, 3])
        assert np.array_equal(a, b)

    def test_distinct_streams_for_distinct_rounds(self):
        p = np.array([0.5] * 8)
        a = sample_masks(p, 50, rng_seed=[7, 1])
        b = sample_masks(p, 50, rng_seed=[7, 2])
        assert not np.array_equal(a, b)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_masks(np.array([0.5]), 0, rng_seed=0)


class TestComputeGamma:
    def test_nearest_rank(self):
        assert compute_gamma([0.1, 0.2, 0.8, 0.9], beta=0.9) == 0.1

    def test_constant_list(self):
        assert compute_gamma([0.5, 0.5, 0.5], beta=0.3) == 0.5

    def test_singleton(self):
        assert compute_gamma([0.3], beta=0.95) == 0.3

    def test_unsorted_input(self):
        assert compute_gamma([0.9, 0.1, 0.8, 0.2], beta=0.9) == 0.1

    def test_lower_beta_moves_gamma_up(self):
        values = [float(v) for v in range(10)]
        assert compute_gamma(values, beta=0.5) == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_gamma([], beta=0.9)


class TestUpdateProbabilities:
    def test_worked_example(self):
        p = np.array([0.5, 0.5])
        masks = np.array([[1, 0], [1, 1], [0, 1], [0, 0]])
        objectives = [0.1, 0.2, 0.9, 0.8]
        out = update_probabilities(p, masks, objectives, gamma=0.2, alpha=0.5)
        assert out.tolist() == [0.75, 0.5]

    def test_alpha_zero_is_identity(self):
        p = np.array([0.3, 0.7])
        masks = np.array([[1, 1], [0, 0]])
        out = update_probabilities(p, masks, [0.0, 1.0], gamma=0.0, alpha=0.0)
        assert np.allclose(out, p)

    def test_alpha_one_all_elite_is_raw_frequency(self):
        p = np.array([0.1, 0.9, 0.5])
        masks = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]])
        out = update_probabilities(p, masks, [1.0] * 4, gamma=1.0, alpha=1.0)
        assert np.allclose(out, masks.mean(axis=0))

    def test_ties_at_gamma_included(self):
        masks = np.array([[1, 0], [0, 1]])
        out = update_probabilities(np.array([0.5, 0.5]), masks, [0.2, 0.2], 0.2, 1.0)
        assert np.allclose(out, [0.5, 0.5])

    def test_empty_elite_is_internal_error(self):
        masks = np.array([[1, 0]])
        with pytest.raises(RuntimeError):
            update_probabilities(np.array([0.5, 0.5]), masks, [0.5], gamma=0.1, alpha=0.5)

    def test_output_clamped(self):
        masks = np.array([[1, 1], [1, 1]])
        out = update_probabilities(np.array([1.0, 1.0]), masks, [0.0, 0.0], 0.0, 1.0)
        assert np.all(out <= 1.0 - 1e-6)

    def test_input_not_modified(self):
        p = np.array([0.5, 0.5])
        masks = np.array([[1, 0], [0, 1]])
        update_probabilities(p, masks, [0.1, 0.9], gamma=0.1, alpha=1.0)
        assert p.tolist() == [0.5, 0.5]

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            s = int(rng.integers(2, 20))
            p = rng.random(m)
            masks = rng.integers(0, 2, size=(s, m))
            objectives = rng.random(s)
            gamma = compute_gamma(objectives, 0.7)
            alpha = float(rng.uniform(0.05, 1.0))
            out = update_probabilities(p, masks, objectives, gamma, alpha)
            # Convex combination of two vectors in [0, 1], then clamped.
            assert np.all(out >= 1e-6 - 1e-15)
            assert np.all(out <= 1.0 - 1e-6 + 1e-15)
            elite = masks[np.asarray(objectives) <= gamma]
            raw = (1.0 - alpha) * p + alpha * elite.mean(axis=0)
            assert np.allclose(out, np.clip(raw, 1e-6, 1.0 - 1e-6))


def mask_digest(mask):
    # BLAKE2b-64 of the mask bits packed eight to a byte, first feature in the high bit.
    bits = [int(b) for b in mask] + [0] * (-len(mask) % 8)
    packed = bytes(int("".join(map(str, bits[i : i + 8])), 2) for i in range(0, len(bits), 8))
    return hashlib.blake2b(packed, digest_size=8).digest()


def elite_key(mask, objective):
    # Best objective, then fewest features, then the mask digest.
    return (round(objective, 12), int(mask.sum()), mask_digest(mask))


def hand_rolled_elite(masks, objectives, beta, key):
    """Indices of the nearest-rank elite over dense ranks on ``key``."""
    keys = [key(m, o) for m, o in zip(masks, objectives)]
    distinct = sorted(set(keys))
    ranks = [distinct.index(k) for k in keys]
    gamma = sorted(ranks)[math.ceil((1.0 - beta) * len(ranks)) - 1]
    return [i for i, r in enumerate(ranks) if r <= gamma]


class TestRankMasks:
    def test_objective_then_popcount_then_digest(self):
        masks = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 1], [0, 0, 0], [0, 1, 0], [1, 0, 0]])
        objectives = [0.0, 0.0, 0.0, 1.5, 0.0, 0.0]
        ranks = rank_masks(masks, objectives)
        # Objective, then popcount, fix the order of every mask but the two
        # pairs of equal popcount at objective 0, which the digest orders.
        assert ranks[2] == 4 and ranks[3] == 5
        assert sorted(ranks[[4, 5]]) == [0, 1] and sorted(ranks[[0, 1]]) == [2, 3]
        by_key = sorted(range(6), key=lambda i: elite_key(masks[i], objectives[i]))
        assert ranks.tolist() == [by_key.index(i) for i in range(6)]

    def test_identical_masks_and_near_equal_objectives_tie(self):
        masks = np.array([[1, 0], [1, 0], [0, 1]])
        ranks = rank_masks(masks, [0.25, 0.25 + 1e-14, 0.25])
        assert ranks[0] == ranks[1] != ranks[2]

    def test_tie_order_does_not_follow_feature_position(self):
        # Among the one-feature masks of m=16, the digest order is not the
        # column order in either direction.
        masks = np.eye(16, dtype=np.uint8)
        ranks = rank_masks(masks, [0.0] * 16).tolist()
        assert sorted(ranks) == list(range(16))
        assert ranks != list(range(16)) and ranks != list(range(15, -1, -1))


class TestCeRound:
    def test_fixed_point_at_converged_vector(self, xor_dataset):
        eps = 1e-6
        params = CEParams(sample_count=50, beta=0.9, alpha=0.7, rng_seed=1)
        p_in = np.full(2, 1.0 - eps)
        out = ce_round(xor_dataset, p_in, params)
        assert np.all(out >= 1.0 - eps - 0.7 * eps - 1e-12)

    def test_deterministic(self, xor_noise_dataset):
        params = CEParams(sample_count=40, rng_seed=13)
        a = ce_round(xor_noise_dataset, uniform_probs(3), params, round_index=2)
        b = ce_round(xor_noise_dataset, uniform_probs(3), params, round_index=2)
        assert np.array_equal(a, b)

    def test_matches_hand_rolled_oracle(self, xor_noise_dataset):
        # Replays the exact seeded sampling, ranks the masks and applies the
        # elite-frequency update by hand; the module must agree bitwise. In the
        # second case (x2 a copy of x0) the objective-only elite and the
        # (objective, popcount) elite both differ from the three-part key's.
        copy_dataset = generate_planted(
            PlantedSpec(m=3, n=64, relevant=(0, 1), redundant={2: 0}, label_rule="xor", rng_seed=2024)
        )
        cases = ((xor_noise_dataset, 5, 4, False), (copy_dataset, 7, 1, True))
        for dataset, seed, round_index, rules_disagree in cases:
            params = CEParams(sample_count=30, beta=0.8, alpha=0.6, rng_seed=seed)
            p_in = uniform_probs(3)
            ours = ce_round(dataset, p_in, params, round_index=round_index)

            masks = sample_masks(p_in, 30, [seed, round_index])
            objectives = [conditional_entropy(dataset, m) for m in masks]
            elite = hand_rolled_elite(masks, objectives, 0.8, elite_key)
            if rules_disagree:
                assert elite != hand_rolled_elite(masks, objectives, 0.8, lambda m, o: o)
                assert elite != hand_rolled_elite(
                    masks, objectives, 0.8, lambda m, o: elite_key(m, o)[:2]
                )
            freq = np.mean(masks[elite], axis=0)
            expected = np.clip(0.4 * p_in + 0.6 * freq, 1e-6, 1.0 - 1e-6)
            assert ours.tolist() == expected.tolist()

    def test_best_objective_non_increasing_when_chained(self, xor_noise_dataset):
        params = CEParams(sample_count=60, beta=0.9, alpha=0.7, rng_seed=21)
        p1 = ce_round(xor_noise_dataset, uniform_probs(3), params, round_index=1)
        first = sample_masks(uniform_probs(3), 60, [21, 1])
        best1 = evaluate_objective(xor_noise_dataset, first).min()
        best2 = evaluate_objective(xor_noise_dataset, sample_masks(p1, 60, [21, 2])).min()
        assert best2 <= best1 + 1e-12

    def test_schedule_mode_uses_small_alpha(self, xor_noise_dataset):
        # alpha = 1/(1*3) on round 1, so the vector moves at most 1/3 of the way.
        params = CEParams(sample_count=30, alpha_mode="schedule", rng_seed=2)
        out = ce_round(xor_noise_dataset, uniform_probs(3), params, round_index=1)
        assert np.all(np.abs(out - 0.5) <= 1.0 / 3.0 + 1e-12)

    def test_length_mismatch(self, xor_dataset):
        with pytest.raises(ValueError):
            ce_round(xor_dataset, uniform_probs(3), CEParams())

    @pytest.mark.parametrize("alpha_mode", ["fixed", "schedule"])
    def test_is_sample_then_update(self, xor_noise_dataset, alpha_mode):
        params = CEParams(sample_count=30, alpha_mode=alpha_mode, rng_seed=11)
        p = np.array([0.3, 0.6, 0.45])
        masks = sample_masks(p, 30, [11, 3])
        expected = ce_update(xor_noise_dataset, p, masks, params, 3)
        assert ce_round(xor_noise_dataset, p, params, 3).tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "masks",
        [
            np.array([[1, 0, 2], [0, 1, 1]]),
            np.ones((2, 2), dtype=np.uint8),
            np.ones(3, dtype=np.uint8),
        ],
    )
    def test_update_checks_the_mask_batch(self, xor_noise_dataset, masks):
        with pytest.raises(ValueError, match="mask"):
            ce_update(xor_noise_dataset, uniform_probs(3), masks, CEParams(sample_count=2), 1)

    def test_planted_full_relevant_mask_scores_zero(self, planted50):
        mask = np.zeros(50, dtype=np.int64)
        mask[[0, 1, 2, 3]] = 1
        assert evaluate_objective(planted50, mask[None])[0] <= 1e-12


def score_every_copy(dataset, p, masks, params, round_index):
    """The CE step without the copy check: every one of the S masks is scored and ranked."""
    if params.alpha_mode == "schedule":
        alpha = alpha_schedule(round_index, dataset.m)
    else:
        alpha = params.alpha
    ranks = rank_masks(masks, evaluate_objective(dataset, masks))
    gamma = compute_gamma(ranks, params.beta)
    return update_probabilities(p, masks, ranks, gamma, alpha, params.clamp_eps)


@st.composite
def rounds_with_copies(draw):
    """(dataset, p, masks, params, round_index) where the S masks repeat a few drawn ones.

    Either m <= 4, where copies are common anyway, or m = 50 with every
    probability near 0 or 1, as in a settled vector.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = draw(st.integers(1, 4))
        p = rng.random(m)
    else:
        m = 50
        near = draw(st.sampled_from([1e-6, 1e-3, 0.05]))
        p = np.where(rng.random(m) < 0.5, near, 1.0 - near)
    n = draw(st.integers(1, 40))
    features = rng.integers(0, draw(st.integers(1, 4)), size=(n, m))
    if m > 1 and draw(st.booleans()):
        features[:, -1] = features[:, 0]  # a copied column: equal objectives, popcount decides
    dataset = DiscreteDataset(features, rng.integers(0, draw(st.integers(1, 3)), size=n))
    count = draw(st.integers(2, 60))
    pool = sample_masks(p, draw(st.integers(1, count)), rng)
    masks = pool[rng.integers(0, pool.shape[0], size=count)]
    params = CEParams(
        sample_count=count,
        beta=draw(st.sampled_from([0.5, 0.8, 0.9, 0.99])),
        alpha=draw(st.sampled_from([0.3, 0.7, 1.0])),
        alpha_mode=draw(st.sampled_from(["fixed", "schedule"])),
    )
    return dataset, p, masks, params, draw(st.integers(1, 5))


class TestDistinctMasks:
    """ce_update scores and ranks each distinct mask once, with the result of scoring all S."""

    @settings(max_examples=150, deadline=None)
    @given(rounds_with_copies())
    def test_equals_scoring_every_copy(self, case):
        dataset, p, masks, params, round_index = case
        expected = score_every_copy(dataset, p, masks, params, round_index)
        assert ce_update(dataset, p, masks, params, round_index).tolist() == expected.tolist()

    def test_each_distinct_mask_scored_and_ranked_once(self, xor_noise_dataset, monkeypatch):
        # One objective call over the distinct masks; ce_update ranks them
        # itself, without rank_masks, and hands the elite to elite_update.
        seen = []

        def rows(batch):
            return sorted(tuple(int(b) for b in row) for row in batch)

        def scoring(dataset, batch):
            seen.append(("score", rows(batch)))
            return evaluate_objective(dataset, batch)

        def updating(p, batch, ranks, params, round_index):
            seen.append(("update", len(batch)))
            return elite_update(p, batch, ranks, params, round_index)

        def no_ranking(*args):
            raise AssertionError("ce_update called rank_masks")

        monkeypatch.setattr(ce, "evaluate_objective", scoring)
        monkeypatch.setattr(ce, "rank_masks", no_ranking)
        monkeypatch.setattr(ce, "elite_update", updating)
        masks = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1], [1, 1, 0], [0, 0, 0], [1, 0, 1]])
        ce_update(xor_noise_dataset, uniform_probs(3), masks, CEParams(sample_count=6), 1)
        distinct = sorted([(1, 0, 1), (0, 0, 0), (1, 1, 0)])
        assert seen == [("score", distinct), ("update", 6)]


class TestCutoffTie:
    """The ceil((1-beta)*S) cutoff inside masks equal on objective and popcount."""

    # A constant label scores every mask 0, so popcount and then the digest
    # order the masks: the empty mask, then the three one-feature masks, each
    # twice, then the two-feature ones. Copies are spread through the batch.
    DATASET = DiscreteDataset(np.array([[0, 1, 0], [1, 1, 0], [1, 0, 1], [0, 0, 1]]), np.zeros(4, dtype=int))
    MASKS = np.array(
        [[0, 1, 0], [1, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 1]]
    )

    @pytest.mark.parametrize("cut", range(9))
    def test_equals_scoring_every_copy(self, cut):
        # beta puts the cutoff at sorted position `cut`; positions 1-6 are the tied one-feature masks.
        params = CEParams(sample_count=9, beta=1.0 - (cut + 0.5) / 9, alpha=0.7)
        p = np.array([0.3, 0.5, 0.8])
        expected = score_every_copy(self.DATASET, p, self.MASKS, params, 1)
        assert ce_update(self.DATASET, p, self.MASKS, params, 1).tolist() == expected.tolist()

    @pytest.mark.parametrize("cut", [1, 2, 4, 6])
    def test_colliding_digests_take_the_whole_tie_group(self, cut, monkeypatch):
        class Constant:
            def __init__(self, *args, **kwargs):
                pass

            def digest(self):
                return b"\x00" * 8

        monkeypatch.setattr(ce.hashlib, "blake2b", Constant)
        params = CEParams(sample_count=9, beta=1.0 - (cut + 0.5) / 9, alpha=0.7)
        p = np.array([0.3, 0.5, 0.8])
        # Every mask of popcount <= 1 is elite.
        expected = update_probabilities(p, self.MASKS, self.MASKS.sum(axis=1), 1, 0.7)
        assert score_every_copy(self.DATASET, p, self.MASKS, params, 1).tolist() == expected.tolist()
        assert ce_update(self.DATASET, p, self.MASKS, params, 1).tolist() == expected.tolist()


class TestSelectFeatures:
    def test_threshold_pick(self):
        assert select_features(np.array([0.995, 0.5, 0.991]), 0.99) == [0, 2]

    def test_uniform_selects_nothing(self):
        assert select_features(np.full(10, 0.5), 0.99) == []

    def test_strictly_greater_than_threshold(self):
        assert select_features(np.array([0.99, 0.991]), 0.99) == [1]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            select_features(np.array([0.5]), 0.4)


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_count": 1},
            {"beta": 0.0},
            {"beta": 1.0},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"alpha_mode": "other"},
            {"clamp_eps": 0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CEParams(**kwargs)


def test_clamp_probs_bounds():
    out = clamp_probs(np.array([-1.0, 0.5, 2.0]), eps=1e-3)
    assert out.tolist() == [1e-3, 0.5, 1.0 - 1e-3]
