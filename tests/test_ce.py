"""Cross-entropy round mechanics: sampling, percentile, update, selection."""

import math
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from itertools import chain, combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfs import ce, info
from fedfs.ce import (
    CEParams,
    ce_round,
    ce_update,
    clamp_probs,
    elite_update,
    evaluate_objective,
    rank_masks,
    sample_masks,
    select_features,
    uniform_probs,
)
from fedfs.datasets import PlantedSpec, generate_planted, partition_iid
from fedfs.info import DiscreteDataset, conditional_entropy

group_starts, entropy_gaps = info._group_starts, info._entropy_gaps


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

    def test_stacked_vectors_draw_in_row_order(self):
        # A (k, m) vector batch gives (k, count, m): the rows one stream draws for each vector in turn.
        p = np.random.default_rng(1).random((5, 3))
        stacked = sample_masks(p, 4, np.random.default_rng(9))
        stream = np.random.default_rng(9)
        assert stacked.shape == (5, 4, 3)
        assert np.array_equal(stacked, np.stack([sample_masks(row, 4, stream) for row in p]))
        # And a 1-D vector draws exactly as before: one (count, m) uniform block.
        uniform = np.random.default_rng(9).random((4, 3))
        assert np.array_equal(sample_masks(p[0], 4, 9), (uniform < p[0]).astype(np.uint8))

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_masks(np.array([0.5]), 0, rng_seed=0)


def elite_of(ranks, beta):
    """Indices of the elite that elite_update picks from ``ranks``.

    Mask i selects feature i alone, so with alpha = 1 the new vector is 1/|elite|
    on the elite features and the clamp floor elsewhere.
    """
    size = len(ranks)
    out = elite_update(
        np.full(size, 0.5), np.eye(size, dtype=np.uint8), ranks, CEParams(beta=beta, alpha=1.0), 1
    )
    return np.flatnonzero(out > 1e-6).tolist()


class TestComputeGamma:
    """The nearest-rank percentile of elite_update: gamma is the sorted rank at ceil((1-beta)*S)-1."""

    def test_nearest_rank(self):
        assert elite_of([0.1, 0.2, 0.8, 0.9], beta=0.9) == [0]

    def test_constant_list(self):
        assert elite_of([0.5, 0.5, 0.5], beta=0.3) == [0, 1, 2]

    def test_singleton(self):
        assert elite_of([0.3], beta=0.95) == [0]

    def test_unsorted_input(self):
        assert elite_of([0.9, 0.1, 0.8, 0.2], beta=0.9) == [1]

    def test_lower_beta_moves_gamma_up(self):
        values = [float(v) for v in range(10)]
        assert elite_of(values, beta=0.5) == [0, 1, 2, 3, 4]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            elite_update(np.full(2, 0.5), np.zeros((0, 2)), np.zeros(0), CEParams(), 1)


class TestUpdateProbabilities:
    """The elite-frequency update and clamp of elite_update."""

    def test_worked_example(self):
        p = np.array([0.5, 0.5])
        masks = np.array([[1, 0], [1, 1], [0, 1], [0, 0]])
        objectives = [0.1, 0.2, 0.9, 0.8]
        # beta = 0.5 puts gamma at the second-best rank, 0.2.
        out = elite_update(p, masks, objectives, CEParams(beta=0.5, alpha=0.5), 1)
        assert out.tolist() == [0.75, 0.5]

    def test_alpha_zero_is_identity(self):
        # CEParams refuses alpha = 0; the smallest positive alpha changes no bit of p.
        p = np.array([0.3, 0.7])
        masks = np.array([[1, 1], [0, 0]])
        out = elite_update(p, masks, [0.0, 1.0], CEParams(alpha=5e-324), 1)
        assert out.tolist() == p.tolist()

    def test_alpha_one_all_elite_is_raw_frequency(self):
        p = np.array([0.1, 0.9, 0.5])
        masks = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]])
        out = elite_update(p, masks, [1.0] * 4, CEParams(alpha=1.0), 1)
        assert np.allclose(out, masks.mean(axis=0))

    def test_ties_at_gamma_included(self):
        masks = np.array([[1, 0], [0, 1]])
        out = elite_update(np.array([0.5, 0.5]), masks, [0.2, 0.2], CEParams(alpha=1.0), 1)
        assert np.allclose(out, [0.5, 0.5])

    @pytest.mark.parametrize(
        "shapes",
        [
            ((2,), (3, 2), (2,)),
            ((2,), (2, 3), (2,)),
            ((2, 2), (2, 2), (2,)),
            ((), (1, 1), (1,)),
            ((2,), (2,), ()),
        ],
    )
    def test_inconsistent_shapes_rejected(self, shapes):
        p, masks, ranks = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            elite_update(p + 0.5, masks, ranks, CEParams(), 1)

    def test_output_clamped(self):
        masks = np.array([[1, 1], [1, 1]])
        out = elite_update(np.array([1.0, 1.0]), masks, [0.0, 0.0], CEParams(alpha=1.0), 1)
        assert np.all(out <= 1.0 - 1e-6)

    def test_input_not_modified(self):
        p = np.array([0.5, 0.5])
        masks = np.array([[1, 0], [0, 1]])
        elite_update(p, masks, [0.1, 0.9], CEParams(alpha=1.0), 1)
        assert p.tolist() == [0.5, 0.5]

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            s = int(rng.integers(2, 20))
            p = rng.random(m)
            masks = rng.integers(0, 2, size=(s, m))
            objectives = rng.random(s)
            gamma = sorted(objectives)[math.ceil((1.0 - 0.7) * s) - 1]
            alpha = float(rng.uniform(0.05, 1.0))
            out = elite_update(p, masks, objectives, CEParams(beta=0.7, alpha=alpha), 1)
            # Convex combination of two vectors in [0, 1], then clamped.
            assert np.all(out >= 1e-6 - 1e-15)
            assert np.all(out <= 1.0 - 1e-6 + 1e-15)
            elite = masks[objectives <= gamma]
            raw = (1.0 - alpha) * p + alpha * elite.mean(axis=0)
            assert np.allclose(out, np.clip(raw, 1e-6, 1.0 - 1e-6))


class TestEliteCounts:
    """The elite's selection counts stay exact past 255 copies of a bit."""

    @pytest.mark.parametrize("dtype", [np.uint8, bool])
    def test_exact_past_255_copies(self, dtype):
        rng = np.random.default_rng(19)
        s, m = 300, 6
        params = CEParams(beta=0.1, alpha=0.7)
        p = rng.random((3, m))
        masks = rng.random((3, s, m)) < rng.random((3, 1, m))
        masks[0] = True
        masks = masks.astype(dtype)
        ranks = rng.integers(0, s, size=(3, s))
        gamma = np.sort(ranks, axis=1)[:, math.ceil((1.0 - params.beta) * s) - 1, None]
        elite = ranks <= gamma
        assert (elite.sum(axis=1) > 255).all()

        def reference(k, freq):
            return np.clip((1.0 - params.alpha) * p[k] + params.alpha * freq, 1e-6, 1.0 - 1e-6)

        expected = np.stack([reference(k, masks[k][elite[k]].mean(axis=0)) for k in range(3)])
        # The all-ones batch's frequency is exactly 1.0.
        assert expected[0].tobytes() == reference(0, 1.0).tobytes()
        assert elite_update(p, masks, ranks, params, 1).tobytes() == expected.tobytes()
        for k in range(3):
            assert elite_update(p[k], masks[k], ranks[k], params, 1).tobytes() == expected[k].tobytes()


@st.composite
def stacked_rounds(draw):
    """(p, masks, ranks, params, round_index) for k stacked rounds: (k, m), (k, S, m), (k, S)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, s, m = draw(st.integers(1, 6)), draw(st.integers(1, 30)), draw(st.integers(1, 8))
    p = rng.random((k, m))
    masks = rng.integers(0, 2, size=(k, s, m), dtype=np.uint8)
    # Few distinct ranks, so the cutoff often falls inside a tie.
    ranks = rng.integers(0, draw(st.integers(1, 2 * s)), size=(k, s))
    params = CEParams(
        beta=draw(st.sampled_from([0.1, 0.5, 0.8, 0.9, 0.99])),
        alpha=draw(st.sampled_from([0.3, 0.7, 1.0])),
        alpha_mode=draw(st.sampled_from(["fixed", "schedule"])),
    )
    return p, masks, ranks, params, draw(st.integers(1, 5))


class TestStackedEliteUpdate:
    @settings(max_examples=150, deadline=None)
    @given(stacked_rounds())
    def test_equals_one_call_per_row(self, case):
        p, masks, ranks, params, round_index = case
        stacked = elite_update(p, masks, ranks, params, round_index)
        rows = [elite_update(*row, params, round_index) for row in zip(p, masks, ranks)]
        assert stacked.tobytes() == np.stack(rows).tobytes()


def mask_digest(mask):
    # The digest in Python ints: the bits packed eight to a byte, first feature
    # in the high bit, read as zero-padded little-endian 64-bit words, weighted
    # by odd per-word keys and summed mod 2**64, then splitmix64's finalizer.
    bits = [int(b) for b in mask] + [0] * (-len(mask) % 64)
    packed = bytes(int("".join(map(str, bits[i : i + 8])), 2) for i in range(0, len(bits), 8))
    words = [int.from_bytes(packed[i : i + 8], "little") for i in range(0, len(packed), 8)]
    z = sum(w * ((i + 1) * 0x9E3779B97F4A7C15 % 2**64 | 1) for i, w in enumerate(words)) % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


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

    def test_objectives_must_match_the_mask_count(self):
        with pytest.raises(ValueError, match="one value per mask"):
            rank_masks(np.eye(3), [0.0, 1.0])

    def test_float_and_integer_masks_rank_as_bool(self):
        expected = rank_masks(np.eye(3, dtype=bool), [0.0, 0.0, 0.0]).tolist()
        assert rank_masks(np.eye(3), [0.0, 0.0, 0.0]).tolist() == expected
        assert rank_masks(np.eye(3, dtype=np.int64), [0.0, 0.0, 0.0]).tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_distinct_short_masks_never_share_a_digest(self, data):
        m = data.draw(st.integers(1, 64))
        codes = data.draw(st.sets(st.integers(0, 2**m - 1), min_size=2, max_size=40))
        masks = np.array([[(code >> j) & 1 for j in range(m)] for code in codes], dtype=np.uint8)
        assert len(set(ce.digest_masks(masks).tolist())) == len(codes)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2200), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_rank_follows_the_oracle_key_alone_and_in_any_batch(self, m, count, seed):
        rng = np.random.default_rng(seed)
        masks = sample_masks(rng.random(m) ** 3, count, rng)
        masks = masks[rng.integers(0, count, size=count)]  # some copies
        objectives = rng.choice([0.0, 0.25, 0.25 + 1e-14, 1.0], size=count)
        digests = ce.digest_masks(masks)
        assert digests.tolist() == [mask_digest(mask) for mask in masks]
        assert [ce.digest_masks(mask[None])[0] for mask in masks] == digests.tolist()
        keys = [elite_key(mask, o) for mask, o in zip(masks, objectives.tolist())]
        assert rank_masks(masks, objectives).tolist() == [sorted(set(keys)).index(k) for k in keys]

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
    def test_refuses_a_probability_outside_0_1(self, xor_dataset, bad):
        with pytest.raises(ValueError, match="probabilities"):
            ce_round(xor_dataset, [0.5, bad], CEParams(sample_count=4))
        assert ce_round(xor_dataset, [0.0, 1.0], CEParams(sample_count=4)).shape == (2,)

    @pytest.mark.parametrize(
        "bad, match",
        [([np.nan, 0.5], "probabilities"), ([1.7, -3.0], "probabilities"), ([0.5, 0.5, 0.5], "length")],
    )
    def test_update_refuses_a_bad_probability_vector(self, xor_dataset, bad, match):
        # ce_round is not the only caller: neither NaN nor an entry outside [0, 1] may reach the update.
        masks = sample_masks(uniform_probs(2), 10, 1)
        with pytest.raises(ValueError, match=match):
            ce_update(xor_dataset, bad, masks, CEParams(sample_count=10), 1)

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


def relabel_row_one(part):
    """``part`` with row 1 copied from row 0 under another label: no feature set separates it."""
    features, labels = part.features.copy(), part.labels.copy()
    features[1], labels[1] = features[0], (labels[0] + 1) % 4
    return DiscreteDataset(features, labels)


@pytest.fixture(scope="module")
def mav_unseparated(mav_partitions):
    """The first 4-client ``mav`` partition with row 1 relabelled."""
    return relabel_row_one(mav_partitions[0])


def score_every_copy(dataset, p, masks, params, round_index):
    """The CE step without the copy check: every one of the S masks is scored and ranked."""
    ranks = rank_masks(masks, evaluate_objective(dataset, masks))
    return elite_update(p, masks, ranks, params, round_index)


def constant_digest(masks):
    return np.zeros(len(masks), dtype=np.uint64)


@st.composite
def rounds_with_copies(draw):
    """(dataset, p, masks, params, round_index, collide) where the S masks repeat a few drawn ones.

    Either m <= 4, where copies are common anyway, or m = 50 with every
    probability near 0 or 1, as in a settled vector. With ``collide`` the
    caller patches in a constant digest, so masks of equal popcount tie in
    rank and their runs straddle the scan's chunk edges.
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
    # Rows copied onto others keep their own labels, so a mask that cannot
    # tell a copy apart scores above 0; with many copies no mask may score 0.
    copied = draw(st.integers(0, n))
    features[rng.integers(0, n, copied)] = features[rng.integers(0, n, copied)]
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
    return dataset, p, masks, params, draw(st.integers(1, 5)), draw(st.booleans())


def digests(collide):
    return mock.patch.object(ce, "digest_masks", constant_digest) if collide else nullcontext()


def traced_scan(dataset, p, masks, params, round_index):
    """What one ce_update call does, seen through spies: the rows, scan arguments and
    result of each evaluate_objective call, the masks each chunk sorts, the values of the
    masks summed, and the size of each batch passed to rank_masks and elite_update."""
    calls, chunks, summed, ranked, updated = [], [], [], [], []

    def scoring(ds, batch, *scan):
        values = evaluate_objective(ds, batch, *scan)
        calls.append(([tuple(int(b) for b in row) for row in batch], scan, values))
        return values

    def sorting(packed, batch):
        chunks.append(len(batch))
        return group_starts(packed, batch)

    def summing(starts, terms_of):
        values = entropy_gaps(starts, terms_of)
        summed.extend(values.tolist())
        return values

    def ranking(batch, objectives):
        ranked.append(len(batch))
        return rank_masks(batch, objectives)

    def updating(p, batch, ranks, params, round_index):
        updated.append(len(batch))
        return elite_update(p, batch, ranks, params, round_index)

    with (
        mock.patch.object(ce, "evaluate_objective", scoring),
        mock.patch.object(info, "_group_starts", sorting),
        mock.patch.object(info, "_entropy_gaps", summing),
        mock.patch.object(ce, "rank_masks", ranking),
        mock.patch.object(ce, "elite_update", updating),
    ):
        result = ce_update(dataset, p, masks, params, round_index)
    return result, calls, chunks, summed, ranked, updated


def chunked(dataset, per_chunk):
    """A kernel budget of ``per_chunk`` masks a chunk on this dataset."""
    return mock.patch.object(info, "_CHUNK_WORDS", per_chunk * dataset.packed.words.size)


def nonzero_values(dataset, rows):
    return sorted(v for v in evaluate_objective(dataset, np.array(rows, dtype=bool).reshape(-1, dataset.m)) if v > 0.0)


class TestDistinctMasks:
    """ce_update scores each distinct mask at most once, with the result of scoring all S."""

    @settings(max_examples=300, deadline=None)
    @given(rounds_with_copies())
    def test_equals_scoring_every_copy(self, case):
        *case, collide = case
        with digests(collide):
            expected = score_every_copy(*case)
            assert ce_update(*case).tolist() == expected.tolist()

    @settings(max_examples=200, deadline=None)
    @given(rounds_with_copies(), st.integers(1, 3), st.floats(0.01, 0.99))
    def test_equals_scoring_every_copy_over_many_chunks(self, case, per_chunk, beta):
        # A chunk of one to three masks, so the scan stops, or ends unsettled, after many.
        *case, collide = case
        case[3] = replace(case[3], beta=beta)
        with digests(collide), chunked(case[0], per_chunk):
            expected = score_every_copy(*case)
            assert ce_update(*case).tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(rounds_with_copies(), st.integers(1, 3))
    def test_each_distinct_mask_scored_and_ranked_once(self, case, per_chunk):
        # On every dataset one evaluate_objective call scans the distinct
        # masks in (popcount, digest) order, a chunk at a time. It stops after
        # the first chunk by whose end the copies of zero-scoring masks reach
        # ceil((1-beta)*S) and whose last mask differs in key from the next.
        # Split masks are summed only if no chunk settles the round, then each
        # once: on data that no feature set separates, every distinct mask. One
        # rank_masks call covers every distinct mask, and one elite_update
        # call all S masks.
        *case, collide = case
        dataset, _, masks, params, _ = case
        with digests(collide), chunked(dataset, per_chunk):
            _, calls, chunks, summed, ranked, updated = traced_scan(*case)
        copies = Counter(tuple(int(b) for b in row) for row in masks)
        assert ranked == [len(copies)] and updated == [len(masks)]
        assert len(calls) == 1 and all(size <= per_chunk for size in chunks)
        (scanned, scan, values), = calls
        assert len(set(scanned)) == len(scanned) == len(copies)
        zero = {row: round(conditional_entropy(dataset, row), 12) == 0.0 for row in copies}

        def key(row):
            return (sum(row), 0 if collide else mask_digest(np.array(row)))

        need = min(max(math.ceil((1.0 - params.beta) * len(masks)), 1), len(masks))
        assert [key(row) for row in scanned] == sorted(key(row) for row in copies)
        assert scan[0].tolist() == [copies[row] for row in scanned] and scan[1] == need
        zeros = end = 0
        while end < len(scanned):
            zeros += sum(copies[row] for row in scanned[end : end + per_chunk] if zero[row])
            end = min(end + per_chunk, len(scanned))
            if zeros >= need and (end == len(scanned) or key(scanned[end - 1]) != key(scanned[end])):
                break
        assert sum(chunks) == end
        settled = zeros >= need
        assert sorted(summed) == ([] if settled else nonzero_values(dataset, [row for row in scanned if not zero[row]]))
        # Settled, every mask but the scanned zeros reads +inf; otherwise every value is exact.
        if settled:
            assert values.tolist() == [0.0 if i < end and zero[row] else np.inf for i, row in enumerate(scanned)]
        else:
            assert values.tobytes() == evaluate_objective(dataset, np.array(scanned, dtype=bool)).tobytes()

    def test_xor_noise_round_scores_each_distinct_mask_once(self, xor_noise_dataset):
        masks = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1], [1, 1, 0], [0, 0, 0], [1, 0, 1]])
        params = CEParams(sample_count=6, beta=0.5)
        _, calls, chunks, summed, ranked, updated = traced_scan(xor_noise_dataset, uniform_probs(3), masks, params, 1)
        # need = 3 masks, and only (1, 1, 0) scores 0: the scan sorts all three
        # distinct masks in one chunk, ends unsettled and sums the other two once each.
        assert [sorted(rows) for rows, _, _ in calls] == [sorted([(0, 0, 0), (1, 0, 1), (1, 1, 0)])]
        assert chunks == [3] and ranked == [3] and updated == [6]
        assert sorted(summed) == nonzero_values(xor_noise_dataset, [(0, 0, 0), (1, 0, 1)])
        assert len(summed) == 2 and min(summed) > 0.0

    def test_constant_label_stops_after_the_first_chunk(self):
        # Every mask scores 0, so the chunk that holds the first ceil((1-beta)*S) = 10
        # distinct masks settles the elite, and no mask is summed.
        rng = np.random.default_rng(5)
        dataset = DiscreteDataset(rng.integers(0, 3, size=(30, 12)), np.zeros(30, dtype=int))
        masks = sample_masks(uniform_probs(12), 100, rng)
        params = CEParams(sample_count=100, beta=0.9)
        expected = score_every_copy(dataset, uniform_probs(12), masks, params, 1)
        result, _, chunks, summed, _, _ = traced_scan(dataset, uniform_probs(12), masks, params, 1)
        assert len(chunks) == 1 and summed == [] and result.tobytes() == expected.tobytes()
        # At four masks a chunk, the third chunk brings the zeros to 10.
        with chunked(dataset, 4):
            result, _, chunks, summed, _, _ = traced_scan(dataset, uniform_probs(12), masks, params, 1)
        assert chunks == [4, 4, 4] and summed == [] and result.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("separable", [False, True])
    def test_no_zero_scores_every_distinct_mask_once(self, separable):
        # Each row appears once with each label, so every mask without feature
        # 0 scores H(y|U) = 1 bit. Feature 0 is either constant, so no mask can
        # score 0, or the label itself, which the masks leave out.
        rng = np.random.default_rng(6)
        features = np.tile(rng.integers(0, 3, size=(15, 8)), (2, 1))
        labels = np.repeat([0, 1], 15)
        features[:, 0] = labels if separable else 0
        dataset = DiscreteDataset(features, labels)
        masks = sample_masks(np.full(8, 0.4), 60, rng)
        masks[:, 0] = False
        params = CEParams(sample_count=60, beta=0.9)
        with chunked(dataset, 5):
            _, calls, chunks, summed, _, _ = traced_scan(dataset, uniform_probs(8), masks, params, 1)
        distinct = {tuple(int(b) for b in row) for row in masks}
        (scanned, scan, _), = calls
        assert len(scanned) == len(distinct) == len(set(scanned)) and set(scanned) == distinct
        # 46 distinct masks, all sorted in chunks of 5 and each summed once, by
        # one scan that never settles, whether or not all features fix the label.
        assert chunks == [5] * 9 + [1] and sorted(summed) == nonzero_values(dataset, list(distinct))
        assert len(summed) == 46 and np.allclose(summed, 1.0)
        assert len(scan) == 3
        expected = score_every_copy(dataset, uniform_probs(8), masks, params, 1)
        assert ce_update(dataset, uniform_probs(8), masks, params, 1).tolist() == expected.tolist()

    @pytest.mark.parametrize("prob", [0.5, 0.01])
    def test_wide_rows_that_no_feature_set_separates(self, mav_unseparated, prob):
        # 34 packed words a row, past the two that rounds_with_copies reaches.
        # Dense masks (p = 0.5) and sparse ones (p = 0.01) both meet rows 0
        # and 1, equal on every column, so each takes the first-word sort and
        # then the void-record sort. Every mask scores above 0, so the scan
        # never settles and sums each distinct mask once.
        dataset = mav_unseparated
        assert dataset.packed.words.shape[1] >= 3
        p, params = np.full(dataset.m, prob), CEParams(sample_count=20, rng_seed=1)
        masks = sample_masks(p, 20, [params.rng_seed, 1])
        distinct = np.unique(masks, axis=0)
        assert (np.round(evaluate_objective(dataset, distinct), 12) > 0.0).all()
        result, _, chunks, summed, _, _ = traced_scan(dataset, p, masks, params, 1)
        assert sum(chunks) == len(summed) == len(distinct)
        assert result.tobytes() == score_every_copy(dataset, p, masks, params, 1).tobytes()

    @pytest.mark.parametrize("case", ["planted50", "relabelled client"] + [f"mav {i}" for i in range(4)])
    def test_chained_rounds_equal_scoring_every_copy(self, planted50, mav_partitions, case):
        # Ten S = 200 rounds on all of PLANTED50, and on a 409-row client with
        # row 1 relabelled, where every scan ends short and takes the deferred
        # sums; one p = 0.5 round of S = 20 on each mav partition.
        if case.startswith("mav"):
            dataset, rounds, count = mav_partitions[int(case[-1])], 1, 20
        elif case == "planted50":
            dataset, rounds, count = planted50, 10, 200
        else:
            dataset, rounds, count = relabel_row_one(partition_iid(planted50, 10)[0]), 10, 200
        params, p = CEParams(sample_count=count, rng_seed=1), uniform_probs(dataset.m)
        for t in range(1, rounds + 1):
            masks = sample_masks(p, params.sample_count, [params.rng_seed, t])
            expected = score_every_copy(dataset, p, masks, params, t)
            p = ce_update(dataset, p, masks, params, t)
            assert p.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [409, 4096])
    def test_split_masks_summed_only_when_the_round_cannot_settle(self, planted50, rows):
        # The four planted columns, or their copies (columns 4-9), fix the label.
        # Kept in every mask, every mask scores 0 and the round settles; all left
        # out, no mask scores 0 and each distinct one is summed once. Kept in
        # most masks, the round settles with split masks scanned and none summed.
        dataset = planted50 if rows == 4096 else partition_iid(planted50, 10)[0]
        params = CEParams(sample_count=200, beta=0.9)
        p = np.full(dataset.m, 0.2)
        for planted, settles in ((1.0 - 1e-6, True), (1e-6, False), (0.85, True)):
            p[:10] = planted
            masks = sample_masks(p, 200, [rows, 1])
            distinct = np.unique(masks, axis=0)
            values = evaluate_objective(dataset, distinct)
            result, ((_, _, read),), chunks, summed, _, _ = traced_scan(dataset, p, masks, params, 1)
            assert result.tobytes() == score_every_copy(dataset, p, masks, params, 1).tobytes()
            if settles:
                assert summed == [] and sum(chunks) < len(distinct)
                # Split masks were scanned, read +inf and never summed.
                assert np.isinf(read[: sum(chunks)]).any() == (planted == 0.85)
            else:
                assert (values > 0.0).all() and sum(chunks) == len(distinct)
                assert sorted(summed) == sorted(values.tolist())

    def test_peak_memory_of_an_unsettled_scan(self, planted50):
        # 1000 distinct masks of two or three noise columns on 4096 rows: none
        # scores 0, so the scan never settles. Each mask's flags wait packed,
        # n/4 bytes a mask (1 MB in all), until the scan ends; unpacked they
        # would take 8 MB.
        sets = chain(combinations(range(10, 50), 2), combinations(range(10, 50), 3))
        masks = np.zeros((1000, planted50.m), dtype=np.uint8)
        for mask, columns in zip(masks, sets):
            mask[list(columns)] = 1
        masks = masks[np.random.default_rng(4).permutation(1000)]
        p, params = uniform_probs(planted50.m), CEParams(sample_count=1000)
        assert (evaluate_objective(planted50, masks) > 0.0).all()
        ce_update(planted50, p, masks[:20], CEParams(sample_count=20), 1)
        tracemalloc.start()
        try:
            ce_update(planted50, p, masks, params, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


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
        monkeypatch.setattr(ce, "digest_masks", constant_digest)
        params = CEParams(sample_count=9, beta=1.0 - (cut + 0.5) / 9, alpha=0.7)
        p = np.array([0.3, 0.5, 0.8])
        # Every mask of popcount <= 1 is elite: all 7 of them, whatever the cutoff in 0..6.
        elite = self.MASKS[self.MASKS.sum(axis=1) <= 1]
        expected = np.clip((1.0 - 0.7) * p + 0.7 * elite.mean(axis=0), 1e-6, 1.0 - 1e-6)
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
