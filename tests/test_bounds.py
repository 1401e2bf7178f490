"""Miss-probability bounds and their Monte-Carlo validation."""

import math
from fractions import Fraction

import numpy as np
import pytest

import fedfs.bounds as bounds
import fedfs.ce as ce
import fedfs.info as info
from fedfs.bounds import (
    BoundInputs,
    alpha_schedule,
    centralized_miss_bound,
    federated_miss_bound,
    find_optimal_mask,
    miss_rate_curve,
)
from fedfs.ce import CEParams
from fedfs.datasets import PlantedSpec, generate_planted
from fedfs.info import DiscreteDataset


class TestAlphaSchedule:
    def test_direct_values(self):
        assert alpha_schedule(1, 10) == pytest.approx(0.1)
        assert alpha_schedule(2, 5) == pytest.approx(0.1)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            alpha_schedule(0, 3)

    def test_decay_series_diverges(self):
        # The slow 1/(t*m) decay keeps sum_tau prod_{j<tau} (1-alpha_j)^m
        # growing without bound (harmonic-type growth); the partial sum at
        # tau = 10^4 must already exceed a fixed constant.
        m = 3
        partials = {}
        partial = 0.0
        prod = 1.0
        for tau in range(1, 10_001):
            partial += prod
            prod *= (1.0 - alpha_schedule(tau, m)) ** m
            if tau in (100, 1000, 10_000):
                partials[tau] = partial
        # Logarithmic growth: each decade adds a roughly constant increment,
        # so the series passes any fixed constant eventually.
        assert partials[1000] - partials[100] > 0.5
        assert partials[10_000] - partials[1000] > 0.5
        assert partials[10_000] > 4.0


class TestCentralizedBound:
    def test_single_round_two_features(self):
        inputs = BoundInputs(t_prime=1, sample_count=1, optimal_mask=(1, 0))
        assert centralized_miss_bound(inputs) == pytest.approx(0.75, abs=1e-12)

    def test_zero_horizon_is_one(self):
        inputs = BoundInputs(t_prime=0, sample_count=5, optimal_mask=(1, 0))
        assert centralized_miss_bound(inputs) == 1.0

    def test_alpha_zero_closed_form(self):
        p_hit = 0.5**3
        for t_prime in range(1, 6):
            inputs = BoundInputs(
                t_prime=t_prime,
                sample_count=4,
                optimal_mask=(1, 1, 1),
                alpha_seq=(0.0,),
            )
            expected = (1.0 - p_hit) * (1.0 - p_hit) ** (4 * (t_prime - 1))
            assert centralized_miss_bound(inputs) == pytest.approx(expected, abs=1e-12)

    def test_strictly_decreasing_in_horizon(self):
        values = [
            centralized_miss_bound(
                BoundInputs(t_prime=t, sample_count=4, optimal_mask=(1, 1, 0))
            )
            for t in range(1, 8)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_in_sample_count(self):
        small = centralized_miss_bound(BoundInputs(3, 2, (1, 0, 1)))
        large = centralized_miss_bound(BoundInputs(3, 20, (1, 0, 1)))
        assert large <= small

    def test_stays_in_unit_interval(self):
        for t in range(6):
            v = centralized_miss_bound(BoundInputs(t, 3, (1, 1, 1, 0), p0=0.9))
            assert 0.0 <= v <= 1.0


class TestFederatedBound:
    def test_requires_node_description(self):
        with pytest.raises(ValueError):
            federated_miss_bound(BoundInputs(2, 2, (1, 0, 1)))

    def test_weights_must_sum_to_one(self):
        inputs = BoundInputs(
            2, 2, (1, 0, 1), per_node_m_l=(1, 1), weights=(0.5, 0.6)
        )
        with pytest.raises(ValueError):
            federated_miss_bound(inputs)

    def test_mixture_of_equal_nodes_matches_single(self):
        single = federated_miss_bound(
            BoundInputs(3, 2, (1, 1, 0), per_node_m_l=(2,), weights=(1.0,))
        )
        double = federated_miss_bound(
            BoundInputs(3, 2, (1, 1, 0), per_node_m_l=(2, 2), weights=(0.5, 0.5))
        )
        assert double.value == pytest.approx(single.value, abs=1e-12)
        assert double.clamped == single.clamped

    def test_golden_hand_evaluation(self):
        # t'=2, m=3, m_l=1, S=2, p0=0.5, alpha_j = 1/(j*3), evaluated with
        # exact rational arithmetic.
        p_hit = Fraction(1, 8)
        binom = 3
        first = binom * p_hit * (1 - p_hit)  # 21/64
        decay_outer = (1 - Fraction(1, 3)) ** 2  # (1-alpha_1)^(m-m_l)
        decay_inner = 1 - Fraction(1, 3)  # (1-alpha_1)^(m_l)
        factor = binom * p_hit * decay_outer * (1 - p_hit * decay_inner)  # 11/72
        expected = first * factor**2
        assert expected == Fraction(2541, 331776)

        result = federated_miss_bound(
            BoundInputs(2, 2, (1, 1, 1), per_node_m_l=(1,), weights=(1.0,))
        )
        assert result.value == pytest.approx(float(expected), abs=1e-12)
        assert not result.clamped

    def test_clamped_factors_flagged(self):
        # A high hit probability with a mid-range binomial coefficient pushes
        # the first factor above 1, which must clamp and flag.
        result = federated_miss_bound(
            BoundInputs(1, 2, (1, 1, 1, 1), p0=0.9, per_node_m_l=(2,), weights=(1.0,))
        )
        assert result.clamped
        assert result.value == 1.0

    def test_zero_horizon(self):
        result = federated_miss_bound(
            BoundInputs(0, 2, (1, 0), per_node_m_l=(1,), weights=(1.0,))
        )
        assert result.value == 1.0
        assert not result.clamped


class TestFindOptimalMask:
    def test_xor_with_noise(self, xor_noise_dataset):
        mask = find_optimal_mask(xor_noise_dataset)
        assert mask.tolist() == [1, 1, 0]

    def test_superset_ties_broken_by_cardinality(self, xor_dataset):
        # [1,1] scores 0 and is the unique minimal-cardinality optimum even
        # though no strict superset exists at m=2; add a noise column case.
        assert find_optimal_mask(xor_dataset).tolist() == [1, 1]

    def test_duplicate_columns_rejected(self):
        features = np.array([[0, 0], [1, 1], [0, 0], [1, 1]])
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="unique"):
            find_optimal_mask(DiscreteDataset(features, labels))

    def test_too_wide_rejected(self):
        ds = DiscreteDataset(np.zeros((4, 5), dtype=np.int64), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            find_optimal_mask(ds)


class TestMonteCarlo:
    def test_near_certain_init_hits_immediately(self, xor_noise_dataset):
        params = CEParams(sample_count=4, alpha_mode="schedule", rng_seed=0)
        p0 = np.array([1 - 1e-9, 1 - 1e-9, 1e-9])
        assert miss_rate_curve(xor_noise_dataset, params, 1, 100, p0=p0)[0] == 0.0

    def test_trial_floor_enforced(self, xor_noise_dataset):
        params = CEParams(sample_count=4, rng_seed=0)
        with pytest.raises(ValueError):
            miss_rate_curve(xor_noise_dataset, params, 1, 99)[0]

    def test_curve_non_increasing(self, xor_noise_dataset):
        params = CEParams(sample_count=4, alpha_mode="schedule", rng_seed=3)
        curve = miss_rate_curve(xor_noise_dataset, params, 4, 200)
        assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_misses_run_the_shipped_ce_update(self, xor_noise_dataset, monkeypatch):
        # A trial updates in round t < t_max exactly when it missed every
        # round up to t, and each update ranks the elite; a hit round, and the
        # last round, score nothing.
        assert bounds.ce_update is ce.ce_update
        calls = {"update": 0, "rank": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(bounds, "ce_update", counting("update", ce.ce_update))
        monkeypatch.setattr(ce, "rank_masks", counting("rank", ce.rank_masks))
        params = CEParams(sample_count=4, alpha_mode="schedule", rng_seed=404)
        curve = miss_rate_curve(xor_noise_dataset, params, 5, 200)
        assert calls["update"] == round(200 * sum(curve[:-1])) > 0
        assert calls["rank"] == calls["update"]

    def test_alpha_schedule_shared_with_ce(self):
        assert alpha_schedule is ce.alpha_schedule

    def test_objective_shared_with_info(self):
        # The benchmark's tracer wraps the objective under these module names.
        assert ce.evaluate_objective is info.evaluate_objective
        assert bounds.evaluate_objective is info.evaluate_objective

    def test_deterministic(self, xor_noise_dataset):
        params = CEParams(sample_count=4, alpha_mode="schedule", rng_seed=3)
        a = miss_rate_curve(xor_noise_dataset, params, 3, 150)
        b = miss_rate_curve(xor_noise_dataset, params, 3, 150)
        assert a == b

    def test_first_round_rate_matches_binomial(self, xor_noise_dataset):
        # Round 1 samples S Bernoulli(0.5) masks; the miss probability is
        # (1 - 1/8)^4 and 1000 trials land within 3 standard errors.
        params = CEParams(sample_count=4, alpha_mode="schedule", rng_seed=17)
        rate = miss_rate_curve(xor_noise_dataset, params, 1, 1000)[0]
        expected = (1 - 1 / 8) ** 4
        sigma = math.sqrt(expected * (1 - expected) / 1000)
        assert abs(rate - expected) <= 3 * sigma
