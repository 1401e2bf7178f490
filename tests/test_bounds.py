"""Miss-probability bounds and their Monte-Carlo validation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fedfs.bounds as bounds
import fedfs.ce as ce
import fedfs.info as info
from fedfs.bounds import (
    BoundInputs,
    alpha_schedule,
    centralized_miss_bound,
    find_optimal_mask,
    miss_rate_curve,
)
from fedfs.ce import CEParams
from fedfs.datasets import PlantedSpec, generate_planted
from fedfs.info import DiscreteDataset


def ce_update_curve(dataset, params, t_max, trials, p0):
    """miss_rate_curve as a per-trial loop that runs ce.ce_update on every missed round before t_max.

    Round t's generator is shared by every trial, which draws from it in trial order.
    """
    optimum = find_optimal_mask(dataset)
    streams = [np.random.default_rng([params.rng_seed, t]) for t in range(1, t_max + 1)]
    first_hits = []
    for s in range(trials):
        p = ce.uniform_probs(dataset.m) if p0 is None else p0
        first_hit = t_max + 1
        for t in range(1, t_max + 1):
            masks = ce.sample_masks(p, params.sample_count, streams[t - 1])
            if any(row.tolist() == optimum.tolist() for row in masks):
                first_hit = t
                break
            if t < t_max:
                p = ce.ce_update(dataset, p, masks, params, t)
        first_hits.append(first_hit)
    return [sum(h > t for h in first_hits) / trials for t in range(1, t_max + 1)]


@st.composite
def unique_optimum_cases(draw):
    """(dataset, params, t_max, p0) on m = 1..4 features whose optimum is unique."""
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 64))
    features = rng.integers(0, draw(st.integers(2, 3)), size=(n, m))
    relevant = draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
    labels = features[:, relevant].sum(axis=1) % draw(st.integers(2, 3))
    dataset = DiscreteDataset(features, labels)
    try:
        find_optimal_mask(dataset)
    except ValueError:
        assume(False)
    params = CEParams(
        sample_count=draw(st.integers(2, 8)),
        beta=draw(st.sampled_from([0.5, 0.75, 0.9, 0.99])),
        alpha=draw(st.sampled_from([0.3, 0.7, 1.0])),
        alpha_mode=draw(st.sampled_from(["fixed", "schedule"])),
        rng_seed=draw(st.integers(0, 2**16)),
    )
    p0 = None if draw(st.booleans()) else rng.uniform(0.05, 0.95, size=m)
    return dataset, params, draw(st.integers(1, 4)), p0


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
                alpha=0.0,
            )
            expected = (1.0 - p_hit) * (1.0 - p_hit) ** (4 * (t_prime - 1))
            assert centralized_miss_bound(inputs) == pytest.approx(expected, abs=1e-12)

    def test_alpha_one_keeps_the_round_one_bound(self):
        # alpha = 1 zeroes every later decay, so each horizon's bound is 1 - p_hit.
        for t_prime in range(1, 6):
            inputs = BoundInputs(t_prime, 4, (1, 1, 0), alpha=1.0)
            assert centralized_miss_bound(inputs) == 1.0 - 0.5**3

    def test_alpha_above_one_rejected(self):
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
            BoundInputs(2, 4, (1, 1, 0), alpha=1.5)

    @pytest.mark.parametrize(
        "args, kwargs, match",
        [
            ((-1, 4, (1, 0)), {}, "t_prime must be non-negative"),
            ((2, 0, (1, 0)), {}, "sample_count must be positive"),
            ((2, 4, (1, 2)), {}, "optimal_mask must be a non-empty binary tuple"),
            ((2, 4, ()), {}, "optimal_mask must be a non-empty binary tuple"),
            ((2, 4, (1, 0)), {"p0": 0.0}, r"p0 must be in \(0, 1\)"),
            ((2, 4, (1, 0)), {"p0": 1.0}, r"p0 must be in \(0, 1\)"),
            ((2, 4, (1, 0)), {"alpha": -0.1}, r"alpha must be in \[0, 1\]"),
            ((2, 4, (1, 0)), {"alpha": float("nan")}, r"alpha must be in \[0, 1\]"),
        ],
    )
    def test_bad_terms_refused(self, args, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BoundInputs(*args, **kwargs)

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

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 39),
        st.integers(1, 5),
        st.integers(1, 20),
        st.floats(0.01, 0.99),
        st.none() | st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_double_loop(self, t_prime, m, sample_count, p0, alpha, seed):
        # The decay as a product recomputed from j = 1 for every tau, bit for bit.
        optimal = tuple(int(b) for b in np.random.default_rng(seed).integers(0, 2, size=m))
        inputs = BoundInputs(t_prime, sample_count, optimal, p0=p0, alpha=alpha)
        expected = 1.0
        if t_prime:
            p_hit = inputs.first_draw_hit_probability()
            expected = 1.0 - p_hit
            for tau in range(2, t_prime + 1):
                decay = 1.0
                for j in range(1, tau):
                    decay *= (1.0 - (1.0 / (j * m) if alpha is None else alpha)) ** m
                expected *= (1.0 - p_hit * decay) ** sample_count
            expected = min(max(expected, 0.0), 1.0)
        assert centralized_miss_bound(inputs).hex() == expected.hex()


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

    @pytest.mark.parametrize("objectives", [[1.5e-12, 6e-13, 0.0, 5.0], [5.0, 0.0, 6e-13, 1.5e-12]])
    def test_near_ties_rejected_in_any_candidate_order(self, objectives):
        # [1, 0] and [0, 1] both lie within NEG_CLAMP of the minimum with one feature each.
        candidates = bounds.candidate_masks(2)
        with pytest.raises(ValueError, match="multiple optimal masks"):
            bounds._unique_optimum(candidates, np.array(objectives))

    def test_too_wide_rejected(self):
        ds = DiscreteDataset(np.zeros((4, 5), dtype=np.int64), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            find_optimal_mask(ds)


class TestMonteCarlo:
    def test_near_certain_init_hits_immediately(self, xor_noise_dataset):
        params = CEParams(sample_count=4, alpha_mode="schedule", rng_seed=0)
        p0 = np.array([1 - 1e-9, 1 - 1e-9, 1e-9])
        assert miss_rate_curve(xor_noise_dataset, params, 1, 100, p0=p0)[0] == 0.0

    @pytest.mark.parametrize(
        "p0, match",
        [
            ([np.nan, 0.5, 0.5], "finite and in"),
            ([1.7, 0.5, -3.0], "finite and in"),
            ([0.5, 0.5], "length must equal feature count"),
        ],
    )
    def test_bad_p0_refused(self, xor_noise_dataset, p0, match):
        # The criterion-6 data and params; NaN and out-of-range entries would
        # otherwise read as a feature never or always drawn.
        params = CEParams(sample_count=4, alpha_mode="schedule", rng_seed=404)
        with pytest.raises(ValueError, match=match):
            miss_rate_curve(xor_noise_dataset, params, 3, 100, p0=p0)

    def test_trial_floor_enforced(self, xor_noise_dataset):
        params = CEParams(sample_count=4, rng_seed=0)
        with pytest.raises(ValueError):
            miss_rate_curve(xor_noise_dataset, params, 1, 99)[0]

    @pytest.mark.parametrize("t_max", [0, -5])
    def test_horizon_below_one_refused(self, xor_noise_dataset, t_max):
        # An empty curve would read as a sweep that passed every horizon.
        params = CEParams(sample_count=4, rng_seed=0)
        with pytest.raises(ValueError, match="t_max must be positive"):
            miss_rate_curve(xor_noise_dataset, params, t_max, 100)

    def test_curve_non_increasing(self, xor_noise_dataset):
        params = CEParams(sample_count=4, alpha_mode="schedule", rng_seed=3)
        curve = miss_rate_curve(xor_noise_dataset, params, 4, 200)
        assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_misses_run_the_shipped_ce_update(self, xor_noise_dataset, monkeypatch):
        # All 2^m masks are ranked once per curve. Each round t < t_max runs
        # the optimizer's elite step once, on the trials that missed every
        # round up to t; a hit round, and the last round, update nothing.
        assert bounds.elite_update is ce.elite_update
        calls = {"update": [], "rank": 0}

        def updating(p, *args):
            calls["update"].append(len(p))
            return ce.elite_update(p, *args)

        def ranking(*args):
            calls["rank"] += 1
            return ce.rank_masks(*args)

        monkeypatch.setattr(bounds, "elite_update", updating)
        monkeypatch.setattr(bounds, "rank_masks", ranking)
        params = CEParams(sample_count=4, alpha_mode="schedule", rng_seed=404)
        curve = miss_rate_curve(xor_noise_dataset, params, 5, 200)
        assert len(calls["update"]) == 4
        assert calls["update"] == [round(200 * rate) for rate in curve[:-1]]
        assert calls["rank"] == 1

    @settings(max_examples=40, deadline=None)
    @given(unique_optimum_cases(), st.sampled_from([1, 2, 7, 64, None]))
    def test_equals_ce_update_on_every_miss(self, case, block):
        # Trials run in blocks of `block` (None: the shipped draw budget);
        # the block size must not change the curve.
        dataset, params, t_max, p0 = case
        expected = ce_update_curve(dataset, params, t_max, 100, p0)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(bounds, "_DRAW_BUDGET", block * params.sample_count * dataset.m)
            assert miss_rate_curve(dataset, params, t_max, 100, p0) == expected

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
