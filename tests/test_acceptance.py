"""Acceptance gate: the seven release criteria, one pass/fail line each.

Each test registers its verdict so the summary block printed at the end of
the pytest run shows one line per criterion regardless of verbosity.
"""

import csv
import math
import time
from collections import Counter

import numpy as np
import pytest

from conftest import PLANTED50
from fedfs.bounds import (
    BoundInputs,
    centralized_miss_bound,
    find_optimal_mask,
    miss_rate_curve,
)
from fedfs.ce import DEFAULT_CLAMP, CEParams, ce_round, select_features, uniform_probs
from fedfs.cli import main
from fedfs.datasets import partition_iid
from fedfs.federation import (
    ClientState,
    FaultModel,
    ProtocolError,
    decode_message,
    derive_seed,
    encode_message,
    ks_two_sample,
    run_federation,
)
from fedfs.info import DiscreteDataset, conditional_entropy, entropy
from fedfs.metrics import OverheadInputs, SelectionSummary, compression_ratio, network_overhead

SEED = 12
THRESHOLD = 0.99
CENT_ROUNDS = 180

_RESULTS: list[tuple[str, bool, str]] = []


def record(name: str, ok: bool, detail: str) -> None:
    _RESULTS.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def selection_entropy(dataset, selected) -> float:
    mask = np.zeros(dataset.m, dtype=np.int64)
    mask[list(selected)] = 1
    return conditional_entropy(dataset, mask)


@pytest.fixture(scope="session")
def centralized_result(planted50):
    """Criterion 1's run, shared with criterion 2 as the reference."""
    params = CEParams(sample_count=200, beta=0.9, alpha=0.7, rng_seed=SEED)
    p = uniform_probs(planted50.m)
    start = time.perf_counter()
    for t in range(1, CENT_ROUNDS + 1):
        p = ce_round(planted50, p, params, t)
    elapsed = time.perf_counter() - start
    selected = select_features(p, THRESHOLD)
    return selected, selection_entropy(planted50, selected), elapsed


def federated_run(planted50, rho: float):
    parts = partition_iid(planted50, 10, rng_seed=derive_seed(SEED, 101))
    clients = [
        ClientState(i, parts[i], rng_seed=derive_seed(SEED, 102, i)) for i in range(10)
    ]
    params = CEParams(sample_count=200, beta=0.9, alpha=0.7, rng_seed=SEED)
    fault = FaultModel(rho, derive_seed(SEED, 103))
    return run_federation(clients, params, fault=fault, max_rounds=100, threshold=THRESHOLD)


class TestCriterion1CentralizedRecovery:
    def test_planted_recovery(self, planted50, centralized_result):
        selected, h, elapsed = centralized_result
        ok = h <= 0.01 and len(selected) <= 10 and elapsed <= 60.0
        record(
            "criterion 1 (centralized planted recovery)",
            ok,
            f"|F|={len(selected)}, H(y|F)={h:.4f} bits, {elapsed:.1f}s",
        )
        assert h <= 0.01
        assert len(selected) <= 10
        assert elapsed <= 60.0


class TestCriterion2FederatedEquivalence:
    def test_federated_matches_centralized(self, planted50, centralized_result):
        cent_selected, cent_h, _ = centralized_result
        report = federated_run(planted50, rho=0.0)
        fed_h = selection_entropy(planted50, report.selected)
        ok = (
            report.converged
            and report.total_rounds <= 100
            and fed_h <= cent_h + 0.01
            and len(report.selected) <= 2 * len(cent_selected)
        )
        record(
            "criterion 2 (federated = centralized, rho=0)",
            ok,
            f"converged={report.converged}, R={report.total_rounds}, "
            f"|F_fed|={len(report.selected)}, H_fed={fed_h:.4f} vs H_cent={cent_h:.4f}",
        )
        assert report.converged and report.total_rounds <= 100
        assert len(report.selected) <= 2 * len(cent_selected)
        assert fed_h <= cent_h + 0.01


class TestCriterion3FaultRobustness:
    def test_rho_02_same_tolerance(self, planted50, centralized_result):
        _, cent_h, _ = centralized_result
        report = federated_run(planted50, rho=0.2)
        fed_h = selection_entropy(planted50, report.selected)
        ok = report.converged and fed_h <= cent_h + 0.01
        record(
            "criterion 3a (fault robustness, rho=0.2)",
            ok,
            f"converged={report.converged}, R={report.total_rounds}, H_fed={fed_h:.4f}",
        )
        assert report.converged
        assert fed_h <= cent_h + 0.01

    def test_rho_03_relaxed_tolerance(self, planted50, centralized_result):
        _, cent_h, _ = centralized_result
        report = federated_run(planted50, rho=0.3)
        fed_h = selection_entropy(planted50, report.selected)
        ok = report.converged and fed_h <= cent_h + 0.05
        record(
            "criterion 3b (fault robustness, rho=0.3)",
            ok,
            f"converged={report.converged}, R={report.total_rounds}, H_fed={fed_h:.4f}",
        )
        assert report.converged
        assert fed_h <= cent_h + 0.05


class TestCriterion4MetricExactness:
    def test_overhead_and_compression(self):
        units = network_overhead(
            OverheadInputs(rounds=44, clients=10, nonzero_count=23, bitmap_units=68)
        )["units"]
        wide = compression_ratio(SelectionSummary(frozenset(range(18)), 2166))
        half = compression_ratio(SelectionSummary(frozenset(range(4)), 8))
        ok = units == 80_960 and round(wide) == 99 and half == 50.0
        record(
            "criterion 4 (metric exactness)",
            ok,
            f"N_OH={units}, C(18/2166)={wide:.2f}%->{round(wide)}, C(4/8)={half}%",
        )
        assert units == 80_960
        assert round(wide) == 99
        assert half == 50.0


class TestCriterion5OracleSuites:
    def test_oracle_equivalence_under_ten_seconds(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2)

        # Info-core estimators vs dict-based joint counting, tol 1e-12.
        for _ in range(120):
            n = int(rng.integers(1, 65))
            m = int(rng.integers(1, 7))
            features = rng.integers(0, 4, size=(n, m))
            labels = rng.integers(0, 3, size=n)
            ds = DiscreteDataset(features, labels)
            mask = rng.integers(0, 2, size=m)
            idx = np.flatnonzero(mask)
            groups: dict[tuple, list] = {}
            for row, y in zip(features, labels):
                groups.setdefault(tuple(row[idx]), []).append(int(y))
            expected = 0.0
            for group in groups.values():
                counts = Counter(group)
                h = -sum(
                    (c / len(group)) * math.log2(c / len(group)) for c in counts.values()
                )
                expected += len(group) / n * h
            assert abs(conditional_entropy(ds, mask) - expected) <= 1e-12

        # Elite-frequency update vs hand-rolled arithmetic, bitwise equal.
        from fedfs.ce import compute_gamma, update_probabilities

        for _ in range(200):
            m = int(rng.integers(1, 8))
            s = int(rng.integers(2, 30))
            p = rng.random(m)
            masks = rng.integers(0, 2, size=(s, m))
            objectives = rng.random(s)
            beta = float(rng.uniform(0.1, 0.95))
            alpha = float(rng.uniform(0.05, 1.0))
            gamma = compute_gamma(objectives, beta)
            assert gamma == sorted(objectives)[math.ceil((1.0 - beta) * s) - 1]
            elite = masks[objectives <= gamma]
            expected = np.clip(
                (1.0 - alpha) * p + alpha * elite.mean(axis=0), 1e-6, 1.0 - 1e-6
            )
            ours = update_probabilities(p, masks, objectives, gamma, alpha)
            assert ours.tolist() == expected.tolist()

        # KS p-values vs frozen external-oracle values, tol 1e-3
        # (scipy.stats.ks_2samp asymptotic mode, computed once and pinned).
        a = np.zeros(100)
        b = np.concatenate([np.zeros(50), np.ones(50)])
        assert abs(ks_two_sample(a, b) - 4.392853499119748e-12) <= 1e-3
        r101 = np.random.default_rng(101)
        assert (
            abs(
                ks_two_sample(r101.normal(0, 1, 500), r101.normal(0.25, 1, 500))
                - 0.006705519078627016
            )
            <= 1e-3
        )
        r202 = np.random.default_rng(202)
        assert (
            abs(
                ks_two_sample(r202.exponential(1, 800), r202.exponential(1.3, 800))
                - 0.0019834405182523234
            )
            <= 1e-3
        )
        r303 = np.random.default_rng(303)
        assert (
            abs(
                ks_two_sample(r303.normal(0, 1, 60000), r303.normal(0.004, 1, 60000))
                - 0.15370272461768908
            )
            <= 1e-3
        )

        # Wire codec on 1000 random vectors: through the bytes, every sent
        # entry comes back as its float32 value and every omitted one as 0.
        for _ in range(1000):
            m = int(rng.integers(1, 48))
            p = rng.random(m)
            p[rng.random(m) < 0.25] = 0.0
            raw = encode_message(0, p, sample_count=int(rng.integers(1, 500)))
            expected = np.where(p > DEFAULT_CLAMP, p.astype(np.float32), 0.0)
            assert np.array_equal(decode_message(raw, m).values, expected)

        elapsed = time.perf_counter() - start
        record(
            "criterion 5 (oracle equivalence suites)",
            elapsed < 10.0,
            f"info, update, KS and codec oracles all matched in {elapsed:.1f}s",
        )
        assert elapsed < 10.0


class TestCriterion6BoundValidity:
    def test_miss_rate_within_bound(self, xor_noise_dataset):
        start = time.perf_counter()
        params = CEParams(sample_count=4, alpha_mode="schedule", rng_seed=404)
        curve = miss_rate_curve(xor_noise_dataset, params, 5, 1000)
        optimum = tuple(int(b) for b in find_optimal_mask(xor_noise_dataset))
        worst_slack = math.inf
        for t in range(1, 6):
            bound = centralized_miss_bound(BoundInputs(t, 4, optimum))
            sigma = math.sqrt(bound * (1.0 - bound) / 1000)
            worst_slack = min(worst_slack, bound + 3 * sigma - curve[t - 1])
        elapsed = time.perf_counter() - start
        ok = worst_slack >= 0.0 and elapsed <= 30.0
        record(
            "criterion 6 (appendix bound validity)",
            ok,
            f"min slack {worst_slack:.4f} over t'=1..5, {elapsed:.1f}s",
        )
        assert worst_slack >= 0.0
        assert elapsed <= 30.0


class TestCriterion7Determinism:
    CONFIG = """
mode = federated
dataset = planted
planted_m = 8
planted_n = 512
planted_relevant = 0,1
planted_rule = xor
clients = 4
sample_count = 100
seed = 5
"""

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
        identical = all(
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in ("selection.csv", "rounds.csv", "summary.csv")
        )
        record(
            "criterion 7 (byte-identical determinism)",
            identical,
            "selection.csv, rounds.csv and summary.csv identical across reruns",
        )
        assert identical
