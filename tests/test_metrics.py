"""Compression, overhead and cache arithmetic."""

import pytest

from fedfs.ce import CEParams
from fedfs.datasets import PlantedSpec, generate_planted
from fedfs.federation import ClientState, run_federation
from fedfs.metrics import (
    OverheadInputs,
    SelectionSummary,
    cache_accumulate,
    compression_ratio,
    network_overhead,
)


class TestCompressionRatio:
    def test_wide_selection(self):
        value = compression_ratio(SelectionSummary(frozenset(range(18)), 2166))
        assert value == pytest.approx(99.169, abs=1e-3)
        assert round(value) == 99

    def test_half(self):
        assert compression_ratio(SelectionSummary(frozenset(range(4)), 8)) == 50.0

    def test_all_selected(self):
        assert compression_ratio(SelectionSummary(frozenset(range(5)), 5)) == 0.0

    def test_none_selected(self):
        assert compression_ratio(SelectionSummary(frozenset(), 10)) == 100.0

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            SelectionSummary(frozenset({8}), 8)

    @pytest.mark.parametrize("total", [0, -3])
    def test_total_below_one_rejected(self, total):
        with pytest.raises(ValueError, match="total feature count must be at least 1"):
            SelectionSummary(frozenset(), total)


class TestNetworkOverhead:
    def test_formula_floor(self):
        assert network_overhead(OverheadInputs(1, 1, 0, 0)) == {"units": 2, "bytes": 8}

    def test_reference_run(self):
        out = network_overhead(OverheadInputs(rounds=44, clients=10, nonzero_count=23, bitmap_units=68))
        assert out["units"] == 80_960
        assert out["bytes"] == 80_960 * 4

    def test_linearity_in_rounds(self):
        one = network_overhead(OverheadInputs(7, 3, 11, 5))["units"]
        two = network_overhead(OverheadInputs(14, 3, 11, 5))["units"]
        assert two == 2 * one

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OverheadInputs(-1, 1, 0, 0)


@pytest.fixture
def small_report():
    ds = generate_planted(PlantedSpec(m=4, n=64, relevant=(0, 1), rng_seed=0))
    clients = [ClientState(i, ds, rng_seed=i, draw_size=16) for i in range(2)]
    return run_federation(clients, CEParams(sample_count=10, rng_seed=0), max_rounds=3)


class TestCacheAccumulate:
    def test_zero_record_bytes(self, small_report):
        assert all(v == 0 for v in cache_accumulate(small_report, 0).values())

    def test_product_per_round(self, small_report):
        rounds = small_report.total_rounds
        totals = cache_accumulate(small_report, 20)
        assert totals == {0: rounds * 16 * 20, 1: rounds * 16 * 20}

    def test_reference_product(self):
        # 44 rounds of 291 records each at record_bytes each.
        ds = generate_planted(
            PlantedSpec(m=2, n=291, relevant=(0,), label_rule="sum_mod_k", rng_seed=0)
        )
        client = ClientState(0, ds, rng_seed=0)
        report = run_federation(
            [client], CEParams(sample_count=5, rng_seed=1), tau1=1.0, tau2=0.0, max_rounds=44
        )
        assert cache_accumulate(report, 10)[0] == report.total_rounds * 291 * 10

    def test_negative_rejected(self, small_report):
        with pytest.raises(ValueError):
            cache_accumulate(small_report, -1)
