"""Protocol layer: codec, KS stability test, aggregation, server loop."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedfs.federation as federation
from fedfs import cli
from fedfs.ce import DEFAULT_CLAMP, CEParams, ce_round, clamp_probs, uniform_probs
from fedfs.config import ExperimentConfig
from fedfs.datasets import PlantedSpec, generate_planted, partition_iid
from fedfs.federation import (
    ClientState,
    FaultModel,
    ProtocolError,
    aggregate,
    check_convergence,
    client_round,
    decode_message,
    derive_seed,
    encode_message,
    ks_two_sample,
    message_overhead_units,
    run_federation,
)
from fedfs.info import DiscreteDataset, conditional_entropy


def decoded(client_id, p, sample_count):
    """The reply ``encode_message`` writes for ``p``, as the server decodes it."""
    return decode_message(encode_message(client_id, p, sample_count), len(p))


class TestCodec:
    def test_all_zero_vector(self):
        raw = encode_message(0, np.zeros(10), sample_count=5)
        assert raw == struct.pack("<IQI", 0, 5, 0) + bytes(2)
        msg = decode_message(raw, 10)
        assert msg.nonzero_count == 0
        assert np.array_equal(msg.values, np.zeros(10))

    def test_three_entry_example(self):
        raw = encode_message(1, np.array([0.5, 0.0, 0.25]), sample_count=7)
        assert raw[16:17] == bytes([0b101])
        msg = decode_message(raw, 3)
        assert (msg.client_id, msg.sample_count, msg.nonzero_count) == (1, 7, 2)
        assert msg.values.tolist() == [0.5, 0.0, 0.25]

    def test_round_trip_1000_random_vectors(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            m = int(rng.integers(1, 40))
            p = rng.random(m)
            p[rng.random(m) < 0.3] = 0.0
            msg = decoded(3, p, sample_count=int(rng.integers(1, 1000)))
            assert np.array_equal(msg.values, np.where(p > DEFAULT_CLAMP, p.astype(np.float32), 0.0))

    def test_byte_round_trip_is_float32(self):
        p = np.array([0.123456789, 0.0, 0.987654321])
        back = decoded(9, p, sample_count=100)
        assert back.client_id == 9
        assert back.sample_count == 100
        assert back.values.dtype == np.float64
        assert back.values.tolist() == [float(np.float32(p[0])), 0.0, float(np.float32(p[2]))]
        assert not np.array_equal(back.values, p)

    def test_wire_layout(self):
        # External interface: header <u32 id, u64 n, u32 z>, bitmap, float32s.
        raw = encode_message(5, np.array([0.5, 0.0, 0.25]), sample_count=291)
        client_id, n, z = struct.unpack_from("<IQI", raw, 0)
        assert (client_id, n, z) == (5, 291, 2)
        assert raw[16:17] == bytes([0b101])
        assert struct.unpack("<2f", raw[17:]) == (0.5, 0.25)

    def test_golden_bytes_stable(self):
        p = np.zeros(9)
        p[[0, 8]] = [0.5, 0.75]
        raw = encode_message(2, p, sample_count=3)
        assert raw.hex() == (
            "02000000" "0300000000000000" "02000000" "0101" "0000003f" "0000403f"
        )

    def test_entries_at_clamp_floor_omitted(self):
        raw = encode_message(0, np.array([1e-6, 0.5]), sample_count=1, eps=1e-6)
        assert len(raw) == 16 + 1 + 4
        msg = decode_message(raw, 2)
        assert msg.nonzero_count == 1
        assert msg.values.tolist() == [0.0, 0.5]

    def test_bitmap_length_mismatch(self):
        raw = encode_message(0, np.array([0.5]), sample_count=1)
        # At m = 20 the 3-byte bitmap swallows two of the value's bytes.
        with pytest.raises(ProtocolError, match="expected 1 float32 values, got 2 bytes"):
            decode_message(raw, 20)
        with pytest.raises(ProtocolError, match="shorter than header plus bitmap"):
            decode_message(raw, 2166)

    def test_truncated_payload_rejected(self):
        raw = encode_message(0, np.array([0.5, 0.5]), sample_count=1)
        with pytest.raises(ProtocolError, match="expected 2 float32 values, got 6 bytes"):
            decode_message(raw[:-2], 2)
        with pytest.raises(ProtocolError, match="expected 2 float32 values, got 12 bytes"):
            decode_message(raw + bytes(4), 2)

    def test_popcount_consistency_enforced(self):
        # One bit more than z = 1, then one bit fewer than z = 2 with the
        # 8 payload bytes that z = 2 asks for.
        for z, bitmap in ((1, 0b11), (2, 0b01)):
            raw = struct.pack("<IQI", 0, 1, z) + bytes([bitmap]) + struct.pack(f"<{z}f", *[0.5] * z)
            with pytest.raises(ProtocolError, match="popcount"):
                decode_message(raw, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.0, DEFAULT_CLAMP, 1.0])),
            min_size=1,
            max_size=64,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=2**64 - 1),
        st.binary(max_size=96),
        st.integers(min_value=0, max_value=40),
    )
    def test_round_trip_property(self, values, client_id, sample_count, raw, cut):
        p = np.array(values)
        m = p.size
        wire = encode_message(client_id, p, sample_count)
        msg = decode_message(wire, m)
        # Entries at or below the clamp floor are omitted and come back as 0;
        # the rest come back as exactly their float32 value.
        kept = p > DEFAULT_CLAMP
        z = int(np.count_nonzero(kept))
        assert np.array_equal(msg.values, np.where(kept, p.astype(np.float32), 0.0))
        assert (msg.client_id, msg.sample_count, msg.nonzero_count) == (client_id, sample_count, z)
        assert len(wire) == 16 + math.ceil(m / 8) + 4 * z
        # Arbitrary bytes, alone or spliced after a valid prefix, either decode
        # into a length-m vector in [0, 1] or raise ProtocolError.
        for fuzzed in (raw, wire[:cut] + raw):
            try:
                back = decode_message(fuzzed, m)
            except ProtocolError:
                continue
            assert back.sample_count >= 1
            assert back.values.shape == (m,)
            assert np.all((back.values >= 0.0) & (back.values <= 1.0))


# (sample_count, value): a reply of that one value, or of a tuple of values.
MALFORMED = [
    (0, 0.5),
    (1, float("nan")),
    (1, 7.5),
    (1, -0.1),
    (1, float("inf")),
    pytest.param(1, (0.5,) * 2165 + (float("nan"),), id="1-2166-values-last-nan"),
]


class TestMessageValidation:
    @pytest.mark.parametrize("sample_count, value", MALFORMED)
    def test_constructor_refuses(self, sample_count, value):
        # decode_message is the only constructor of UpdateMessage. An honest
        # reply keeping the last z of m = z + 2 entries, with its sample count
        # and values then overwritten by the malformed ones, is refused.
        values = value if isinstance(value, tuple) else (value,)
        z = len(values)
        honest = encode_message(0, np.concatenate([np.zeros(2), np.full(z, 0.5)]), sample_count=1)
        assert decode_message(honest, z + 2).nonzero_count == z
        bitmap = honest[16 : len(honest) - 4 * z]
        raw = struct.pack("<IQI", 0, sample_count, z) + bitmap + struct.pack(f"<{z}f", *values)
        match = "sample_count must be positive" if sample_count < 1 else r"finite and in \[0, 1\]"
        with pytest.raises(ProtocolError, match=match):
            decode_message(raw, z + 2)

    @pytest.mark.parametrize("sample_count, value", MALFORMED)
    def test_decode_message_refuses(self, sample_count, value):
        values = value if isinstance(value, tuple) else (value,)
        z = len(values)
        bitmap = np.packbits(np.ones(z, dtype=bool), bitorder="little").tobytes()
        raw = struct.pack("<IQI", 0, sample_count, z) + bitmap + struct.pack(f"<{z}f", *values)
        match = "sample_count must be positive" if sample_count < 1 else r"finite and in \[0, 1\]"
        with pytest.raises(ProtocolError, match=match):
            decode_message(raw, z + 2)

    def test_closed_unit_interval_accepted(self):
        raw = struct.pack("<IQI", 0, 1, 2) + bytes([0b101]) + struct.pack("<2f", 0.0, 1.0)
        assert decode_message(raw, 3).values.tolist() == [0.0, 0.0, 1.0]

    def test_bits_beyond_m_refused(self):
        # Bit 3 lies in the padding of a 3-feature bitmap, bit 9 in that of
        # a 9-feature one.
        for m, bitmap in ((3, bytes([0b1000])), (9, bytes([0, 0b10]))):
            raw = struct.pack("<IQI", 0, 1, 1) + bitmap + struct.pack("<f", 0.5)
            with pytest.raises(ProtocolError, match=f"beyond m={m}"):
                decode_message(raw, m)


class TestOverheadUnits:
    def test_counts_values_weight_and_bitmap_words(self):
        p = np.zeros(2166)
        p[:23] = 0.5
        msg = decoded(0, p, sample_count=291)
        # ceil(2166/8) = 271 bytes -> 68 four-byte words.
        assert message_overhead_units(msg, 2166) == 2 * (23 + 1 + 68)


class TestKSTwoSample:
    def test_identical_vectors(self):
        assert ks_two_sample([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 1.0

    def test_maximal_separation(self):
        p = ks_two_sample([0, 0, 0, 0], [1, 1, 1, 1])
        assert 0.0 < p < 0.02
        assert p == pytest.approx(0.011065637015803861, rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_symmetry(self):
        a = [0.1, 0.4, 0.8]
        b = [0.2, 0.3, 0.9, 0.95]
        assert ks_two_sample(a, b) == ks_two_sample(b, a)

    # Values computed once with an independent statistics package
    # (scipy.stats.ks_2samp, asymptotic mode) and frozen.
    def test_pinned_half_split(self):
        a = np.zeros(100)
        b = np.concatenate([np.zeros(50), np.ones(50)])
        assert ks_two_sample(a, b) == pytest.approx(4.392853499119748e-12, abs=1e-3)

    def test_pinned_normal_shift(self):
        rng = np.random.default_rng(101)
        a, b = rng.normal(0, 1, 500), rng.normal(0.25, 1, 500)
        assert ks_two_sample(a, b) == pytest.approx(0.006705519078627016, abs=1e-3)

    def test_pinned_exponential_scale(self):
        rng = np.random.default_rng(202)
        a, b = rng.exponential(1, 800), rng.exponential(1.3, 800)
        assert ks_two_sample(a, b) == pytest.approx(0.0019834405182523234, abs=1e-3)

    def test_pinned_large_sample_mid_p(self):
        rng = np.random.default_rng(303)
        a, b = rng.normal(0, 1, 60000), rng.normal(0.004, 1, 60000)
        assert ks_two_sample(a, b) == pytest.approx(0.15370272461768908, abs=1e-3)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.random(int(rng.integers(1, 30)))
            b = rng.random(int(rng.integers(1, 30)))
            assert 0.0 <= ks_two_sample(a, b) <= 1.0


class TestCheckConvergence:
    def test_stable_at_one(self):
        assert check_convergence(1.0, 1.0)

    def test_initial_zeros_do_not_terminate(self):
        assert not check_convergence(0.0, 0.0)

    def test_threshold_arithmetic(self):
        assert check_convergence(0.996, 0.9959995)

    def test_high_but_moving_fails(self):
        assert not check_convergence(0.999, 0.99)


class TestAggregate:
    def test_equal_partitions_equal_weights(self):
        vectors = [np.full(4, 0.1 * (i + 1)) for i in range(10)]
        messages = [decoded(i, v, sample_count=291) for i, v in enumerate(vectors)]
        expected = np.mean(vectors, axis=0)
        assert np.allclose(aggregate(messages), expected)

    def test_identical_vectors_fixed_point(self):
        p = np.array([0.25, 0.75])
        messages = [decoded(i, p, sample_count=50) for i in range(3)]
        assert np.array_equal(aggregate(messages), p)

    def test_weighted_example(self):
        m1 = decoded(0, np.array([1.0, 0.0]), sample_count=100)
        m2 = decoded(1, np.array([0.0, 1.0]), sample_count=300)
        assert np.allclose(aggregate([m1, m2]), [0.25, 0.75])

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate([])


@pytest.fixture
def tiny_planted():
    return generate_planted(
        PlantedSpec(m=4, n=256, relevant=(0, 1), redundant={2: 0}, rng_seed=3)
    )


class TestClientRound:
    def test_full_data_reduces_to_plain_round(self, tiny_planted):
        params = CEParams(sample_count=30, rng_seed=9)
        client = ClientState(0, tiny_planted, rng_seed=4)
        raw = client_round(client, uniform_probs(4), params, round_index=1)
        msg = decode_message(raw, 4)
        expected = ce_round(
            tiny_planted,
            uniform_probs(4),
            CEParams(sample_count=30, rng_seed=derive_seed(9, 4)),
            round_index=1,
        )
        assert np.array_equal(msg.values, np.where(expected > DEFAULT_CLAMP, expected.astype(np.float32), 0.0))
        assert msg.sample_count == tiny_planted.n

    def test_draw_size_reports_full_partition(self, tiny_planted):
        client = ClientState(0, tiny_planted, rng_seed=4, draw_size=32)
        raw = client_round(client, uniform_probs(4), CEParams(sample_count=10), 1)
        msg = decode_message(raw, 4)
        assert msg.sample_count == 256

    def test_feature_count_mismatch(self, tiny_planted):
        client = ClientState(0, tiny_planted)
        with pytest.raises(ProtocolError):
            client_round(client, uniform_probs(5), CEParams(), 1)

    def test_same_seed_clients_send_identical_updates(self, tiny_planted):
        params = CEParams(sample_count=30, rng_seed=9)
        a = ClientState(0, tiny_planted, rng_seed=4)
        b = ClientState(1, tiny_planted, rng_seed=4)
        raw_a = client_round(a, uniform_probs(4), params, 1)
        raw_b = client_round(b, uniform_probs(4), params, 1)
        # Only the header's client id differs.
        assert raw_a[4:] == raw_b[4:]


class TestFaultModel:
    def test_rho_zero_never_faulty(self):
        model = FaultModel(0.0, rng_seed=1)
        assert not any(model.is_faulty(c, r) for c in range(10) for r in range(1, 20))

    def test_deterministic(self):
        a = FaultModel(0.4, rng_seed=5)
        b = FaultModel(0.4, rng_seed=5)
        draws = [(c, r) for c in range(5) for r in range(1, 10)]
        assert [a.is_faulty(c, r) for c, r in draws] == [b.is_faulty(c, r) for c, r in draws]

    def test_empirical_rate(self):
        model = FaultModel(0.3, rng_seed=2)
        draws = [model.is_faulty(c, r) for c in range(50) for r in range(1, 101)]
        assert 0.27 <= np.mean(draws) <= 0.33

    def test_rho_validated(self):
        with pytest.raises(ValueError):
            FaultModel(1.0)


class TestRunFederation:
    def test_stationary_vector_terminates_in_two_rounds(self, tiny_planted, monkeypatch):
        # A client whose reply never moves leaves the global vector at a fixed
        # point; the KS test of identical vectors is 1 on consecutive rounds.
        # At the all-0.5 start every coordinate is in transit, so the run
        # never stops; from a settled start (float32-exact values outside
        # (0.01, 0.99)) it stops at round 2.
        def stub(client, p_global, params, round_index):
            return encode_message(client.client_id, p_global, client.dataset.n)

        monkeypatch.setattr(federation, "client_round", stub)
        report = run_federation([ClientState(0, tiny_planted)], CEParams(sample_count=10), max_rounds=5)
        assert not report.converged and report.total_rounds == 5
        assert report.rounds[-1].p_value == 1.0
        settled = np.array([1 - 2**-7, 2**-7, 1 - 2**-7, 2**-7])
        monkeypatch.setattr(federation, "uniform_probs", lambda m: settled.copy())
        report = run_federation([ClientState(0, tiny_planted)], CEParams(sample_count=10))
        assert report.converged
        assert report.total_rounds <= 2
        assert report.rounds[-1].p_value == 1.0
        assert np.array_equal(report.final_p, settled) and report.selected == [0, 2]

    def test_ks_pass_with_coordinates_in_transit_does_not_stop(self):
        # The mav preset over 4 clients at the default knobs and seed 1, seeded
        # as the CLI seeds it. In round 71 the KS rule passes while 82
        # coordinates lie in (0.01, 0.99); the run goes on, and after 80
        # rounds 53 are still in transit, so it ends unconverged.
        config = ExperimentConfig(dataset="preset", preset="mav", clients=4, seed=1, max_rounds=80)
        dataset = cli._build_dataset(config)
        fault = FaultModel(config.rho, derive_seed(config.seed, cli._DOMAIN_FAULT))
        report = run_federation(cli._build_clients(dataset, config), config.ce_params(), fault, max_rounds=80)

        def in_transit(p):
            return int(((0.01 < p) & (p < 0.99)).sum())

        assert check_convergence(report.rounds[70].p_value, report.rounds[69].p_value)
        assert in_transit(report.rounds[70].p_global) == 82
        assert not report.converged and report.total_rounds == 80
        assert in_transit(report.final_p) == 53

    def test_tiny_planted_drives_probabilities_toward_signal(self, tiny_planted):
        clients = [ClientState(0, tiny_planted, rng_seed=1)]
        params = CEParams(sample_count=100, beta=0.9, alpha=0.7, rng_seed=0)
        report = run_federation(clients, params, max_rounds=100)
        assert report.converged
        # Features 0,1 determine the labels and 2 is an exact copy of 0;
        # feature 3 is pure noise. The search keeps feature 1 and one of the
        # two copies, and the noise feature trails every selected column; the
        # dropped copy is redundant and may sink to the clamp floor beside it.
        assert report.selected in ([0, 1], [1, 2])
        assert report.final_p[3] < min(report.final_p[report.selected])
        assert report.final_p[3] <= min(report.final_p[:3])
        # The report's selection is consistent with its final vector.
        assert report.selected == [
            int(i) for i in np.flatnonzero(report.final_p > 0.99)
        ]

    def test_recovers_planted_set_at_high_column_indices(self):
        # The relevant columns sit last and their copies early, so a tie-break
        # that leant toward low column indices would not explain a recovery.
        spec = PlantedSpec(
            m=16,
            n=512,
            relevant=(12, 13, 14, 15),
            redundant={1: 12, 4: 13, 6: 14},
            label_rule="sum_mod_k",
            modulus=4,
            rng_seed=7,
        )
        dataset = generate_planted(spec)
        parts = partition_iid(dataset, 4, rng_seed=0)
        clients = [ClientState(i, parts[i], rng_seed=i) for i in range(4)]
        params = CEParams(sample_count=100, beta=0.9, alpha=0.7, rng_seed=0)
        report = run_federation(clients, params, max_rounds=100)
        assert report.converged
        assert len(report.selected) == 4
        mask = np.zeros(16, dtype=np.int64)
        mask[report.selected] = 1
        assert conditional_entropy(dataset, mask) == 0.0

    def test_centralized_equivalence_with_identical_clients(self, tiny_planted):
        # Three clients with identical data and seeds send identical vectors,
        # so the aggregate equals any single client's chain.
        params = CEParams(sample_count=40, rng_seed=5)
        clients = [ClientState(i, tiny_planted, rng_seed=8) for i in range(3)]
        report = run_federation(clients, params, max_rounds=4)

        chain_params = CEParams(sample_count=40, rng_seed=derive_seed(5, 8))
        p = uniform_probs(4)
        for record in report.rounds:
            p = ce_round(tiny_planted, p, chain_params, record.round_index)
            # Aggregation passes through the float32 wire format.
            assert np.allclose(record.p_global, p, atol=1e-6)

    def test_faulty_clients_excluded_from_aggregate(self, tiny_planted):
        params = CEParams(sample_count=20, rng_seed=0)
        parts = partition_iid(tiny_planted, 4, rng_seed=1)
        fault = FaultModel(0.5, rng_seed=12)
        clients = [ClientState(i, parts[i], rng_seed=i) for i in range(4)]
        report = run_federation(clients, params, fault=fault, max_rounds=1)
        record = report.rounds[0]
        expected_participants = [i for i in range(4) if not fault.is_faulty(i, 1)]
        assert record.participants == expected_participants
        assert 0 < len(expected_participants) < 4  # seed chosen so some are faulty

        # Recompute the aggregate from scratch using only the participants.
        fresh = [ClientState(i, parts[i], rng_seed=i) for i in expected_participants]
        replies = [client_round(c, uniform_probs(4), params, 1) for c in fresh]
        messages = [decode_message(raw, 4) for raw in replies]
        expected = np.clip(aggregate(messages), 1e-6, 1 - 1e-6)
        assert np.allclose(record.p_global, expected)

    def test_broadcast_reaches_faulty_clients(self, tiny_planted):
        # A client that was faulty in round 1 rejoins in round 2 from the
        # round-1 global vector, as if it had never left.
        parts = partition_iid(tiny_planted, 2, rng_seed=1)
        clients = [ClientState(i, parts[i], rng_seed=i) for i in range(2)]
        params = CEParams(sample_count=20)

        class FaultyOneInRoundOne(FaultModel):
            def is_faulty(self, client_id, round_index):
                return client_id == 1 and round_index == 1

        report = run_federation(clients, params, fault=FaultyOneInRoundOne(), max_rounds=2)
        assert [r.participants for r in report.rounds] == [[0], [0, 1]]
        p1 = report.rounds[0].p_global
        messages = [decode_message(client_round(c, p1, params, 2), 4) for c in clients]
        expected = np.clip(aggregate(messages), 1e-6, 1 - 1e-6)
        assert np.array_equal(report.rounds[1].p_global, expected)

    def test_client_round_is_pure(self, tiny_planted):
        client = ClientState(0, tiny_planted, rng_seed=4, draw_size=64)
        p = uniform_probs(4)
        first = client_round(client, p, CEParams(sample_count=20), 1)
        assert np.array_equal(p, uniform_probs(4))
        assert client_round(client, p, CEParams(sample_count=20), 1) == first
        with pytest.raises(AttributeError):
            client.rng_seed = 5

    def test_all_faulty_round_carries_vector_over(self, tiny_planted):
        class AllFaulty(FaultModel):
            def is_faulty(self, client_id, round_index):
                return True

        report = run_federation(
            [ClientState(0, tiny_planted)],
            CEParams(sample_count=10),
            fault=AllFaulty(),
            max_rounds=3,
        )
        # No messages: vector unchanged every round and KS of identical
        # vectors is 1, but every coordinate stays at 0.5, in transit, so the
        # loop runs all 3 rounds with zero traffic and does not converge.
        assert report.total_rounds == 3
        assert not report.converged
        assert report.total_bytes == 0
        assert np.array_equal(report.final_p, uniform_probs(4))

    def test_max_rounds_exhaustion_flagged(self, tiny_planted):
        report = run_federation(
            [ClientState(0, tiny_planted, rng_seed=1)],
            CEParams(sample_count=100, rng_seed=0),
            max_rounds=1,
        )
        assert not report.converged
        assert report.total_rounds == 1

    @pytest.mark.parametrize(
        "knobs, match",
        [
            ({"max_rounds": 0}, "max_rounds must be positive"),
            ({"max_rounds": -5}, "max_rounds must be positive"),
            ({"threshold": 0.3}, "threshold must be in"),
            ({"threshold": 1.0}, "threshold must be in"),
            ({"tau1": 0.0}, "tau1 must be in"),
            ({"tau1": 2.0}, "tau1 must be in"),
            ({"tau2": -1e-9}, "tau2 must be non-negative"),
            ({"draw_size": 0}, "draw_size must be positive"),
            ({"draw_size": -5}, "draw_size must be positive"),
            ({"clients": []}, "need at least one client"),
            ({"clients": [0, 0]}, "client ids must be distinct"),
        ],
    )
    def test_bad_arguments_refused_before_round_one(self, tiny_planted, monkeypatch, knobs, match):
        # The ranges ExperimentConfig.validate uses; draw_size is a ClientState field,
        # and "clients" lists the ids of the clients to build.
        def no_round(*args):
            raise AssertionError("a client round ran")

        monkeypatch.setattr(federation, "client_round", no_round)
        knobs = dict(knobs)
        with pytest.raises(ValueError, match=match):
            draw_size = knobs.pop("draw_size", None)
            clients = [ClientState(i, tiny_planted, draw_size=draw_size) for i in knobs.pop("clients", [0])]
            run_federation(clients, CEParams(), **knobs)

    def test_mismatched_feature_counts_rejected(self, tiny_planted, xor_dataset):
        with pytest.raises(ProtocolError):
            run_federation(
                [ClientState(0, tiny_planted), ClientState(1, xor_dataset)],
                CEParams(),
            )

    def test_large_shape_smoke(self):
        # Shape check at the wide-dataset scale: the codec and overhead
        # accounting must handle m=2166 partitions of 291 rows.
        spec = PlantedSpec(
            m=2166,
            n=582,
            relevant=(2160, 2161),
            label_rule="sum_mod_k",
            modulus=2,
            rng_seed=0,
        )
        parts = partition_iid(generate_planted(spec), 2, rng_seed=0)
        clients = [ClientState(i, parts[i], rng_seed=i, draw_size=32) for i in range(2)]
        report = run_federation(clients, CEParams(sample_count=2), max_rounds=2)
        assert report.total_rounds >= 1
        record = report.rounds[0]
        assert record.draw_sizes == {0: 32, 1: 32}
        # Every message carries a ceil(2166/8)-byte bitmap = 68 words.
        assert record.overhead_units >= 2 * 2 * (1 + 68)


def truncated(raw):
    return raw[:-1]


def bit_beyond_m(raw):
    # At m = 4 the bitmap is the one byte after the 16-byte header; bit 4
    # lies in its padding.
    return raw[:16] + bytes([raw[16] | 0b10000]) + raw[17:]


class TestWirePath:
    """The server decodes, checks and averages exactly the bytes it counts."""

    @pytest.fixture
    def two_clients(self, tiny_planted):
        parts = partition_iid(tiny_planted, 2, rng_seed=1)
        return [ClientState(i, parts[i], rng_seed=i) for i in range(2)]

    @staticmethod
    def spy_replies(monkeypatch, corrupt=lambda client_id, raw: raw):
        """Pass every reply through ``corrupt``; returns the bytes sent, by round."""
        real = federation.client_round
        sent = {}

        def stub(client, p_global, params, round_index):
            raw = corrupt(client.client_id, real(client, p_global, params, round_index))
            sent.setdefault(round_index, []).append(raw)
            return raw

        monkeypatch.setattr(federation, "client_round", stub)
        return sent

    def test_bytes_sent_is_the_length_of_the_replies(self, two_clients, monkeypatch):
        sent = self.spy_replies(monkeypatch)
        report = run_federation(two_clients, CEParams(sample_count=20), max_rounds=3)
        assert report.total_rounds == 3
        for record in report.rounds:
            assert record.bytes_sent == sum(len(raw) for raw in sent[record.round_index])
            assert record.rejected == []
        assert report.total_bytes == sum(len(raw) for raws in sent.values() for raw in raws)

    def test_aggregate_averages_the_decoded_replies(self, two_clients, monkeypatch):
        sent = self.spy_replies(monkeypatch)
        averaged = []
        real_aggregate = federation.aggregate

        def spy_aggregate(messages):
            averaged.append(list(messages))
            return real_aggregate(messages)

        def fields(msg):
            return msg.client_id, msg.sample_count, msg.nonzero_count, msg.values.tolist()

        monkeypatch.setattr(federation, "aggregate", spy_aggregate)
        report = run_federation(two_clients, CEParams(sample_count=20), max_rounds=3)
        assert [[fields(msg) for msg in msgs] for msgs in averaged] == [
            [fields(decode_message(raw, 4)) for raw in sent[r.round_index]] for r in report.rounds
        ]
        # Every averaged value is a float32 value, as the wire carries it.
        values = [v for msgs in averaged for msg in msgs for v in msg.values[msg.values > 0]]
        assert values and all(float(np.float32(v)) == v for v in values)

    @pytest.mark.parametrize("corrupt", [truncated, bit_beyond_m])
    def test_malformed_reply_is_rejected(self, two_clients, monkeypatch, corrupt):
        sent = self.spy_replies(monkeypatch, lambda cid, raw: corrupt(raw) if cid == 1 else raw)
        params = CEParams(sample_count=20)
        report = run_federation(two_clients, params, max_rounds=1)
        record = report.rounds[0]
        good, bad = sent[1]
        with pytest.raises(ProtocolError, match={truncated: "float32 values", bit_beyond_m: "beyond m=4"}[corrupt]):
            decode_message(bad, 4)
        assert record.participants == [0, 1]
        assert record.rejected == [1]
        assert record.bytes_sent == len(good) + len(bad)
        expected = clamp_probs(aggregate([decode_message(good, 4)]), params.clamp_eps)
        assert np.array_equal(record.p_global, expected)

    def test_reply_naming_another_client_is_rejected(self, two_clients, monkeypatch):
        def as_client_0(client_id, raw):
            return struct.pack("<I", 0) + raw[4:] if client_id == 1 else raw

        sent = self.spy_replies(monkeypatch, as_client_0)
        params = CEParams(sample_count=20)
        report = run_federation(two_clients, params, max_rounds=1)
        record = report.rounds[0]
        good, bad = sent[1]
        assert decode_message(bad, 4).client_id == 0
        assert record.participants == [0, 1]
        assert record.rejected == [1]
        assert record.bytes_sent == len(good) + len(bad)
        expected = clamp_probs(aggregate([decode_message(good, 4)]), params.clamp_eps)
        assert np.array_equal(record.p_global, expected)

    def test_all_rejected_round_carries_vector_over(self, two_clients, monkeypatch):
        sent = self.spy_replies(monkeypatch, lambda cid, raw: truncated(raw))
        report = run_federation(two_clients, CEParams(sample_count=20), max_rounds=3)
        # As in an all-faulty round the vector stays put at 0.5, in transit,
        # so the KS rule alone cannot stop the run; the rejected bytes still count.
        assert report.total_rounds == 3
        assert not report.converged
        assert [r.rejected for r in report.rounds] == [[0, 1]] * 3
        assert np.array_equal(report.final_p, uniform_probs(4))
        assert report.total_bytes == sum(len(raw) for raws in sent.values() for raw in raws) > 0


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_handles_large_inputs(self):
        assert isinstance(derive_seed(2**70, 5), int)
