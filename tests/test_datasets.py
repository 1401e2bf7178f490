"""Planted generators, iid partitioning, and CSV ingestion."""

import tracemalloc
import warnings

import numpy as np
import pytest

from fedfs import datasets
from fedfs.datasets import (
    PlantedSpec,
    generate_planted,
    load_csv,
    partition_iid,
    preset_planted_spec,
    save_csv,
)
from fedfs.info import DiscreteDataset, conditional_entropy, entropy, mutual_information


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """The line count of each np.loadtxt call made while the test runs."""
    calls = []
    loadtxt = np.loadtxt

    def counting(lines, *args, **kwargs):
        calls.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(datasets.np, "loadtxt", counting)
    return calls


class TestPlantedSpec:
    def test_noise_indices(self):
        spec = PlantedSpec(m=5, n=16, relevant=(0, 1), redundant={2: 0})
        assert spec.noise == (3, 4)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PlantedSpec(m=4, n=16, relevant=(0, 1), redundant={1: 0})

    def test_redundant_must_copy_relevant(self):
        with pytest.raises(ValueError):
            PlantedSpec(m=4, n=16, relevant=(0,), redundant={2: 3})

    def test_xor_needs_balanced_n(self):
        with pytest.raises(ValueError):
            PlantedSpec(m=3, n=10, relevant=(0, 1), label_rule="xor")

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            PlantedSpec(m=2, n=8, relevant=(0, 5))

    @pytest.mark.parametrize(
        "m, n, relevant, match",
        [
            (0, 8, (0,), "m and n must be positive"),
            (4, 0, (0,), "m and n must be positive"),
            (4, 8, (), "at least one relevant feature"),
        ],
    )
    def test_empty_shapes_refused(self, m, n, relevant, match):
        with pytest.raises(ValueError, match=match):
            PlantedSpec(m=m, n=n, relevant=relevant, label_rule="sum_mod_k")


class TestGeneratePlanted:
    def test_relevant_mask_resolves_labels(self):
        spec = PlantedSpec(m=4, n=128, relevant=(0, 1), redundant={2: 0}, rng_seed=1)
        ds = generate_planted(spec)
        assert conditional_entropy(ds, [1, 1, 0, 0]) == 0.0

    def test_copy_is_equivalent_blanket(self):
        spec = PlantedSpec(m=4, n=128, relevant=(0, 1), redundant={2: 0}, rng_seed=1)
        ds = generate_planted(spec)
        assert conditional_entropy(ds, [0, 1, 1, 0]) == 0.0
        assert np.array_equal(ds.features[:, 2], ds.features[:, 0])

    def test_noise_feature_nearly_independent(self):
        spec = PlantedSpec(m=4, n=4096, relevant=(0, 1), redundant={2: 0}, rng_seed=5)
        ds = generate_planted(spec)
        mask = [0, 0, 0, 1]
        assert mutual_information(ds, mask) <= 0.02

    def test_xor_marginal_exactly_independent(self):
        # Balanced joint counts make each relevant column carry zero marginal
        # information about an XOR label.
        spec = PlantedSpec(m=3, n=64, relevant=(0, 1), label_rule="xor", rng_seed=9)
        ds = generate_planted(spec)
        assert mutual_information(ds, [1, 0, 0]) == 0.0
        assert mutual_information(ds, [0, 1, 0]) == 0.0

    def test_sum_mod_k_label_range(self):
        spec = PlantedSpec(
            m=6, n=512, relevant=(0, 1, 2, 3), label_rule="sum_mod_k", modulus=4, rng_seed=2
        )
        ds = generate_planted(spec)
        assert set(np.unique(ds.labels)) <= {0, 1, 2, 3}
        assert entropy(ds.labels) > 0.5

    @pytest.mark.parametrize(
        "m, n, relevant, redundant",
        [
            (2166, 2911, (2160, 2161, 2162, 2163), {0: 2160, 1: 2161, 2: 2162}),  # odd n
            (50, 4096, (0, 1, 2, 3), {4: 0, 5: 1, 6: 2, 7: 3, 8: 0, 9: 1}),  # 40 noise, blocks of 4
            (4, 31, (1,), {}),
            (40, 1000, (0,), {}),  # 39 noise, blocks of 16
            (3, 20_001, (0,), {}),  # n above the block: one column per draw
            (3, 64, (0, 1), {2: 0}),  # no noise columns
        ],
    )
    def test_noise_equals_one_draw_per_column(self, m, n, relevant, redundant):
        spec = PlantedSpec(m, n, relevant, redundant, label_rule="sum_mod_k", rng_seed=17)
        # Replay the generator's draws before the noise, then draw each noise column alone.
        rng = np.random.default_rng(spec.rng_seed)
        combos = 2 ** len(relevant)
        if n % combos:
            rng.integers(0, combos, size=n % combos)
        rng.permutation(n)
        expected = np.zeros((n, len(spec.noise)), dtype=np.uint8)
        for j in range(len(spec.noise)):
            expected[:, j] = rng.integers(0, 2, size=n)
        ds = generate_planted(spec)
        assert ds.features[:, list(spec.noise)].tobytes() == expected.tobytes()

    def test_deterministic(self):
        spec = PlantedSpec(m=5, n=64, relevant=(0, 1), rng_seed=11)
        a, b = generate_planted(spec), generate_planted(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestPartitionIid:
    def test_reference_split(self):
        ds = generate_planted(
            PlantedSpec(m=3, n=2911, relevant=(0,), label_rule="sum_mod_k", rng_seed=0)
        )
        parts = partition_iid(ds, 10, rng_seed=1)
        assert len(parts) == 10
        assert all(p.n == 291 for p in parts)

    def test_single_partition_is_shuffled_dataset(self, xor_dataset):
        parts = partition_iid(xor_dataset, 1, rng_seed=3)
        assert parts[0].n == 4
        joined = sorted(map(tuple, np.column_stack([parts[0].features, parts[0].labels])))
        original = sorted(map(tuple, np.column_stack([xor_dataset.features, xor_dataset.labels])))
        assert joined == original

    def test_remainder_dropped(self):
        ds = DiscreteDataset(np.zeros((10, 2), dtype=np.int64), np.zeros(10, dtype=np.int64))
        parts = partition_iid(ds, 3, rng_seed=0)
        assert [p.n for p in parts] == [3, 3, 3]

    def test_partitions_disjoint_and_exhaustive(self):
        ds = DiscreteDataset(
            np.arange(24, dtype=np.int64).reshape(12, 2), np.zeros(12, dtype=np.int64)
        )
        parts = partition_iid(ds, 4, rng_seed=7)
        rows = sorted(tuple(r) for p in parts for r in p.features)
        assert rows == sorted(tuple(r) for r in ds.features)

    def test_label_distribution_roughly_uniform(self):
        ds = generate_planted(
            PlantedSpec(m=3, n=4000, relevant=(0, 1), label_rule="xor", rng_seed=0)
        )
        parts = partition_iid(ds, 10, rng_seed=2)
        for part in parts:
            ones = part.labels.mean()
            assert 0.35 <= ones <= 0.65

    def test_too_many_partitions_rejected(self, xor_dataset):
        with pytest.raises(ValueError):
            partition_iid(xor_dataset, 5)

    @pytest.mark.parametrize("count", [0, -1])
    def test_partition_count_below_one_rejected(self, xor_dataset, count):
        with pytest.raises(ValueError, match="partition count must be positive"):
            partition_iid(xor_dataset, count)


class TestCsvIo:
    def test_round_trip_xor(self, xor_dataset, tmp_path):
        path = tmp_path / "xor.csv"
        save_csv(xor_dataset, path)
        loaded = load_csv(path)
        # Feature codes 0/1 survive equal-width binning into 10 bins as 0/9,
        # which leaves the information content intact; compare via entropy.
        assert loaded.n == 4 and loaded.m == 2
        assert np.array_equal(loaded.labels, xor_dataset.labels)
        assert conditional_entropy(loaded, [1, 1]) == 0.0
        assert loaded.feature_names == ("f0", "f1")

    def test_round_trip_uint8_codes(self, tmp_path):
        ds = generate_planted(PlantedSpec(m=5, n=64, relevant=(0, 1), redundant={2: 0}, rng_seed=3))
        assert ds.features.dtype == np.uint8
        path = tmp_path / "planted.csv"
        save_csv(ds, path)
        lines = path.read_text().splitlines()
        assert all(cell.isdigit() for line in lines[1:] for cell in line.split(","))
        # Two bins map each varying 0/1 column back onto 0/1.
        loaded = load_csv(path, bins=2)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: empty file"

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "a,b,c,d,label\n"
            "1,2,3,4,0\n"
            "1,2,3,4,1\n"
            "1,2,3,oops,0\n"
        )
        with pytest.raises(ValueError, match="row 2, column 3"):
            load_csv(path)

    @pytest.mark.parametrize("bad_row", [0, 63, 64, 150])
    def test_bad_cell_located_a_block_at_a_time(self, tmp_path, loadtxt_calls, bad_row):
        # One np.loadtxt over the body fails; the rows before the bad one are
        # then read a block per call, the failing block a row per call, and
        # the bad row's cells the same way.
        rows = [["1", "2", "0"] for _ in range(200)]
        rows[bad_row][1] = "oops"
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n" + "".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: non-numeric cell at row {bad_row}, column 1"
        block = datasets._BLOCK_ROWS
        # body, blocks up to the failing one, its rows up to the bad one, the row's cells as one block, cells 0 and 1
        assert len(loadtxt_calls) == 1 + (bad_row // block + 1) + (bad_row % block + 1) + 1 + 2

    def test_ragged_row_after_good_blocks_costs_a_call_per_block(self, tmp_path, loadtxt_calls):
        rows = ["1,2,0"] * 150 + ["1,2"] + ["1,2,0"] * 10
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: row 150 has 2 cells, expected 3"
        block = datasets._BLOCK_ROWS
        assert loadtxt_calls == [161] + [block] * (150 // block) + [150 % block]

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path)

    def test_ragged_row_located(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,label\n1,0\n1\n")
        with pytest.raises(ValueError, match="row 1"):
            load_csv(path)

    def test_wesad_shaped_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        names = ("ACC_x", "ACC_y", "ACC_z", "ECG", "EMG", "EDA", "TEMP", "RSP")
        header = ",".join(names) + ",label"
        lines = [header]
        for _ in range(20):
            values = rng.random(8)
            lines.append(",".join(f"{v:.4f}" for v in values) + f",{rng.integers(0, 3)}")
        path = tmp_path / "wesad.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = load_csv(path)
        assert ds.m == 8
        assert ds.feature_names == names

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "fl.csv"
        path.write_text("a,label\n1,0.5\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path)

    def test_label_message_names_the_file(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("a,label\n1,0\n2,-1\n")
        with pytest.raises(ValueError, match=r"neg\.csv: label values must be non-negative"):
            load_csv(path)

    def test_huge_label_refused_without_numpy_warning(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("a,label\n1,0\n2,1e30\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"huge\.csv: label values must be below 2\*\*63"):
                load_csv(path)

    def test_label_column_named_twice_refused(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("label,label\n1,0\n2,1\n")
        with pytest.raises(ValueError, match=r"twice\.csv: need one 'label' column, found 2"):
            load_csv(path)

    @pytest.mark.parametrize("names, label_column", [(("label", "b"), "label"), ((), "f0")])
    def test_save_refuses_feature_named_like_label(self, tmp_path, names, label_column):
        ds = DiscreteDataset(np.array([[0, 1], [1, 0]]), np.array([0, 1]), names)
        path = tmp_path / "clash.csv"
        with pytest.raises(ValueError, match=f"clash\\.csv: .*{label_column!r}"):
            save_csv(ds, path, label_column)
        assert not path.exists()

    def test_mav_shaped_load_memory_bounded(self, tmp_path):
        # The float64 matrix is 8 n m bytes; loading may hold a few such arrays at once.
        spec = preset_planted_spec("mav")
        ds = generate_planted(spec)
        path = tmp_path / "mav.csv"
        save_csv(ds, path)
        tracemalloc.start()
        try:
            loaded = load_csv(path, bins=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * spec.n * spec.m
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)


# Each CSV body (under the header "a,b,label") with the outcome of the
# earlier per-cell float() reader: the codes and labels at 4 bins, or the
# refusal. Only "1_0" changed: float() read it as 10, np.loadtxt refuses it.
# Every refusal now starts with the file's path.
CSV_PARITY = {
    "blank middle row": ("1,2,0\n\n3,4,1\n", "row 1 has 0 cells, expected 3"),
    "quoted number": ('"1",2,0\n3,"4",1\n', ([[0, 0], [3, 3]], [0, 1])),
    "empty cell": ("1,,0\n", "non-numeric cell at row 0, column 1"),
    "hash cell": ("1,2,0\n#1,2,0\n", "non-numeric cell at row 1, column 0"),
    "padded spaces": (" 1 , 2 ,0\n3,4, 1 \n", ([[0, 0], [3, 3]], [0, 1])),
    "nan column": ("nan,1,0\nnan,2,1\n", "non-finite value in column 0"),
    "header only": ("", "no data rows"),
    "crlf": ("1,2,0\r\n3,4,1\r\n", ([[0, 0], [3, 3]], [0, 1])),
    "trailing comma": ("1,2,0,\n", "row 0 has 4 cells, expected 3"),
    "underscore digits": ("1_0,2,0\n3,4,1\n", "non-numeric cell at row 0, column 0"),
    # The bad cell's quotes are doubled when it is read back as one quoted field.
    "quoted bad cell": ('1,2,0\n3,"x""y",1\n', "non-numeric cell at row 1, column 1"),
}


@pytest.mark.parametrize("body, outcome", CSV_PARITY.values(), ids=CSV_PARITY.keys())
def test_csv_parity(tmp_path, body, outcome):
    path = tmp_path / "case.csv"
    path.write_bytes(("a,b,label\n" + body).encode())
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as info:
            load_csv(path, bins=4)
        assert str(info.value) == f"{path}: {outcome}"
    else:
        ds = load_csv(path, bins=4)
        assert ds.features.tolist() == outcome[0]
        assert ds.labels.tolist() == outcome[1]
        assert ds.feature_names == ("a", "b")


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_planted_spec("other")

    def test_wesad_preset_spec(self):
        spec = preset_planted_spec("wesad", rng_seed=1)
        assert (spec.m, spec.n) == (8, 4000)
        assert spec.relevant == (1, 2, 5, 6)

    def test_mav_preset_and_partitions_stay_narrow(self):
        # int64 codes would peak above 100 MB here; uint8 ones need a few n x m bytes.
        spec = preset_planted_spec("mav")
        tracemalloc.start()
        try:
            parts = partition_iid(generate_planted(spec), 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * spec.n * spec.m
        assert all(part.features.dtype == np.uint8 for part in parts)

    def test_mav_preset_spec(self):
        spec = preset_planted_spec("mav")
        assert (spec.m, spec.n) == (2166, 2911)
        ds = generate_planted(spec)
        mask = np.zeros(2166, dtype=np.int64)
        mask[list(spec.relevant)] = 1
        assert conditional_entropy(ds, mask) == 0.0
