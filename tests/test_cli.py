"""End-to-end command-line behavior: exit codes, outputs, determinism."""

import csv
import math
from dataclasses import fields
from pathlib import Path

import pytest

from fedfs import federation
from fedfs.cli import main
from fedfs.config import ConfigError, ExperimentConfig, parse_config
from fedfs.datasets import load_csv

BASE_CONFIG = """
mode = federated
dataset = planted
planted_m = 8
planted_n = 512
planted_relevant = 0,1
planted_rule = xor
clients = 4
sample_count = 100
beta = 0.9
alpha = 0.7
seed = 5
"""


# One valid non-default value per config key: (text in the file, parsed value).
FIELD_SAMPLES = {
    "mode": ("centralized", "centralized"),
    "dataset": ("preset", "preset"),
    "csv_path": ("data/run.csv", "data/run.csv"),
    "label_column": ("activity", "activity"),
    "bins": ("4", 4),
    "preset": ("mav", "mav"),
    "planted_m": ("12", 12),
    "planted_n": ("256", 256),
    "planted_relevant": ("2, 5,7", (2, 5, 7)),
    "planted_redundant": ("3:0, 4:1", {3: 0, 4: 1}),
    "planted_rule": ("sum_mod_k", "sum_mod_k"),
    "planted_modulus": ("3", 3),
    "clients": ("6", 6),
    "sample_count": ("40", 40),
    "beta": ("0.8", 0.8),
    "alpha": ("0.5", 0.5),
    "alpha_mode": ("schedule", "schedule"),
    "clamp_eps": ("0.001", 0.001),
    "tau1": ("0.9", 0.9),
    "tau2": ("0.05", 0.05),
    "rho": ("0.25", 0.25),
    "threshold": ("0.95", 0.95),
    "max_rounds": ("50", 50),
    "draw_size": ("32", 32),
    "seed": ("17", 17),
    "out_dir": ("results", "results"),
    "record_bytes": ("0", 0),
    "t_max": ("7", 7),
    "trials": ("250", 250),
}

# Lines a sample needs beside it to pass validation.
FIELD_CONTEXT = {"dataset": "preset = wesad\n"}


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


class TestConfigParsing:
    def test_round_trips_known_keys(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "out_dir = out\n")
        config = parse_config(path)
        assert config.clients == 4
        assert config.planted_relevant == (0, 1)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "bogus_key = 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = write_config(tmp_path, "# comment\n\nseed = 3  # trailing\n")
        assert parse_config(path).seed == 3

    def test_invalid_beta_names_field(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "beta = 1.5\n")
        with pytest.raises(ConfigError, match="beta"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
    def test_every_field_parses(self, tmp_path, name):
        text, expected = FIELD_SAMPLES[name]
        assert getattr(ExperimentConfig(), name) != expected
        path = write_config(tmp_path, f"{name} = {text}\n" + FIELD_CONTEXT.get(name, ""))
        parsed = getattr(parse_config(path), name)
        assert parsed == expected
        assert type(parsed) is type(expected)

    @pytest.mark.parametrize(
        "line",
        ["planted_relevant = 0,x", "planted_redundant = 4-0", "bins = 2.5", "beta = high"],
    )
    def test_unparsable_value_names_field(self, tmp_path, line):
        key = line.split(" ", 1)[0]
        with pytest.raises(ConfigError, match=f"invalid value for {key}"):
            parse_config(write_config(tmp_path, line + "\n"))

    @pytest.mark.parametrize(
        "line",
        [
            "alpha = 0", "alpha_mode = linear", "clamp_eps = 0.5", "sample_count = 1",
            "rho = 1.0", "seed = -3", "record_bytes = -1", "draw_size = 0",
            "seed = 4294967296",
        ],
    )
    def test_out_of_range_value_names_field(self, tmp_path, line):
        key = line.split(" ", 1)[0]
        with pytest.raises(ConfigError, match=key):
            parse_config(write_config(tmp_path, line + "\n"))

    @pytest.mark.parametrize(
        "lines",
        [
            "planted_rule = foo",
            "planted_m = 4\nplanted_relevant = 0,9",
            "planted_relevant = 0,1\nplanted_redundant = 2:5",
            "planted_modulus = 1",
            "planted_n = 10",
        ],
    )
    def test_planted_keys_checked_at_parse(self, tmp_path, lines):
        with pytest.raises(ConfigError, match="invalid value"):
            parse_config(write_config(tmp_path, lines + "\n"))

    def test_planted_keys_unused_by_csv_dataset(self, tmp_path):
        path = write_config(tmp_path, "dataset = csv\ncsv_path = d.csv\nplanted_rule = foo\n")
        assert parse_config(path).planted_rule == "foo"

    def test_redundant_map_syntax(self, tmp_path):
        path = write_config(
            tmp_path, "planted_m = 6\nplanted_relevant = 0,1\nplanted_redundant = 4:0,5:1\n"
        )
        assert parse_config(path).planted_redundant == {4: 0, 5: 1}


class TestRunCommand:
    def test_converged_run_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 0

        summary = read_rows(tmp_path / "out" / "summary.csv")
        header, row = summary
        record = dict(zip(header, row))
        assert record["converged"] == "1"
        # Compression is computed from |F| and m.
        expected = 100.0 * (1 - int(record["selected_count"]) / int(record["total_features"]))
        assert float(record["compression_pct"]) == pytest.approx(expected)

        # The planted relevant features are exactly what gets selected.
        selection = read_rows(tmp_path / "out" / "selection.csv")[1:]
        picked = [int(r[0]) for r in selection if r[2] == "1"]
        assert picked == [0, 1]

    def test_summary_consistent_with_rounds(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 0
        rounds = read_rows(tmp_path / "out" / "rounds.csv")
        summary = dict(zip(*read_rows(tmp_path / "out" / "summary.csv")))
        assert int(summary["rounds"]) == len(rounds) - 1
        assert summary["overhead_units"] == rounds[-1][4]
        assert summary["overhead_bytes"] == rounds[-1][5]
        # No reply was rejected.
        assert all(row[6] == "" for row in rounds[1:])

    def test_invalid_config_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + "beta = 1.5\n")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "beta" in err

    def test_negative_record_bytes_exit_one_before_running(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + f"record_bytes = -1\nout_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 1
        assert "record_bytes" in capsys.readouterr().err
        assert not (tmp_path / "out" / "selection.csv").exists()
        assert not (tmp_path / "out" / "rounds.csv").exists()

    def test_bad_planted_key_exit_one_before_running(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, BASE_CONFIG + f"planted_rule = foo\nout_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(cfg)]) == 1
        assert "label_rule" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_round_budget_exhaustion_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE_CONFIG + f"max_rounds = 1\nout_dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(cfg)]) == 2
        rounds = read_rows(tmp_path / "out" / "rounds.csv")
        assert len(rounds) == 2  # header + exactly one round

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("selection.csv", "rounds.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_outputs(self, tmp_path):
        # --seed acts exactly as the config key would.
        cfg = write_config(tmp_path, BASE_CONFIG)
        seeded = write_config(tmp_path, BASE_CONFIG.replace("seed = 5", "seed = 99"), "s.cfg")
        main(["run", str(cfg), "--out-dir", str(tmp_path / "a"), "--seed", "99"])
        main(["run", str(seeded), "--out-dir", str(tmp_path / "b")])
        for name in ("selection.csv", "rounds.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

        # A solved zero-fault run's trace need not depend on the seed, but the
        # seed-derived fault draws show in the participants column.
        faulty = write_config(tmp_path, BASE_CONFIG + "rho = 0.5\n", "f.cfg")
        main(["run", str(faulty), "--out-dir", str(tmp_path / "c")])
        main(["run", str(faulty), "--out-dir", str(tmp_path / "d"), "--seed", "99"])
        c, d = ([row[3] for row in read_rows(tmp_path / x / "rounds.csv")[1:]] for x in "cd")
        assert c != d

    def test_rejected_replies_listed_in_rounds_csv(self, tmp_path, monkeypatch):
        real = federation.client_round

        def truncating(client, p_global, params, round_index):
            raw = real(client, p_global, params, round_index)
            return raw[:-1] if client.client_id == 1 else raw

        monkeypatch.setattr(federation, "client_round", truncating)
        cfg = write_config(tmp_path, BASE_CONFIG + f"max_rounds = 3\nout_dir = {tmp_path / 'out'}\n")
        main(["run", str(cfg)])
        header, *rows = read_rows(tmp_path / "out" / "rounds.csv")
        assert header == ["round", "ks_p_value", "selected_count", "participants",
                          "cum_overhead_units", "cum_overhead_bytes", "rejected"]
        assert rows and all(row[3] == "0;1;2;3" and row[-1] == "1" for row in rows)

    def test_svg_plots_written(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + f"out_dir = {tmp_path / 'out'}\n")
        main(["run", str(cfg)])
        for name in ("probabilities.svg", "selected_per_round.svg"):
            text = (tmp_path / "out" / name).read_text()
            assert text.startswith("<svg")

    def test_centralized_mode(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE_CONFIG.replace("mode = federated", "mode = centralized")
            + f"out_dir = {tmp_path / 'out'}\n",
        )
        code = main(["run", str(cfg)])
        assert code in (0, 2)
        rounds = read_rows(tmp_path / "out" / "rounds.csv")
        # A centralized run is a single-client federation.
        assert all(r[3] == "0" for r in rounds[1:])


class TestBoundsCommand:
    CONFIG = """
dataset = planted
planted_m = 3
planted_n = 64
planted_relevant = 0,1
planted_rule = xor
sample_count = 4
alpha_mode = schedule
trials = 150
seed = 2
"""

    def test_single_row_sweep(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG + f"t_max = 1\nout_dir = {tmp_path / 'out'}\n")
        assert main(["bounds", str(cfg)]) == 0
        rows = read_rows(tmp_path / "out" / "bounds.csv")
        assert rows[0] == ["t_prime", "bound", "monte_carlo_rate"]
        assert len(rows) == 2

    def test_rate_below_bound_rowwise(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG + f"t_max = 3\nout_dir = {tmp_path / 'out'}\n")
        assert main(["bounds", str(cfg)]) == 0
        for _, bound, rate in read_rows(tmp_path / "out" / "bounds.csv")[1:]:
            assert float(rate) <= float(bound) + 0.05

    def test_fixed_alpha_one(self, tmp_path):
        # At alpha = 1 the bound stays at its round-1 value, 1 - p_hit, for every horizon.
        config = self.CONFIG.replace("alpha_mode = schedule", "alpha_mode = fixed\nalpha = 1.0")
        config = config.replace("trials = 150", "trials = 100")
        cfg = write_config(tmp_path, config + f"t_max = 5\nout_dir = {tmp_path / 'out'}\n")
        assert main(["bounds", str(cfg)]) == 0
        rows = read_rows(tmp_path / "out" / "bounds.csv")[1:]
        assert len(rows) == 5
        for _, bound, rate in rows:
            b = float(bound)
            assert float(rate) <= b + 3 * math.sqrt(b * (1.0 - b) / 100)

    @pytest.mark.parametrize(
        "alpha", ["alpha_mode = schedule", "alpha_mode = fixed\nalpha = 0.7"], ids=["schedule", "fixed-0.7"]
    )
    def test_rates_within_three_sigma_at_100000_trials(self, tmp_path, alpha):
        # 100 000 trials run in several blocks of miss_rate_curve; seed 404 also seeds the data.
        config = self.CONFIG.replace("alpha_mode = schedule", alpha)
        config = config.replace("trials = 150", "trials = 100000").replace("seed = 2", "seed = 404")
        cfg = write_config(tmp_path, config + f"t_max = 5\nout_dir = {tmp_path / 'out'}\n")
        assert main(["bounds", str(cfg)]) == 0
        rows = read_rows(tmp_path / "out" / "bounds.csv")[1:]
        assert len(rows) == 5
        for _, bound, rate in rows:
            b = float(bound)
            assert float(rate) <= b + 3 * math.sqrt(b * (1.0 - b) / 100_000)

    def test_negative_seed_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG + f"t_max = 1\nout_dir = {tmp_path / 'out'}\n")
        assert main(["bounds", str(cfg), "--seed", "-3"]) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDatasetSources:
    def test_csv_written_by_gen_planted(self, tmp_path):
        planted = (
            "planted_m = 6\nplanted_n = 512\nplanted_relevant = 0,1\nplanted_rule = xor\n"
            f"clients = 4\nseed = 5\ncsv_path = {tmp_path / 'data.csv'}\nlabel_column = y\n"
        )
        assert main(["gen-planted", str(write_config(tmp_path, planted, "gen.cfg"))]) == 0
        run_cfg = write_config(
            tmp_path,
            planted + f"dataset = csv\nbins = 3\nout_dir = {tmp_path / 'out'}\n",
            "run.cfg",
        )
        assert main(["run", str(run_cfg)]) == 0
        selection = read_rows(tmp_path / "out" / "selection.csv")[1:]
        assert len(selection) == 6
        assert [int(r[0]) for r in selection if r[2] == "1"] == [0, 1]

    def test_wesad_preset(self, tmp_path):
        cfg = write_config(
            tmp_path,
            f"dataset = preset\npreset = wesad\nclients = 4\nseed = 5\nout_dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(cfg)]) == 0
        selection = read_rows(tmp_path / "out" / "selection.csv")[1:]
        assert len(selection) == 8
        assert [int(r[0]) for r in selection if r[2] == "1"] == [1, 2, 5, 6]


class TestReadme:
    def test_names_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        missing = [f.name for f in fields(ExperimentConfig) if f"`{f.name}`" not in readme]
        assert missing == []


class TestGenPlantedCommand:
    def test_writes_loadable_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "dataset = planted\nplanted_m = 4\nplanted_n = 64\n"
            "planted_relevant = 0,1\nplanted_rule = xor\nseed = 1\n"
            f"out_dir = {tmp_path / 'out'}\n",
        )
        assert main(["gen-planted", str(cfg)]) == 0
        ds = load_csv(tmp_path / "out" / "planted.csv")
        assert (ds.n, ds.m) == (64, 4)

    def test_creates_csv_directory(self, tmp_path):
        target = tmp_path / "data" / "sub" / "planted.csv"
        cfg = write_config(
            tmp_path,
            "planted_m = 4\nplanted_n = 64\nplanted_relevant = 0,1\nseed = 1\n"
            f"csv_path = {target}\nout_dir = {tmp_path / 'out'}\n",
        )
        assert main(["gen-planted", str(cfg)]) == 0
        assert (load_csv(target).n, load_csv(target).m) == (64, 4)
        assert not (tmp_path / "out").exists()

    def test_label_column_named_like_a_feature_refused(self, tmp_path, capsys):
        target = tmp_path / "planted.csv"
        cfg = write_config(
            tmp_path,
            "planted_m = 4\nplanted_n = 64\nplanted_relevant = 0,1\nlabel_column = f0\n"
            f"csv_path = {target}\n",
        )
        assert main(["gen-planted", str(cfg)]) == 1
        assert "'f0'" in capsys.readouterr().err
        assert not target.exists()
