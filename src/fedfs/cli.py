"""Command-line front end: run experiments and bound sweeps from config files.

Exit codes: 0 success/convergence, 1 configuration error, 2 round budget
exhausted without convergence. All errors print a line starting with
``error:`` so scripts can parse failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import bounds as bounds_mod
from .ce import select_features
from .config import ExperimentConfig, parse_config
from .datasets import generate_planted, load_csv, partition_iid, save_csv, write_csv
from .federation import UNIT_BYTES, ClientState, FaultModel, derive_seed, run_federation
from .info import DiscreteDataset
from .metrics import SelectionSummary, cache_accumulate, compression_ratio
from .plots import line_curve_svg, probability_bars_svg

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2

# Seed-derivation domains so dataset, partitioning, clients and faults get
# independent streams from the one global seed.
_DOMAIN_PARTITION = 101
_DOMAIN_CLIENT = 102
_DOMAIN_FAULT = 103


def _build_dataset(config: ExperimentConfig) -> DiscreteDataset:
    if config.dataset == "csv":
        assert config.csv_path is not None
        return load_csv(config.csv_path, config.label_column, config.bins)
    return generate_planted(config.planted_spec())


def _build_clients(dataset: DiscreteDataset, config: ExperimentConfig) -> list[ClientState]:
    if config.mode == "centralized":
        return [ClientState(0, dataset, rng_seed=config.seed, draw_size=config.draw_size)]
    parts = partition_iid(dataset, config.clients, derive_seed(config.seed, _DOMAIN_PARTITION))
    return [
        ClientState(
            i,
            part,
            rng_seed=derive_seed(config.seed, _DOMAIN_CLIENT, i),
            draw_size=config.draw_size,
        )
        for i, part in enumerate(parts)
    ]


def run_experiment(config: ExperimentConfig) -> int:
    """Run one centralized or federated experiment; write CSVs and plots."""
    dataset = _build_dataset(config)
    clients = _build_clients(dataset, config)
    fault = FaultModel(config.rho, derive_seed(config.seed, _DOMAIN_FAULT))
    report = run_federation(
        clients,
        config.ce_params(),
        fault=fault,
        tau1=config.tau1,
        tau2=config.tau2,
        max_rounds=config.max_rounds,
        threshold=config.threshold,
    )

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    selected = set(report.selected)
    write_csv(
        out_dir / "selection.csv",
        ["feature", "probability", "selected"],
        [[i, repr(float(p)), int(i in selected)] for i, p in enumerate(report.final_p)],
    )

    rounds_rows = []
    cum_units = 0
    for record in report.rounds:
        cum_units += record.overhead_units
        rounds_rows.append(
            [
                record.round_index,
                repr(float(record.p_value)),
                len(select_features(record.p_global, config.threshold)),
                ";".join(str(i) for i in record.participants),
                cum_units,
                cum_units * UNIT_BYTES,
                ";".join(str(i) for i in record.rejected),
            ]
        )
    write_csv(
        out_dir / "rounds.csv",
        ["round", "ks_p_value", "selected_count", "participants", "cum_overhead_units",
         "cum_overhead_bytes", "rejected"],
        rounds_rows,
    )

    record_bytes = config.record_bytes if config.record_bytes is not None else 4 * (dataset.m + 1)
    cache_total = sum(cache_accumulate(report, record_bytes).values())
    summary = SelectionSummary(frozenset(report.selected), dataset.m)
    write_csv(
        out_dir / "summary.csv",
        ["rounds", "selected_count", "total_features", "compression_pct",
         "overhead_units", "overhead_bytes", "cache_bytes", "converged"],
        [[
            report.total_rounds,
            len(report.selected),
            dataset.m,
            repr(float(compression_ratio(summary))),
            report.total_overhead_units,
            report.total_overhead_units * UNIT_BYTES,
            cache_total,
            int(report.converged),
        ]],
    )

    probability_bars_svg(report.final_p, config.threshold, out_dir / "probabilities.svg")
    line_curve_svg(
        [r.round_index for r in report.rounds],
        [len(select_features(r.p_global, config.threshold)) for r in report.rounds],
        out_dir / "selected_per_round.svg",
    )
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def run_bounds(config: ExperimentConfig) -> int:
    """Sweep the miss bound and its Monte-Carlo estimate over horizons 1..t_max."""
    dataset = _build_dataset(config)
    params = config.ce_params()
    optimum = bounds_mod.find_optimal_mask(dataset)
    rates = bounds_mod.miss_rate_curve(dataset, params, config.t_max, config.trials)
    alpha = None if config.alpha_mode == "schedule" else config.alpha
    rows = []
    for t in range(1, config.t_max + 1):
        bound = bounds_mod.centralized_miss_bound(
            bounds_mod.BoundInputs(
                t_prime=t,
                sample_count=config.sample_count,
                optimal_mask=tuple(int(b) for b in optimum),
                alpha=alpha,
            )
        )
        rows.append([t, repr(float(bound)), repr(float(rates[t - 1]))])
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "bounds.csv", ["t_prime", "bound", "monte_carlo_rate"], rows)
    return EXIT_OK


def gen_planted(config: ExperimentConfig) -> int:
    """Write a planted synthetic dataset as CSV."""
    dataset = generate_planted(config.planted_spec())
    target = Path(config.csv_path) if config.csv_path else Path(config.out_dir) / "planted.csv"
    target.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, target, config.label_column)
    return EXIT_OK


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = parse_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out_dir is not None:
        config.out_dir = args.out_dir
    config.validate()
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="fedfs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run a centralized or federated selection experiment"),
        ("bounds", "sweep the convergence bound against Monte-Carlo miss rates"),
        ("gen-planted", "write a planted synthetic dataset as CSV"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a key=value config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the global seed")
        cmd.add_argument("--out-dir", default=None, help="override the output directory")

    args = parser.parse_args(argv)
    try:
        config = _load(args)
        if args.command == "run":
            return run_experiment(config)
        if args.command == "bounds":
            return run_bounds(config)
        return gen_planted(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
