"""Flat key=value experiment configuration.

One ``key = value`` pair per line, ``#`` starts a comment. Every knob of the
centralized/federated experiments and the bound sweeps lives here so runs
are reproducible from a single file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .ce import CEParams, DEFAULT_CLAMP, DEFAULT_THRESHOLD
from .datasets import PlantedSpec, preset_planted_spec
from .federation import DEFAULT_MAX_ROUNDS, DEFAULT_TAU1, DEFAULT_TAU2, FaultModel


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the field."""


@dataclass
class ExperimentConfig:
    mode: str = "federated"
    dataset: str = "planted"
    csv_path: Optional[str] = None
    label_column: str = "label"
    bins: int = 10
    preset: Optional[str] = None
    planted_m: int = 8
    planted_n: int = 1024
    planted_relevant: tuple[int, ...] = (0, 1)
    planted_redundant: dict[int, int] = field(default_factory=dict)
    planted_rule: str = "xor"
    planted_modulus: int = 2
    clients: int = 10
    sample_count: int = 100
    beta: float = 0.9
    alpha: float = 0.7
    alpha_mode: str = "fixed"
    clamp_eps: float = DEFAULT_CLAMP
    tau1: float = DEFAULT_TAU1
    tau2: float = DEFAULT_TAU2
    rho: float = 0.0
    threshold: float = DEFAULT_THRESHOLD
    max_rounds: int = DEFAULT_MAX_ROUNDS
    draw_size: Optional[int] = None
    seed: int = 0
    out_dir: str = "out"
    record_bytes: Optional[int] = None
    t_max: int = 5
    trials: int = 1000

    def validate(self) -> None:
        checks = [
            ("mode", self.mode in ("centralized", "federated")),
            ("dataset", self.dataset in ("planted", "csv", "preset")),
            ("tau1", 0.0 < self.tau1 <= 1.0),
            ("tau2", self.tau2 >= 0.0),
            ("threshold", 0.5 < self.threshold < 1.0),
            ("max_rounds", self.max_rounds >= 1),
            ("clients", self.clients >= 1),
            ("bins", self.bins >= 2),
            ("t_max", self.t_max >= 1),
            ("trials", self.trials >= 100),
            # Seeds are derived from their low 32 bits, so a larger one would alias a smaller.
            ("seed", 0 <= self.seed < 2**32),
            ("draw_size", self.draw_size is None or self.draw_size >= 1),
            ("record_bytes", self.record_bytes is None or self.record_bytes >= 0),
        ]
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"invalid value for {name}: {getattr(self, name)!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ConfigError("csv_path is required when dataset = csv")
        if self.dataset == "preset" and self.preset not in ("mav", "wesad"):
            raise ConfigError(f"invalid value for preset: {self.preset!r}")
        # The CE, fault and planted knobs are range-checked by the types that use them.
        try:
            self.ce_params()
            FaultModel(self.rho)
            if self.dataset in ("planted", "preset"):
                self.planted_spec()
        except ValueError as exc:
            raise ConfigError(f"invalid value: {exc}") from None

    def ce_params(self) -> CEParams:
        return CEParams(
            sample_count=self.sample_count,
            beta=self.beta,
            alpha=self.alpha,
            alpha_mode=self.alpha_mode,
            clamp_eps=self.clamp_eps,
            rng_seed=self.seed,
        )

    def planted_spec(self) -> PlantedSpec:
        if self.dataset == "preset":
            assert self.preset is not None
            return preset_planted_spec(self.preset, rng_seed=self.seed)
        return PlantedSpec(
            m=self.planted_m,
            n=self.planted_n,
            relevant=self.planted_relevant,
            redundant=self.planted_redundant,
            label_rule=self.planted_rule,
            modulus=self.planted_modulus,
            rng_seed=self.seed,
        )


def _parse_index_list(value: str) -> tuple[int, ...]:
    return tuple(int(part) for part in value.split(",") if part.strip())


def _parse_index_map(value: str) -> dict[int, int]:
    mapping: dict[int, int] = {}
    for part in value.split(","):
        if part.strip():
            dup, src = part.split(":")
            mapping[int(dup)] = int(src)
    return mapping


_PARSERS_BY_ANNOTATION = {
    "int": int,
    "Optional[int]": int,
    "float": float,
    "str": str,
    "Optional[str]": str,
    "tuple[int, ...]": _parse_index_list,
    "dict[int, int]": _parse_index_map,
}

# The dataclass fields are the config schema: one key per field, parsed by its
# annotation. A field whose annotation has no parser fails here, at import.
_PARSERS = {f.name: _PARSERS_BY_ANNOTATION[f.type] for f in fields(ExperimentConfig)}


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file; raises :class:`ConfigError` on problems."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    config = ExperimentConfig()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            setattr(config, key, _PARSERS[key](value))
        except ValueError:
            raise ConfigError(f"invalid value for {key}: {value!r}") from None
    config.validate()
    return config
