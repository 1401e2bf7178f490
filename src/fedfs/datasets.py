"""Data ingestion, iid partitioning, and planted-feature synthetic generators.

The planted generator builds datasets with a known minimal informative
subset: the labels are an exact function of the relevant columns, redundant
columns are exact copies of relevant ones, and the rest is independent
noise. That gives desk-scale experiments a ground truth to verify against.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .info import DiscreteDataset, discretize


@dataclass(frozen=True)
class PlantedSpec:
    """Layout of a synthetic dataset with a planted minimal feature subset.

    ``relevant`` columns jointly determine the label via ``label_rule``
    ("xor" or "sum_mod_k" with ``modulus`` classes); ``redundant`` maps a
    duplicate column index to the relevant column it copies; every other
    column is independent uniform noise.
    """

    m: int
    n: int
    relevant: tuple[int, ...]
    redundant: Mapping[int, int] = field(default_factory=dict)
    label_rule: str = "xor"
    modulus: int = 2
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "relevant", tuple(self.relevant))
        object.__setattr__(self, "redundant", dict(self.redundant))
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if not self.relevant:
            raise ValueError("at least one relevant feature is required")
        claimed = set(self.relevant) | set(self.redundant)
        if len(claimed) != len(self.relevant) + len(self.redundant):
            raise ValueError("relevant and redundant indices must not overlap")
        if any(i < 0 or i >= self.m for i in claimed):
            raise ValueError("feature indices must lie in [0, m)")
        if any(src not in self.relevant for src in self.redundant.values()):
            raise ValueError("redundant columns must copy a relevant column")
        if self.label_rule not in ("xor", "sum_mod_k"):
            raise ValueError("label_rule must be 'xor' or 'sum_mod_k'")
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        # Balanced joint counts make the marginal-independence structure
        # exact rather than approximate.
        if self.label_rule == "xor" and self.n % (2 ** len(self.relevant)) != 0:
            raise ValueError(
                "xor rule requires n divisible by 2**len(relevant) for balanced counts"
            )

    @property
    def noise(self) -> tuple[int, ...]:
        claimed = set(self.relevant) | set(self.redundant)
        return tuple(i for i in range(self.m) if i not in claimed)


def generate_planted(spec: PlantedSpec) -> DiscreteDataset:
    """Build the dataset described by a :class:`PlantedSpec`.

    The joint assignment of the relevant binary columns is balanced: each of
    the 2**k combinations appears floor(n / 2**k) times, any remainder drawn
    uniformly. By construction H(labels | relevant columns) is exactly 0.
    """
    rng = np.random.default_rng(spec.rng_seed)
    k = len(spec.relevant)
    combos = np.array(
        [[(c >> bit) & 1 for bit in range(k)] for c in range(2**k)], dtype=np.int64
    )
    reps = spec.n // combos.shape[0]
    rows = np.repeat(combos, reps, axis=0)
    remainder = spec.n - rows.shape[0]
    if remainder:
        extra = combos[rng.integers(0, combos.shape[0], size=remainder)]
        rows = np.vstack([rows, extra])
    rows = rows[rng.permutation(spec.n)]

    features = np.zeros((spec.n, spec.m), dtype=np.uint8)
    for pos, col in enumerate(spec.relevant):
        features[:, col] = rows[:, pos]
    for dup, src in spec.redundant.items():
        features[:, dup] = features[:, src]
    for col in spec.noise:
        features[:, col] = rng.integers(0, 2, size=spec.n)

    total = rows.sum(axis=1)
    if spec.label_rule == "xor":
        labels = total % 2
    else:
        labels = total % spec.modulus
    return DiscreteDataset(features, labels)


def partition_iid(dataset: DiscreteDataset, count: int, rng_seed: int = 0) -> list[DiscreteDataset]:
    """Shuffle rows and deal them round-robin into ``count`` disjoint partitions.

    All partitions get exactly floor(n / count) rows; the remainder is
    dropped so partition sizes are uniform.
    """
    if count < 1:
        raise ValueError("partition count must be positive")
    if count > dataset.n:
        raise ValueError("cannot make more partitions than rows")
    order = np.random.default_rng(rng_seed).permutation(dataset.n)
    per_part = dataset.n // count
    kept = order[: per_part * count]
    return [
        DiscreteDataset(
            dataset.features[kept[i::count]],
            dataset.labels[kept[i::count]],
            dataset.feature_names,
        )
        for i in range(count)
    ]


def load_csv(
    path: str | Path,
    label_column: str = "label",
    bins: int = 10,
) -> DiscreteDataset:
    """Read a headered CSV into a dataset, each feature column cut into ``bins`` bins.

    Cells must be numeric; labels are taken as integers. Errors name the
    offending row and column.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if label_column not in header:
            raise ValueError(f"{path}: missing label column {label_column!r}")
        label_idx = header.index(label_column)
        rows: list[list[float]] = []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            parsed = []
            for c, cell in enumerate(row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(f"{path}: non-numeric cell at row {r}, column {c}") from None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    matrix = np.asarray(rows, dtype=np.float64)
    labels = matrix[:, label_idx]
    if np.any(labels != np.floor(labels)) or np.any(labels < 0):
        raise ValueError(f"{path}: label column must hold non-negative integers")
    feature_cols = [i for i in range(len(header)) if i != label_idx]
    names = tuple(header[i] for i in feature_cols)
    codes = discretize(matrix[:, feature_cols], bins)
    return DiscreteDataset(codes, labels.astype(np.int64), names)


def save_csv(dataset: DiscreteDataset, path: str | Path, label_column: str = "label") -> None:
    """Write a dataset as a headered CSV with one label column."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.feature_names) + [label_column])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([int(v) for v in row] + [int(label)])


def preset_planted_spec(preset: str, rng_seed: int = 0) -> PlantedSpec:
    """Synthetic stand-in matching a preset's feature count and scale.

    Only the shape (m, n) mirrors the reference datasets; the content is a
    planted construction with a known informative subset.
    """
    if preset == "mav":
        return PlantedSpec(
            m=2166,
            n=2911,
            relevant=(2160, 2161, 2162, 2163),
            redundant={0: 2160, 1: 2161, 2: 2162},
            label_rule="sum_mod_k",
            modulus=4,
            rng_seed=rng_seed,
        )
    if preset == "wesad":
        return PlantedSpec(
            m=8,
            n=4000,
            relevant=(1, 2, 5, 6),
            label_rule="sum_mod_k",
            modulus=5,
            rng_seed=rng_seed,
        )
    raise ValueError(f"unknown preset {preset!r}")
