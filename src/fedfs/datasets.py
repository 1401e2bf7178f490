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


# Values drawn per block of planted noise columns, a 128 KB int64 temporary:
# 2**16 raised the PLANTED50 set-up's peak RSS by a third of a megabyte.
_NOISE_BLOCK = 2**14


def generate_planted(spec: PlantedSpec) -> DiscreteDataset:
    """Build the dataset described by a :class:`PlantedSpec`.

    The joint assignment of the relevant binary columns is balanced: each of
    the 2**k combinations appears floor(n / 2**k) times, any remainder drawn
    uniformly. By construction H(labels | relevant columns) is exactly 0.
    """
    rng = np.random.default_rng(spec.rng_seed)
    k = len(spec.relevant)
    combos = (np.arange(2**k, dtype=np.int64)[:, None] >> np.arange(k)) & 1
    reps = spec.n // combos.shape[0]
    rows = np.repeat(combos, reps, axis=0)
    remainder = spec.n - rows.shape[0]
    if remainder:
        extra = combos[rng.integers(0, combos.shape[0], size=remainder)]
        rows = np.vstack([rows, extra])
    rows = rows[rng.permutation(spec.n)]

    features = np.zeros((spec.n, spec.m), dtype=np.uint8)
    features[:, list(spec.relevant)] = rows
    features[:, list(spec.redundant)] = features[:, list(spec.redundant.values())]
    # One (k, n) draw gives the same values as k draws of n, column by column.
    noise = list(spec.noise)
    block = max(1, _NOISE_BLOCK // spec.n)
    for i in range(0, len(noise), block):
        cols = noise[i : i + block]
        features.T[cols] = rng.integers(0, 2, size=(len(cols), spec.n))

    modulus = 2 if spec.label_rule == "xor" else spec.modulus
    return DiscreteDataset(features, rows.sum(axis=1) % modulus)


def partition_iid(dataset: DiscreteDataset, count: int, rng_seed: int = 0) -> list[DiscreteDataset]:
    """Shuffle rows and deal them round-robin into ``count`` disjoint partitions.

    All partitions get exactly floor(n / count) rows; the remainder is
    dropped so partition sizes are uniform.
    """
    if count < 1:
        raise ValueError("partition count must be positive")
    if count > dataset.n:
        raise ValueError("cannot make more partitions than rows")
    kept = np.random.default_rng(rng_seed).permutation(dataset.n)[: dataset.n // count * count]
    return [
        DiscreteDataset(dataset.features[part], dataset.labels[part], dataset.feature_names)
        for part in (kept[i::count] for i in range(count))
    ]


def load_csv(path: str | Path, label_column: str = "label", bins: int = 10) -> DiscreteDataset:
    """Read a headered CSV into a dataset, each feature column cut into ``bins`` bins.

    The header is read with :mod:`csv`, the body with one ``np.loadtxt``.
    Errors name the file and, for a bad cell, its data row and column.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        header = next(csv.reader(handle), None)
        lines = handle.readlines()
    if header is None:
        raise ValueError(f"{path}: empty file")
    if header.count(label_column) != 1:
        raise ValueError(f"{path}: need one {label_column!r} column, found {header.count(label_column)}")
    if not lines:
        raise ValueError(f"{path}: no data rows")
    # csv reads a blank line as a row of no cells, which np.loadtxt would skip.
    if any(not line.strip("\r\n") for line in lines):
        _locate_bad_row(path, lines, len(header))
    try:
        matrix = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError as exc:
        _locate_bad_row(path, lines, len(header))
        raise ValueError(f"{path}: {exc}") from None
    label_idx = header.index(label_column)
    names = header[:label_idx] + header[label_idx + 1 :]
    try:
        codes = discretize(np.delete(matrix, label_idx, axis=1), bins)
        return DiscreteDataset(codes, matrix[:, label_idx], names)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _locate_bad_row(path: Path, lines: list[str], width: int) -> None:
    """Raise for the first data row with a wrong cell count or a cell np.loadtxt refuses, if any."""
    rows = []
    ragged = None
    for row in csv.reader(lines):
        if len(row) != width:
            ragged = row
            break
        rows.append(row)
    r = _first_refused(rows)
    if r is not None:
        c = _first_refused([[cell] for cell in rows[r]])
        raise ValueError(f"{path}: non-numeric cell at row {r}, column {c}")
    if ragged is not None:
        raise ValueError(f"{path}: row {len(rows)} has {len(ragged)} cells, expected {width}")


_BLOCK_ROWS = 64


def _first_refused(rows: list[list[str]]) -> int | None:
    """Index of the first of ``rows`` (all of one width) that np.loadtxt refuses, or None.

    Rows are read ``_BLOCK_ROWS`` per call, then one per call inside the first refused block.
    """
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        if not _numeric(block):
            return start + next(r for r, row in enumerate(block) if not _numeric([row]))
    return None


def _numeric(rows: list[list[str]]) -> bool:
    """Whether np.loadtxt reads each cell of ``rows``, quoted as one field, as a float."""
    lines = []
    for row in rows:
        if '"' in "".join(row):
            row = [cell.replace('"', '""') for cell in row]
        lines.append('"' + '","'.join(row) + '"')
    try:
        np.loadtxt(lines, delimiter=",", comments=None, quotechar='"')
    except ValueError:
        return False
    return True


def save_csv(dataset: DiscreteDataset, path: str | Path, label_column: str = "label") -> None:
    """Write a dataset as a headered CSV with one label column, which no feature may share."""
    if label_column in dataset.feature_names:
        raise ValueError(f"{path}: a feature is named like the label column {label_column!r}")
    rows = np.column_stack([dataset.features, dataset.labels]).tolist()
    write_csv(path, [*dataset.feature_names, label_column], rows)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Write a header row, then ``rows``, as CSV."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


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
