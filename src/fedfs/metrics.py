"""Evaluation metrics: compression, network overhead, cache size."""

from __future__ import annotations

from dataclasses import dataclass

from .federation import UNIT_BYTES, FederationReport, exchange_units


@dataclass(frozen=True)
class OverheadInputs:
    """Traffic model terms: rounds, clients, nonzero values, bitmap words."""

    rounds: int
    clients: int
    nonzero_count: int
    bitmap_units: int

    def __post_init__(self) -> None:
        for name in ("rounds", "clients", "nonzero_count", "bitmap_units"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SelectionSummary:
    """A selected feature index set out of a total feature count."""

    selected: frozenset[int]
    total: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", frozenset(self.selected))
        if self.total < 1:
            raise ValueError("total feature count must be at least 1")
        if any(i < 0 or i >= self.total for i in self.selected):
            raise ValueError("selected indices must lie in [0, total)")


def compression_ratio(summary: SelectionSummary) -> float:
    """Percent of features eliminated by the selection: 100 * (1 - |F|/|D|)."""
    return 100.0 * (1.0 - len(summary.selected) / summary.total)


def network_overhead(inputs: OverheadInputs) -> dict[str, int]:
    """Total control traffic: R*L*2*(z+1+b) scalar units, and the byte view."""
    units = inputs.rounds * inputs.clients * exchange_units(inputs.nonzero_count, inputs.bitmap_units)
    return {"units": units, "bytes": units * UNIT_BYTES}


def cache_accumulate(report: FederationReport, record_bytes: int) -> dict[int, int]:
    """Per-client cache: bytes of data drawn locally across all rounds."""
    if record_bytes < 0:
        raise ValueError("record_bytes must be non-negative")
    totals: dict[int, int] = {}
    for record in report.rounds:
        for client_id, draw in record.draw_sizes.items():
            totals[client_id] = totals.get(client_id, 0) + draw * record_bytes
    return totals
