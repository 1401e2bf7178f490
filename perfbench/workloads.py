"""The benchmark's workloads: inputs made from a seed, one repetition, its checks.

A repetition is one operation. It runs a fixed amount of the fedfs
cross-entropy loop (a round budget, or the KS stop rule under a round cap)
and raises :class:`CheckFailed` when its output is invalid. Every call the
benchmark makes into fedfs goes through a module attribute, so that the
tracer can wrap it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from fedfs import bounds, ce, datasets, federation, info, metrics

THRESHOLD = 0.99

# Seed-derivation domains, as in the acceptance tests and the CLI, plus one
# for the dataset generator.
_DOMAIN_DATASET = 100
_DOMAIN_PARTITION = 101
_DOMAIN_CLIENT = 102
_DOMAIN_FAULT = 103


class CheckFailed(Exception):
    """A repetition finished but its output is not valid."""


def planted50_spec(rng_seed: int) -> datasets.PlantedSpec:
    """PLANTED50 of the acceptance tests: 4 relevant, 6 copies, 40 noise columns."""
    return datasets.PlantedSpec(
        m=50,
        n=4096,
        relevant=(0, 1, 2, 3),
        redundant={4: 0, 5: 1, 6: 2, 7: 3, 8: 0, 9: 1},
        label_rule="sum_mod_k",
        modulus=4,
        rng_seed=rng_seed,
    )


def mav_spec(rng_seed: int) -> datasets.PlantedSpec:
    return datasets.preset_planted_spec("mav", rng_seed=rng_seed)


def xor_noise_spec(rng_seed: int) -> datasets.PlantedSpec:
    """The criterion-6 dataset: XOR of columns 0 and 1 plus one noise column."""
    return datasets.PlantedSpec(m=3, n=64, relevant=(0, 1), label_rule="xor", rng_seed=rng_seed)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is "central" (``ce_round`` for ``rounds`` rounds), "federated"
    (``run_federation`` with ``max_rounds=rounds`` and the KS stop rule) or
    "bounds" (the ``fedfs bounds`` path with ``t_max=rounds``).
    """

    name: str
    kind: str
    spec: Callable[[int], datasets.PlantedSpec]
    sample_count: int
    rounds: int
    clients: int = 1
    rho: float = 0.0
    trials: int = 0
    alpha_mode: str = "fixed"


# Repetitions are kept near 1 s where the configuration allows, so that the
# calibration timed between them follows the host's speed. One federated
# round on `mav` is too few for the KS rule, which compares two rounds.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "planted50-central",
            "central",
            planted50_spec,
            sample_count=200,
            rounds=10,
        ),
        Workload(
            "planted50-fed",
            "federated",
            planted50_spec,
            sample_count=200,
            rounds=100,
            clients=10,
            rho=0.2,
        ),
        Workload(
            "mav-fed-wide",
            "federated",
            mav_spec,
            sample_count=20,
            rounds=1,
            clients=4,
        ),
        Workload(
            "bounds-mc",
            "bounds",
            xor_noise_spec,
            sample_count=4,
            rounds=5,
            trials=1000,
            alpha_mode="schedule",
        ),
    )
}


@dataclass
class Inputs:
    """What one set-up builds: the full dataset, and the clients of a federated run."""

    spec: datasets.PlantedSpec
    dataset: info.DiscreteDataset
    params: ce.CEParams
    clients: list[federation.ClientState] = field(default_factory=list)
    fault: Optional[federation.FaultModel] = None


@dataclass
class Outcome:
    """The result of one repetition."""

    masks: float  # Bernoulli masks sampled and scored
    fingerprint: str  # compared bit for bit with the first repetition
    selected: tuple[int, ...]
    report: Optional[federation.FederationReport] = None
    curve: Optional[list[float]] = None


def setup(w: Workload, seed: int) -> Inputs:
    """Build a workload's inputs from the seed: dataset, partitions, clients."""
    base = seed & 0xFFFFFFFF
    spec = w.spec(federation.derive_seed(base, _DOMAIN_DATASET))
    dataset = datasets.generate_planted(spec)
    params = ce.CEParams(
        sample_count=w.sample_count, beta=0.9, alpha=0.7, alpha_mode=w.alpha_mode, rng_seed=base
    )
    if w.kind != "federated":
        return Inputs(spec, dataset, params)
    parts = datasets.partition_iid(
        dataset, w.clients, rng_seed=federation.derive_seed(base, _DOMAIN_PARTITION)
    )
    clients = [
        federation.ClientState(i, part, rng_seed=federation.derive_seed(base, _DOMAIN_CLIENT, i))
        for i, part in enumerate(parts)
    ]
    fault = federation.FaultModel(w.rho, federation.derive_seed(base, _DOMAIN_FAULT))
    return Inputs(spec, dataset, params, clients, fault)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _check_probs(p: np.ndarray, eps: float) -> None:
    if not np.all(np.isfinite(p)) or p.min() < eps or p.max() > 1.0 - eps:
        raise CheckFailed(f"final p leaves [{eps}, {1.0 - eps}] or is not finite")


def repetition(w: Workload, inputs: Inputs) -> Outcome:
    """Run one operation of the workload and check its output."""
    params = inputs.params
    if w.kind == "central":
        p = ce.uniform_probs(inputs.dataset.m)
        for t in range(1, w.rounds + 1):
            p = ce.ce_round(inputs.dataset, p, params, t)
        _check_probs(p, params.clamp_eps)
        selected = tuple(ce.select_features(p, THRESHOLD))
        return Outcome(w.sample_count * w.rounds, _digest(p.tobytes(), selected), selected)

    if w.kind == "federated":
        report = federation.run_federation(
            inputs.clients, params, fault=inputs.fault, max_rounds=w.rounds, threshold=THRESHOLD
        )
        _check_probs(report.final_p, params.clamp_eps)
        messages = sum(len(r.participants) for r in report.rounds)
        fingerprint = _digest(
            report.final_p.tobytes(),
            report.selected,
            report.converged,
            [(r.participants, r.p_value, r.bytes_sent, r.overhead_units, r.p_global.tobytes()) for r in report.rounds],
        )
        return Outcome(w.sample_count * messages, fingerprint, tuple(report.selected), report=report)

    optimum = bounds.find_optimal_mask(inputs.dataset)
    curve = bounds.miss_rate_curve(inputs.dataset, params, w.rounds, w.trials)
    optimal = tuple(int(b) for b in optimum)
    for t in range(1, w.rounds + 1):
        bound = bounds.centralized_miss_bound(bounds.BoundInputs(t, w.sample_count, optimal))
        sigma = math.sqrt(bound * (1.0 - bound) / w.trials)
        if curve[t - 1] > bound + 3 * sigma:
            raise CheckFailed(f"miss rate {curve[t - 1]} exceeds bound {bound} + 3 sigma at t'={t}")
    # A trial samples in round t only if it missed every round before t.
    masks = w.sample_count * w.trials * (1.0 + sum(curve[:-1]))
    selected = tuple(int(i) for i in np.flatnonzero(optimum))
    return Outcome(masks, _digest(optimal, curve), selected, curve=curve)


def quality(inputs: Inputs, outcome: Outcome) -> dict[str, tuple[float, str]]:
    """Selection quality and traffic figures of one repetition's result, with units.

    A planted group is a relevant column together with its copies; excess
    counts selected columns beyond one per covered group. Figures of a layer
    the workload does not run read 0.
    """
    mask = np.zeros(inputs.dataset.m, dtype=np.int64)
    mask[list(outcome.selected)] = 1
    chosen = set(outcome.selected)
    groups = [
        {r} | {dup for dup, src in inputs.spec.redundant.items() if src == r}
        for r in inputs.spec.relevant
    ]
    covered = sum(1 for group in groups if group & chosen)
    report = outcome.report
    messages = rounds = converged = overhead = cache = uplink = dropped = 0.0
    if report is not None:
        messages = float(sum(len(r.participants) for r in report.rounds))
        rounds = float(report.total_rounds)
        converged = float(report.converged)
        overhead = float(report.total_overhead_units)
        record_bytes = 4 * (inputs.dataset.m + 1)  # the CLI's default record size
        cache = float(sum(metrics.cache_accumulate(report, record_bytes).values()))
        uplink = report.total_bytes / messages if messages else 0.0
        dropped = len(inputs.clients) * rounds - messages
    return {
        "selection_h_bits": (info.conditional_entropy(inputs.dataset, mask), "bits"),
        "excess_selected": (float(len(chosen) - covered), "count"),
        "uplink_bytes_per_msg": (uplink, "bytes"),
        "federation.messages": (messages, "count"),
        "federation.dropped": (dropped, "count"),
        "federation.rounds": (rounds, "count"),
        "federation.converged": (converged, "count"),
        "metrics.overhead_units": (overhead, "count"),
        "metrics.cache_bytes": (cache, "bytes"),
        "bounds.hit_frac": (1.0 - outcome.curve[-1] if outcome.curve else 0.0, "ratio"),
    }
