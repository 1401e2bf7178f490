"""Round-based federated feature selection protocol.

A server holds a global Bernoulli probability vector over features. Each
synchronous round every non-faulty client runs one local cross-entropy round
from that vector on its private partition and replies with the bytes of a
sparse message; clients keep no state between rounds. The server decodes the
bytes it counts, drops a malformed reply or one naming another sender,
averages the rest's float32 values weighted by local dataset size, and stops
when successive global vectors pass a Kolmogorov-Smirnov stability check.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .ce import (
    DEFAULT_CLAMP,
    DEFAULT_THRESHOLD,
    CEParams,
    ce_round,
    clamp_probs,
    select_features,
    uniform_probs,
)
from .info import DiscreteDataset

DEFAULT_TAU1 = 0.995
DEFAULT_TAU2 = 1e-6
DEFAULT_MAX_ROUNDS = 200

_HEADER = struct.Struct("<IQI")  # client_id, local sample count, nonzero count
UNIT_BYTES = 4  # one scalar slot on the wire: a float32 value or a bitmap word


class ProtocolError(ValueError):
    """Raised on malformed messages or mismatched feature counts."""


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed derived from a tuple of integers.

    Used to give every (client, round) pair its own reproducible stream, so
    results do not depend on the order in which client rounds execute.
    """
    return int(np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts]).generate_state(2).view(np.uint64)[0])


@dataclass(frozen=True)
class ClientState:
    """One simulated client: a private data partition and its stream seed."""

    client_id: int
    dataset: DiscreteDataset
    rng_seed: int = 0
    draw_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.draw_size is not None and self.draw_size < 1:
            raise ValueError("draw_size must be positive")


@dataclass(frozen=True, eq=False)
class UpdateMessage:
    """A decoded and checked client reply: its header and the length-m vector it carries."""

    client_id: int
    sample_count: int
    nonzero_count: int
    values: np.ndarray


def encode_message(
    client_id: int,
    p: np.ndarray,
    sample_count: int,
    eps: float = DEFAULT_CLAMP,
) -> bytes:
    """Wire bytes of one reply: header, bitmap, then the kept entries as float32.

    The header is ``<IQI`` (client id, local sample count, nonzero count z).
    Bit i of the bitmap (LSB-first within each byte) marks that entry i was
    sent; entries at or below the clamp floor are left out and decode as
    zero. The z kept entries follow as little-endian float32. Nothing is
    checked here: the input is a clamped probability vector.
    """
    p = np.asarray(p, dtype=np.float64)
    keep = p > eps
    kept = p[keep]
    bitmap = np.packbits(keep, bitorder="little").tobytes()
    return _HEADER.pack(client_id, sample_count, kept.size) + bitmap + kept.astype("<f4").tobytes()


def decode_message(raw: bytes, m: int) -> UpdateMessage:
    """Decode one reply into a length-m vector; a malformed one raises ``ProtocolError``.

    Omitted positions are restored as 0 and kept ones as their float32 value.
    """
    start = _HEADER.size + (m + 7) // 8
    if len(raw) < start:
        raise ProtocolError("message shorter than header plus bitmap")
    client_id, sample_count, z = _HEADER.unpack_from(raw, 0)
    if len(raw) - start != UNIT_BYTES * z:
        raise ProtocolError(f"expected {z} float32 values, got {len(raw) - start} bytes")
    bitmap = np.frombuffer(raw, np.uint8, count=start - _HEADER.size, offset=_HEADER.size)
    bits = np.unpackbits(bitmap, bitorder="little")
    if bits[m:].any():
        raise ProtocolError(f"bitmap marks positions beyond m={m}")
    keep = bits[:m].astype(bool)
    if np.count_nonzero(keep) != z:
        raise ProtocolError("bitmap popcount must equal nonzero probability count")
    if sample_count < 1:
        raise ProtocolError("sample_count must be positive")
    kept = np.frombuffer(raw, "<f4", count=z, offset=start)
    # A NaN fails both comparisons, so this also refuses non-finite values.
    if not np.all((0.0 <= kept) & (kept <= 1.0)):
        raise ProtocolError("probabilities must be finite and in [0, 1]")
    values = np.zeros(m, dtype=np.float64)
    values[keep] = kept
    return UpdateMessage(client_id, sample_count, z, values)


def exchange_units(nonzero_count: int, bitmap_units: int) -> int:
    """Scalar slots of one client exchange: 2*(z + 1 + b).

    The z nonzero values, one weight slot and b bitmap words, doubled for
    the downlink/uplink pair.
    """
    return 2 * (nonzero_count + 1 + bitmap_units)


def message_overhead_units(message: UpdateMessage, m: int) -> int:
    """Scalar-slot traffic cost of one exchange involving this message."""
    return exchange_units(message.nonzero_count, math.ceil((m + 7) // 8 / UNIT_BYTES))


def client_round(
    client: ClientState,
    p_global: np.ndarray,
    params: CEParams,
    round_index: int,
) -> bytes:
    """One local round from the global vector on local data; returns the wire reply.

    Pure: the client is not modified. If ``draw_size`` is set, the client
    draws that many rows with replacement from its partition and optimizes
    on the draw; the reported sample count is always the full partition
    size.
    """
    p_global = np.asarray(p_global, dtype=np.float64)
    if p_global.shape[0] != client.dataset.m:
        raise ProtocolError("global vector length does not match client feature count")
    data = client.dataset
    if client.draw_size is not None:
        rng = np.random.default_rng([client.rng_seed & 0xFFFFFFFF, round_index, 1])
        rows = rng.integers(0, data.n, size=client.draw_size)
        data = DiscreteDataset(data.features[rows], data.labels[rows], data.feature_names)
    local_params = replace(params, rng_seed=derive_seed(params.rng_seed, client.rng_seed))
    p_new = ce_round(data, p_global, local_params, round_index)
    return encode_message(client.client_id, p_new, client.dataset.n, params.clamp_eps)


def aggregate(messages: Sequence[UpdateMessage]) -> np.ndarray:
    """Average the decoded client vectors, weighted by local dataset size."""
    if not messages:
        raise ProtocolError("cannot aggregate an empty message list")
    counts = np.array([msg.sample_count for msg in messages], dtype=np.float64)
    weights = counts / counts.sum()
    return weights @ np.stack([msg.values for msg in messages])


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov p-value.

    D is the sup-difference of the two empirical CDFs over the merged
    support; the p-value is the alternating exponential series evaluated at
    lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D with effective size
    ne = na*nb/(na+nb), truncated once terms drop below 1e-12.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    support = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, support, side="right") / a.size
    cdf_b = np.searchsorted(b, support, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    ne = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    if lam < 1e-3:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 100001):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        sign = -sign
        if term < 1e-12:
            break
    return min(max(2.0 * total, 0.0), 1.0)


def check_convergence(v: float, v_old: float, tau1: float = DEFAULT_TAU1, tau2: float = DEFAULT_TAU2) -> bool:
    """Stable when the p-value is high and barely moved since the last round."""
    return v >= tau1 and abs(v - v_old) <= tau2


@dataclass(frozen=True)
class FaultModel:
    """Per-round, per-client Bernoulli fault draws with rate rho."""

    rho: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")

    def is_faulty(self, client_id: int, round_index: int) -> bool:
        if self.rho == 0.0:
            return False
        rng = np.random.default_rng([self.rng_seed & 0xFFFFFFFF, client_id, round_index])
        return bool(rng.random() < self.rho)


@dataclass
class RoundRecord:
    round_index: int
    participants: list[int]
    p_global: np.ndarray
    p_value: float
    bytes_sent: int
    overhead_units: int
    draw_sizes: dict[int, int] = field(default_factory=dict)
    rejected: list[int] = field(default_factory=list)


@dataclass
class FederationReport:
    rounds: list[RoundRecord]
    converged: bool
    final_p: np.ndarray
    selected: list[int]

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_overhead_units(self) -> int:
        return sum(r.overhead_units for r in self.rounds)

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_sent for r in self.rounds)


def run_federation(
    clients: Sequence[ClientState],
    params: CEParams,
    fault: FaultModel = FaultModel(),
    tau1: float = DEFAULT_TAU1,
    tau2: float = DEFAULT_TAU2,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    threshold: float = DEFAULT_THRESHOLD,
) -> FederationReport:
    """Drive the full server loop until KS convergence or the round budget.

    Every round each non-faulty client runs one local round from the current
    global vector; faulty clients send nothing and rejoin in a later round.
    The server averages the float32 values it decodes from the reply bytes it
    counts, leaving out (and listing in ``rejected``) a reply that raises
    ``ProtocolError`` or whose header names another client; a round with
    nothing to average keeps the vector. A ``tau1`` outside (0, 1], a negative
    ``tau2``, a ``max_rounds`` below 1 and a ``threshold`` that
    :func:`select_features` refuses are refused before round 1.
    """
    if not clients:
        raise ValueError("need at least one client")
    if not 0.0 < tau1 <= 1.0:
        raise ValueError("tau1 must be in (0, 1]")
    if not tau2 >= 0.0:
        raise ValueError("tau2 must be non-negative")
    if max_rounds < 1:
        raise ValueError("max_rounds must be positive")
    m = clients[0].dataset.m
    for client in clients:
        if client.dataset.m != m:
            raise ProtocolError("all client partitions must share the feature count")

    p_global = uniform_probs(m)
    select_features(p_global, threshold)  # refuses a bad threshold before round 1
    v = 0.0
    rounds: list[RoundRecord] = []
    converged = False

    for r in range(1, max_rounds + 1):
        participants = [c for c in clients if not fault.is_faulty(c.client_id, r)]
        replies = [client_round(c, p_global, params, r) for c in participants]
        messages, rejected = [], []
        for c, raw in zip(participants, replies):
            try:
                message = decode_message(raw, m)
            except ProtocolError:
                message = None
            if message is not None and message.client_id == c.client_id:
                messages.append(message)
            else:
                rejected.append(c.client_id)

        p_old = p_global
        if messages:
            p_global = clamp_probs(aggregate(messages), params.clamp_eps)
        v_old = v
        v = ks_two_sample(p_old, p_global)
        rounds.append(
            RoundRecord(
                round_index=r,
                participants=[c.client_id for c in participants],
                p_global=p_global.copy(),
                p_value=v,
                bytes_sent=sum(len(raw) for raw in replies),
                overhead_units=sum(message_overhead_units(msg, m) for msg in messages),
                draw_sizes={
                    c.client_id: (c.draw_size if c.draw_size is not None else c.dataset.n)
                    for c in participants
                },
                rejected=rejected,
            )
        )
        if check_convergence(v, v_old, tau1, tau2):
            converged = True
            break

    return FederationReport(
        rounds=rounds,
        converged=converged,
        final_p=p_global,
        selected=select_features(p_global, threshold),
    )
