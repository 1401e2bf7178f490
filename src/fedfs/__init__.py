"""Federated feature selection via cross-entropy optimization.

Clients holding private partitions of a labeled dataset collaboratively
search for a minimal informative feature subset: each runs local
cross-entropy rounds over Bernoulli selection masks scored by conditional
entropy, and a server aggregates their probability vectors until a
Kolmogorov-Smirnov stability test declares convergence.
"""

from .info import (
    DiscreteDataset,
    conditional_entropy,
    discretize,
    entropy,
    mutual_information,
)
from .ce import (
    CEParams,
    alpha_schedule,
    ce_round,
    ce_update,
    compute_gamma,
    sample_masks,
    select_features,
    update_probabilities,
)
from .federation import (
    ClientState,
    FaultModel,
    FederationReport,
    UpdateMessage,
    aggregate,
    check_convergence,
    client_round,
    decode_message,
    encode_message,
    ks_two_sample,
    run_federation,
)
from .datasets import PlantedSpec, generate_planted, load_csv, partition_iid, save_csv
from .metrics import (
    OverheadInputs,
    SelectionSummary,
    accuracy,
    cache_accumulate,
    compression_ratio,
    network_overhead,
)
from .bounds import BoundInputs, centralized_miss_bound

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
