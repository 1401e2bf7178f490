import numpy as np
import pytest

from fedfs.datasets import PlantedSpec, generate_planted, partition_iid, preset_planted_spec
from fedfs.info import DiscreteDataset


@pytest.fixture
def xor_dataset() -> DiscreteDataset:
    """Two binary features, label = x0 XOR x1."""
    return DiscreteDataset(
        features=np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),
        labels=np.array([0, 1, 1, 0]),
    )


@pytest.fixture
def xor_noise_dataset() -> DiscreteDataset:
    """XOR on features 0,1 plus one independent noise feature (m=3)."""
    return generate_planted(
        PlantedSpec(m=3, n=64, relevant=(0, 1), label_rule="xor", rng_seed=2024)
    )


# The desk-scale planted layout used by the acceptance experiments:
# 4 relevant binary features under a sum-mod-4 label rule, 6 exact copies,
# 40 independent noise features.
PLANTED50 = PlantedSpec(
    m=50,
    n=4096,
    relevant=(0, 1, 2, 3),
    redundant={4: 0, 5: 1, 6: 2, 7: 3, 8: 0, 9: 1},
    label_rule="sum_mod_k",
    modulus=4,
    rng_seed=7,
)


@pytest.fixture(scope="session")
def planted50() -> DiscreteDataset:
    return generate_planted(PLANTED50)


@pytest.fixture(scope="session")
def mav_partitions() -> list[DiscreteDataset]:
    """The ``mav`` preset (2911 x 2166, 34 packed words a row) split over 4 clients."""
    return partition_iid(generate_planted(preset_planted_spec("mav")), 4)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    try:
        from test_acceptance import _RESULTS
    except ImportError:
        return
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in _RESULTS:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
