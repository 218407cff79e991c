from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def random_pure_state(rng: np.random.Generator, real: bool = False) -> np.ndarray:
    """Haar-ish random pure state as its density matrix |psi><psi|."""
    amp = rng.normal(size=4)
    if not real:
        amp = amp + 1j * rng.normal(size=4)
    amp /= np.linalg.norm(amp)
    return np.outer(amp, amp.conj())


def random_density_matrix(rng: np.random.Generator, rank: int = 4) -> np.ndarray:
    """Random mixed state from a Ginibre factor of the given rank."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
