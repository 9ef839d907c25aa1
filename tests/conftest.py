import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mdhv.models import MODEL_REGISTRY, SingletFlag, create_model, stream
from mdhv.quantum import StateVector, orthonormal_basis_containing, random_basis, random_state

ALL_MODEL_NAMES = tuple(MODEL_REGISTRY)
# read from each model's declared preparations, so a new model joins the suites that fit it
STATE_MODEL_NAMES = tuple(n for n, cls in MODEL_REGISTRY.items() if StateVector in cls.preparations)
BIPARTITE_MODEL_NAMES = tuple(n for n, cls in MODEL_REGISTRY.items() if SingletFlag in cls.preparations)


@pytest.fixture(params=ALL_MODEL_NAMES)
def any_model(request):
    return create_model(request.param)


def rng_for(*key: int) -> np.random.Generator:
    return stream(key[0], key[1] if len(key) > 1 else 0)


def orthogonal_pair_contexts(model, rng, dim: int = 2):
    """Two orthogonal preparations sharing one measurement that resolves both."""
    M = random_basis(dim, rng)
    return model.basis_context(M.kets[0], M), model.basis_context(M.kets[1], M)


def turned(n: np.ndarray, angle: float, rng: np.random.Generator) -> np.ndarray:
    """Unit n turned by `angle` rad toward a random direction across it."""
    w = rng.normal(size=3)
    w -= (w @ n) * n
    return np.cos(angle) * n + np.sin(angle) * w / np.linalg.norm(w)


def cell_contexts(seed: int, count: int):
    """Qubit (psi, phi, M) triples: M contains psi in every fourth, phi in the next, else it is random."""
    rng = stream(seed)
    out = []
    for i in range(count):
        psi, phi = random_state(2, rng), random_state(2, rng)
        if i % 4 == 0:
            M = orthonormal_basis_containing(psi)
        elif i % 4 == 1:
            M = orthonormal_basis_containing(phi)
        else:
            M = random_basis(2, rng)
        out.append((psi, phi, M))
    return out
