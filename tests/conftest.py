import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mdhv.models import MODEL_REGISTRY, create_model, stream
from mdhv.quantum import random_basis

ALL_MODEL_NAMES = tuple(MODEL_REGISTRY)
STATE_MODEL_NAMES = ("gbrans", "interval", "ks1", "ks2", "bellmermin")
BIPARTITE_MODEL_NAMES = ("brans", "hall")


@pytest.fixture(params=ALL_MODEL_NAMES)
def any_model(request):
    return create_model(request.param)


def rng_for(*key: int) -> np.random.Generator:
    return stream(key[0], key[1] if len(key) > 1 else 0)


def orthogonal_pair_contexts(model, rng, dim: int = 2):
    """Two orthogonal preparations sharing one measurement that resolves both."""
    M = random_basis(dim, rng)
    return model.basis_context(M.kets[0], M), model.basis_context(M.kets[1], M)
