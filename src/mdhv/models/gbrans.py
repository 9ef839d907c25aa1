"""Discrete model with one ontic value per measurement outcome.

For a preparation rho (pure or mixed) measured with POVM {E_1..E_X}, the
ontic space is {lambda_1..lambda_X}: the density of lambda_j is the Born
weight tr(rho E_j) and the response is the point mass on outcome j.  Valid in
any finite dimension and for any outcome count.
"""

from __future__ import annotations

import numpy as np

from ..quantum import DensityMatrix, Povm, StateVector, random_basis, random_povm, random_state
from .base import ModelContext, OnticKind, OutcomeIndexModel


class GeneralizedBrans(OutcomeIndexModel):
    name = "gbrans"
    ontic_kind = OnticKind.DISCRETE_INDEX
    preparations = (StateVector, DensityMatrix)
    measurements = (Povm,)
    any_dimension = True

    def random_context(self, rng: np.random.Generator, dim: int = 2) -> ModelContext:
        prep = random_state(dim, rng)
        if rng.random() < 0.3:
            return ModelContext(prep, random_povm(dim, dim + 1, rng))
        return ModelContext(prep, random_basis(dim, rng))
