"""Discrete model with one ontic value per measurement outcome.

For a preparation rho (pure or mixed) measured with POVM {E_1..E_X}, the
ontic space is {lambda_1..lambda_X}: the density of lambda_j is the Born
weight tr(rho E_j) and the response is the point mass on outcome j.  Valid in
any finite dimension and for any outcome count.
"""

from __future__ import annotations

import numpy as np

from ..constants import TOL
from ..quantum import (
    DensityMatrix,
    Povm,
    StateVector,
    born_probability,
    random_basis,
    random_povm,
    random_state,
)
from .base import HiddenVariableModel, ModelContext, OnticKind, categorical


class GeneralizedBrans(HiddenVariableModel):
    name = "gbrans"
    ontic_kind = OnticKind.DISCRETE_INDEX
    any_dimension = True

    def validate_context(self, ctx: ModelContext) -> None:
        if not isinstance(ctx.preparation, (StateVector, DensityMatrix)):
            raise TypeError("preparation must be a StateVector or DensityMatrix")
        if not isinstance(ctx.measurement, Povm):
            raise TypeError("measurement must be a Povm")
        if ctx.preparation.dim != ctx.measurement.dim:
            raise ValueError("preparation and measurement dimensions differ")

    def random_context(self, rng: np.random.Generator, dim: int = 2) -> ModelContext:
        prep = random_state(dim, rng)
        if rng.random() < 0.3:
            return ModelContext(prep, random_povm(dim, dim + 1, rng))
        return ModelContext(prep, random_basis(dim, rng))

    def sample_arrays(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> dict:
        return {"j": categorical(born_probability(ctx.preparation, ctx.measurement), n, rng)}

    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        j = np.asarray(arrays["j"], dtype=int)
        p = born_probability(ctx.preparation, ctx.measurement)
        if j.size and (j.min() < 0 or j.max() >= p.size):
            raise IndexError(f"ontic index out of range for {p.size} outcomes")
        return p[j]

    def outcome_index_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        return np.asarray(arrays["j"], dtype=int)

    def cells(self, ctx_a: ModelContext, ctx_b: ModelContext) -> tuple[dict, np.ndarray]:
        """Every outcome index ({"j"}), each with width 1, for two contexts that share the measurement."""
        return {"j": np.arange(len(ctx_a.measurement))}, np.ones(len(ctx_a.measurement))

    def support_mass_exact(self, ctx_from: ModelContext, ctx_support: ModelContext) -> float:
        """Mass of p(.|ctx_from) on the support of p(.|ctx_support), exactly.

        Weights at or below the support threshold are structural zeros and
        contribute nothing, so disjoint supports give literally 0.0.
        """
        p = born_probability(ctx_from.preparation, ctx_from.measurement)
        q = born_probability(ctx_support.preparation, ctx_support.measurement)
        mask = (q > TOL.support) & (p > TOL.support)
        return float(p[mask].sum())
