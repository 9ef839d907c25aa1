"""Qubit model with uniform half-space supports on the labeled Bloch sphere.

For |psi> measured in a qubit basis with Bloch axes k_hat per label, the
ontic value is (lambda_k, lam_hat) with joint density
(1/4pi) step(k_hat.(psi_hat + lam_hat)), with step(x) = 1 for x >= 0 and 0
otherwise (a zero dot counts as +1): a uniform density on the spherical cap
lam.k >= -psi.k, whose area gives the label exactly its Born weight.
Response is the point mass on the tag's label.  Sampling draws the label with
its Born weight and then lam_hat area-uniformly on the matching cap.  The
labels come first, from the first n uniforms of the stream, so `verify`
draws the labels alone: its counts read nothing else, and the label-only
draw gives the same labels bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..quantum import bloch_from_ket, born_probability
from ..sphere import uniform_cap
from .base import ModelContext, QubitBasisModel, _label_row, _qubit_basis_axes, _shared_axes


def _labels(ctx: ModelContext, n: int, rng: np.random.Generator) -> np.ndarray:
    """n outcome tags, tag 0 with its Born weight, from the next n uniforms."""
    p0 = born_probability(ctx.preparation, ctx.measurement)[0]
    return (rng.random(n) >= p0).astype(int)


def _caps(ctx: ModelContext) -> tuple[np.ndarray, np.ndarray]:
    """Each label's Bloch axis k_hat (2, 3) and cap bound -psi.k: its cap is lam.k >= -psi.k."""
    psi_hat = bloch_from_ket(ctx.preparation).as_array()
    axes = _qubit_basis_axes(ctx.measurement)
    # an einsum because axes @ psi_hat rounds differently, moving seeded draws
    return axes, -np.einsum("ij,j->i", axes, psi_hat)


class BellMermin(QubitBasisModel):
    name = "bellmermin"

    def sample_arrays(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> dict:
        axes, zmin = _caps(ctx)
        label = _labels(ctx, n, rng)
        vec = np.empty((n, 3))
        for tag in (0, 1):  # area-uniform on each sampled label's cap
            rows = np.flatnonzero(label == tag)
            if rows.size:
                vec[rows] = uniform_cap(rng, rows.size, axes[tag], zmin[tag])
        return {"label": label, "vec": vec}

    def sample_outcomes(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.outcome_index_arrays({"label": _labels(ctx, n, rng)}, ctx)

    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        axes, zmin = _caps(ctx)
        vec = np.asarray(arrays["vec"], dtype=float)
        label = np.asarray(arrays["label"], dtype=int)
        # step(k.(psi + lam)) read as lam.k >= -psi.k, without forming psi + lam
        in_cap = _label_row(axes @ vec.T >= zmin[:, None], label)
        return np.where(in_cap, 1.0 / (4.0 * np.pi), 0.0)

    def support_mass_exact(self, ctx_from: ModelContext, ctx_support: ModelContext) -> float | None:
        """1 - sum_k max(0, psi.k - phi.k)/2 when both contexts share the measurement, else None.

        Tag k's caps about k_hat, lam.k >= -psi.k and lam.k >= -phi.k, are
        nested, so psi's tag-k mass inside phi's support is
        min(1 + psi.k, 1 + phi.k)/2; the tags' Born weights (1 + psi.k)/2 sum
        to 1.  Written this way, psi = phi gives exactly 1.
        """
        axes = _shared_axes(ctx_from, ctx_support)
        if axes is None:
            return None
        psi_hat = bloch_from_ket(ctx_from.preparation).as_array()
        phi_hat = bloch_from_ket(ctx_support.preparation).as_array()
        return 1.0 - float(np.maximum(0.0, axes @ psi_hat - axes @ phi_hat).sum()) / 2.0
