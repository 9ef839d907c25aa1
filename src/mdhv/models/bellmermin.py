"""Qubit model with uniform half-space supports on the labeled Bloch sphere.

For |psi> measured in a qubit basis with Bloch axes k_hat per label, the
ontic value is (lambda_k, lam_hat) with joint density
(1/4pi) step(k_hat.(psi_hat + lam_hat)) against counting x sphere surface
measure, with step(x) = 1 for x >= 0 and 0 otherwise (a zero dot counts as
+1): a uniform density on the spherical cap lam.k >= -psi.k, whose area
gives the label exactly its Born weight.
Response is the point mass on the tag's label.  Sampling draws the label with
its Born weight and then lam_hat area-uniformly on the matching cap.  The
labels come first (QubitBasisModel._labels), so `verify` draws the labels
alone: its counts read nothing else, and the label-only draw gives the same
labels bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..quantum import bloch_from_ket
from ..sphere import tangent_frame, uniform_cap
from .base import ModelContext, QubitBasisModel, _label_row, _qubit_basis_axes


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
        label = self._labels(ctx, n, rng)
        vec = np.empty((n, 3))
        for tag in (0, 1):  # area-uniform on each sampled label's cap
            rows = np.flatnonzero(label == tag)
            if rows.size:
                vec[rows] = uniform_cap(rng, rows.size, axes[tag], zmin[tag])
        return {"label": label, "vec": vec}

    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        axes, zmin = _caps(ctx)
        vec = np.asarray(arrays["vec"], dtype=float)
        label = np.asarray(arrays["label"], dtype=int)
        # step(k.(psi + lam)) read as lam.k >= -psi.k, without forming psi + lam
        in_cap = _label_row(axes @ vec.T >= zmin[:, None], label)
        return np.where(in_cap, 1.0 / (4.0 * np.pi), 0.0)

    def cells(self, *contexts: ModelContext) -> tuple[dict, np.ndarray] | None:
        """Mid-band unit points ({"label", "vec"}) and areas of each label's bands about its k_hat.

        For contexts that share the measurement, label k's bands are cut at
        every context's cap bound lam.k = -psi.k, and every density is
        constant on each; a band from z0 to z1 has area 2 pi (z1 - z0).
        Across measurements each label's caps lie about several axes, and
        their rims are small circles, so there are no cells.
        """
        caps = [_caps(ctx) for ctx in contexts]
        axes = caps[0][0]
        if not all(np.array_equal(axes, other) for other, _ in caps[1:]):
            return None
        ends = np.ones(2)
        z = np.sort(np.clip(np.column_stack([-ends, *(zmin for _, zmin in caps), ends]), -1.0, 1.0), axis=1)
        mid = 0.5 * (z[:, :-1] + z[:, 1:])  # (label, band)
        tangents = np.stack([tangent_frame(k)[0] for k in axes])
        vec = mid[..., None] * axes[:, None] + np.sqrt(1.0 - mid * mid)[..., None] * tangents[:, None]
        arrays = {"label": np.repeat([0, 1], mid.shape[1]), "vec": vec.reshape(-1, 3)}
        return arrays, 2.0 * np.pi * np.diff(z, axis=1).ravel()
