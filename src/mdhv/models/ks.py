"""Two qubit models on labeled/unlabeled Bloch spheres.

KochenSpecker1: ontic value (lambda_k, lam_hat) with joint density
(1/pi) step(k_hat.lam) step(psi_hat.lam) (psi_hat.lam) per outcome label k of
a qubit projective basis; response is the point mass on k.  Here and below
step(x) is 1 for x >= 0 and 0 otherwise, so a zero dot counts as +1.  The
joint is the normalized object (its per-label masses are the Born weights),
and sampling uses its exact factorization: lam_hat is cosine-weighted around
psi_hat and the label is read off the hemisphere of k_hat that contains it.

KochenSpecker2: preparation along a_hat measured along b_hat; ontic unit
vector with density step(lam.a)|lam.b|/pi, response +b iff lam.b >= 0.
Sampling is rejection from the uniform a-hemisphere with weight |lam.b|.
"""

from __future__ import annotations

import numpy as np

from ..constants import TOL
from ..quantum import (
    BlochVector,
    ProjectiveBasis,
    StateVector,
    bloch_from_ket,
    ket_from_bloch,
    random_bloch,
)
from ..sphere import cosine_hemisphere, uniform_hemisphere
from .base import (
    HiddenVariableModel,
    ModelContext,
    OnticKind,
    QubitBasisModel,
    _label_row,
    _qubit_basis_axes,
    _shared_axes,
    rejection_sample,
)


class KochenSpecker1(QubitBasisModel):
    name = "ks1"

    def sample_arrays(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> dict:
        psi_hat = bloch_from_ket(ctx.preparation).as_array()
        axes = _qubit_basis_axes(ctx.measurement)
        vec = cosine_hemisphere(rng, n, psi_hat)
        label = np.where(vec @ axes[0] >= 0.0, 0, 1)
        return {"label": label, "vec": vec}

    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        psi_hat = bloch_from_ket(ctx.preparation).as_array()
        axes = _qubit_basis_axes(ctx.measurement)
        vec = np.asarray(arrays["vec"], dtype=float)
        label = np.asarray(arrays["label"], dtype=int)
        on_k_side = _label_row(axes @ vec.T, label) >= 0.0
        return np.where(on_k_side, (1.0 / np.pi) * np.maximum(vec @ psi_hat, 0.0), 0.0)

    def support_mass_exact(self, ctx_from: ModelContext, ctx_support: ModelContext) -> float | None:
        """(1 + psi.phi)/2 when both contexts share the measurement, else None.

        The labels' hemispheres then partition the sphere and every draw
        carries the label of its own hemisphere, so the mass is that of
        phi's hemisphere lam.phi > 0 under the cosine lobe about psi: its
        projected area, (1 + cos theta)/2.
        """
        if _shared_axes(ctx_from, ctx_support) is None:
            return None
        psi_hat = bloch_from_ket(ctx_from.preparation).as_array()
        phi_hat = bloch_from_ket(ctx_support.preparation).as_array()
        return (1.0 + float(psi_hat @ phi_hat)) / 2.0


class KochenSpecker2(HiddenVariableModel):
    name = "ks2"
    ontic_kind = OnticKind.SPHERE

    LABELS = ("+b", "-b")

    def validate_context(self, ctx: ModelContext) -> None:
        if not isinstance(ctx.preparation, StateVector) or ctx.preparation.dim != 2:
            raise TypeError("preparation must be a qubit StateVector")
        if not isinstance(ctx.measurement, BlochVector):
            raise TypeError("measurement must be a single BlochVector axis")

    @staticmethod
    def context(a: BlochVector, b: BlochVector) -> ModelContext:
        """Context for a qubit prepared along a and measured along b."""
        return ModelContext(ket_from_bloch(a), b)

    def basis_context(self, state: StateVector, M: ProjectiveBasis) -> ModelContext:
        """The basis enters through its leading ket's Bloch axis."""
        return ModelContext(state, bloch_from_ket(M.kets[0]))

    def _axes(self, ctx: ModelContext) -> tuple[np.ndarray, np.ndarray]:
        return bloch_from_ket(ctx.preparation).as_array(), ctx.measurement.as_array()

    def outcome_labels(self, ctx: ModelContext) -> tuple[str, ...]:
        return self.LABELS

    def born_reference(self, ctx: ModelContext) -> dict[str, float]:
        a, b = self._axes(ctx)
        d = float(np.clip(a @ b, -1.0, 1.0))
        return {"+b": (1.0 + d) / 2.0, "-b": (1.0 - d) / 2.0}

    def random_context(self, rng: np.random.Generator, dim: int = 2) -> ModelContext:
        return self.context(random_bloch(rng), random_bloch(rng))

    def sample_arrays(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> dict:
        a, b = self._axes(ctx)
        vec = rejection_sample(
            n,
            rng,
            batch=lambda todo: todo * 2.2,
            propose=lambda k: uniform_hemisphere(rng, k, a),
            weight=lambda props: np.abs(props @ b),
            envelope=1.0,
        )
        return {"vec": vec}

    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        a, b = self._axes(ctx)
        vec = np.asarray(arrays["vec"], dtype=float)
        return np.where(vec @ a >= 0.0, np.abs(vec @ b) / np.pi, 0.0)

    def outcome_index_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        _, b = self._axes(ctx)
        vec = np.asarray(arrays["vec"], dtype=float)
        return np.where(vec @ b >= 0.0, 0, 1)

    def support_mass_exact(self, ctx_from: ModelContext, ctx_support: ModelContext) -> float | None:
        """(1 + a.a')/2 when the support's preparation axis a' is +-b, else None.

        b is ctx_from's measurement axis, and |a'.b| >= 1 - TOL.structural.
        The support of (a', b') is the hemisphere lam.a' >= 0, up to the null
        great circle lam.b' = 0.  For a' = +-b, ctx_from's mass there is its
        Born weight of +-b, (1 +- a.b)/2.
        """
        a, b = self._axes(ctx_from)
        a_support, _ = self._axes(ctx_support)
        if abs(float(a_support @ b)) < 1.0 - TOL.structural:
            return None
        return (1.0 + float(a @ a_support)) / 2.0
