"""Two qubit models on labeled/unlabeled Bloch spheres.

KochenSpecker1: ontic value (lambda_k, lam_hat) with joint density
(1/pi) step(k_hat.lam) step(psi_hat.lam) (psi_hat.lam) per outcome label k of
a qubit projective basis, against counting x sphere surface measure; response
is the point mass on k.  Here and below step(x) is 1 for x >= 0 and 0
otherwise, so a zero dot counts as +1.  The joint is the normalized object:
it factors as Born(k) x (psi_hat's cosine lobe restricted to k_hat's
hemisphere).  Sampling follows that factorization, label first
(QubitBasisModel._labels), so `verify` draws the labels alone and its rows
test the Born label draw.  That the law gives the Born weights is shown
exactly by TestCells::test_label_masses_are_the_born_weights; that the
sampler draws the law, by TestSamplerMatchesDensity; and that the counted
labels are the sampler's, by the sample_outcomes contract test.

KochenSpecker2: preparation along a_hat measured along b_hat; ontic unit
vector with density step(lam.a)|lam.b|/pi against sphere surface measure,
response +b iff lam.b >= 0.  Sampling is rejection from the uniform
a-hemisphere with weight |lam.b|.
"""

from __future__ import annotations

import math

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
from ..sphere import BLOCK_ROWS, cosine_hemisphere, great_circle_cells, tangent_frame, uniform_hemisphere
from .base import (
    HiddenVariableModel,
    ModelContext,
    QubitBasisModel,
    _label_row,
    _qubit_basis_axes,
    rejection_sample,
)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a.b of two 3-vectors, summed left to right, so that no BLAS kernel can reorder it."""
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def _lobe_frame(psi_hat: np.ndarray, k0: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """c = k0.psi_hat and unit e, f with k0 = c psi_hat + sqrt(1 - c^2) e and f = psi_hat x e.

    e is the unit part of k0 across psi_hat, projected out twice so that it
    stays across psi_hat when k0 is nearly +-psi_hat; when k0 is +-psi_hat
    within TOL.structural, any e across psi_hat will do.
    """
    c = min(1.0, max(-1.0, _dot(k0, psi_hat)))
    e = k0 - c * psi_hat
    e -= _dot(e, psi_hat) * psi_hat
    norm = math.sqrt(_dot(e, e))
    e = e / norm if norm > TOL.structural else tangent_frame(psi_hat)[0]
    return c, e, np.cross(psi_hat, e)


def _squeeze_to_labels(vec: np.ndarray, label: np.ndarray, psi_hat: np.ndarray, k0: np.ndarray) -> None:
    """Move each lobe draw about psi_hat, in place, into its label's hemisphere of k0.

    The lobe projects to the uniform unit disk across psi_hat.  In the disk
    coordinates x = v.e, y = v.f of _lobe_frame, label 0's hemisphere
    v.k0 >= 0 is, for each y, the part x >= -c w of the chord |x| <= w,
    w = sqrt(1 - y^2).  The affine map x -> p x + (1 - p) w, p = (1 + c)/2,
    takes the chord onto that part with constant Jacobian, and the part is
    the same share p of its chord at every y, so y keeps its law: the
    squeezed draw is the lobe restricted to the hemisphere, exactly.
    Label 1's axis is -k0, whose frame is (-e, -f) and whose p is 1 - p; in
    label 0's frame its map is x -> (1 - p) x - p w.  The point is lifted
    back as x e + y f + sqrt(1 - x^2 - y^2) psi_hat.  One lobe draw serves
    each row, however rare its label, and the work goes BLOCK_ROWS rows at a
    time, as in mdhv.sphere, with every sum in a fixed order.
    """
    c, e, f = _lobe_frame(psi_hat, k0)
    p = (1.0 + c) / 2.0
    n = label.size
    x, y, z, tmp, col = (np.empty(min(n, BLOCK_ROWS)) for _ in range(5))
    for lo in range(0, n, BLOCK_ROWS):
        block, tag = vec[lo : lo + BLOCK_ROWS], label[lo : lo + BLOCK_ROWS]
        m = tag.size
        x, y, z, tmp, col = x[:m], y[:m], z[:m], tmp[:m], col[:m]
        for out, axis in ((x, e), (y, f)):
            np.multiply(block[:, 0], axis[0], out=out)
            out += np.multiply(block[:, 1], axis[1], out=tmp)
            out += np.multiply(block[:, 2], axis[2], out=tmp)
        np.subtract(1.0, np.multiply(y, y, out=z), out=z)  # w^2
        np.sqrt(z, out=col)
        # x <- a x + b w with (a, b) = (p, 1 - p) for label 0 and (1 - p, -p) for label 1
        x *= np.add(np.multiply(tag, 1.0 - 2.0 * p, out=tmp), p, out=tmp)
        x -= np.multiply(np.subtract(tag, 1.0 - p, out=tmp), col, out=tmp)
        z -= np.multiply(x, x, out=tmp)
        np.sqrt(np.maximum(z, 0.0, out=z), out=z)
        for j in range(3):
            np.multiply(x, e[j], out=col)
            col += np.multiply(y, f[j], out=tmp)
            col += np.multiply(z, psi_hat[j], out=tmp)
            block[:, j] = col


class KochenSpecker1(QubitBasisModel):
    name = "ks1"

    def sample_arrays(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> dict:
        """Labels first (n uniforms), then one lobe draw per row squeezed into its label's hemisphere.

        The stream gives the labels, then the lobe's z, then its azimuth.
        """
        psi_hat = bloch_from_ket(ctx.preparation).as_array()
        label = self._labels(ctx, n, rng)
        vec = cosine_hemisphere(rng, n, psi_hat)
        _squeeze_to_labels(vec, label, psi_hat, _qubit_basis_axes(ctx.measurement)[0])
        return {"label": label, "vec": vec}

    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        psi_hat = bloch_from_ket(ctx.preparation).as_array()
        axes = _qubit_basis_axes(ctx.measurement)
        vec = np.asarray(arrays["vec"], dtype=float)
        label = np.asarray(arrays["label"], dtype=int)
        on_k_side = _label_row(axes @ vec.T, label) >= 0.0
        return np.where(on_k_side, (1.0 / np.pi) * np.maximum(vec @ psi_hat, 0.0), 0.0)

    def cells(self, *contexts: ModelContext) -> tuple[dict, np.ndarray]:
        """Mean points ({"label", "vec"}) and areas of the cells cut by every context's k_0 and psi,
        and by psi_i - psi_j for each pair of contexts.

        Label 1's axis -k_0 cuts the same circle as k_0.  On each cell and label every density
        is affine, and so is the difference of any two, whose sign flips only across a cut.
        """
        psis = [bloch_from_ket(ctx.preparation).as_array() for ctx in contexts]
        k0s = [bloch_from_ket(ctx.measurement.kets[0]).as_array() for ctx in contexts]
        area, vec = great_circle_cells(k0s + psis + [p - q for i, p in enumerate(psis) for q in psis[i + 1 :]])
        return {"label": np.repeat([0, 1], len(area)), "vec": np.tile(vec, (2, 1))}, np.tile(area, 2)


class KochenSpecker2(HiddenVariableModel):
    name = "ks2"
    preparations = (StateVector,)
    measurements = (BlochVector,)

    LABELS = ("+b", "-b")

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

    def born_weights(self, ctx: ModelContext) -> np.ndarray:
        a, b = self._axes(ctx)
        d = float(np.clip(a @ b, -1.0, 1.0))
        return np.array([(1.0 + d) / 2.0, (1.0 - d) / 2.0])

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

    def cells(self, *contexts: ModelContext) -> tuple[dict, np.ndarray]:
        """Mean points ({"vec"}) and areas of the cells cut by every context's a and b.

        Every density is affine on each cell.  So is a difference of two
        where the contexts share b; across two axes |lam.b| - |lam.b'|
        changes sign inside cells.
        """
        a_axes, b_axes = zip(*(self._axes(ctx) for ctx in contexts))
        area, vec = great_circle_cells(a_axes + b_axes)
        return {"vec": vec}, area

    def outcome_index_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        _, b = self._axes(ctx)
        vec = np.asarray(arrays["vec"], dtype=float)
        return np.where(vec @ b >= 0.0, 0, 1)
