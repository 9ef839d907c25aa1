"""Singlet model on antipodal sphere pairs, correlated with both settings.

The ontic value is the pair (lam1, lam2 = -lam1).  With c = a.b,
phi the angle between the axes, t = 1 - 2 phi/pi, and
s = sign((lam1.a)(lam1.b)), the density of lam1 over the sphere is

    (1/4pi) (1 + c s) / (1 + t s)

(the antipodal delta is resolved analytically, so the reference measure
of this ontic kind is the sphere measure of the first component).  Responses are
A = sign(lam1.a), B = sign(lam2.b); joint statistics equal the singlet's
(1 - x y a.b)/4.  Unlike the tag-based singlet model, this marginal depends
on both parties' axes for generic settings.

Sampling is rejection from the uniform sphere with the analytic envelope
max of the two branch values; aligned or anti-aligned axes (|a.b| = 1) are
the exact uniform-sphere limit and bypass rejection (the vanishing branch
sits on a vanishing region there, so the formula degenerates to 0/0).
"""

from __future__ import annotations

import numpy as np

from ..sphere import uniform_sphere
from .base import ModelContext, OnticKind, SingletModel, rejection_sample


def _same_sign(vecs: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """s = sign(lam.a) sign(lam.b) > 0 per row, with sign(0) = +1."""
    return (vecs @ a >= 0.0) == (vecs @ b >= 0.0)


class HallSinglet(SingletModel):
    name = "hall"
    ontic_kind = OnticKind.ANTIPODAL_PAIR

    # -- marginal machinery ---------------------------------------------------

    def _branch_values(self, ctx: ModelContext) -> tuple[float, float, bool]:
        """(value on s=+1, value on s=-1, degenerate?) of the lam1 density * 4pi."""
        a, b = ctx.measurement.alice, ctx.measurement.bob
        c = float(np.clip(a.dot(b), -1.0, 1.0))
        if abs(c) == 1.0:
            return 1.0, 1.0, True
        phi = float(np.arccos(c))
        t = 1.0 - 2.0 * phi / np.pi
        return (1.0 + c) / (1.0 + t), (1.0 - c) / (1.0 - t), False

    # -- model interface --------------------------------------------------------

    def sample_arrays(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> dict:
        g_plus, g_minus, degenerate = self._branch_values(ctx)
        if degenerate:
            return {"vec": uniform_sphere(rng, n)}
        a = ctx.measurement.alice.as_array()
        b = ctx.measurement.bob.as_array()
        envelope = max(g_plus, g_minus)
        vec = rejection_sample(
            n,
            rng,
            batch=lambda todo: todo * envelope * 1.2,
            propose=lambda k: uniform_sphere(rng, k),
            weight=lambda props: np.where(_same_sign(props, a, b), g_plus, g_minus),
            envelope=envelope,
        )
        return {"vec": vec}

    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        """Density of one particle's ontic vector at each row of arrays["vec"].

        The density is antipodally even, so both particles share the same
        marginal as a function on the sphere.
        """
        g_plus, g_minus, _ = self._branch_values(ctx)
        a = ctx.measurement.alice.as_array()
        b = ctx.measurement.bob.as_array()
        vecs = np.asarray(arrays["vec"], dtype=float)
        return np.where(_same_sign(vecs, a, b), g_plus, g_minus) / (4.0 * np.pi)

    def outcome_index_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        vec = np.asarray(arrays["vec"], dtype=float)
        a = ctx.measurement.alice.as_array()
        b = ctx.measurement.bob.as_array()
        # A = sign(lam1.a) and B = sign(lam2.b) = sign(-lam1.b), with sign(0) = +1:
        # A is -1 iff lam1.a < 0, and B is -1 iff lam1.b > 0
        return (vec @ a < 0.0) * 2 + (vec @ b > 0.0)

    def support_mass_exact(self, ctx_from: ModelContext, ctx_support: ModelContext) -> float:
        """1: every context's support is the whole sphere.

        The density is uniform at |a.b| = 1.  Near it, at angle theta, the
        shrinking branch is about theta/16, smallest at a.b = +-nextafter(1, 0):
        9.31e-10 at theta = 1.49e-8 rad, above TOL.support.
        """
        return 1.0
