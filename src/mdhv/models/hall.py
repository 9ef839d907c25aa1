"""Singlet model on antipodal sphere pairs, correlated with both settings.

The ontic value is the pair (lam1, lam2 = -lam1), with responses
A = sign(lam1.a) and B = sign(lam2.b), sign(0) = +1.  The circles normal to
a and b cut the sphere into four lunes, one per joint outcome: those of ++
and -- have the angle theta between the axes, the others pi - theta, and a
lune of angle x has area 2x.  lam1's density is uniform on each lune: its
outcome's singlet weight (1 - A B a.b)/4 = sin^2(x/2)/2 over that area, so
the joint statistics are the singlet's (the antipodal delta is resolved
analytically, so densities are against the sphere surface measure of lam1).
Unlike the tag-based singlet model, this marginal depends on both parties'
axes for generic settings.  At exactly parallel or antiparallel axes two
lunes have angle 0 and carry nothing, and the density is uniform on the rest
of the sphere.

Sampling is rejection from the uniform sphere under the largest lune density.
"""

from __future__ import annotations

import math

import numpy as np

from ..sphere import great_circle_cells, uniform_sphere
from .base import ModelContext, SingletModel, rejection_sample


def _outcome(vecs: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outcome index 2 [A = -1] + [B = -1] of each row lam1."""
    # A = sign(lam1.a) and B = sign(lam2.b) = sign(-lam1.b), with sign(0) = +1:
    # A is -1 iff lam1.a < 0, and B is -1 iff lam1.b > 0
    return (vecs @ a < 0.0) * 2 + (vecs @ b > 0.0)


def _lune(s: float, c: float) -> float:
    """Density on a lune of angle x = atan2(s, c): sin^2(x/2)/2 over the area 2x, 0 at x = 0."""
    x = math.atan2(s, c)
    if x == 0.0:
        return 0.0
    # sin^2(x/2) = (1 - c)/2 = s^2/(2(1 + c)); each form is free of cancellation on its side
    half_sin_sq = (1.0 - c) / 2.0 if c <= 0.0 else s * s / (2.0 * (1.0 + c))
    return half_sin_sq / (4.0 * x)


def _lune_density(ctx: ModelContext) -> np.ndarray:
    """lam1's density on the lunes of ++, +-, -+ and --, in outcome index order."""
    a, b = ctx.measurement.alice, ctx.measurement.bob
    s = math.hypot(a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x)
    c = a.dot(b)
    thin, thick = _lune(s, c), _lune(s, -c)
    return np.array([thin, thick, thick, thin])


class HallSinglet(SingletModel):
    name = "hall"

    def sample_arrays(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> dict:
        a, b = ctx.measurement.alice.as_array(), ctx.measurement.bob.as_array()
        table = _lune_density(ctx)
        envelope = table.max()
        vec = rejection_sample(
            n,
            rng,
            batch=lambda todo: todo * 4.0 * np.pi * envelope * 1.2,
            propose=lambda k: uniform_sphere(rng, k),
            weight=lambda props: table[_outcome(props, a, b)],
            envelope=envelope,
        )
        return {"vec": vec}

    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        """Density of one particle's ontic vector at each row of arrays["vec"].

        The density is antipodally even, so both particles share the same
        marginal as a function on the sphere.
        """
        a, b = ctx.measurement.alice.as_array(), ctx.measurement.bob.as_array()
        return _lune_density(ctx)[_outcome(np.asarray(arrays["vec"], dtype=float), a, b)]

    def outcome_index_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        a, b = ctx.measurement.alice.as_array(), ctx.measurement.bob.as_array()
        return _outcome(np.asarray(arrays["vec"], dtype=float), a, b)

    def cells(self, *contexts: ModelContext) -> tuple[dict, np.ndarray]:
        """Mean points ({"vec"}) and areas of the cells cut by every context's two axes: on each,
        every context's two signs, and so its outcome, are fixed and its density constant."""
        axes = [axis.as_array() for ctx in contexts for axis in (ctx.measurement.alice, ctx.measurement.bob)]
        area, vec = great_circle_cells(axes)
        return {"vec": vec}, area

    def support_mass_exact(self, ctx_from: ModelContext, ctx_support: ModelContext) -> float:
        """1: every context's support is the whole sphere, up to the lunes of area 0
        of exactly parallel or antiparallel axes.  The thinnest lune of positive
        angle is at a.b = +-nextafter(1, 0), theta = 1.49e-8 rad, where the density
        is theta/16 = 9.31e-10, above TOL.support.  The integral over `cells` gives 1
        only to within rounding, after arranging four circles, so it is not taken."""
        return 1.0
