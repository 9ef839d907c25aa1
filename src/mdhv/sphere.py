"""Vectorized unit-sphere sampling and Monte Carlo quadrature helpers.

All samplers consume a numpy Generator and return (n, 3) arrays of unit
vectors.  Directional samplers take the target axis as the local +z and embed
through a deterministic orthonormal frame, so identical streams give
identical draws.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tangent_frame",
    "embed_local",
    "uniform_sphere",
    "uniform_hemisphere",
    "cosine_hemisphere",
    "uniform_cap",
    "stratified_sphere_points",
    "bootstrap_stderr",
]

_RESAMPLES = 200


def tangent_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit tangents orthogonal to `axis` (deterministic choice)."""
    a = np.asarray(axis, dtype=float)
    helper = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(a, helper)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(a, t1)
    return t1, t2


def embed_local(axis: np.ndarray, z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Map local cylindrical coordinates (z along `axis`, azimuth phi) to world vectors."""
    t1, t2 = tangent_frame(axis)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return (
        np.outer(r * np.cos(phi), t1)
        + np.outer(r * np.sin(phi), t2)
        + np.outer(z, np.asarray(axis, dtype=float))
    )


def uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def uniform_hemisphere(rng: np.random.Generator, n: int, axis: np.ndarray) -> np.ndarray:
    """Area-uniform draw from the hemisphere {v : v.axis >= 0}."""
    z = rng.uniform(0.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return embed_local(axis, z, phi)


def cosine_hemisphere(rng: np.random.Generator, n: int, axis: np.ndarray) -> np.ndarray:
    """Draw from density (1/pi) (v.axis) on the hemisphere around `axis`."""
    z = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return embed_local(axis, z, phi)


def uniform_cap(rng: np.random.Generator, n: int, axis: np.ndarray, zmin: np.ndarray) -> np.ndarray:
    """Area-uniform draw from the cap {v : v.axis >= zmin}; zmin may be per-sample."""
    zmin = np.broadcast_to(np.asarray(zmin, dtype=float), (n,))
    u = rng.uniform(0.0, 1.0, size=n)
    z = zmin + u * (1.0 - zmin)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return embed_local(axis, z, phi)


def stratified_sphere_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """Jittered equal-area stratification of the sphere, with antipodal mirrors.

    Returns an even number m <= max(n, 2) of points of equal weight 4*pi/m;
    integrate f via mean(f)*4*pi.
    """
    base = n // 2
    k = max(1, int(np.sqrt(base)))
    kz, kphi = k, max(1, base // k)
    iz, iphi = np.meshgrid(np.arange(kz), np.arange(kphi), indexing="ij")
    uz = (iz.ravel() + rng.uniform(size=iz.size)) / kz
    uphi = (iphi.ravel() + rng.uniform(size=iphi.size)) / kphi
    z = 2.0 * uz - 1.0
    phi = 2.0 * np.pi * uphi
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return np.concatenate([pts, -pts], axis=0)


def bootstrap_stderr(values: np.ndarray, rng: np.random.Generator) -> float:
    """Bootstrap standard error of the mean of `values`, from _RESAMPLES resamples."""
    values = np.asarray(values, dtype=float)
    n = values.size
    means = np.empty(_RESAMPLES)
    for b in range(_RESAMPLES):
        means[b] = values[rng.integers(0, n, size=n)].mean()
    return float(means.std(ddof=1))
