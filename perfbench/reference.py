"""Independent numpy references for the audit outputs.

Nothing here calls mdhv: every density is re-derived from the model
definitions (module docstrings of mdhv.models) and integrated on a fixed grid,
so an audit that agrees with these values agrees with the definitions, not
with itself.
"""

from __future__ import annotations

import numpy as np

FOUR_PI = 4.0 * np.pi


def bloch(ket: np.ndarray) -> np.ndarray:
    """Bloch vector of a normalized qubit ket (a, b)."""
    a, b = ket
    cross = np.conj(a) * b
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(a) ** 2 - abs(b) ** 2])


# ---------------------------------------------------------------------------
# Hall singlet marginal: midpoint rule in z, exact in the azimuth
# ---------------------------------------------------------------------------


def _hall_branches(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    c = float(np.clip(a @ b, -1.0, 1.0))
    t = 1.0 - 2.0 * np.arccos(c) / np.pi
    return (1.0 + c) / (1.0 + t), (1.0 - c) / (1.0 - t)


def hall_marginal_tv(a: np.ndarray, b: np.ndarray, b_alt: np.ndarray, nz: int = 50_000) -> float:
    """TV distance between Hall's one-particle marginals at (a, b) and (a, b_alt).

    The marginal is g(s)/4pi with s = sign(lam.a) sign(lam.b), piecewise
    constant between three great circles.  On each circle of latitude the
    sign changes sit at closed-form azimuths, so the azimuthal integral is
    exact and only the smooth z-profile is left to the midpoint rule.
    """
    axes = np.stack([a, b, b_alt])
    gp1, gm1 = _hall_branches(a, b)
    gp2, gm2 = _hall_branches(a, b_alt)
    z = -1.0 + (np.arange(nz) + 0.5) * (2.0 / nz)
    r = np.sqrt(1.0 - z * z)
    # lam.v = z v_z + r rho cos(phi - alpha) vanishes at phi = alpha +- arccos(-z v_z / (r rho))
    rho = np.hypot(axes[:, 0], axes[:, 1])
    alpha = np.arctan2(axes[:, 1], axes[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_arg = -np.outer(z, axes[:, 2]) / np.outer(r, rho)
    half = np.arccos(np.clip(cos_arg, -1.0, 1.0))
    crossing = np.abs(cos_arg) < 1.0
    cuts = np.concatenate([alpha + half, alpha - half], axis=1) % (2.0 * np.pi)
    cuts = np.where(np.concatenate([crossing, crossing], axis=1), cuts, 0.0)
    edges = np.sort(np.concatenate([np.zeros((nz, 1)), cuts, np.full((nz, 1), 2.0 * np.pi)], axis=1), axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    width = np.diff(edges, axis=1)
    lam = np.stack(
        [r[:, None] * np.cos(mid), r[:, None] * np.sin(mid), np.broadcast_to(z[:, None], mid.shape)], axis=-1
    )
    sa, sb, sb2 = (np.where(lam @ v >= 0.0, 1.0, -1.0) for v in axes)
    p1 = np.where(sa * sb > 0, gp1, gm1)
    p2 = np.where(sa * sb2 > 0, gp2, gm2)
    per_row = np.sum(np.abs(p1 - p2) * width, axis=1)  # integral over phi of |g1 - g2|
    integral = per_row.sum() * (2.0 / nz) / FOUR_PI
    return 0.5 * float(integral)


# ---------------------------------------------------------------------------
# Sphere-model densities on an equal-area midpoint grid
# ---------------------------------------------------------------------------


def sphere_grid(nz: int = 400, nphi: int = 800) -> tuple[np.ndarray, float]:
    """Cell centres of an nz x nphi equal-area (z, phi) grid and the cell area."""
    z = -1.0 + (np.arange(nz) + 0.5) * (2.0 / nz)
    phi = (np.arange(nphi) + 0.5) * (2.0 * np.pi / nphi)
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    r = np.sqrt(1.0 - zz * zz)
    pts = np.stack([r * np.cos(pp), r * np.sin(pp), zz], axis=-1).reshape(-1, 3)
    return pts, FOUR_PI / (nz * nphi)


def _step(x):
    return (x >= 0.0).astype(float)


def labeled_densities(model: str, psi: np.ndarray, basis: np.ndarray, pts: np.ndarray) -> list[np.ndarray]:
    """Per-label density of `psi` measured in the qubit basis (columns) on `pts`.

    ks1: (1/pi) step(k.lam) step(psi.lam) (psi.lam).  bellmermin:
    (1/4pi) step(k.(psi + lam)).  ks2 has no label; its density is
    step(lam.a) |lam.b| / pi with b the Bloch axis of the basis' first ket.
    """
    p_hat = bloch(psi)
    if model == "ks2":
        b = bloch(basis[:, 0])
        return [_step(pts @ p_hat) * np.abs(pts @ b) / np.pi]
    out = []
    for k in range(2):
        k_hat = bloch(basis[:, k])
        if model == "ks1":
            d = pts @ p_hat
            out.append(_step(pts @ k_hat) * _step(d) * np.maximum(d, 0.0) / np.pi)
        elif model == "bellmermin":
            out.append(_step(pts @ k_hat + k_hat @ p_hat) / FOUR_PI)
        else:
            raise ValueError(f"no sphere reference for {model!r}")
    return out


def sphere_overlap(model: str, psi, phi, basis, grid) -> float:
    """w_C = 1 - (1/2) sum over labels of the integral of |p_psi - p_phi|."""
    pts, area = grid
    dens_a = labeled_densities(model, psi, basis, pts)
    dens_b = labeled_densities(model, phi, basis, pts)
    total = sum(float(np.abs(x - y).sum()) for x, y in zip(dens_a, dens_b)) * area
    return 1.0 - 0.5 * total


def support_mass(model: str, psi, phi, basis, grid) -> float:
    """Mass of psi's ensemble inside the support of phi's ensemble."""
    pts, area = grid
    dens_a = labeled_densities(model, psi, basis, pts)
    dens_b = labeled_densities(model, phi, basis, pts)
    return float(sum((x * (y > 0.0)).sum() for x, y in zip(dens_a, dens_b)) * area)


# ---------------------------------------------------------------------------
# Discrete and interval models: exact sums
# ---------------------------------------------------------------------------


def born_weights(psi: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.abs(basis.conj().T @ psi) ** 2


def discrete_overlap(psi, phi, basis) -> float:
    """gbrans: lambda_j carries the Born weight of outcome j."""
    return 1.0 - 0.5 * float(np.abs(born_weights(psi, basis) - born_weights(phi, basis)).sum())


def interval_overlap(psi, phi, basis) -> float:
    """interval: bin i has length x_i = |<e_i|psi>| and constant density x_i."""

    def density(x: np.ndarray, amps: np.ndarray) -> np.ndarray:
        edges = np.concatenate([[0.0], np.cumsum(amps)])
        out = np.zeros_like(x)
        for i, amp in enumerate(amps):
            out[(x > edges[i]) & (x < edges[i + 1])] = amp
        return out

    xa = np.sqrt(born_weights(psi, basis))
    xb = np.sqrt(born_weights(phi, basis))
    edges = np.unique(np.concatenate([[0.0], np.cumsum(xa), np.cumsum(xb)]))
    mids = 0.5 * (edges[1:] + edges[:-1])
    return 1.0 - 0.5 * float(np.sum(np.abs(density(mids, xa) - density(mids, xb)) * np.diff(edges)))
