"""Independent oracles used to freeze expected values.

Everything here is plain complex matrix arithmetic or midpoint sphere
quadrature written against numpy only, deliberately not reusing the library's
own code paths.
"""

from __future__ import annotations

import itertools

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def spin_projector(axis: np.ndarray, sign: int) -> np.ndarray:
    """(I + sign * axis.sigma)/2."""
    return 0.5 * (ID2 + sign * (axis[0] * SX + axis[1] * SY + axis[2] * SZ))


def singlet_prob(a: np.ndarray, b: np.ndarray, i: int, j: int) -> float:
    """Joint outcome probability from the explicit 4-dim projector."""
    op = np.kron(spin_projector(a, i), spin_projector(b, j))
    return float(np.vdot(SINGLET, op @ SINGLET).real)


def singlet_expectation_sum(a: np.ndarray, b: np.ndarray) -> float:
    return sum(i * j * singlet_prob(a, b, i, j) for i in (+1, -1) for j in (+1, -1))


def born_trace(rho: np.ndarray, effect: np.ndarray) -> float:
    return float(np.trace(rho @ effect).real)


def sphere_grid(nz: int = 400, nphi: int = 400) -> tuple[np.ndarray, float]:
    """Midpoint equal-area cells: (points (n,3), area per cell)."""
    z = (np.arange(nz) + 0.5) / nz * 2.0 - 1.0
    phi = (np.arange(nphi) + 0.5) / nphi * 2.0 * np.pi
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    r = np.sqrt(np.maximum(0.0, 1.0 - zz**2))
    pts = np.stack([r * np.cos(pp), r * np.sin(pp), zz], axis=-1).reshape(-1, 3)
    return pts, 4.0 * np.pi / (nz * nphi)


def quad_sphere(f, nz: int = 400, nphi: int = 400) -> float:
    pts, area = sphere_grid(nz, nphi)
    return float(np.sum(f(pts)) * area)


def hall_marginal(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One particle's ontic marginal of the antipodal singlet model."""
    c = float(np.clip(a @ b, -1.0, 1.0))
    if abs(abs(c) - 1.0) < 1e-12:
        return np.full(pts.shape[0], 1.0 / (4.0 * np.pi))
    phi = np.arccos(c)
    t = 1.0 - 2.0 * phi / np.pi
    s = np.where((pts @ a) * (pts @ b) >= 0.0, 1.0, -1.0)
    return (1.0 + c * s) / (1.0 + t * s) / (4.0 * np.pi)


def hall_tv(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, nz: int = 800, nphi: int = 800) -> float:
    """Total variation between the lam marginals of contexts (a,b1) and (a,b2)."""
    pts, area = sphere_grid(nz, nphi)
    diff = np.abs(hall_marginal(pts, a, b1) - hall_marginal(pts, a, b2))
    return 0.5 * float(diff.sum() * area)


def ks2_acceptance(a: np.ndarray, b: np.ndarray, nz: int = 800, nphi: int = 800) -> float:
    """integral of step(lam.a)|lam.b|/(2 pi): the protocol acceptance rate."""
    return quad_sphere(
        lambda pts: ((pts @ a) >= 0.0) * np.abs(pts @ b) / (2.0 * np.pi), nz, nphi
    )


def hemisphere_mean(a: np.ndarray, nz: int = 800, nphi: int = 800) -> np.ndarray:
    """First moment of the uniform hemisphere around a (closed form: a/2)."""
    pts, area = sphere_grid(nz, nphi)
    w = ((pts @ a) >= 0.0) / (2.0 * np.pi)
    return (pts * w[:, None]).sum(axis=0) * area


def sphere_cell_index(pts: np.ndarray, nz: int, nphi: int) -> np.ndarray:
    """Index iz * nphi + iphi of the equal-area cell of sphere_grid(nz, nphi) holding each point."""
    iz = np.minimum(((pts[:, 2] + 1.0) / 2.0 * nz).astype(int), nz - 1)
    phi = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    iphi = np.minimum((phi / (2.0 * np.pi) * nphi).astype(int), nphi - 1)
    return iz * nphi + iphi


def sphere_cell_masses(f, nz: int, nphi: int, refine: int) -> np.ndarray:
    """Integral of f over each cell of sphere_grid(nz, nphi), by midpoints of a grid `refine` times finer."""
    pts, area = sphere_grid(nz * refine, nphi * refine)
    return f(pts).reshape(nz, refine, nphi, refine).sum(axis=(1, 3)).ravel() * area


def bootstrap_stderr_resampled(values: np.ndarray, rng: np.random.Generator, resamples: int) -> float:
    """Standard error of the mean as the spread of `resamples` explicit bootstrap resample means."""
    values = np.asarray(values, dtype=float)
    n = values.size
    means = np.array([values[rng.integers(0, n, size=n)].mean() for _ in range(resamples)])
    return float(means.std(ddof=1))


def categorical_searchsorted(weights: np.ndarray, n: int, rng) -> np.ndarray:
    """Inverse-CDF draw by binary search: the right insertion index of u into the CDF, clamped to K-1."""
    cum = np.cumsum(weights)
    u = rng.random(n) * cum[-1]
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)


def interval_bin_searchsorted(pos: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each position by binary search: the left insertion index into edges[1:], clamped to K-1."""
    return np.minimum(np.searchsorted(edges[1:], pos, side="left"), edges.size - 2)


def projector_checks_accept(kets: list[np.ndarray], tol: float) -> bool:
    """Whether the projectors |k><k| pass every per-projector check of a projective basis.

    The checks are: exactly dim of them, each Hermitian, PSD, idempotent,
    pairwise orthogonal, and together summing to the identity.
    """
    projs = [np.outer(k, np.conj(k)) for k in kets]
    dim = projs[0].shape[0]
    checks = [len(projs) == dim, np.max(np.abs(sum(projs) - np.eye(dim))) <= tol]
    for p in projs:
        checks.append(np.max(np.abs(p - p.conj().T)) <= tol)
        checks.append(np.linalg.eigvalsh(p).min() >= -tol)
        checks.append(np.max(np.abs(p @ p - p)) <= tol)
    for a in range(len(projs)):
        checks.extend(np.max(np.abs(projs[a] @ projs[b])) <= tol for b in range(a + 1, len(projs)))
    return bool(all(checks))


def channel_blocks(a: np.ndarray, b: np.ndarray, seed: int):
    """The channel's rounds as one sequential loop draws them, one 2^16-round block at a time.

    Per block: one uniform_hemisphere draw (all z, then all phi) from
    stream(seed, 1), and one uniform per round from stream(seed, 2).  This is
    the stream layout the channel must keep, so unlike the rest of this file
    it draws through the library's streams and sampler.  Yields
    (ids, vecs, accept, outcome_plus) per block.
    """
    from mdhv.models.base import stream
    from mdhv.sphere import uniform_hemisphere

    block = 1 << 16
    alice, bob = stream(seed, 1), stream(seed, 2)
    for first in itertools.count(0, block):
        vecs = uniform_hemisphere(alice, block, a)
        dots = vecs @ b
        yield np.arange(first, first + block), vecs, bob.random(block) < np.abs(dots), dots >= 0.0


def sequential_channel(a: np.ndarray, b: np.ndarray, target: int, seed: int, trace) -> tuple[int, int, int]:
    """(sent, accepted, +b count) of the sequential channel loop over channel_blocks,
    writing the same CSV trace rows to `trace`."""
    trace.write("round_id,lambda_x,lambda_y,lambda_z,accepted,outcome\n")
    sent = accepted = plus = 0
    blocks = channel_blocks(a, b, seed)
    while accepted < target:
        ids, vecs, accept, outcome_plus = next(blocks)
        cum = np.cumsum(accept)
        if accepted + cum[-1] >= target:
            stop = int(np.searchsorted(cum, target - accepted)) + 1
            ids, vecs, accept, outcome_plus = ids[:stop], vecs[:stop], accept[:stop], outcome_plus[:stop]
        sent += ids.size
        accepted += int(accept.sum())
        plus += int(np.count_nonzero(accept & outcome_plus))
        for i, (x, y, z), acc, pos in zip(ids.tolist(), vecs.tolist(), accept, outcome_plus):
            trace.write(f"{i},{x!r},{y!r},{z!r}," + (("1,+b" if pos else "1,-b") if acc else "0,") + "\n")
    return sent, accepted, plus


def _step(x: np.ndarray) -> np.ndarray:
    """Heaviside step with step(0) = 1, elementwise."""
    return np.where(x >= 0.0, 1.0, 0.0)


def ks1_density_gathered(vec: np.ndarray, label: np.ndarray, axes: np.ndarray, psi_hat: np.ndarray) -> np.ndarray:
    """(1/pi) step(k.lam) step(psi.lam) (psi.lam), with each row's k gathered as axes[label]."""
    k_dot = np.einsum("ij,ij->i", vec, axes[label])
    p_dot = vec @ psi_hat
    return (1.0 / np.pi) * _step(k_dot) * _step(p_dot) * np.maximum(p_dot, 0.0)


def bellmermin_density_gathered(
    vec: np.ndarray, label: np.ndarray, axes: np.ndarray, psi_hat: np.ndarray
) -> np.ndarray:
    """step(k.(psi + lam))/4pi, with each row's k gathered as axes[label]."""
    return _step(np.einsum("ij,ij->i", axes[label], psi_hat + vec)) / (4.0 * np.pi)


def ks2_density_stepped(vec: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """step(lam.a)|lam.b|/pi as a product of the step and the weight."""
    return _step(vec @ a) * np.abs(vec @ b) / np.pi


def bloch_of(ket) -> np.ndarray:
    """The Bloch vector <sigma> of a qubit ket, normalized here."""
    v = np.asarray(ket, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.array([np.vdot(v, s @ v).real for s in (SX, SY, SZ)])


def sphere_label_densities(model: str, ket, basis_kets, pts: np.ndarray) -> list[np.ndarray]:
    """Each label's density of `ket` measured in the qubit basis, at `pts`, from the models' formulas.

    ks1: (1/pi) step(k.lam) step(psi.lam) (psi.lam); bellmermin:
    step(k.(psi + lam))/4pi; ks2 (one unlabeled density): step(lam.psi) |lam.b|/pi
    with b the axis of the first basis ket.  step(0) = 1 throughout.
    """
    p = bloch_of(ket)
    axes = [bloch_of(k) for k in basis_kets]
    if model == "ks2":
        return [_step(pts @ p) * np.abs(pts @ axes[0]) / np.pi]
    if model == "ks1":
        return [_step(pts @ k) * _step(pts @ p) * np.maximum(pts @ p, 0.0) / np.pi for k in axes]
    if model == "bellmermin":
        return [_step(pts @ k + p @ k) / (4.0 * np.pi) for k in axes]
    raise ValueError(f"no sphere density for {model!r}")


def sphere_overlap_grid(model: str, psi, phi, basis_kets, nz: int = 400, nphi: int = 800) -> float:
    """w_C = 1 - (1/2) sum over labels of the midpoint-grid integral of |p_psi - p_phi|."""
    pts, area = sphere_grid(nz, nphi)
    dens_psi = sphere_label_densities(model, psi, basis_kets, pts)
    dens_phi = sphere_label_densities(model, phi, basis_kets, pts)
    return 1.0 - 0.5 * area * sum(float(np.abs(a - b).sum()) for a, b in zip(dens_psi, dens_phi))


def ks1_support_mass(psi_hat: np.ndarray, phi_hat: np.ndarray) -> float:
    """ks1's mass of psi's cosine lobe inside phi's hemisphere: its projected area (1 + psi.phi)/2."""
    return (1.0 + float(psi_hat @ phi_hat)) / 2.0


def bellmermin_overlap(psi_hat: np.ndarray, phi_hat: np.ndarray, k0: np.ndarray) -> float:
    """Bell-Mermin's w_C: each label's two caps about k are nested, and their
    differing band, of area 2 pi |(psi - phi).k| at density 1/4pi, counts once
    per label with k = +-k0."""
    return 1.0 - 0.5 * abs(float((psi_hat - phi_hat) @ k0))


def hall_tv_goemans_williamson(a: np.ndarray, b: np.ndarray, b_alt: np.ndarray) -> float:
    """TV between hall's lam marginals at (a, b) and (a, b_alt), from three angles.

    For uniform lam, P(sgn lam.u = sgn lam.v) = 1 - angle(u, v)/pi (Goemans and
    Williamson, J. ACM 42, 1115, 1995).  With s1 = sgn(lam.a) sgn(lam.b) and
    s2 = sgn(lam.a) sgn(lam.b_alt), s1 s2 = sgn(lam.b) sgn(lam.b_alt), so the
    three pairwise probabilities fix the four sphere fractions p(s1, s2), and
    the density on s1 is g(s1)/4pi with g(+-) = (1 +- c)/(1 +- t),
    c = a.b, t = 1 - 2 angle(a, b)/pi.
    """

    def same(u, v):
        return 1.0 - np.arccos(np.clip(u @ v, -1.0, 1.0)) / np.pi

    def branches(u, v):
        c = float(np.clip(u @ v, -1.0, 1.0))
        t = 1.0 - 2.0 * np.arccos(c) / np.pi
        return {+1: (1.0 + c) / (1.0 + t), -1: (1.0 - c) / (1.0 - t)}

    p_ab, p_ab_alt, p_b_b_alt = same(a, b), same(a, b_alt), same(b, b_alt)
    both = (p_ab + p_ab_alt + p_b_b_alt - 1.0) / 2.0
    fractions = {(1, 1): both, (1, -1): p_ab - both, (-1, 1): p_ab_alt - both, (-1, -1): p_b_b_alt - both}
    g1, g2 = branches(a, b), branches(a, b_alt)
    return 0.5 * sum(p * abs(g1[s1] - g2[s2]) for (s1, s2), p in fractions.items())
