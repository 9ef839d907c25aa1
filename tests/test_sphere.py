"""Sphere sampler contracts: supports, moments, determinism."""

import math

import numpy as np
import pytest

import oracles
from conftest import turned
from mdhv.models import stream
from mdhv.sphere import (
    BLOCK_ROWS,
    bootstrap_stderr,
    cosine_hemisphere,
    embed_local,
    great_circle_cells,
    stratified_sphere_points,
    tangent_frame,
    uniform_cap,
    uniform_hemisphere,
    uniform_sphere,
)

AXIS = np.array([0.3, -0.5, 0.8124038404635961])
AXIS = AXIS / np.linalg.norm(AXIS)


def test_tangent_frame_orthonormal():
    t1, t2 = tangent_frame(AXIS)
    for v in (t1, t2):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert abs(v @ AXIS) < 1e-12
    assert abs(t1 @ t2) < 1e-12


def reference_frame(axis):
    """tangent_frame as np.cross writes it."""
    a = np.asarray(axis, dtype=float)
    helper = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(a, helper)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(a, t1)


def reference_embed(axis, z, phi):
    """embed_local as three np.outer terms, the float order of the seeded output."""
    t1, t2 = reference_frame(axis)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.outer(r * np.cos(phi), t1) + np.outer(r * np.sin(phi), t2) + np.outer(z, axis)


def kernel_axes():
    """Random unit axes in both helper branches (|a_x| < 0.9 and >= 0.9), and the signed coordinate axes."""
    rng = stream(8)
    generic = rng.normal(size=(200, 3))
    generic /= np.linalg.norm(generic, axis=1)[:, None]
    x = rng.choice([-1.0, 1.0], 100) * rng.uniform(0.9, 1.0, 100)
    theta = rng.uniform(0.0, 2.0 * np.pi, 100)
    rho = np.sqrt(1.0 - x * x)
    near_x = np.column_stack([x, rho * np.cos(theta), rho * np.sin(theta)])
    coordinate = np.concatenate([np.eye(3), -np.eye(3)])
    axes = np.concatenate([generic, near_x, coordinate])
    assert (np.abs(axes[:, 0]) < 0.9).sum() > 100 and (np.abs(axes[:, 0]) >= 0.9).sum() > 100
    return axes


def test_tangent_frame_matches_cross_product_reference_bit_for_bit():
    for axis in kernel_axes():
        got, want = tangent_frame(axis), reference_frame(axis)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want], axis


def test_embed_local_matches_outer_product_reference_bit_for_bit():
    # tobytes compares signed zeros too; the fixed z and phi values give exact zeros
    rng = stream(9)
    z = np.concatenate([rng.uniform(-1.0, 1.0, 300), [-1.0, 0.0, 1.0, 1.0, 0.0]])
    phi = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 300), [0.0, 0.0, np.pi / 2, np.pi, np.pi]])
    for axis in kernel_axes():
        got = embed_local(axis, z, phi)
        assert got.flags.c_contiguous
        assert got.tobytes() == reference_embed(axis, z, phi).tobytes(), axis


@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
def test_embed_local_blocks_match_outer_product_reference_bit_for_bit(n):
    # rows on both sides of every block boundary, including a last block of 1 or 5 rows
    rng = stream(12, n)
    z, phi = rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2.0 * np.pi, n)
    for axis in kernel_axes():
        got = embed_local(axis, z, phi)
        assert got.flags.c_contiguous and got.shape == (n, 3)
        assert got.tobytes() == reference_embed(axis, z, phi).tobytes(), axis


def test_uniform_sphere_matches_stacked_reference_bit_for_bit():
    got = uniform_sphere(stream(10), 1000)
    rng = stream(10)
    z = rng.uniform(-1.0, 1.0, size=1000)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=1000)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    assert got.tobytes() == np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1).tobytes()


def test_embed_preserves_unit_norm():
    rng = stream(1)
    z = rng.uniform(-1, 1, 100)
    phi = rng.uniform(0, 2 * np.pi, 100)
    pts = embed_local(AXIS, z, phi)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.allclose(pts @ AXIS, z, atol=1e-12)


def test_uniform_sphere_moments():
    pts = uniform_sphere(stream(2), 200_000)
    assert np.allclose(pts.mean(axis=0), 0.0, atol=0.01)
    assert pts[:, 2].var() == pytest.approx(1.0 / 3.0, abs=0.01)


def test_uniform_hemisphere_support_and_mean():
    pts = uniform_hemisphere(stream(3), 200_000, AXIS)
    assert np.all(pts @ AXIS >= 0.0)
    oracle = oracles.hemisphere_mean(AXIS)
    assert np.allclose(oracle, AXIS / 2.0, atol=2e-3)  # quadrature vs closed form
    assert np.allclose(pts.mean(axis=0), AXIS / 2.0, atol=5e-3)


def test_cosine_hemisphere_density():
    # z along the axis should follow p(z) = 2z: mean 2/3, second moment 1/2
    z = cosine_hemisphere(stream(4), 200_000, AXIS) @ AXIS
    assert np.all(z >= 0.0)
    assert z.mean() == pytest.approx(2.0 / 3.0, abs=3e-3)
    assert (z**2).mean() == pytest.approx(0.5, abs=3e-3)


def test_uniform_cap_support_and_uniformity():
    zmin = 0.25
    z = uniform_cap(stream(5), 200_000, AXIS, zmin) @ AXIS
    assert np.all(z >= zmin - 1e-12)
    assert z.mean() == pytest.approx((1 + zmin) / 2.0, abs=3e-3)


def test_stratified_points_are_antithetic():
    pts = stratified_sphere_points(10_000, stream(6))
    half = pts.shape[0] // 2
    assert np.array_equal(pts[:half], -pts[half:])
    # equal-weight cells integrate constants exactly
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def reference_stratified(n, rng):
    """stratified_sphere_points as meshgrid, stack and concatenate write it."""
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


@pytest.mark.parametrize("n", [0, 1, 3, 10, 4001, 100_000])
def test_stratified_points_match_stacked_reference_bit_for_bit(n):
    got = stratified_sphere_points(n, stream(11, n))
    assert got.flags.c_contiguous
    assert got.tobytes() == reference_stratified(n, stream(11, n)).tobytes()


def test_bootstrap_stderr_is_the_plug_in_stderr_of_the_mean():
    x = stream(12).exponential(size=2000)
    assert bootstrap_stderr(x) == math.sqrt(np.mean((x - x.mean()) ** 2) / x.size)


def test_bootstrap_stderr_matches_resampling_bootstrap():
    # the resampled reference carries about 1/sqrt(2 * 4000) = 1.1% noise of its own
    x = stream(13).exponential(size=2000)
    reference = oracles.bootstrap_stderr_resampled(x, stream(14), 4000)
    assert bootstrap_stderr(x) == pytest.approx(reference, rel=0.05)


def test_samplers_are_deterministic():
    a = uniform_sphere(stream(7), 1000)
    b = uniform_sphere(stream(7), 1000)
    assert np.array_equal(a, b)


def random_cut_sets():
    rng = stream(15)
    return [rng.normal(size=(int(rng.integers(1, 6)), 3)) for _ in range(120)]


PSI_HAT = np.array([0.48, -0.6, 0.64])
PHI_HAT = np.array([-0.36, 0.0, 0.9329523031752481])
PHI_HAT = PHI_HAT / np.linalg.norm(PHI_HAT)
DEGENERATE_CUTS = {
    "empty": np.zeros((0, 3)),
    "zero": [[0.0, 0.0, 0.0]],
    "zero-and-axis": [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]],
    "axes": np.eye(3),
    "signed-axes": np.concatenate([np.eye(3), -np.eye(3)]),
    "repeated": [PSI_HAT, PSI_HAT, 3.0 * PSI_HAT],
    "antipodal": [PSI_HAT, -PSI_HAT, PHI_HAT],
    "concurrent": [PSI_HAT, PHI_HAT, PSI_HAT - PHI_HAT],
    "concurrent-axes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 0.0]],
}


def near_degenerate_cut_sets(kind: str, per_angle: int = 5):
    """Cut sets with each unit normal n beside n', n turned by 1e-k rad, k = 3..9:
    the pair (parallel), n with -n' (antiparallel), or n, n' and n - n' (concurrent)."""
    rng = stream(16, ("parallel", "antiparallel", "concurrent").index(kind))
    sets = []
    for k in range(3, 10):
        for _ in range(per_angle):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            n_turned = turned(n, 10.0**-k, rng)
            pair = [n, -n_turned] if kind == "antiparallel" else [n, n_turned]
            sets.append(pair + [n - n_turned] if kind == "concurrent" else pair)
    return sets


def mixed_near_degenerate_cut_sets(count: int = 300):
    """Up to 7 cuts: 1-3 random normals, then 1-3 steps that each add a normal beside an
    earlier one (turned by 1e-2 to 1e-11 rad, either sign), a concurrent triple about one,
    or the sum or difference of two."""
    rng = stream(17)
    sets = []
    for _ in range(count):
        cuts = [v / np.linalg.norm(v) for v in rng.normal(size=(int(rng.integers(1, 4)), 3))]
        for _ in range(int(rng.integers(1, 4))):
            step, a = int(rng.integers(0, 4)), cuts[int(rng.integers(len(cuts)))]
            a_turned = turned(a, 10.0 ** -rng.uniform(2.0, 11.0), rng)
            other = cuts[int(rng.integers(len(cuts)))]
            sign = rng.choice([-1.0, 1.0])
            cuts += [[a_turned], [-a_turned], [a_turned, a - a_turned], [a + sign * other]][step]
        sets.append(cuts[:7])
    return sets


CUT_SETS = (
    {name: [cuts] for name, cuts in DEGENERATE_CUTS.items()}
    | {"random": random_cut_sets()}
    | {f"near-{kind}": near_degenerate_cut_sets(kind) for kind in ("parallel", "antiparallel", "concurrent")}
    | {"near-degenerate-mixed": mixed_near_degenerate_cut_sets()}
)


@pytest.mark.parametrize("case", sorted(CUT_SETS))
def test_cells_tile_the_sphere_and_each_cut_halves_it(case):
    for cuts in CUT_SETS[case]:
        area, mean = great_circle_cells(cuts)
        assert np.all(area > 0.0)
        assert abs(area.sum() - 4.0 * np.pi) <= 1e-12
        assert np.abs(area @ mean).max() <= 1e-12
        # each cut's hemisphere: area 2 pi and first moment pi n
        for n in np.asarray(cuts, dtype=float).reshape(-1, 3):
            if n.any():
                n = n / np.linalg.norm(n)
                half = mean @ n > 0.0
                assert abs(area[half].sum() - 2.0 * np.pi) <= 1e-12
                assert np.abs(area[half] @ mean[half] - np.pi * n).max() <= 1e-12


def test_cell_mean_points_integrate_affine_functions_on_a_lune():
    # the quarter sphere x >= 0, y >= 0 holds half of each hemisphere's moment pi n
    area, mean = great_circle_cells(np.eye(2, 3))
    lune = (mean[:, 0] > 0.0) & (mean[:, 1] > 0.0)
    assert abs(area[lune].sum() - np.pi) <= 1e-12
    assert np.abs(area[lune] @ mean[lune] - [np.pi / 2.0, np.pi / 2.0, 0.0]).max() <= 1e-12
