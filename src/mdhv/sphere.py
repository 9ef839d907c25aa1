"""Vectorized unit-sphere sampling and Monte Carlo quadrature helpers.

All samplers consume a numpy Generator and return (n, 3) arrays of unit
vectors.  Directional samplers take the target axis as the local +z and embed
through a deterministic orthonormal frame, so identical streams give
identical draws.

Azimuths are in turns.  Each sampler draws u = rng.random() where it drew
phi = rng.uniform(0.0, 2 pi) before, the same uniform at the same place in
the stream, so the stream layout did not change.  Every unit-interval draw
is rng.random(n): numpy forms rng.uniform(0.0, 1.0) as 0.0 + 1.0 u from that
same u, so the two give the same bits, and random skips uniform's argument
handling.  _cos_sin_turns
maps u to (cos 2 pi u, sin 2 pi u) with no libm call: for N = 1024 and j
the integer nearest t = N u, the remainder f = t - j is exact with
|f| <= 1/2, a table holds C_j and S_j, the cos and sin at j/N of a turn
(rounded from long double, exact at the quarter turns), and for d = 2 pi f / N
    cos = C_j + (C_j (cos d - 1) - S_j sin d),
    sin = S_j + (S_j (cos d - 1) + C_j sin d),
with cos d - 1 and sin d as Taylor polynomials to d^4 and d^5.  It is
multiplications, additions, one rounding and two gathers, about 9 ns a
value against 31 ns for np.cos and np.sin of 2 pi u (x86-64, numpy 2.4).
Its error against long-double cos and sin of 2 pi u is at most half an ulp
of the table entry, half an ulp of the result and about 0.01 x 2^-53 from the
polynomials: 1.0 x 2^-53 measured over 2^20 draws, where np.cos(2 pi u)
reads 5.8 x 2^-53, since 2 pi u rounds first.  So the last bits of drawn
vectors moved when the table replaced np.cos and np.sin (up to 6.7e-16 per
coordinate, in about 80% of the rows of a channel trace), while every
outcome and printed figure that the tests pin stayed the same.

The embedding's float order is part of the seeded output.  With
r = sqrt(1 - z^2), c = r cos 2 pi u and s = r sin 2 pi u, world column j is the
left-to-right sum c*t1[j] + s*t2[j] + z*axis[j], which is the sum that
np.outer(c, t1) + np.outer(s, t2) + np.outer(z, axis) forms.  A
(n,3)@(3,3) frame matmul sums in another order and moves generic-axis draws
by one ulp.  embed_local forms that sum BLOCK_ROWS rows at a time, and
each element keeps it, so the blocks change no bit.

BLOCK_ROWS = 2^13 bounds the working set of every sphere sampler: a float
vector of one block is 64 KiB, under glibc's default 128 KiB mmap threshold,
so block temporaries come from the heap instead of being mapped, faulted in
and unmapped again on every call.  rejection_sample proposes at most one
block per round for the same reason.

bootstrap_stderr is the ideal bootstrap of a mean, sqrt(mean((x - mean x)^2) / n),
the limit of resampling without its noise.  It treats the mirrored, stratified
points as iid, so it overstates their error: for Hall's TV at z / 60 deg / x
with 100k points it reports 9.3e-5, against a 1.4e-5 spread over 30 seeds.

great_circle_cells integrates exactly where the samplers' laws are affine:
it cuts the sphere by a few great circles and returns each cell's area and
mean point, so that the integral of an affine function over a cell is the
area times its value at that point.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import TOL

__all__ = [
    "tangent_frame",
    "embed_local",
    "uniform_sphere",
    "uniform_hemisphere",
    "cosine_hemisphere",
    "uniform_cap",
    "stratified_sphere_points",
    "bootstrap_stderr",
    "great_circle_cells",
]

BLOCK_ROWS = 1 << 13

# three circles in general position with each other and with the coordinate
# planes; with them in the arrangement every cell lies inside one of their
# eight triangles, so it is a convex polygon, its edges are shorter than pi
# and its mean point is not the origin
_GENERIC_CUTS = np.array([[0.8191, 0.3307, 0.4688], [-0.2693, 0.9087, 0.3190], [0.3761, -0.1913, 0.9066]])
_GENERIC_CUTS /= np.linalg.norm(_GENERIC_CUTS, axis=1)[:, None]
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]
# the crossing of circles whose normals are at sine s apart is placed to within this / s
_PLACEMENT = 16.0 * np.finfo(float).eps


def tangent_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit tangents orthogonal to `axis` (deterministic choice).

    t1 = axis x helper / |axis x helper| and t2 = axis x t1.  Each component
    is formed as np.cross forms it, zero helper terms included so that signed
    zeros match, and the norm is sqrt(t1 @ t1) as np.linalg.norm takes it.
    """
    ax, ay, az = (float(v) for v in axis)
    hx, hy = (1.0, 0.0) if abs(ax) < 0.9 else (0.0, 1.0)
    t1 = np.array([ay * 0.0 - az * hy, az * hx - ax * 0.0, ax * hy - ay * hx])
    t1 /= math.sqrt(t1 @ t1)
    ux, uy, uz = t1.tolist()
    return t1, np.array([ay * uz - az * uy, az * ux - ax * uz, ax * uy - ay * ux])


def _turn_table(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin at j/steps of a turn, j < steps.

    The first quarter turn's sines are taken in long double, with pi/4 as
    atan(1) to that precision, and rounded; the other quarters follow by
    symmetry, and 0.0 - x keeps their zeros +0.0.
    """
    q = steps // 4
    quarter = np.sin(np.arange(q + 1) * (np.arctan(np.longdouble(1.0)) / (q / 2))).astype(float)
    up, down = quarter[:-1], quarter[:0:-1]  # sin and cos at j/steps, j < q
    return np.concatenate([down, 0.0 - up, 0.0 - down, up]), np.concatenate([up, down, 0.0 - up, 0.0 - down])


_STEPS = 1 << 10  # table entries per turn
_COS, _SIN = _turn_table(_STEPS)
# sin(k f) = f (S1 + f^2 (S3 + f^2 S5)) and cos(k f) - 1 = f^2 (C2 + f^2 C4) for k = 2 pi / N
_S1 = 2.0 * np.pi / _STEPS
_S3, _S5, _C2, _C4 = -(_S1**3) / 6.0, _S1**5 / 120.0, -(_S1**2) / 2.0, _S1**4 / 24.0


def _cos_sin_turns(u: np.ndarray, c: np.ndarray, s: np.ndarray, work: tuple[np.ndarray, ...]) -> None:
    """c, s = cos 2 pi u, sin 2 pi u for turns 0 <= u <= 1 (the table map of the module docstring).

    `work` holds four float vectors and one np.intp vector of u's size.
    """
    t, f, g, h, j = work
    np.multiply(u, _STEPS, out=t)
    np.rint(t, out=f)
    np.copyto(j, f, casting="unsafe")  # the nearest step; N wraps to 0
    np.subtract(t, f, out=f)  # exact, |f| <= 1/2
    np.multiply(f, f, out=g)
    np.multiply(g, _S5, out=t)
    t += _S3
    t *= g
    t += _S1
    t *= f  # t = sin of the remainder's angle
    np.multiply(g, _C4, out=h)
    h += _C2
    h *= g  # h = its cos - 1
    np.take(_COS, j, out=c, mode="wrap")
    np.take(_SIN, j, out=s, mode="wrap")
    np.multiply(c, h, out=f)
    f -= np.multiply(s, t, out=g)
    np.multiply(s, h, out=h)
    h += np.multiply(c, t, out=t)
    c += f
    s += h


def _disk_blocks(z: np.ndarray, turns: np.ndarray):
    """Per block of at most BLOCK_ROWS rows: (its rows, z, r cos 2 pi u, r sin 2 pi u, two free
    vectors) for r = sqrt(1 - z^2) and u the turns, in block buffers that the next block overwrites."""
    n = z.size
    c, s, t, f, g, h = (np.empty(min(n, BLOCK_ROWS)) for _ in range(6))
    j = np.empty(min(n, BLOCK_ROWS), np.intp)
    for lo in range(0, n, BLOCK_ROWS):
        zb = z[lo : lo + BLOCK_ROWS]
        m = zb.size
        c, s, t, f, g, h, j = c[:m], s[:m], t[:m], f[:m], g[:m], h[:m], j[:m]
        _cos_sin_turns(turns[lo : lo + m], c, s, (t, f, g, h, j))
        np.subtract(1.0, np.multiply(zb, zb, out=t), out=t)
        np.sqrt(np.maximum(0.0, t, out=t), out=t)
        c *= t
        s *= t
        yield slice(lo, lo + m), zb, c, s, (f, g)


def embed_local(axis: np.ndarray, z: np.ndarray, turns: np.ndarray) -> np.ndarray:
    """Map local cylindrical coordinates (z along `axis`, azimuth in turns) to world vectors."""
    t1, t2 = tangent_frame(axis)
    a = np.asarray(axis, dtype=float)
    out = np.empty((z.size, 3))
    for rows, zb, c, s, (col, tmp) in _disk_blocks(z, turns):
        for j in range(3):  # the module docstring's sum order
            np.multiply(c, t1[j], out=col)
            col += np.multiply(s, t2[j], out=tmp)
            col += np.multiply(zb, a[j], out=tmp)
            out[rows, j] = col
    return out


def uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0, size=n)
    turns = rng.random(n)
    out = np.empty((n, 3))
    for rows, _, x, y, _ in _disk_blocks(z, turns):
        out[rows, 0], out[rows, 1] = x, y
    out[:, 2] = z
    return out


def uniform_hemisphere(rng: np.random.Generator, n: int, axis: np.ndarray) -> np.ndarray:
    """Area-uniform draw from the hemisphere {v : v.axis >= 0}."""
    z = rng.random(n)
    turns = rng.random(n)
    return embed_local(axis, z, turns)


def cosine_hemisphere(rng: np.random.Generator, n: int, axis: np.ndarray) -> np.ndarray:
    """Draw from density (1/pi) (v.axis) on the hemisphere around `axis`."""
    z = np.sqrt(rng.random(n))
    turns = rng.random(n)
    return embed_local(axis, z, turns)


def uniform_cap(rng: np.random.Generator, n: int, axis: np.ndarray, zmin: np.ndarray) -> np.ndarray:
    """Area-uniform draw from the cap {v : v.axis >= zmin}; zmin may be per-sample."""
    zmin = np.broadcast_to(np.asarray(zmin, dtype=float), (n,))
    u = rng.random(n)
    z = zmin + u * (1.0 - zmin)
    turns = rng.random(n)
    return embed_local(axis, z, turns)


def stratified_sphere_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """Jittered equal-area stratification of the sphere, with antipodal mirrors.

    Returns an even number m <= max(n, 2) of points of equal weight 4*pi/m;
    integrate f via mean(f)*4*pi.
    """
    k = max(1, int(np.sqrt(n // 2)))
    kz, kphi = k, max(1, n // 2 // k)
    z = 2.0 * ((np.repeat(np.arange(kz), kphi) + rng.random(kz * kphi)) / kz) - 1.0
    turns = (np.tile(np.arange(kphi), kz) + rng.random(kz * kphi)) / kphi
    out = np.empty((2, z.size, 3))  # the points, then their mirrors
    for rows, _, x, y, _ in _disk_blocks(z, turns):
        out[0, rows, 0], out[0, rows, 1] = x, y
    out[0, :, 2] = z
    np.negative(out[0], out=out[1])
    return out.reshape(-1, 3)


def bootstrap_stderr(values: np.ndarray) -> float:
    """Ideal-bootstrap stderr of the mean of `values`, taken as iid (see the module docstring)."""
    return math.sqrt(np.var(values) / np.size(values))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis; np.cross spends more on its axis handling than on these few rows."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]


def _one_point_each(cross: np.ndarray, placed: np.ndarray, t: np.ndarray) -> np.ndarray:
    """cross (m, m, 3), each crossing moved onto the best-placed one that it meets, if better placed.

    cross[i, j] = n_i x n_j has length placed[i, j]; t (m, 2m - 2) holds the
    angles on circle k of its crossings, then of their antipodes.  Two
    crossings on a circle meet when their angles differ by at most _PLACEMENT
    over the worse one's placement.  A crossing ends where the one it moves
    onto ends, so two well-placed ones never join through a badly placed one.
    """
    m = placed.shape[0]
    flat = np.arange(m * m)
    one = np.minimum(flat, flat % m * m + flat // m)  # (i, j) and (j, i) are one crossing
    at = np.tile(one[flat % (m + 1) != 0].reshape(m, m - 1), 2)
    gap = np.abs(t[:, :, None] - t[:, None])
    worse = np.minimum(placed.flat[at][:, :, None], placed.flat[at][:, None])
    meet = np.minimum(gap, 2.0 * np.pi - gap) * worse <= _PLACEMENT
    a, b = (np.broadcast_to(x, meet.shape)[meet] for x in (at[:, :, None], at[:, None]))
    order = np.argsort(-placed.ravel(), kind="stable")
    rank = np.argsort(order)
    best = rank.copy()
    np.minimum.at(best, a, rank[b])
    to = order[best]
    while not np.array_equal(to[to], to):
        to = to[to]
    return cross.reshape(-1, 3)[to[one]].reshape(m, m, 3)


def great_circle_cells(normals) -> tuple[np.ndarray, np.ndarray]:
    """(areas (K,), mean points (K, 3)) of the cells cut by the circles n.lam = 0.

    For any f that is affine on a cell, the integral of f over the cell is
    its area times f at its mean point p = (integral of lam dOmega) / area,
    which lies inside the cell, so every n.p has the cell's sign.  Zero
    normals are dropped, and normals within TOL.arithmetic of parallel or
    antiparallel cut one circle.  Three fixed generic cuts join the
    arrangement, so the cells are convex polygons (and more than the circles
    alone make).

    The circles' crossings, sorted along each circle, give its edges; where
    circles meet, each places the point along one vector (_one_point_each).
    Each edge bounds the cell on either side of its circle, and the sign of
    every other circle at the edge's midpoint names both cells.  A cell's
    first moment is (1/2) sum of edge length * inward normal (Lambert; Arvo,
    SIGGRAPH 1995), and its area sums the triangles from its moment's
    direction over its edges (Van Oosterom & Strackee, IEEE Trans. Biomed.
    Eng. 30, 125, 1983).  Rounding can put the mean point of a cell thinner
    or smaller than about 1e-5 rad outside it or exactly on one of its
    circles; it is then moved inside, by about the rounding error across a
    sliver and by less than the cell's size otherwise.  Cells are named by
    one bit per circle, so at most 60 distinct normals are taken.
    """
    n = np.asarray(normals, dtype=float).reshape(-1, 3)
    n = np.concatenate([_unit(n[np.any(n != 0.0, axis=1)]), _GENERIC_CUTS])
    cross = _cross(n[:, None], n[None])
    placed = np.einsum("ijk,ijk->ij", cross, cross)
    keep = ~np.tril(placed <= TOL.arithmetic**2, -1).any(axis=1)
    n, cross, placed = n[keep], cross[keep][:, keep], np.sqrt(placed[keep][:, keep])
    m = n.shape[0]
    off = ~np.eye(m, dtype=bool)
    # a frame on each circle, e1 x e2 = n, and the angles of its crossings and their antipodes
    e1 = _unit(_cross(n, np.where(np.abs(n[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])))
    e2 = _cross(n, e1)

    def arcs(cross):
        d = cross[off].reshape(m, m - 1, 3)
        t = np.arctan2(np.einsum("kjc,kc->kj", d, e2), np.einsum("kjc,kc->kj", d, e1))
        t = np.concatenate([t, t + np.pi], axis=1) % (2.0 * np.pi)
        s = np.sort(t, axis=1)
        return t, s, np.diff(s, axis=1, append=s[:, :1] + 2.0 * np.pi)

    t, s, arc = arcs(cross)
    # an arc no longer than _PLACEMENT joins crossings of concurrent circles,
    # and a longer one may too if one of its ends is badly placed
    if arc[arc > _PLACEMENT].min() * placed.min(where=off, initial=1.0) <= _PLACEMENT:
        t, s, arc = arcs(_one_point_each(cross, placed, t))
    k, j = np.nonzero(arc > _PLACEMENT)
    t, arc = s[k, j], arc[k, j]
    # each edge's start, end and midpoint on its circle
    angle = np.stack([t, t + arc, t + 0.5 * arc])[..., None]
    u, w, mid = np.cos(angle) * e1[k] + np.sin(angle) * e2[k]
    others = ((mid @ n.T > 0.0) @ (1 << np.arange(m))) & ~(1 << k)
    # each edge bounds the cell on its circle's + side (first) and the one on its - side
    side = np.repeat([1.0, -1.0], k.size)
    cells, cell = np.unique(np.concatenate([others | (1 << k), others]), return_inverse=True)
    member = (np.arange(cells.size)[:, None] == cell).astype(float)
    half = 0.5 * arc[:, None] * n[k]
    moment = member @ np.concatenate([half, -half])
    # each edge's triangle (c, u, w) from its cell's moment direction c,
    # signed by side so that u -> w turns about the cell's inward normal
    c = _unit(moment)[cell]
    cn, cu, cw = (np.einsum("ij,ij->i", c, np.concatenate([x, x])) for x in (n[k], u, w))
    sin, cos = np.tile(np.sin(arc), 2), np.tile(np.cos(arc), 2)
    area = member @ (2.0 * np.arctan2(side * sin * cn, 1.0 + cu + cw + cos))
    mean = moment / area[:, None]
    # a mean point outside its cell or on a wall moves along the inward normal of the wall it is
    # furthest past, to the middle of the cell's chord there, or else to the cell's mean edge midpoint
    dots = mean @ n.T
    for q in np.flatnonzero(((dots > 0.0).dot(1 << np.arange(m)) != cells) | (dots == 0.0).any(axis=1)):
        inward = np.where((cells[q] >> np.arange(m) & 1)[:, None], n, -n)
        b = inward @ mean[q]
        v = inward[np.argmin(b)]
        d = inward @ v
        lo = np.max(-b[d > 0.0] / d[d > 0.0])
        hi = np.min(-b[d < 0.0] / d[d < 0.0], initial=2.0 * lo + 1.0)
        for p in (mean[q] + 0.5 * (lo + hi) * v, _unit(np.tile(mid, (2, 1))[cell == q].sum(axis=0))):
            if np.all(inward @ p > 0.0):
                mean[q] = p
                break
    return area, mean
