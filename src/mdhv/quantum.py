"""Exact finite-dimensional quantum mechanics used as the verification oracle.

Pure states, density matrices, POVMs, projective bases, Bloch vectors, and
the closed-form quantities (Born probabilities, two-qubit singlet
correlations, Bloch parametrization) that every hidden-variable model in this
package is audited against.  Dimensions stay small (tests need d <= 8), so
everything is dense complex arithmetic.

All values are validated at construction and treated as immutable afterwards;
each check is written `not x <= tol`, so a NaN fails it.  Equality of states
is only ever judged through |<a|b>|^2, never through a canonical global phase.

Being immutable, values keep what is derived from them: a qubit state its
Bloch vector (bloch_from_ket), and a measurement the Born distribution of the
last state it was evaluated on (born_probability), keyed on that state
object's identity.  A verify trial's sampler, chunks, bins and report read
one evaluation, which for a wide POVM is most of a chunk's time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import TOL

__all__ = [
    "BlochVector",
    "StateVector",
    "DensityMatrix",
    "Povm",
    "ProjectiveBasis",
    "born_probability",
    "ket_from_bloch",
    "bloch_from_ket",
    "spin_eigenket",
    "singlet_state",
    "singlet_expectation",
    "orthonormal_basis_containing",
    "random_state",
    "random_basis",
    "random_povm",
    "random_bloch",
]


@dataclass(frozen=True)
class BlochVector:
    """Unit 3-vector: a qubit ray or a spin measurement axis."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = np.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not abs(norm - 1.0) <= TOL.structural:
            raise ValueError(f"Bloch vector must have unit norm, got {norm!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "BlochVector":
        norm = np.sqrt(x * x + y * y + z * z)
        if norm <= 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    @classmethod
    def from_polar(cls, theta: float, phi: float) -> "BlochVector":
        """Polar angle from +z and azimuth, both in radians."""
        st = np.sin(theta)
        return cls.normalized(st * np.cos(phi), st * np.sin(phi), np.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> "BlochVector":
        return BlochVector(-self.x, -self.y, -self.z)


class StateVector:
    """Normalized pure state |psi> in dimension d >= 2."""

    __slots__ = ("dim", "amplitudes", "_bloch")

    def __init__(self, amplitudes):
        amp = np.array(amplitudes, dtype=complex).reshape(-1)
        if amp.size < 2:
            raise ValueError("state dimension must be at least 2")
        norm = math.sqrt(np.vdot(amp, amp).real)
        if not abs(norm - 1.0) <= TOL.structural:
            raise ValueError(f"state vector must be normalized, got norm {norm!r}")
        amp.setflags(write=False)
        self.amplitudes = amp
        self.dim = amp.size
        self._bloch = None  # bloch_from_ket's result, once asked for

    def overlap_sq(self, other: "StateVector") -> float:
        """|<self|other>|^2, computed as re^2 + im^2 (symmetric in its arguments)."""
        z = np.vdot(self.amplitudes, other.amplitudes)
        return float(z.real * z.real + z.imag * z.imag)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, np.conj(self.amplitudes))

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(np.kron(self.amplitudes, other.amplitudes))

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


class DensityMatrix:
    """Hermitian, PSD, unit-trace operator describing a (possibly mixed) preparation."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("density matrix must be square with dimension >= 2")
        if not np.max(np.abs(m - m.conj().T)) <= TOL.structural:
            raise ValueError("density matrix must be Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if not eigs.min() >= -TOL.structural:
            raise ValueError(f"density matrix must be PSD, min eigenvalue {eigs.min()!r}")
        tr = np.trace(m).real
        if not abs(tr - 1.0) <= TOL.structural:
            raise ValueError(f"density matrix must have unit trace, got {tr!r}")
        m.setflags(write=False)
        self.entries = m
        self.dim = m.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _leading(ok: np.ndarray) -> int:
    """The number of leading True entries of ok."""
    return int(np.argmin(ok)) if not ok.all() else ok.size


class Povm:
    """Ordered collection of labeled positive operators summing to the identity."""

    __slots__ = ("dim", "labels", "operators", "_born")

    def __init__(self, elements: Sequence[tuple[str, np.ndarray]]):
        """Each element square, of the first one's shape, Hermitian and PSD, and their sum the
        identity.  The first element to fail a check raises, as if each were checked in turn
        (square, shape, Hermitian, PSD).

        The elements before the first of another shape are checked as one stack: a Hermitian
        residual each, then one eigvalsh over those before the first non-Hermitian one (a NaN
        fails the residual, so eigvalsh never sees it).
        """
        if len(elements) < 1:
            raise ValueError("POVM needs at least one element")
        labels = tuple(str(label) for label, _ in elements)
        if len(set(labels)) != len(labels):
            raise ValueError("POVM labels must be unique")
        mats = [np.asarray(op, dtype=complex) for _, op in elements]
        shape_error = None
        for i, (m, (label, _)) in enumerate(zip(mats, elements)):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                shape_error = ValueError(f"element {label!r} is not a square matrix")
            elif m.shape != mats[0].shape:
                shape_error = ValueError("POVM elements must share one dimension")
            if shape_error is not None:
                del mats[i:]  # the elements before it are checked first
                break
        if not mats:
            raise shape_error
        stack = np.array(mats)
        hermitian = _leading(np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= TOL.structural)
        psd = _leading(np.linalg.eigvalsh(stack[:hermitian]).min(axis=1) >= -TOL.structural)
        if psd < hermitian:
            raise ValueError(f"element {elements[psd][0]!r} is not PSD")
        if hermitian < len(mats):
            raise ValueError(f"element {elements[hermitian][0]!r} is not Hermitian")
        if shape_error is not None:
            raise shape_error
        stack.setflags(write=False)
        total = sum(stack)
        if not np.max(np.abs(total - np.eye(stack.shape[1]))) <= TOL.structural:
            raise ValueError("POVM elements must sum to the identity")
        self.dim = stack.shape[1]
        self.labels = labels
        self.operators = tuple(stack)
        self._born = None

    def __len__(self):
        return len(self.labels)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, labels={self.labels})"


class ProjectiveBasis(Povm):
    """POVM of the rank-1 projectors |e_i><e_i| of orthonormal kets, labelled "0".."d-1".

    Keeps the defining kets so callers can work with amplitudes directly, and
    is validated from them.  The projectors are built on the first read of
    `operators`: only the Born weights of a DensityMatrix need them.
    """

    __slots__ = ("kets", "_operators")

    def __init__(self, kets: Sequence[StateVector]):
        """Kets K (as rows) that are orthonormal, max|K K^dagger - I| <= tol, and complete,
        max|K^T conj(K) - I| <= tol; kets of two dimensions raise ValueError too.

        K^T conj(K) is the sum of the projectors, so the second is the POVM's completeness
        check.  The first implies the POVM's per-element checks: off-diagonal |<a|b>| bounds
        max|P_a P_b| = |<a|b>| max|a_i b_j|, the diagonal bounds the idempotence error
        (|a|^2 - 1) P_a, and a unit ket's outer product is Hermitian and PSD.  More than
        dim kets cannot be orthonormal, and fewer fail completeness.
        """
        self.kets = tuple(kets)
        if not self.kets:
            raise ValueError("POVM needs at least one element")
        k = np.array([ket.amplitudes for ket in self.kets])
        n, d = k.shape
        kc = k.conj()
        if n == d:
            # both Gram matrices from one stacked product
            orth, comp = np.abs(np.array([k, k.T]) @ np.array([kc.T, kc]) - np.eye(d)).max(axis=(1, 2))
        else:
            orth = np.abs(k @ kc.T - np.eye(n)).max()
            comp = np.abs(k.T @ kc - np.eye(d)).max()
        if not orth <= TOL.structural:
            raise ValueError("projective basis kets must be orthonormal")
        if not comp <= TOL.structural:
            raise ValueError("POVM elements must sum to the identity")
        self.dim = d
        self.labels = tuple(str(i) for i in range(n))
        self._operators = None
        self._born = None

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        """The projectors |e_i><e_i| in label order, read-only, built once."""
        if self._operators is None:
            ops = tuple(ket.projector() for ket in self.kets)
            for m in ops:
                m.setflags(write=False)
            self._operators = ops
        return self._operators


def born_probability(prep: DensityMatrix | StateVector, M: Povm) -> np.ndarray:
    """The Born distribution over M, one weight per element in label order.

    A pure state in a projective basis gives the ket overlap |<e_i|prep>|^2
    (StateVector.overlap_sq) per ket, unclamped and bit for bit; anything else
    gives tr(prep E_i), clamped to [0, 1].  Every model's basis Born weights
    come from here.  Raises ValueError on dimension mismatch.

    The result is read-only, and M keeps it until it is asked about another
    preparation object: a repeated call returns the same array.
    """
    last = M._born
    if last is not None and last[0] is prep:
        return last[1]
    if prep.dim != M.dim:
        raise ValueError(f"preparation dim {prep.dim} != measurement dim {M.dim}")
    if isinstance(prep, StateVector) and isinstance(M, ProjectiveBasis):
        p = np.array([ket.overlap_sq(prep) for ket in M.kets])
    else:
        if isinstance(prep, StateVector):
            raw = [np.vdot(prep.amplitudes, op @ prep.amplitudes).real for op in M.operators]
        else:
            raw = [np.trace(prep.entries @ op).real for op in M.operators]
        p = np.array([min(1.0, max(0.0, v)) for v in raw])
    p.setflags(write=False)
    M._born = (prep, p)
    return p


def ket_from_bloch(v: BlochVector) -> StateVector:
    """|theta, phi> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    theta = np.arccos(np.clip(v.z, -1.0, 1.0))
    phi = np.arctan2(v.y, v.x)
    return StateVector([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def bloch_from_ket(s: StateVector) -> BlochVector:
    """Inverse Bloch parametrization; defined for qubits only.  Formed once per state."""
    if s._bloch is None:
        if s.dim != 2:
            raise ValueError("Bloch coordinates are defined for dim == 2 only")
        a, b = s.amplitudes
        cross = np.conj(a) * b
        s._bloch = BlochVector.normalized(2.0 * cross.real, 2.0 * cross.imag, abs(a) ** 2 - abs(b) ** 2)
    return s._bloch


def spin_eigenket(axis: BlochVector, outcome: int) -> StateVector:
    """Eigenstate of sigma.axis with eigenvalue outcome in {+1, -1}."""
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    return ket_from_bloch(axis if outcome == +1 else -axis)


def singlet_state() -> StateVector:
    """(|01> - |10>)/sqrt(2)."""
    return StateVector(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))


def singlet_expectation(a: BlochVector, b: BlochVector) -> float:
    """<sigma.a (x) sigma.b> for the singlet: -a.b, as a Python float."""
    return float(-a.dot(b))


def orthonormal_basis_containing(phi: StateVector) -> ProjectiveBasis:
    """Deterministic orthonormal basis whose first ket is exactly `phi`.

    The completion Gram-Schmidts the canonical basis against phi (two passes
    for numerical hygiene); phi's amplitudes are stored untouched so that
    overlaps against element 0 reproduce |<phi|.>|^2 bit for bit.
    """
    d = phi.dim
    collected = [np.array(phi.amplitudes, dtype=complex)]
    for k in range(d):
        if len(collected) == d:
            break
        cand = np.zeros(d, dtype=complex)
        cand[k] = 1.0
        for _ in range(2):
            for u in collected:
                cand = cand - np.vdot(u, cand) * u
        norm = np.linalg.norm(cand)
        if norm > 1e-6:
            collected.append(cand / norm)
    return ProjectiveBasis([StateVector(v) for v in collected])


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    # the sum np.linalg.norm forms for a complex vector, without its dispatch
    return StateVector(v / math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)))


def random_basis(dim: int, rng: np.random.Generator) -> ProjectiveBasis:
    """Haar-random orthonormal measurement basis."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    return ProjectiveBasis([StateVector(q[:, k]) for k in range(dim)])


def random_povm(dim: int, n_elements: int, rng: np.random.Generator) -> Povm:
    """Random informationally-unstructured POVM with n_elements outcomes."""
    if n_elements < 2:
        raise ValueError("POVM needs at least 2 elements")
    raw = []
    for _ in range(n_elements):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    eigs, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(eigs)) @ vecs.conj().T
    return Povm([(f"E{k}", inv_sqrt @ raw[k] @ inv_sqrt) for k in range(n_elements)])


def random_bloch(rng: np.random.Generator) -> BlochVector:
    """Uniform point on the unit sphere: z = -1 + 2u and phi = 2 pi v from the next two uniforms,
    the values rng.uniform(-1, 1) and rng.uniform(0, 2 pi) form from them."""
    u, v = rng.random(2).tolist()
    z = -1.0 + 2.0 * u
    phi = 2.0 * np.pi * v
    r = np.sqrt(max(0.0, 1.0 - z * z))
    return BlochVector.normalized(r * np.cos(phi), r * np.sin(phi), z)
