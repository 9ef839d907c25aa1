"""Quantum-core oracle: construction invariants and closed-form values."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mdhv.constants import TOL
from mdhv.models import create_model, singlet_context, stream
from mdhv.models.base import OUTCOME_PAIRS
from mdhv.quantum import (
    BlochVector,
    DensityMatrix,
    Povm,
    ProjectiveBasis,
    StateVector,
    bloch_from_ket,
    born_probability,
    ket_from_bloch,
    orthonormal_basis_containing,
    random_basis,
    random_bloch,
    random_povm,
    random_state,
    singlet_expectation,
    singlet_state,
    spin_eigenket,
)

S = 1.0 / np.sqrt(2.0)
ZERO = StateVector([1, 0])
ONE = StateVector([0, 1])
PLUS = StateVector([S, S])
MINUS = StateVector([S, -S])
Z_BASIS = ProjectiveBasis([ZERO, ONE])


def distinguishing_povm() -> Povm:
    # three-outcome POVM separating |0> and |+| up to an inconclusive element
    w = np.sqrt(2.0) / (1.0 + np.sqrt(2.0))
    e1 = w * ONE.projector()
    e2 = w * MINUS.projector()
    return Povm([("E1", e1), ("E2", e2), ("E3", np.eye(2) - e1 - e2)])


class TestConstruction:
    def test_state_must_be_normalized(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])

    def test_state_needs_dim_two(self):
        with pytest.raises(ValueError):
            StateVector([1.0])

    def test_density_checks(self):
        with pytest.raises(ValueError):
            DensityMatrix([[1.0, 0.5j], [0.5j, 0.0]])  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix([[2.0, 0.0], [0.0, -1.0]])  # not PSD
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BlochVector(np.nan, 0.0, 0.0),
            lambda: StateVector([np.nan, 1.0]),
            lambda: DensityMatrix([[np.nan, 0.0], [0.0, 0.0]]),
            lambda: Povm([("a", [[np.nan, 0.0], [0.0, 0.0]]), ("b", [[0.0, 0.0], [0.0, 1.0]])]),
        ],
        ids=["BlochVector", "StateVector", "DensityMatrix", "Povm"],
    )
    def test_nan_is_rejected(self, build):
        # a NaN compares false with every tolerance, so each check must fail on it
        with pytest.raises(ValueError):
            build()

    def test_povm_checks(self):
        with pytest.raises(ValueError):
            Povm([("a", np.eye(2)), ("a", np.zeros((2, 2)))])  # duplicate labels
        with pytest.raises(ValueError):
            Povm([("a", 0.5 * np.eye(2))])  # does not sum to identity

    @pytest.mark.parametrize(
        "elements, message",
        [
            ([0.25 * np.eye(2), [[0.25, 0.1], [0.0, 0.25]], 0.5 * np.eye(2)], "element 'E1' is not Hermitian"),
            ([0.25 * np.eye(2), 0.25 * np.eye(2), np.diag([1.5, -0.5]), np.diag([-1.0, 1.0])], "element 'E2' is not PSD"),
            ([0.5 * np.eye(2), [[0.5, 0.0], [0.0, np.nan]]], "element 'E1' is not Hermitian"),
            # the first failure in element order, whichever check it fails
            ([np.diag([1.5, -0.5]), [[0.0, 1.0], [0.0, 0.0]]], "element 'E0' is not PSD"),
            ([[[0.0, 1.0], [0.0, 0.0]], np.diag([1.5, -0.5])], "element 'E0' is not Hermitian"),
            ([np.diag([1.5, -0.5]), np.eye(3)], "element 'E0' is not PSD"),
            ([0.5 * np.eye(2), np.eye(3)], "POVM elements must share one dimension"),
            ([0.5 * np.eye(2), np.ones((2, 3))], "element 'E1' is not a square matrix"),
        ],
        ids=["hermitian", "psd", "nan", "psd-first", "hermitian-first", "psd-before-shape", "dims", "square"],
    )
    def test_povm_raises_the_first_failing_check_in_element_order(self, elements, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Povm([(f"E{k}", m) for k, m in enumerate(elements)])

    def test_projective_basis_rejects_nonorthogonal(self):
        with pytest.raises(ValueError):
            ProjectiveBasis([ZERO, PLUS])

    def test_random_povm_valid(self):
        rng = stream(3)
        for dim in (2, 3, 4):
            M = random_povm(dim, dim + 1, rng)
            assert len(M) == dim + 1

    def test_bloch_vector_unit_norm(self):
        with pytest.raises(ValueError):
            BlochVector(1.0, 1.0, 0.0)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank mixed state G G^dagger / tr(G G^dagger)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


class TestBornProbability:
    """born_probability returns the whole distribution over M, in label order."""

    def test_eigenstate(self):
        assert born_probability(DensityMatrix(ZERO.projector()), Z_BASIS).tolist() == [1.0, 0.0]

    def test_symmetry(self):
        p = born_probability(DensityMatrix(PLUS.projector()), Z_BASIS)
        assert p == pytest.approx([0.5, 0.5], abs=TOL.structural)

    def test_distinguishing_povm_entries(self):
        got = born_probability(DensityMatrix(ZERO.projector()), distinguishing_povm())
        assert got[0] == 0.0
        assert got[1] == pytest.approx(np.sqrt(2.0) / (2.0 * (1.0 + np.sqrt(2.0))), abs=TOL.structural)

    def test_weights_follow_the_label_order(self):
        M = distinguishing_povm()
        flipped = Povm(list(zip(M.labels, M.operators))[::-1])
        for prep in (ZERO, PLUS, DensityMatrix(MINUS.projector())):
            p = born_probability(prep, M)
            assert len(p) == len(M)
            assert born_probability(prep, flipped).tolist() == p[::-1].tolist()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_pure_state_in_a_basis_is_the_ket_overlap(self, seed):
        rng = stream(seed)
        dim = int(rng.integers(2, 6))
        M, psi = random_basis(dim, rng), random_state(dim, rng)
        assert born_probability(psi, M).tolist() == [ket.overlap_sq(psi) for ket in M.kets]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_trace_oracle(self, seed):
        rng = stream(seed)
        dim = int(rng.integers(2, 6))
        cases = [
            (random_state(dim, rng), random_povm(dim, dim + 2, rng)),
            (random_density(dim, rng), random_povm(dim, dim + 2, rng)),
            (random_density(dim, rng), random_basis(dim, rng)),
        ]
        for prep, M in cases:
            rho = prep.projector() if isinstance(prep, StateVector) else prep.entries
            oracle = [oracles.born_trace(rho, op) for op in M.operators]
            assert born_probability(prep, M) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("build", ["basis", "povm", "density"])
    def test_a_repeated_evaluation_returns_the_kept_read_only_array(self, build):
        rng = stream(71)
        psi = random_state(3, rng)
        M = random_basis(3, rng) if build == "basis" else random_povm(3, 4, rng)
        prep = random_density(3, rng) if build == "density" else psi
        first = born_probability(prep, M)
        assert born_probability(prep, M) is first
        assert not first.flags.writeable
        # the bits of a measurement that has evaluated nothing yet
        fresh = ProjectiveBasis(M.kets) if build == "basis" else Povm(list(zip(M.labels, M.operators)))
        assert first.tobytes() == born_probability(prep, fresh).tobytes()

    def test_another_state_object_recomputes(self):
        rng = stream(73)
        M = random_povm(3, 4, rng)
        psi, phi = random_state(3, rng), random_state(3, rng)
        p = born_probability(psi, M)
        q = born_probability(phi, M)
        assert q is not p and q.tolist() != p.tolist()
        # an equal state in another object is evaluated again, to the same bits
        twin = StateVector(psi.amplitudes)
        again = born_probability(twin, M)
        assert again is not q and again.tobytes() == p.tobytes()
        assert born_probability(psi, M) is not p  # the measurement keeps its last state only

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            born_probability(DensityMatrix(singlet_state().projector()), Z_BASIS)
        with pytest.raises(ValueError):
            born_probability(singlet_state(), Z_BASIS)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_distribution_normalized(self, seed):
        rng = stream(seed)
        dim = int(rng.integers(2, 6))
        M = random_basis(dim, rng) if rng.random() < 0.5 else random_povm(dim, dim + 2, rng)
        prep = random_state(dim, rng) if rng.random() < 0.5 else random_density(dim, rng)
        p = born_probability(prep, M)
        assert p.sum() == pytest.approx(1.0, abs=TOL.structural)
        assert bool(np.all(p >= 0.0))


class TestBlochParametrization:
    def test_z_axis_gives_zero_ket(self):
        assert ket_from_bloch(BlochVector(0, 0, 1)).overlap_sq(ZERO) == pytest.approx(1.0, abs=TOL.structural)

    def test_x_axis_gives_plus_ket(self):
        assert ket_from_bloch(BlochVector(1, 0, 0)).overlap_sq(PLUS) == pytest.approx(1.0, abs=TOL.structural)

    def test_bloch_requires_qubit(self):
        with pytest.raises(ValueError):
            bloch_from_ket(singlet_state())

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_overlap_matches_half_angle_formula(self, seed):
        rng = stream(seed)
        v, w = random_bloch(rng), random_bloch(rng)
        got = ket_from_bloch(v).overlap_sq(ket_from_bloch(w))
        assert got == pytest.approx((1.0 + v.dot(w)) / 2.0, abs=TOL.structural)

    def test_a_state_forms_its_bloch_vector_once(self):
        s = random_state(2, stream(75))
        v = bloch_from_ket(s)
        assert bloch_from_ket(s) is v
        assert v == bloch_from_ket(StateVector(s.amplitudes))

    @pytest.mark.parametrize("seed", [0, 77, 2**32 - 1, 2**32])
    def test_random_bloch_gives_the_bytes_of_two_uniform_draws(self, seed):
        rng, ref = stream(seed), stream(seed)
        for _ in range(50):
            z, phi = ref.uniform(-1.0, 1.0), ref.uniform(0.0, 2.0 * np.pi)
            r = np.sqrt(max(0.0, 1.0 - z * z))
            want = BlochVector.normalized(r * np.cos(phi), r * np.sin(phi), z)
            assert random_bloch(rng).as_array().tobytes() == want.as_array().tobytes()
        assert rng.random(3).tobytes() == ref.random(3).tobytes()

    def test_round_trip_fixes_the_ray(self):
        rng = stream(7)
        for _ in range(1000):
            s = random_state(2, rng)
            assert ket_from_bloch(bloch_from_ket(s)).overlap_sq(s) == pytest.approx(
                1.0, abs=TOL.structural
            )


def singlet_weights(a: BlochVector, b: BlochVector) -> dict:
    """The singlet models' Born weights along a and b, keyed by the outcome pair (i, j)."""
    return dict(zip(OUTCOME_PAIRS, create_model("brans").born_weights(singlet_context(a, b))))


class TestSinglet:
    def test_perfect_anticorrelation(self):
        a = random_bloch(stream(1))
        assert singlet_weights(a, a)[+1, +1] == pytest.approx(0.0, abs=TOL.arithmetic)
        assert singlet_expectation(a, a) == pytest.approx(-1.0, abs=TOL.arithmetic)

    def test_orthogonal_axes(self):
        a, b = BlochVector(0, 0, 1), BlochVector(1, 0, 0)
        for i in (+1, -1):
            for j in (+1, -1):
                assert singlet_weights(a, b)[i, j] == 0.25
        assert singlet_expectation(a, b) == 0.0

    def test_sixty_degrees(self):
        a = BlochVector(0, 0, 1)
        b = BlochVector.from_polar(np.pi / 3.0, 0.0)
        oracle = oracles.singlet_prob(a.as_array(), b.as_array(), +1, -1)
        assert oracle == pytest.approx(0.375, abs=TOL.structural)
        assert singlet_weights(a, b)[+1, -1] == pytest.approx(oracle, abs=TOL.structural)
        assert singlet_expectation(a, b) == pytest.approx(-0.5, abs=TOL.structural)

    def test_projector_oracle_over_random_pairs(self):
        rng = stream(11)
        for _ in range(1000):
            a, b = random_bloch(rng), random_bloch(rng)
            assert oracles.singlet_expectation_sum(a.as_array(), b.as_array()) == pytest.approx(
                singlet_expectation(a, b), abs=TOL.structural
            )

    def test_expectation_equals_outcome_sum(self):
        rng = stream(13)
        for _ in range(200):
            a, b = random_bloch(rng), random_bloch(rng)
            total = sum(i * j * w for (i, j), w in singlet_weights(a, b).items())
            assert total == pytest.approx(singlet_expectation(a, b), abs=TOL.arithmetic)

    def test_outcomes_sum_to_one(self):
        rng = stream(17)
        a, b = random_bloch(rng), random_bloch(rng)
        total = sum(singlet_weights(a, b).values())
        assert total == pytest.approx(1.0, abs=TOL.arithmetic)

    def test_spin_eigenkets_are_eigenstates(self):
        rng = stream(19)
        axis = random_bloch(rng)
        proj_plus = oracles.spin_projector(axis.as_array(), +1)
        ket = spin_eigenket(axis, +1)
        assert np.vdot(ket.amplitudes, proj_plus @ ket.amplitudes).real == pytest.approx(
            1.0, abs=TOL.structural
        )


class TestBasisCompletion:
    def test_first_ket_is_exactly_phi(self):
        rng = stream(23)
        for dim in (2, 3, 4, 5):
            phi = random_state(dim, rng)
            M = orthonormal_basis_containing(phi)
            assert np.array_equal(M.kets[0].amplitudes, phi.amplitudes)

    def test_completion_is_a_valid_basis(self):
        rng = stream(29)
        for dim in (2, 3, 4, 5, 8):
            phi = random_state(dim, rng)
            M = orthonormal_basis_containing(phi)  # ProjectiveBasis validates on build
            assert len(M) == dim


RANDOM_BASIS_SHA256 = {
    2: "3084f55191c244e0096c609195bf7628ef8c0c6eaef73f69a152a1e99df4f9fd",
    3: "e93aa3b57c71a418cbf499448398053efd3dc807eee35c1c9b2e8aa8f47ebf56",
    4: "08817e793c2dbae3b481bf88186a451ca9322b03cf6e3d6f2bd44e796252702f",
}


@pytest.mark.parametrize("dim", sorted(RANDOM_BASIS_SHA256))
def test_random_basis_bytes_are_pinned(dim):
    """random_basis takes its kets from LAPACK's QR, whose last bits follow the
    BLAS kernel (numpy 2.4.6, scipy-openblas 0.3.31, SkylakeX kernel). A kernel
    or LAPACK change then fails here by name, before the pinned CLI hashes."""
    M = random_basis(dim, stream(59, dim))
    data = b"".join(ket.amplitudes.tobytes() for ket in M.kets)
    assert hashlib.sha256(data).hexdigest() == RANDOM_BASIS_SHA256[dim]


def haar_kets(dim: int, rng) -> list[np.ndarray]:
    """The columns of a Haar-random unitary, as random_basis draws them."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return [q[:, k] for k in range(dim)]


def basis_accepts(kets: list[np.ndarray]) -> bool:
    try:
        ProjectiveBasis([StateVector(k) for k in kets])
    except ValueError:
        return False
    return True


def overlapping(kets: list[np.ndarray], eps: float) -> list[np.ndarray]:
    """kets with the second one tilted toward the first, so |<k0|k1>| = eps to first order."""
    tilted = kets[1] + eps * kets[0]
    return [kets[0], tilted / np.linalg.norm(tilted), *kets[2:]]


def stretched(kets: list[np.ndarray], delta: float) -> list[np.ndarray]:
    """kets with the first one's norm 1 + delta."""
    return [kets[0] * (1.0 + delta), *kets[1:]]


DIMS = (2, 3, 4, 8, 16)


class TestBasisCheck:
    """The one orthonormality check of ProjectiveBasis accepts nothing that the
    per-projector checks (oracles.projector_checks_accept) reject."""

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_random_bases_pass_both_checks_with_unchanged_projectors(self, dim):
        kets = haar_kets(dim, stream(41, dim))
        assert oracles.projector_checks_accept(kets, TOL.structural)
        M = ProjectiveBasis([StateVector(k) for k in kets])
        assert M.labels == tuple(str(k) for k in range(dim))
        for ket, op in zip(M.kets, M.operators):
            assert op.dtype == ket.projector().dtype
            assert op.tobytes() == ket.projector().tobytes()

    @pytest.mark.parametrize("dim", DIMS)
    def test_near_boundary_inputs_the_basis_check_accepts_pass_the_projector_checks(self, dim):
        kets = haar_kets(dim, stream(43, dim))
        cases = {
            **{f"overlap {eps:.2g}": overlapping(kets, eps) for eps in (0.5e-9, 2e-9, dim * 1e-9)},
            **{f"norm off by {delta:.2g}": stretched(kets, delta) for delta in (0.45e-9, 0.9e-9)},
        }
        accepted = {name for name, case in cases.items() if basis_accepts(case)}
        for name in accepted:
            assert oracles.projector_checks_accept(cases[name], TOL.structural), name
        # the check sits at TOL.structural: it takes the small perturbations and refuses the rest
        assert accepted == {"overlap 5e-10", "norm off by 4.5e-10"}

    @pytest.mark.parametrize("dim", DIMS)
    def test_wrong_count_or_nonorthogonal_kets_are_rejected(self, dim):
        kets = haar_kets(dim, stream(47, dim))
        for case in (kets[:-1], [*kets, kets[0]], overlapping(kets, 1e-6)):
            with pytest.raises(ValueError):
                ProjectiveBasis([StateVector(k) for k in case])

    def test_no_kets_or_kets_of_two_dimensions_are_rejected(self):
        with pytest.raises(ValueError):
            ProjectiveBasis([])
        with pytest.raises(ValueError):
            ProjectiveBasis([ZERO, StateVector([0, 1, 0])])

    def test_building_a_basis_computes_no_eigenvalues(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        rng = stream(53)
        for dim in DIMS:
            random_basis(dim, rng)
            orthonormal_basis_containing(random_state(dim, rng))
        assert calls == []
        random_povm(3, 4, rng)  # a general POVM still checks each element's eigenvalues
        # counted in matrices: the POVM check passes its elements as one (K, d, d) stack
        assert sum(np.reshape(m, (-1, *np.shape(m)[-2:])).shape[0] for m in calls) == 4

    def test_a_basis_forms_no_projector_until_one_is_read(self, monkeypatch):
        calls = []
        projector = StateVector.projector
        monkeypatch.setattr(StateVector, "projector", lambda ket: calls.append(ket) or projector(ket))
        rng = stream(61)
        bases = []
        for dim in DIMS:
            bases += [random_basis(dim, rng), orthonormal_basis_containing(random_state(dim, rng))]
        assert calls == []
        for M in bases:
            ops = M.operators
            assert M.operators is ops
            assert len(ops) == M.dim
            for ket, op in zip(M.kets, ops):
                assert op.dtype == projector(ket).dtype
                assert op.tobytes() == projector(ket).tobytes()
                assert not op.flags.writeable
        assert len(calls) == sum(M.dim for M in bases)
