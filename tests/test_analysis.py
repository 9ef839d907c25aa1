"""Auditor checks: epistemicity, classical overlap, randomness, reciprocity,
PI, compatibility, remote-setting dependence."""

import json
from statistics import NormalDist

import numpy as np
import pytest

import oracles
from conftest import cell_contexts, orthogonal_pair_contexts
from mdhv.constants import TOL
from mdhv import analysis
from mdhv.models import ModelContext, create_model, json_form, singlet_context, stream
from mdhv.models.gbrans import GeneralizedBrans
from mdhv.quantum import (
    BlochVector,
    Povm,
    ProjectiveBasis,
    StateVector,
    orthonormal_basis_containing,
    random_basis,
    random_bloch,
    random_state,
)

S = 1.0 / np.sqrt(2.0)
ZERO = StateVector([1, 0])
ONE = StateVector([0, 1])
PLUS = StateVector([S, S])
MINUS = StateVector([S, -S])
Z_BASIS = ProjectiveBasis([ZERO, ONE])
Z_AXIS = BlochVector(0, 0, 1)
X_AXIS = BlochVector(1, 0, 0)
DEG60 = BlochVector.from_polar(np.pi / 3, 0.0)


class NoisyResponse(GeneralizedBrans):
    """Synthetic non-deterministic wrapper: (1-eta) point mass + eta uniform.

    Density and sampling stay those of the discrete base model; only the
    response softens, which is exactly what the randomness/reciprocity
    auditors probe.
    """

    name = "noisy-gbrans"

    def __init__(self, eta: float = 0.1):
        self.eta = eta

    def respond_probability_arrays(self, arrays, ctx, label_index):
        hard = super().respond_probability_arrays(arrays, ctx, label_index)
        return (1.0 - self.eta) * hard + self.eta / len(self.outcome_labels(ctx))


def distinguishing_povm() -> Povm:
    w = np.sqrt(2.0) / (1.0 + np.sqrt(2.0))
    e1 = w * ONE.projector()
    e2 = w * MINUS.projector()
    return Povm([("E1", e1), ("E2", e2), ("E3", np.eye(2) - e1 - e2)])


def mixed_psi_plus_basis() -> ProjectiveBasis:
    return ProjectiveBasis(
        [
            ZERO.tensor(ZERO),
            ZERO.tensor(ONE),
            StateVector([0, 0, S, S]),
            StateVector([0, 0, S, -S]),
        ]
    )


def product_zz_basis() -> ProjectiveBasis:
    return ProjectiveBasis(
        [ZERO.tensor(ZERO), ZERO.tensor(ONE), ONE.tensor(ZERO), ONE.tensor(ONE)]
    )


def bell_basis() -> ProjectiveBasis:
    return ProjectiveBasis(
        [
            StateVector([S, 0, 0, S]),
            StateVector([S, 0, 0, -S]),
            StateVector([0, S, S, 0]),
            StateVector([0, S, -S, 0]),
        ]
    )


def pbr_basis() -> ProjectiveBasis:
    return ProjectiveBasis(
        [
            StateVector([0, S, S, 0]),
            StateVector([0.5, -0.5, 0.5, 0.5]),
            StateVector([0.5, 0.5, -0.5, 0.5]),
            StateVector([S, 0, 0, -S]),
        ]
    )


class TestDegreeOfEpistemicity:
    def test_gbrans_analytic_omega_is_exactly_one(self):
        model = create_model("gbrans")
        rng = stream(501)
        for dim in (2, 3, 4, 5):
            for _ in range(10):
                psi, phi = random_state(dim, rng), random_state(dim, rng)
                M = orthonormal_basis_containing(phi)
                rep = analysis.degree_of_epistemicity(model, psi, phi, M)
                assert rep.method == "analytic"
                assert rep.omega == 1.0
                assert rep.classification == "overlapping"

    def test_same_state_gives_mass_one(self):
        model = create_model("bellmermin")
        psi = random_state(2, stream(503))
        M = orthonormal_basis_containing(psi)
        rep = analysis.degree_of_epistemicity(model, psi, psi, M, samples=50_000, seed=1)
        assert rep.mass_psi_in_phi_support == 1.0
        assert rep.omega == 1.0

    def test_bellmermin_monte_carlo_maximal(self):
        model = create_model("bellmermin")
        rng = stream(505)
        psi, phi = random_state(2, rng), random_state(2, rng)
        M = orthonormal_basis_containing(phi)
        rep = analysis.degree_of_epistemicity(
            model, psi, phi, M, samples=1_000_000, seed=2, method="monte-carlo"
        )
        assert rep.method == "monte-carlo"
        assert abs(rep.omega - 1.0) <= 5.0 * rep.mass_stderr / rep.quantum_overlap_sq + 1e-9

    def test_analytic_and_monte_carlo_paths_agree(self):
        model = create_model("gbrans")
        rng = stream(506)
        for dim in (2, 3, 4):
            psi, phi = random_state(dim, rng), random_state(dim, rng)
            M = orthonormal_basis_containing(phi)
            exact = analysis.degree_of_epistemicity(model, psi, phi, M)
            mc = analysis.degree_of_epistemicity(
                model, psi, phi, M, samples=200_000, seed=dim, method="monte-carlo"
            )
            gate = 5.0 * mc.mass_stderr / mc.quantum_overlap_sq
            assert abs(mc.omega - exact.omega) <= max(gate, 1e-9)

    def test_requires_phi_projector_in_measurement(self):
        model = create_model("gbrans")
        with pytest.raises(ValueError):
            analysis.degree_of_epistemicity(model, PLUS, ket := random_state(2, stream(507)), Z_BASIS)

    def test_requires_nonzero_overlap(self):
        model = create_model("gbrans")
        with pytest.raises(ValueError):
            analysis.degree_of_epistemicity(model, ONE, ZERO, Z_BASIS)

    def test_report_serializes(self):
        model = create_model("gbrans")
        rep = analysis.degree_of_epistemicity(model, PLUS, ZERO, Z_BASIS)
        assert '"omega"' in json.dumps(rep, default=json_form)


def closed_form_cases():
    """(model name, ctx_from, ctx_support) pairs inside each model's closed form."""
    rng = stream(511)
    cases = []
    for name in ("brans", "hall"):
        model = create_model(name)
        for _ in range(2):
            c = random_bloch(rng)
            ctx_from = model.random_context(rng)
            # parallel support axes give brans' ++ and -- zero weight
            cases.append((name, ctx_from, singlet_context(c, c)))
            cases.append((name, ctx_from, model.random_context(rng)))
    for name in ("ks1", "bellmermin"):
        model = create_model(name)
        for _ in range(3):
            psi, phi, M = random_state(2, rng), random_state(2, rng), random_basis(2, rng)
            cases.append((name, model.basis_context(psi, M), model.basis_context(phi, M)))
    ks2 = create_model("ks2")
    for k in (0, 1, 1):
        psi, M = random_state(2, rng), random_basis(2, rng)
        cases.append(("ks2", ks2.basis_context(psi, M), ks2.basis_context(M.kets[k], M)))
    interval = create_model("interval")
    for dim in (2, 3, 4):
        psi, phi, M = random_state(dim, rng), random_state(dim, rng), random_basis(dim, rng)
        cases.append(("interval", interval.basis_context(psi, M), interval.basis_context(phi, M)))
        # phi a basis ket: its density is 0 beyond its one bin
        cases.append(("interval", interval.basis_context(psi, M), interval.basis_context(M.kets[1], M)))
    return cases


CLOSED_FORM_CASES = closed_form_cases()


class TestClosedFormSupportMass:
    """Each model's support_mass_exact against the Monte Carlo mass it replaces."""

    @pytest.mark.parametrize(
        "case",
        range(len(CLOSED_FORM_CASES)),
        ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(CLOSED_FORM_CASES)],
    )
    def test_agrees_with_the_sampled_mass(self, case):
        name, ctx_from, ctx_support = CLOSED_FORM_CASES[case]
        model = create_model(name)
        exact, err, method = analysis.support_overlap_mass(model, ctx_from, ctx_support)
        assert method == "analytic" and err == 0.0
        arrays = model.sample_arrays(ctx_from, 200_000, stream(512, case))
        mc = model.in_support_arrays(arrays, ctx_support).mean()
        sigma = np.sqrt(mc * (1.0 - mc) / 200_000)
        assert abs(mc - exact) <= 5.0 * sigma + 1e-12

    def test_ks2_off_axis_support_falls_back_to_monte_carlo(self):
        model = create_model("ks2")
        rng = stream(513)
        ctx_from, ctx_support = model.random_context(rng), model.random_context(rng)
        assert model.support_mass_exact(ctx_from, ctx_support) is None
        _, err, method = analysis.support_overlap_mass(model, ctx_from, ctx_support, 1000, 1)
        assert method == "monte-carlo" and err > 0.0

    def test_qubit_basis_models_fall_back_across_measurements(self):
        rng = stream(514)
        for name in ("ks1", "bellmermin"):
            model = create_model(name)
            ctx_from, ctx_support = model.random_context(rng), model.random_context(rng)
            assert model.support_mass_exact(ctx_from, ctx_support) is None

    def test_hall_density_clears_the_support_threshold_at_the_degeneracy_cut(self):
        """Hall's closed form is 1.0 because its density never falls to TOL.support;
        it is smallest just off the degeneracy cut |a.b| = 1 - TOL.structural."""
        model = create_model("hall")
        c = 1.0 - 1.0000001 * TOL.structural
        for sign in (1.0, -1.0):
            b = BlochVector(np.sqrt(1.0 - c * c), 0.0, sign * c)
            ctx = singlet_context(Z_AXIS, b)
            g_plus, g_minus, degenerate = model._branch_values(ctx)
            assert not degenerate
            assert min(g_plus, g_minus) / (4.0 * np.pi) > TOL.support

    def test_orthogonal_states_give_exactly_zero(self):
        for name in ("ks1", "ks2", "bellmermin"):
            model = create_model(name)
            for trial in range(5):
                ctx_a, ctx_b = orthogonal_pair_contexts(model, stream(515, trial))
                assert analysis.support_overlap_mass(model, ctx_a, ctx_b) == (0.0, 0.0, "analytic")


def chi2_band(dof: int, alpha: float) -> tuple[float, float]:
    """Two-sided chi-square(dof) quantiles at total tail alpha (Wilson-Hilferty)."""
    v = 2.0 / (9.0 * dof)
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return tuple(dof * (1.0 - v + s * z * np.sqrt(v)) ** 3 for s in (-1.0, 1.0))


def coverage_context(model, dim: int):
    """(psi, phi, M, exact mass) with M resolving phi and the exact mass in (0.2, 0.8)."""
    rng = stream(521, dim)
    while True:
        psi, phi = random_state(dim, rng), random_state(dim, rng)
        M = orthonormal_basis_containing(phi)
        exact = model.support_mass_exact(model.basis_context(psi, M), model.basis_context(phi, M))
        if 0.2 < exact < 0.8:
            return psi, phi, M, exact


class TestMonteCarloStderrCoverage:
    """OverlapReport.mass_stderr on the Monte Carlo path matches the spread it
    claims: over R seeds, z = (mass - exact)/mass_stderr has var(z) inside the
    two-sided chi-square(R - 1) band at 1e-6, so a bar scaled by 0.5 or 2 fails."""

    R = 400

    @pytest.mark.parametrize(
        "name, dim", [("ks1", 2), ("ks2", 2), ("bellmermin", 2), ("interval", 3), ("gbrans", 3)]
    )
    def test_mass_stderr_covers_the_exact_mass(self, name, dim):
        model = create_model(name)
        psi, phi, M, exact = coverage_context(model, dim)
        z = []
        for seed in range(self.R):
            rep = analysis.degree_of_epistemicity(
                model, psi, phi, M, samples=2000, seed=seed, method="monte-carlo"
            )
            z.append((rep.mass_psi_in_phi_support - exact) / rep.mass_stderr)
        lo, hi = chi2_band(self.R - 1, 1e-6)
        var = float(np.var(z, ddof=1))
        assert lo / (self.R - 1) <= var <= hi / (self.R - 1), var


class TestOverlaps:
    def test_classical_overlap_identical_states(self):
        rng = stream(507)
        states = [(PLUS, Z_BASIS), (random_state(2, rng), random_basis(2, rng))]
        for name in ("gbrans", "interval", "ks1", "ks2", "bellmermin"):
            model = create_model(name)
            for psi, M in states:
                assert abs(analysis.classical_overlap(model, psi, psi, M) - 1.0) <= TOL.arithmetic

    def test_classical_overlap_orthogonal_discrete(self):
        model = create_model("gbrans")
        M = orthonormal_basis_containing(random_state(3, stream(509)))
        psi, phi = M.kets[0], M.kets[1]
        assert analysis.classical_overlap(model, psi, phi, M) == pytest.approx(
            0.0, abs=TOL.arithmetic
        )

    def test_classical_overlap_orthogonal_sphere_models(self):
        rng = stream(511)
        M = orthonormal_basis_containing(random_state(2, rng))
        psi, phi = M.kets[0], M.kets[1]
        for name in ("ks1", "ks2", "bellmermin"):
            model = create_model(name)
            w = analysis.classical_overlap(model, psi, phi, M, resolution=100_000, seed=3)
            assert abs(w) <= TOL.arithmetic

    # each tolerance is about 3x the 200 x 400 grid's largest error on these contexts;
    # summed over labels ks1's density is continuous, ks2's and bellmermin's jump
    @pytest.mark.parametrize("name, tol", [("ks1", 2e-4), ("ks2", 2e-3), ("bellmermin", 1e-3)])
    def test_sphere_overlaps_match_the_grid_oracle(self, name, tol):
        model = create_model(name)
        rng = stream(513)
        for _ in range(20):
            psi, phi, M = random_state(2, rng), random_state(2, rng), random_basis(2, rng)
            kets = [k.amplitudes for k in M.kets]
            want = oracles.sphere_overlap_grid(name, psi.amplitudes, phi.amplitudes, kets, 200, 400)
            assert abs(analysis.classical_overlap(model, psi, phi, M) - want) <= tol

    def test_bellmermin_overlap_is_the_band_between_nested_caps(self):
        model = create_model("bellmermin")
        for psi, phi, M in cell_contexts(515, 100):
            psi_hat, phi_hat = oracles.bloch_of(psi.amplitudes), oracles.bloch_of(phi.amplitudes)
            want = oracles.bellmermin_overlap(psi_hat, phi_hat, oracles.bloch_of(M.kets[0].amplitudes))
            assert abs(analysis.classical_overlap(model, psi, phi, M) - want) <= TOL.arithmetic

    @pytest.mark.parametrize("name", ["brans", "hall"])
    def test_classical_overlap_is_undefined_for_the_singlet_models(self, name):
        with pytest.raises(TypeError):
            analysis.classical_overlap(create_model(name), PLUS, ZERO, Z_BASIS)

    def test_classical_overlap_interval_exact_piecewise(self):
        model = create_model("interval")
        # |0> vs |+> in Z: densities 1 on (0,1) and 1/sqrt2 on (0, sqrt2)
        w = analysis.classical_overlap(model, ZERO, PLUS, Z_BASIS)
        expected = 1.0 - 0.5 * ((1.0 - S) * 1.0 + S * (np.sqrt(2.0) - 1.0))
        assert w == pytest.approx(expected, abs=TOL.structural)


class TestRandomness:
    def test_gbrans_randomness_is_exactly_zero(self):
        model = create_model("gbrans")
        rng = stream(513)
        for _ in range(10):
            psi = random_state(3, rng)
            M = orthonormal_basis_containing(random_state(3, rng))
            for label in M.labels:
                assert analysis.randomness(model, psi, M, label, samples=5_000, seed=1) == 0.0

    def test_all_deterministic_models_zero(self):
        for name in ("gbrans", "interval", "ks1", "ks2", "bellmermin"):
            model = create_model(name)
            psi = random_state(2, stream(517))
            M = orthonormal_basis_containing(random_state(2, stream(519)))
            label = model.outcome_labels(model.basis_context(psi, M))[0]
            assert analysis.randomness(model, psi, M, label, samples=5_000, seed=2) == 0.0

    def test_noisy_model_matches_closed_form(self):
        model = NoisyResponse(eta=0.1)
        # all mass on lambda_0; response probs: 0.95 for "0", 0.05 for "1"
        got0 = analysis.randomness(model, ZERO, Z_BASIS, "0", samples=40_000, seed=3)
        got1 = analysis.randomness(model, ZERO, Z_BASIS, "1", samples=40_000, seed=3)
        assert got0 == pytest.approx(0.95, abs=1e-9)
        assert got1 == pytest.approx(0.05, abs=1e-9)


class TestReciprocity:
    def test_gbrans_reciprocal(self):
        model = create_model("gbrans")
        rng = stream(523)
        psi = random_state(4, rng)
        rep = analysis.reciprocity_check(model, psi, orthonormal_basis_containing(psi), 20_000, 1)
        assert rep.reciprocal and rep.violation_mass == 0.0

    def test_ks2_reciprocal_on_aligned_context(self):
        model = create_model("ks2")
        psi = random_state(2, stream(527))
        rep = analysis.reciprocity_check(model, psi, orthonormal_basis_containing(psi), 20_000, 2)
        assert rep.reciprocal and rep.violation_mass == 0.0

    def test_noisy_model_fully_violates(self):
        rep = analysis.reciprocity_check(NoisyResponse(0.1), ZERO, Z_BASIS, 5_000, 3)
        assert not rep.reciprocal and rep.violation_mass == 1.0

    def test_requires_psi_projector(self):
        with pytest.raises(ValueError):
            analysis.reciprocity_check(create_model("gbrans"), PLUS, Z_BASIS, 100, 1)


class TestMaximalEpistemicityEquivalence:
    """determinism and reciprocity hold together iff the phi-outcome mass is
    drawn entirely from phi's support (checked on discrete models exactly)."""

    @staticmethod
    def _witness(model, psi, phi, M) -> float:
        ctx = ModelContext(psi, M)
        k = analysis.projector_index(M, phi)
        p = model.density_arrays({"j": np.arange(len(M))}, ctx)
        q = model.density_arrays({"j": np.arange(len(M))}, ModelContext(phi, M))
        resp = np.array(
            [
                model.respond_probability_arrays({"j": np.array([j])}, ctx, k)[0]
                for j in range(len(M))
            ]
        )
        total = float(np.sum(resp * p))
        inside = float(np.sum(resp * p * (q > TOL.support)))
        return inside / total if total > 0 else 1.0

    def test_gbrans_both_sides_true(self):
        model = create_model("gbrans")
        rng = stream(529)
        psi, phi = random_state(2, rng), random_state(2, rng)
        M = orthonormal_basis_containing(phi)
        assert analysis.randomness(model, phi, M, M.labels[0], 5_000, 1) == 0.0
        assert analysis.reciprocity_check(model, phi, M, 5_000, 1).reciprocal
        assert self._witness(model, psi, phi, M) == pytest.approx(1.0, abs=TOL.arithmetic)

    def test_noisy_model_both_sides_false(self):
        model = NoisyResponse(0.1)
        rng = stream(531)
        psi, phi = random_state(2, rng), random_state(2, rng)
        M = orthonormal_basis_containing(phi)
        assert analysis.randomness(model, phi, M, M.labels[0], 5_000, 2) > 0.0
        assert not analysis.reciprocity_check(model, phi, M, 5_000, 2).reciprocal
        assert self._witness(model, psi, phi, M) < 1.0 - 1e-6


class TestPreparationIndependence:
    def test_product_basis_no_residual(self):
        model = create_model("gbrans")
        rep = analysis.preparation_independence_residual(model, [ZERO, ZERO], product_zz_basis())
        assert rep.max_residual == 0.0

    def test_bell_basis_on_00_happens_to_factorize(self):
        model = create_model("gbrans")
        rep = analysis.preparation_independence_residual(model, [ZERO, ZERO], bell_basis())
        assert rep.max_residual <= TOL.arithmetic

    def test_mixed_basis_violation_is_one_eighth(self):
        model = create_model("gbrans")
        rep = analysis.preparation_independence_residual(model, [PLUS, ZERO], mixed_psi_plus_basis())
        assert rep.max_residual == pytest.approx(0.125, abs=TOL.arithmetic)
        assert rep.joint["00"] == pytest.approx(0.5, abs=TOL.arithmetic)
        assert rep.product_of_marginals["00"] == pytest.approx(0.375, abs=TOL.arithmetic)

    def test_maps_are_normalized(self):
        model = create_model("gbrans")
        rep = analysis.preparation_independence_residual(model, [PLUS, ZERO], mixed_psi_plus_basis())
        assert sum(rep.joint.values()) == pytest.approx(1.0, abs=TOL.structural)
        assert sum(rep.product_of_marginals.values()) == pytest.approx(1.0, abs=TOL.structural)

    def test_rejects_wrong_outcome_count(self):
        model = create_model("gbrans")
        three = Povm(
            [("a", np.kron(ZERO.projector(), np.eye(2))), ("b", np.kron(ONE.projector(), np.eye(2)))]
        )
        with pytest.raises(ValueError):
            analysis.preparation_independence_residual(model, [ZERO, ZERO, ZERO], three)


class TestSupports:
    def test_distinguishing_povm_overlap_entry(self):
        model = create_model("gbrans")
        M = distinguishing_povm()
        j = {"j": np.array([2, 0])}
        assert model.in_support_arrays(j, ModelContext(ZERO, M)).tolist() == [True, False]
        assert model.in_support_arrays(j, ModelContext(PLUS, M))[0]

    def test_sampled_points_are_supported(self, any_model):
        ctx = any_model.random_context(stream(537))
        arrays = any_model.sample_arrays(ctx, 1, stream(541))
        assert any_model.in_support_arrays(arrays, ctx).tolist() == [True]


class TestCompatibilityAudit:
    def test_full_support_pair_is_affirmatively_compatible(self):
        model = create_model("gbrans")
        y_plus = StateVector([S, 1j * S])
        rep = analysis.compatibility_audit(model, PLUS, y_plus, product_zz_basis())
        assert rep.premise == (0, 1, 2, 3)
        assert rep.compatible
        assert rep.locally_compatible

    def test_zero_plus_pair_fails_the_implications(self):
        # enumeration witness: the |01> tag sits in both padded supports but
        # not in supp(|+0>) or supp(|00>), so the model is not compatible
        model = create_model("gbrans")
        rep = analysis.compatibility_audit(model, ZERO, PLUS, product_zz_basis())
        assert rep.premise == (0, 1)
        assert not rep.implications["premise_in_phi_psi"]
        assert not rep.implications["psi_padded_in_psi_psi"]
        assert not rep.compatible

    def test_pbr_basis_empties_common_support(self):
        model = create_model("gbrans")
        rep = analysis.compatibility_audit(model, ZERO, PLUS, pbr_basis())
        assert rep.common_support == ()
        for support in rep.product_supports.values():
            assert len(support) == 3  # one orthogonal outcome dropped per preparation

    def test_disjoint_premise_is_vacuous(self):
        model = create_model("gbrans")
        rep = analysis.compatibility_audit(model, ZERO, ONE, product_zz_basis())
        assert rep.premise == ()
        assert rep.implications["premise_in_psi_phi"]
        assert rep.implications["premise_in_phi_psi"]

    def test_continuous_models_rejected(self):
        with pytest.raises(TypeError):
            analysis.compatibility_audit(create_model("ks1"), ZERO, PLUS, product_zz_basis())

    def test_report_serializes(self):
        model = create_model("gbrans")
        rep = analysis.compatibility_audit(model, ZERO, PLUS, product_zz_basis())
        assert '"compatible"' in json.dumps(rep, default=json_form)


class TestSettingMarginalDependence:
    def test_brans_remote_swap_is_exactly_zero(self):
        model = create_model("brans")
        rng = stream(547)
        for particle in (1, 2):
            rep = analysis.setting_marginal_dependence(
                model, particle, random_bloch(rng), random_bloch(rng), random_bloch(rng)
            )
            assert rep.tv_distance == 0.0 and rep.method == "exact"

    def test_identical_contexts_give_zero(self):
        model = create_model("hall")
        rep = analysis.setting_marginal_dependence(model, 2, Z_AXIS, DEG60, DEG60, 100_000, 1)
        assert rep.tv_distance == 0.0

    def test_hall_generic_swap_matches_oracle(self):
        # frozen oracle: contexts (z, 60deg) vs (z, x) differ by 0.125 on the
        # complement lune and 0.25 on the s=-1 lune -> TV = 1/12
        oracle = oracles.hall_tv(Z_AXIS.as_array(), DEG60.as_array(), X_AXIS.as_array())
        assert oracle == pytest.approx(1.0 / 12.0, abs=3e-3)
        model = create_model("hall")
        rep = analysis.setting_marginal_dependence(model, 2, Z_AXIS, DEG60, X_AXIS, 1_000_000, 2)
        assert rep.tv_distance == pytest.approx(1.0 / 12.0, abs=1e-3)
        assert rep.tv_distance > 0.01

    def test_hall_axis_aligned_contexts_are_both_uniform(self):
        # both (z,z) and (z,x) give the uniform marginal: aligned axes make s
        # identically +1 with branch value 1, orthogonal axes zero out both
        # correction terms, so this particular swap is invisible
        oracle = oracles.hall_tv(Z_AXIS.as_array(), Z_AXIS.as_array(), X_AXIS.as_array())
        assert oracle == 0.0
        model = create_model("hall")
        rep = analysis.setting_marginal_dependence(model, 2, Z_AXIS, Z_AXIS, X_AXIS, 200_000, 3)
        assert rep.tv_distance == 0.0

    def test_swap_symmetry(self):
        model = create_model("hall")
        r1 = analysis.setting_marginal_dependence(model, 1, Z_AXIS, DEG60, X_AXIS, 200_000, 4)
        r2 = analysis.setting_marginal_dependence(model, 1, Z_AXIS, X_AXIS, DEG60, 200_000, 4)
        assert r1.tv_distance == pytest.approx(r2.tv_distance, abs=5e-4)

    def test_hall_stderr_covers_the_spread_over_seeds(self):
        # the iid stderr overstates the stratified design's error (about 4.7e-4
        # against a spread of 1.4e-4 here); it must never understate it
        model = create_model("hall")
        reps = [
            analysis.setting_marginal_dependence(model, 1, Z_AXIS, DEG60, X_AXIS, 4000, seed)
            for seed in range(30)
        ]
        spread = np.std([r.tv_distance for r in reps], ddof=1)
        assert spread < min(r.stderr for r in reps)

    def test_rejects_other_models(self):
        with pytest.raises(TypeError):
            analysis.setting_marginal_dependence(create_model("gbrans"), 1, Z_AXIS, Z_AXIS, X_AXIS)

