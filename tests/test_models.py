"""Model suite: interface contracts plus each model's defining identities."""

import json

import numpy as np
import pytest

import oracles
from conftest import STATE_MODEL_NAMES, cell_contexts, orthogonal_pair_contexts
from mdhv.channel import ChannelTranscript
from mdhv.constants import TOL
from mdhv.models import (
    MODEL_REGISTRY,
    ModelContext,
    OnticKind,
    create_model,
    run_experiment,
    singlet_context,
    stream,
)
from mdhv.models import hall as hall_model
from mdhv.models.base import (
    JOINT_LABELS,
    OUTCOME_PAIRS,
    _qubit_basis_axes,
    categorical,
    json_form,
    rejection_sample,
)
from mdhv.models.ks import KochenSpecker2
from mdhv.quantum import (
    BlochVector,
    DensityMatrix,
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
)
from mdhv.sphere import BLOCK_ROWS, great_circle_cells, stratified_sphere_points, uniform_cap, uniform_sphere

S = 1.0 / np.sqrt(2.0)
ZERO = StateVector([1, 0])
ONE = StateVector([0, 1])
PLUS = StateVector([S, S])
Z_BASIS = ProjectiveBasis([ZERO, ONE])
Z_AXIS = BlochVector(0, 0, 1)
X_AXIS = BlochVector(1, 0, 0)
DEG60 = BlochVector.from_polar(np.pi / 3, 0.0)


def one(**columns):
    """One ontic value as length-1 named arrays."""
    return {key: np.array([value]) for key, value in columns.items()}


# ---------------------------------------------------------------------------
# Shared interface contracts
# ---------------------------------------------------------------------------


class TestInterfaceContracts:
    def test_respond_is_an_exact_point_mass(self, any_model):
        rng = stream(101)
        ctx = any_model.random_context(rng)
        arrays = any_model.sample_arrays(ctx, 20, rng)
        resp = np.stack(
            [
                any_model.respond_probability_arrays(arrays, ctx, k)
                for k in range(len(any_model.outcome_labels(ctx)))
            ]
        )
        assert set(resp.ravel().tolist()) <= {0.0, 1.0}
        assert resp.sum(axis=0).tolist() == [1.0] * 20

    def test_samples_land_in_support(self, any_model):
        rng = stream(103)
        for trial in range(5):
            ctx = any_model.random_context(rng)
            arrays = any_model.sample_arrays(ctx, 5000, stream(103, trial))
            assert bool(np.all(any_model.in_support_arrays(arrays, ctx)))

    def test_seed_reproducibility(self, any_model):
        ctx = any_model.random_context(stream(105))
        a = run_experiment(any_model, ctx, 30_000, seed=9)
        b = run_experiment(any_model, ctx, 30_000, seed=9)
        assert a == b and json.dumps(a, default=json_form) == json.dumps(b, default=json_form)

    def test_thread_count_does_not_change_report(self, any_model):
        ctx = any_model.random_context(stream(107))
        a = run_experiment(any_model, ctx, 150_000, seed=5, threads=1)
        b = run_experiment(any_model, ctx, 150_000, seed=5, threads=4)
        assert json.dumps(a, default=json_form) == json.dumps(b, default=json_form)

    def test_report_counts_consistent(self, any_model):
        ctx = any_model.random_context(stream(109))
        rep = run_experiment(any_model, ctx, 12_345, seed=1)
        assert sum(rep.counts.values()) == rep.shots
        for label, count in rep.counts.items():
            assert rep.estimates[label] == count / rep.shots
        parsed = json.loads(json.dumps(rep, default=json_form))
        assert list(parsed) == ["shots", "seed", "counts", "estimates", "born_reference"]

    def test_born_agreement_quick(self, any_model):
        shots = 20_000
        for trial in range(10):
            ctx = any_model.random_context(stream(111, trial))
            rep = run_experiment(any_model, ctx, shots, seed=trial)
            for label, p in rep.born_reference.items():
                gate = 5.0 * np.sqrt(p * (1.0 - p) / shots)
                err = abs(rep.estimates[label] - p)
                assert err <= gate if gate > 0 else err == 0.0

    @pytest.mark.parametrize("name", STATE_MODEL_NAMES)
    def test_basis_context_is_valid(self, name):
        model = create_model(name)
        # a model that declares any dimension must accept d = 3 and 4 too
        dims = (2, 3, 4) if model.any_dimension else (2,)
        for dim in dims:
            M = random_basis(dim, stream(109, dim))
            for ket in M.kets:
                model.validate_context(model.basis_context(ket, M))
            psi = random_state(dim, stream(111, dim))
            model.validate_context(model.basis_context(psi, M))

    def test_shots_must_be_positive(self, any_model):
        ctx = any_model.random_context(stream(113))
        with pytest.raises(ValueError):
            run_experiment(any_model, ctx, 0, seed=1)

    @pytest.mark.parametrize("n", [1, 1000, 65537])
    def test_sample_outcomes_is_the_response_of_sample_arrays(self, any_model, n):
        # run_experiment counts sample_outcomes; a model may draw less for it,
        # but never different bits
        dims = (2, 3, 5) if any_model.any_dimension else (2, 2, 2)
        for trial, dim in enumerate(dims):
            ctx = any_model.random_context(stream(115, trial), dim=dim)
            got = any_model.sample_outcomes(ctx, n, stream(117, trial))
            want = any_model.outcome_index_arrays(any_model.sample_arrays(ctx, n, stream(117, trial)), ctx)
            assert got.dtype == want.dtype and got.shape == want.shape == (n,)
            assert got.tobytes() == want.tobytes()


def test_each_model_declares_its_ontic_kind():
    # the ontic spaces the README lists; each kind fixes its reference measure
    expected = {
        "brans": OnticKind.SETTINGS_OUTCOME_PAIR,
        "gbrans": OnticKind.DISCRETE_INDEX,
        "interval": OnticKind.INTERVAL,
        "ks2": OnticKind.SPHERE,
        "hall": OnticKind.ANTIPODAL_PAIR,
        "ks1": OnticKind.LABELED_SPHERE,
        "bellmermin": OnticKind.LABELED_SPHERE,
    }
    assert {name: cls.ontic_kind for name, cls in MODEL_REGISTRY.items()} == expected


def _born_contexts(name: str):
    """Random contexts of a Povm-measured model: d = 2..4 where it takes any
    dimension, and for gbrans mixed preparations too."""
    model = create_model(name)
    dims = (2, 3, 4) if model.any_dimension else (2,)
    rng = stream(131)
    ctxs = [model.random_context(rng, dim=dim) for dim in dims for _ in range(4)]
    if name == "gbrans":
        for dim in dims:
            a, b = random_state(dim, rng), random_state(dim, rng)
            rho = DensityMatrix(0.3 * a.projector() + 0.7 * b.projector())
            ctxs += [ModelContext(rho, random_basis(dim, rng)), ModelContext(rho, random_povm(dim, dim + 1, rng))]
    return ctxs


class TestBornReferenceHasOneHome:
    """Every model measured with a Povm takes its Born reference from
    quantum.born_probability, bit for bit, rather than from its own ontic model."""

    @pytest.mark.parametrize("name", ["gbrans", "interval", "ks1", "bellmermin"])
    def test_reference_is_born_probability(self, name):
        model = create_model(name)
        for ctx in _born_contexts(name):
            ref = model.born_reference(ctx)
            assert list(ref) == list(model.outcome_labels(ctx))
            assert list(ref.values()) == born_probability(ctx.preparation, ctx.measurement).tolist()

    def test_interval_reference_is_not_read_from_its_bins(self):
        interval, gbrans = create_model("interval"), create_model("gbrans")
        for ctx in _born_contexts("interval"):
            assert interval.born_reference(ctx) == gbrans.born_reference(ctx)


def test_json_form_writes_fields_in_order_and_bloch_vectors_as_lists():
    t = ChannelTranscript(BlochVector(0.0, 0.0, 1.0), DEG60, 4, 2, {"+b": 1, "-b": 1}, 2.0, 7)
    assert json.dumps(t, default=json_form) == json.dumps(
        {
            "alice_axis": [0.0, 0.0, 1.0],
            "bob_axis": [DEG60.x, DEG60.y, DEG60.z],
            "sent": 4,
            "accepted": 2,
            "outcome_counts": {"+b": 1, "-b": 1},
            "nominal_bits_per_round": 2.0,
            "seed": 7,
        }
    )
    with pytest.raises(TypeError):
        json.dumps(object(), default=json_form)
    with pytest.raises(TypeError):
        json.dumps(ChannelTranscript, default=json_form)


class _FixedUniforms:
    """Stands in for a Generator whose random(n) returns the given uniforms;
    its other draws, if any, come from rng."""

    def __init__(self, u, rng: np.random.Generator | None = None):
        self.u = np.asarray(u, dtype=float)
        self.rng = rng

    def random(self, n):
        assert n == self.u.size
        return self.u

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _step_uniforms(weights: np.ndarray) -> np.ndarray:
    """0, every CDF step below 1, the largest uniform below 1, then a random bulk."""
    cum = np.cumsum(weights)
    steps = cum[:-1] / cum[-1]
    edges = np.concatenate([[0.0], steps[steps < 1.0], [np.nextafter(1.0, 0.0)]])
    return np.concatenate([edges, stream(121).random(100_000)])


def _assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


ZERO_WEIGHTS = {
    "first": [0.0, 0.5, 0.5],
    "middle": [0.5, 0.0, 0.5],
    "last": [0.5, 0.5, 0.0],
    "several": [0.0, 0.3, 0.0, 0.7, 0.0],
    "repeated": [0.25, 0.0, 0.0, 0.75],
}


def _dyadic_weights(k: int) -> np.ndarray:
    """k weights that are multiples of 2**-20 summing to exactly 1.0, some of them 0."""
    rng = stream(123, k)
    ints = rng.integers(0, 1000, k)
    ints[rng.integers(k)] += 2**20 - ints.sum()
    return ints / 2.0**20


class TestCategoricalDraw:
    @pytest.mark.parametrize("weights", ZERO_WEIGHTS.values(), ids=ZERO_WEIGHTS.keys())
    def test_zero_weight_is_never_drawn(self, weights):
        weights = np.array(weights)
        u = _step_uniforms(weights)
        idx = categorical(weights, u.size, _FixedUniforms(u))
        counts = np.bincount(idx, minlength=weights.size)
        assert np.all((counts == 0) == (weights == 0.0))

    @pytest.mark.parametrize(
        "weights",
        [*ZERO_WEIGHTS.values(), *(_dyadic_weights(k) for k in range(2, 66))],
        ids=[*ZERO_WEIGHTS.keys(), *(f"k{k}" for k in range(2, 66))],
    )
    def test_matches_binary_search_bit_for_bit(self, weights):
        weights = np.array(weights)
        # 1.0 is no output of random(), but u * cum[-1] == cum[-1] takes the clamp
        u = np.append(_step_uniforms(weights), 1.0)
        # the weights sum to exactly 1.0, so every CDF step is itself a scaled
        # uniform and the ties are really taken
        cum = np.cumsum(weights)
        assert cum[-1] == 1.0 and set(cum[:-1]) <= set(u)
        _assert_same_bits(
            categorical(weights, u.size, _FixedUniforms(u)),
            oracles.categorical_searchsorted(weights, u.size, _FixedUniforms(u)),
        )


class TestRejectionSample:
    """Proposal i is the row [i, 0, 0], so a kept row names its place in the proposal order."""

    @staticmethod
    def _proposer():
        drawn = []

        def propose(k):
            start = sum(drawn)
            drawn.append(k)
            return np.column_stack([np.arange(start, start + k, dtype=float), np.zeros((k, 2))])

        return propose, drawn

    @pytest.mark.parametrize("n", [1, 33, 5000, 3 * BLOCK_ROWS + 7])
    def test_keeps_the_first_accepted_rows_in_proposal_order(self, n):
        kwargs = dict(batch=lambda todo: todo * 10, weight=lambda props: np.full(len(props), 0.05), envelope=1.0)
        propose, drawn = self._proposer()
        # at seed 129 no proposal of the first round of 32 is kept for n = 1
        got = rejection_sample(n, stream(129, n), propose=propose, **kwargs)

        # the same loop with boolean-mask compaction, each round capped at one block
        rng, ref_propose, kept = stream(129, n), self._proposer()[0], []
        while len(kept) < n:
            k = min(BLOCK_ROWS, max(32, int(kwargs["batch"](n - len(kept)))))
            props = ref_propose(k)
            keep = rng.random(k) * kwargs["envelope"] < kwargs["weight"](props)
            kept.extend(props[keep])
        want = np.array(kept[:n])

        assert len(drawn) >= 2, "one round would not test the compaction across rounds"
        assert max(drawn) <= BLOCK_ROWS
        assert got.shape == want.shape == (n, 3)
        assert got.tobytes() == want.tobytes()
        assert np.all(np.diff(got[:, 0]) > 0)


class TestNormalization:
    @pytest.mark.parametrize("name", ["gbrans", "brans"])
    def test_discrete_densities_sum_to_one(self, name):
        model = create_model(name)
        for trial in range(100):
            ctx = model.random_context(stream(211, trial), dim=2 + trial % 3)
            if name == "gbrans":
                total = model.density_arrays({"j": np.arange(len(ctx.measurement))}, ctx).sum()
            else:
                total = model.density_arrays({"idx": np.arange(4)}, ctx).sum()
            assert total == pytest.approx(1.0, abs=TOL.structural)

    def test_interval_density_integrates_to_one(self):
        model = create_model("interval")
        for trial in range(100):
            ctx = model.random_context(stream(213, trial), dim=2 + trial % 4)
            x, edges = model.bin_edges(ctx)
            assert float(np.sum(x * np.diff(edges))) == pytest.approx(1.0, abs=TOL.structural)

    @pytest.mark.parametrize("name", ["ks1", "ks2", "bellmermin", "hall"])
    def test_sphere_densities_integrate_to_one(self, name):
        model = create_model(name)
        npts = 20_000
        for trial in range(100):
            ctx = model.random_context(stream(217, trial))
            pts = stratified_sphere_points(npts, stream(219, trial))
            if name in ("ks1", "bellmermin"):
                vals = sum(
                    model.density_arrays(
                        {"label": np.full(pts.shape[0], tag), "vec": pts}, ctx
                    )
                    for tag in (0, 1)
                )
            else:
                vals = model.density_arrays({"vec": pts}, ctx)
            total = vals.mean() * 4.0 * np.pi
            stderr = vals.std(ddof=1) * 4.0 * np.pi / np.sqrt(pts.shape[0])
            assert abs(total - 1.0) <= max(5.0 * stderr, 5e-3)


class TestDisjointSupports:
    """Orthogonal preparations resolved by a shared measurement never share support,
    for every model whose response does not read the preparation."""

    @pytest.mark.parametrize("name", ["gbrans", "ks1", "ks2", "bellmermin"])
    def test_orthogonal_supports_disjoint(self, name):
        model = create_model(name)
        for trial in range(10):
            ctx_a, ctx_b = orthogonal_pair_contexts(model, stream(307, trial))
            arrays = model.sample_arrays(ctx_a, 20_000, stream(311, trial))
            assert int(model.in_support_arrays(arrays, ctx_b).sum()) == 0

    def test_interval_model_is_the_counterexample(self):
        # its response function reads the preparation, so the shared-basis
        # disjointness argument does not apply: both orthogonal states place
        # their full mass on the same interval
        model = create_model("interval")
        ctx_a, ctx_b = orthogonal_pair_contexts(model, stream(313))
        arrays = model.sample_arrays(ctx_a, 20_000, stream(317))
        assert bool(np.all(model.in_support_arrays(arrays, ctx_b)))


def wilson_hilferty_z(chi2: float, dof: int) -> float:
    """Normal deviate of a chi-square value (Wilson-Hilferty cube-root approximation)."""
    v = 2.0 / (9.0 * dof)
    return ((chi2 / dof) ** (1.0 / 3.0) - (1.0 - v)) / np.sqrt(v)


class TestSamplerMatchesDensity:
    """Each sphere sampler, and the interval sampler, draws its own declared
    density, not just the right outcome frequencies: a pinned-seed Pearson
    chi-square of sampled counts against the density's integrals over cells,
    equal-area ones per label on the sphere and equal sub-bins on the interval."""

    NZ, NPHI, REFINE = 8, 16, 50
    SUB_BINS = 8
    SHOTS = 200_000

    @staticmethod
    def pearson(counts, expected) -> tuple[float, int]:
        # cells expecting under 5 draws pool into one, which counts once it expects 5
        full = expected >= 5.0
        observed, expect = counts[full], expected[full]
        if expected[~full].sum() >= 5.0:
            observed = np.append(observed, counts[~full].sum())
            expect = np.append(expect, expected[~full].sum())
        return float(np.sum((observed - expect) ** 2 / expect)), observed.size - 1

    @classmethod
    def chi_square(cls, model, ctx, arrays) -> tuple[float, int]:
        labeled = "label" in arrays
        tags = (0, 1) if labeled else (0,)
        cells = cls.NZ * cls.NPHI
        vec = np.asarray(arrays["vec"], dtype=float)
        cell = arrays.get("label", 0) * cells + oracles.sphere_cell_index(vec, cls.NZ, cls.NPHI)
        counts = np.bincount(cell, minlength=len(tags) * cells)

        def density(tag):
            def at(pts):
                point = {"label": np.full(pts.shape[0], tag), "vec": pts} if labeled else {"vec": pts}
                return model.density_arrays(point, ctx)

            return at

        expected = cls.SHOTS * np.concatenate(
            [
                oracles.sphere_cell_masses(density(tag), cls.NZ, cls.NPHI, cls.REFINE)
                for tag in tags
            ]
        )
        return cls.pearson(counts, expected)

    @pytest.mark.parametrize("name", ["ks1", "ks2", "hall", "bellmermin"])
    def test_pearson_chi_square(self, name):
        model = create_model(name)
        for trial in range(3):
            ctx = model.random_context(stream(331, trial))
            arrays = model.sample_arrays(ctx, self.SHOTS, stream(337, trial))
            chi2, dof = self.chi_square(model, ctx, arrays)
            assert dof > 50
            assert wilson_hilferty_z(chi2, dof) < 4.0, (trial, chi2, dof)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_interval_positions_within_each_bin(self, dim):
        # bin i has length x_i and density x_i, so each of its SUB_BINS equal
        # cells expects the Born weight x_i^2 / SUB_BINS
        model = create_model("interval")
        for trial in range(3):
            ctx = model.random_context(stream(331, trial), dim)
            x, edges = model.bin_edges(ctx)
            steps = np.arange(self.SUB_BINS) / self.SUB_BINS
            grid = np.append(np.concatenate([edges[i] + x[i] * steps for i in range(dim)]), edges[-1])
            pos = model.sample_arrays(ctx, self.SHOTS, stream(337, trial))["x"]
            cell = np.clip(np.searchsorted(grid, pos, "right") - 1, 0, grid.size - 2)
            counts = np.bincount(cell, minlength=grid.size - 1)
            mids = {"x": 0.5 * (grid[:-1] + grid[1:])}
            expected = self.SHOTS * model.density_arrays(mids, ctx) * np.diff(grid)
            chi2, dof = self.pearson(counts, expected)
            assert dof >= dim * self.SUB_BINS // 2
            assert wilson_hilferty_z(chi2, dof) < 4.0, (trial, chi2, dof)


# ---------------------------------------------------------------------------
# Per-model identities
# ---------------------------------------------------------------------------


class TestGeneralizedBrans:
    def setup_method(self):
        self.model = create_model("gbrans")
        w = np.sqrt(2.0) / (1.0 + np.sqrt(2.0))
        from mdhv.quantum import Povm

        e1 = w * ONE.projector()
        e2 = w * StateVector([S, -S]).projector()
        self.povm = Povm([("E1", e1), ("E2", e2), ("E3", np.eye(2) - e1 - e2)])

    def test_zero_weight_entries(self):
        ctx0 = ModelContext(ZERO, self.povm)
        ctxp = ModelContext(PLUS, self.povm)
        assert self.model.density_arrays(one(j=0), ctx0)[0] == 0.0
        assert self.model.density_arrays(one(j=1), ctxp)[0] == pytest.approx(0.0, abs=TOL.arithmetic)

    def test_shared_inconclusive_entry(self):
        ctx0 = ModelContext(ZERO, self.povm)
        ctxp = ModelContext(PLUS, self.povm)
        d0 = self.model.density_arrays(one(j=2), ctx0)[0]
        dp = self.model.density_arrays(one(j=2), ctxp)[0]
        assert d0 == pytest.approx(dp, abs=TOL.structural) and d0 > 0.0

    def test_eigenstate_density_one(self):
        ctx = ModelContext(ONE, Z_BASIS)
        assert self.model.density_arrays(one(j=1), ctx).tolist() == [1.0]

    def test_index_out_of_range(self):
        ctx = ModelContext(ZERO, Z_BASIS)
        for j in (5, 2, -1):
            for call in (self.model.density_arrays, self.model.in_support_arrays):
                with pytest.raises(IndexError):
                    call(one(j=j), ctx)
        # an out-of-range row among valid ones
        with pytest.raises(IndexError):
            self.model.density_arrays({"j": np.array([0, 2])}, ctx)

    def test_respond_is_kronecker_delta(self):
        ctx = ModelContext(PLUS, Z_BASIS)
        resp = [self.model.respond_probability_arrays(one(j=1), ctx, k)[0] for k in (0, 1)]
        assert resp == [0.0, 1.0]

    def test_eigenstate_counts(self):
        rep = run_experiment(self.model, ModelContext(ZERO, Z_BASIS), 100, seed=123)
        assert rep.counts == {"0": 100, "1": 0}


def _interval_edges(dim: int) -> np.ndarray:
    model = create_model("interval")
    return model.bin_edges(model.random_context(stream(125, dim), dim=dim))[1]


class TestIntervalModel:
    def setup_method(self):
        self.model = create_model("interval")

    def test_eigenstate_single_bin(self):
        ctx = ModelContext(StateVector([1, 0]), Z_BASIS)
        assert self.model.density_arrays(one(x=0.5), ctx).tolist() == [1.0]
        assert self.model.outcome_index_arrays(one(x=0.5), ctx).tolist() == [0]

    def test_plus_state_bins(self):
        ctx = ModelContext(PLUS, Z_BASIS)
        x, edges = self.model.bin_edges(ctx)
        assert np.allclose(x, S, atol=TOL.structural)
        assert edges[-1] == pytest.approx(np.sqrt(2.0), abs=TOL.structural)
        assert self.model.density_arrays(one(x=0.3), ctx)[0] == pytest.approx(S, abs=TOL.structural)
        # 0.3 < 1/sqrt(2): first bin
        assert self.model.outcome_index_arrays({"x": np.array([0.3, 1.2])}, ctx).tolist() == [0, 1]

    def test_boundary_point_goes_to_lower_bin(self):
        ctx = ModelContext(PLUS, Z_BASIS)
        _, edges = self.model.bin_edges(ctx)
        assert self.model.outcome_index_arrays(one(x=edges[1]), ctx).tolist() == [0]

    def test_outcome_frequencies(self):
        rep = run_experiment(self.model, ModelContext(PLUS, Z_BASIS), 1_000_000, seed=5)
        assert rep.estimates["0"] == pytest.approx(0.5, abs=2e-3)

    def test_density_outside_domain_is_zero(self):
        ctx = ModelContext(PLUS, Z_BASIS)
        assert self.model.density_arrays({"x": np.array([-0.1, 97.0])}, ctx).tolist() == [0.0, 0.0]

    def test_nan_position_has_zero_density_and_is_out_of_support(self):
        ctx = self.model.random_context(stream(1, 1), dim=3)
        assert self.model.density_arrays(one(x=np.nan), ctx).tolist() == [0.0]
        assert self.model.in_support_arrays({"x": np.array([np.nan, -0.0])}, ctx).tolist() == [
            False,
            True,
        ]

    @pytest.mark.parametrize(
        "edges",
        [
            *(_interval_edges(d) for d in range(2, 7)),
            # four bins of widths 0.5, 0, 0, 0.5: a zero amplitude repeats an edge
            np.array([0.0, 0.5, 0.5, 0.5, 1.0]),
        ],
        ids=[*(f"d{d}" for d in range(2, 7)), "empty-bins"],
    )
    def test_bin_lookup_matches_binary_search_bit_for_bit(self, edges):
        # every edge and its two neighbours, -0.0, below 0, above the last
        # edge, +-inf and NaN, then a random bulk over the interval
        pos = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [-0.0, -1e-300, -1.0, edges[-1] + 1.0, np.inf, -np.inf, np.nan],
                stream(126, edges.size).random(100_000) * edges[-1],
            ]
        )
        _assert_same_bits(self.model._bin_of(pos, edges), oracles.interval_bin_searchsorted(pos, edges))


class TestKochenSpecker1:
    def setup_method(self):
        self.model = create_model("ks1")

    def test_own_basis_kills_perp_branch(self):
        rng = stream(41)
        psi = random_state(2, rng)
        M = orthonormal_basis_containing(psi)
        ctx = ModelContext(psi, M)
        pts = uniform_sphere(rng, 2000)
        dens = self.model.density_arrays(
            {"label": np.ones(2000, dtype=int), "vec": pts}, ctx
        )
        assert np.max(dens) == 0.0

    def test_overlap_mass_is_born_overlap(self):
        rng = stream(43)
        psi, phi = random_state(2, rng), random_state(2, rng)
        M = orthonormal_basis_containing(psi)
        ctx_phi = ModelContext(phi, M)
        # mass of phi's ensemble on the (lambda_psi, .) branch
        labels = self.model.sample_arrays(ctx_phi, 400_000, rng)["label"]
        assert (labels == 0).mean() == pytest.approx(psi.overlap_sq(phi), abs=5e-3)

    def test_density_formula(self):
        ctx = ModelContext(ZERO, Z_BASIS)
        v = BlochVector.from_polar(0.3, 0.1)
        expected = (1.0 / np.pi) * v.z  # both steps pass, psi_hat = k_hat = +z
        got = self.model.density_arrays(one(label=0, vec=v.as_array()), ctx)[0]
        assert got == pytest.approx(expected, abs=TOL.arithmetic)

    @staticmethod
    def edge_contexts():
        """(name, context): random ones, then psi_hat at, across and within 1e-8 rad of +-k0_hat or its great circle."""
        model = create_model("ks1")
        rng = stream(47)
        yield from ((f"random-{trial}", model.random_context(rng)) for trial in range(3))
        M = random_basis(2, rng)
        k0 = bloch_from_ket(M.kets[0]).as_array()
        t = np.cross(k0, random_bloch(rng).as_array())
        t /= np.linalg.norm(t)
        yield from (("psi = k0", ModelContext(M.kets[0], M)), ("psi = -k0", ModelContext(M.kets[1], M)))
        for name, angle in (("across k0", np.pi / 2), ("near k0", 1e-8), ("near -k0", np.pi - 1e-8)):
            yield name, ModelContext(ket_from_bloch(BlochVector(*(np.cos(angle) * k0 + np.sin(angle) * t))), M)
        for sign in (1.0, -1.0):
            bloch = BlochVector(*(np.cos(1e-8) * t + sign * np.sin(1e-8) * k0))
            yield f"1e-8 rad {'above' if sign > 0 else 'below'} the circle", ModelContext(ket_from_bloch(bloch), M)

    def test_every_draw_has_positive_density_under_its_label(self):
        # the squeeze maps each lobe draw into its own label's hemisphere on every row,
        # including contexts where the label is certain, a coin flip or nearly certain
        for name, ctx in self.edge_contexts():
            arrays = self.model.sample_arrays(ctx, 200_000, stream(49))
            assert np.all(self.model.density_arrays(arrays, ctx) > 0.0), name
            assert np.abs(np.einsum("ij,ij->i", arrays["vec"], arrays["vec"]) - 1.0).max() <= 1e-15, name

    def test_born_agreement_at_scale(self):
        rng = stream(45)
        ctx = ModelContext(random_state(2, rng), orthonormal_basis_containing(random_state(2, rng)))
        rep = run_experiment(self.model, ctx, 1_000_000, seed=45)
        for label, p in rep.born_reference.items():
            assert rep.estimates[label] == pytest.approx(p, abs=3e-3)


class TestKochenSpecker2:
    def setup_method(self):
        self.model = create_model("ks2")

    def test_aligned_axes_deterministic(self):
        ctx = KochenSpecker2.context(Z_AXIS, Z_AXIS)
        assert self.model.born_reference(ctx)["+b"] == 1.0
        rep = run_experiment(self.model, ctx, 1000, seed=3)
        assert rep.counts["+b"] == 1000

    def test_sixty_degree_frequency(self):
        ctx = KochenSpecker2.context(Z_AXIS, DEG60)
        rep = run_experiment(self.model, ctx, 1_000_000, seed=7)
        assert rep.estimates["+b"] == pytest.approx(0.75, abs=2e-3)

    def test_density_formula_and_support(self):
        ctx = KochenSpecker2.context(Z_AXIS, X_AXIS)
        v = BlochVector.normalized(0.6, 0.0, 0.8)
        below = BlochVector.normalized(0.6, 0.0, -0.8)
        dens = self.model.density_arrays({"vec": np.stack([v.as_array(), below.as_array()])}, ctx)
        assert dens[0] == pytest.approx(0.6 / np.pi, abs=TOL.arithmetic)
        assert dens[1] == 0.0


class TestBransSinglet:
    def setup_method(self):
        self.model = create_model("brans")

    def test_anticorrelation_exact(self):
        ctx = singlet_context(Z_AXIS, Z_AXIS)
        rep = run_experiment(self.model, ctx, 50_000, seed=1)
        assert rep.counts["++"] == 0 and rep.counts["--"] == 0

    def test_orthogonal_axes_quarter_each(self):
        ctx = singlet_context(Z_AXIS, X_AXIS)
        rep = run_experiment(self.model, ctx, 1_000_000, seed=2)
        for label in ("++", "+-", "-+", "--"):
            assert rep.estimates[label] == pytest.approx(0.25, abs=2e-3)

    def test_sixty_degree_correlation(self):
        ctx = singlet_context(Z_AXIS, DEG60)
        rep = run_experiment(self.model, ctx, 1_000_000, seed=3)
        corr = (
            rep.estimates["++"] + rep.estimates["--"] - rep.estimates["+-"] - rep.estimates["-+"]
        )
        assert corr == pytest.approx(-0.5, abs=3e-3)

    def test_marginal_density_is_half_and_remote_free(self):
        rng = stream(47)
        a, b, b2 = random_bloch(rng), random_bloch(rng), random_bloch(rng)
        m1 = self.model.marginal_density(1, +1, singlet_context(a, b))
        m2 = self.model.marginal_density(1, +1, singlet_context(a, b2))
        assert m1 == pytest.approx(0.5, abs=TOL.structural)
        assert m1 == m2  # the trace never touches the remote axis
        total = sum(self.model.marginal_density(1, i, singlet_context(a, b)) for i in (+1, -1))
        assert total == pytest.approx(1.0, abs=TOL.structural)

    def test_responses_are_the_sampled_tags(self):
        # A = i and B = j for the tag pair (i, j) each row stores
        ctx = singlet_context(Z_AXIS, DEG60)
        arrays = self.model.sample_arrays(ctx, 50, stream(53))
        got = [JOINT_LABELS[k] for k in self.model.outcome_index_arrays(arrays, ctx)]
        tags = [OUTCOME_PAIRS[k] for k in arrays["idx"]]
        assert got == [("+" if i > 0 else "-") + ("+" if j > 0 else "-") for i, j in tags]


class TestHallSinglet:
    def setup_method(self):
        self.model = create_model("hall")

    def test_aligned_axes_anticorrelate_exactly(self):
        ctx = singlet_context(Z_AXIS, Z_AXIS)
        outcomes = self.model.sample_outcomes(ctx, 100_000, stream(67))
        # outcome indices 1 = "+-", 2 = "-+"
        assert set(np.unique(outcomes)) <= {1, 2}

    def test_sixty_degree_correlation(self):
        ctx = singlet_context(Z_AXIS, DEG60)
        rep = run_experiment(self.model, ctx, 1_000_000, seed=71)
        corr = (
            rep.estimates["++"] + rep.estimates["--"] - rep.estimates["+-"] - rep.estimates["-+"]
        )
        assert corr == pytest.approx(-0.5, abs=3e-3)

    def test_marginal_matches_independent_oracle(self):
        rng = stream(73)
        a, b = random_bloch(rng), random_bloch(rng)
        ctx = singlet_context(a, b)
        pts = uniform_sphere(rng, 500)
        got = self.model.density_arrays({"vec": pts}, ctx)
        want = oracles.hall_marginal(pts, a.as_array(), b.as_array())
        assert np.allclose(got, want, atol=TOL.arithmetic)

    @pytest.mark.parametrize("theta", [1e-5, -1e-5])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["parallel", "antiparallel"])
    def test_axes_near_parallel_are_not_the_uniform_limit(self, sign, theta):
        b = BlochVector(sign * np.sin(theta), 0.0, sign * np.cos(theta))
        g_plus, g_minus, degenerate = self.model._branch_values(singlet_context(Z_AXIS, b))
        assert not degenerate
        # the branch on the lune between the circles shrinks to about |theta| pi / 4
        assert min(g_plus, g_minus) == pytest.approx(abs(theta) * np.pi / 4.0, rel=1e-4)

    def test_only_exactly_parallel_axes_are_the_uniform_limit(self):
        for b in (Z_AXIS, BlochVector(0.0, 0.0, -1.0)):
            assert self.model._branch_values(singlet_context(Z_AXIS, b)) == (1.0, 1.0, True)

    def test_marginal_depends_on_both_settings(self):
        # generic geometry: the s = -1 lune carries a different value
        ctx = singlet_context(Z_AXIS, DEG60)
        inside = np.array([[np.sin(2.0), 0.0, np.cos(2.0)]])  # between the great circles
        outside = np.array([[0.0, 0.0, 1.0]])
        density = self.model.density_arrays
        assert density({"vec": inside}, ctx)[0] != density({"vec": outside}, ctx)[0]


    @pytest.mark.parametrize(
        "a, b, want_index",
        [
            # lam = +-x is exactly perpendicular to a = z, and lam = +-y to both axes
            ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8), [1, 0, 0, 0]),
            # lam = +-x is exactly perpendicular to b = z, and lam = +-y to both axes
            ((0.6, 0.0, 0.8), (0.0, 0.0, 1.0), [0, 2, 0, 0]),
        ],
        ids=["lam-perp-a", "lam-perp-b"],
    )
    def test_sign_at_zero_reads_plus(self, a, b, want_index):
        # outcome index 2*(A < 0) + (B < 0), A = sign(lam.a), B = sign(-lam.b), sign(0) = +1;
        # s = sign(lam.a) sign(lam.b) is -1 only for lam = -x, whose other dot is -0.6
        ctx = singlet_context(BlochVector(*a), BlochVector(*b))
        lam = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        assert self.model.outcome_index_arrays({"vec": lam}, ctx).tolist() == want_index
        want_same = [True, False, True, True]
        # the branch the rejection weight and the marginal both read
        assert hall_model._same_sign(lam, np.array(a), np.array(b)).tolist() == want_same
        g_plus, g_minus, degenerate = self.model._branch_values(ctx)
        assert not degenerate and g_plus != g_minus
        want = np.where(want_same, g_plus, g_minus) / (4.0 * np.pi)
        assert self.model.density_arrays({"vec": lam}, ctx).tolist() == want.tolist()


class TestBellMermin:
    def setup_method(self):
        self.model = create_model("bellmermin")

    def test_own_state_kills_other_branch(self):
        rng = stream(79)
        psi = random_state(2, rng)
        M = orthonormal_basis_containing(psi)
        ctx = ModelContext(psi, M)
        pts = uniform_sphere(rng, 5000)
        dens = self.model.density_arrays({"label": np.ones(5000, dtype=int), "vec": pts}, ctx)
        # zero almost everywhere: the cap k.(psi+lam) >= 0 with k = -psi degenerates
        assert (dens > 0).mean() < 1e-3

    def test_overlap_mass_matches_born(self):
        rng = stream(83)
        psi = random_state(2, rng)
        M = orthonormal_basis_containing(random_state(2, rng))
        ctx = ModelContext(psi, M)
        labels = self.model.sample_arrays(ctx, 400_000, rng)["label"]
        assert (labels == 0).mean() == pytest.approx(M.kets[0].overlap_sq(psi), abs=5e-3)

    def test_density_formula(self):
        ctx = ModelContext(PLUS, Z_BASIS)
        up = BlochVector.normalized(0.0, 0.8, 0.6)
        down = BlochVector.normalized(0.0, 0.8, -0.6)
        arrays = {"label": np.array([0, 0]), "vec": np.stack([up.as_array(), down.as_array()])}
        dens = self.model.density_arrays(arrays, ctx)
        # k = +z, psi = +x: step(z + 0) over 4pi
        assert dens[0] == pytest.approx(1.0 / (4 * np.pi), abs=TOL.arithmetic)
        assert dens[1] == 0.0

    def test_sampler_matches_per_row_reference_bit_for_bit(self):
        # the cap bound per row and a boolean-mask scatter, as the seeded output was first written
        for trial in range(20):
            ctx = self.model.random_context(stream(87, trial))
            n = 500 + 97 * trial
            rng = stream(89, trial)
            psi_hat = bloch_from_ket(ctx.preparation).as_array()
            axes = _qubit_basis_axes(ctx.measurement)
            label = (rng.random(n) >= ctx.measurement.kets[0].overlap_sq(ctx.preparation)).astype(int)
            d = np.einsum("ij,j->i", axes[label], psi_hat)
            vec = np.empty((n, 3))
            for tag in (0, 1):
                mask = label == tag
                if mask.any():
                    vec[mask] = uniform_cap(rng, int(mask.sum()), axes[tag], -d[mask])
            got = self.model.sample_arrays(ctx, n, stream(89, trial))
            assert np.array_equal(got["label"], label)
            assert got["vec"].tobytes() == vec.tobytes()

    @pytest.mark.parametrize("name", ["bellmermin", "ks1"])
    def test_uniform_equal_to_the_born_weight_draws_tag_one(self, name):
        # tag 0 takes the uniforms below |<k0|psi>|^2, in both samplers of both
        # label-first models
        model = create_model(name)
        for trial in range(5):
            ctx = model.random_context(stream(91, trial))
            p0 = ctx.measurement.kets[0].overlap_sq(ctx.preparation)
            u = np.array([np.nextafter(p0, 0.0), p0, np.nextafter(p0, 1.0)])
            want = np.array([0, 1, 1])
            # the caps and the lobe draw with rng.uniform, so random() serves the tags alone
            arrays = model.sample_arrays(ctx, 3, _FixedUniforms(u, stream(93, trial)))
            assert np.array_equal(arrays["label"], want)
            assert np.array_equal(model.sample_outcomes(ctx, 3, _FixedUniforms(u)), want)

    def test_born_agreement_at_scale(self):
        rng = stream(85)
        ctx = ModelContext(random_state(2, rng), orthonormal_basis_containing(random_state(2, rng)))
        rep = run_experiment(self.model, ctx, 1_000_000, seed=85)
        for label, p in rep.born_reference.items():
            assert rep.estimates[label] == pytest.approx(p, abs=3e-3)


class TestCells:
    """Closed forms taken through each model's `cells` and `density_arrays`,
    with the Bloch vectors from tests/oracles.py."""

    @staticmethod
    def masses(model, ctx_from, ctx_support):
        """(total mass of ctx_from's density inside ctx_support's support, mass per label)."""
        points, widths = model.cells(ctx_from, ctx_support)
        inside = model.in_support_arrays(points, ctx_support)
        weights = model.density_arrays(points, ctx_from) * widths
        labels = points.get("label", np.zeros(len(widths), int))
        return float(weights @ inside), np.bincount(labels, weights)

    def test_ks1_support_mass_is_the_projected_hemisphere(self):
        model = create_model("ks1")
        for psi, phi, M in cell_contexts(941, 200):
            ctx_psi, ctx_phi = model.basis_context(psi, M), model.basis_context(phi, M)
            mass, _ = self.masses(model, ctx_psi, ctx_phi)
            psi_hat, phi_hat = oracles.bloch_of(psi.amplitudes), oracles.bloch_of(phi.amplitudes)
            want = oracles.ks1_support_mass(psi_hat, phi_hat)
            assert abs(mass - want) <= 1e-12

    @pytest.mark.parametrize("name", ["ks1", "bellmermin"])
    def test_label_masses_are_the_born_weights(self, name):
        model = create_model(name)
        for psi, phi, M in cell_contexts(943, 100):
            _, per_label = self.masses(model, model.basis_context(psi, M), model.basis_context(phi, M))
            want = [abs(np.vdot(k.amplitudes, psi.amplitudes)) ** 2 for k in M.kets]
            assert np.abs(per_label - want).max() <= 1e-12

    def test_ks2_mass_on_the_plus_b_side_is_the_born_weight(self):
        # the support of the context prepared along b itself is the hemisphere lam.b >= 0
        model = create_model("ks2")
        for psi, _, M in cell_contexts(945, 100):
            ctx = model.basis_context(psi, M)
            mass, _ = self.masses(model, ctx, model.basis_context(M.kets[0], M))
            assert abs(mass - abs(np.vdot(M.kets[0].amplitudes, psi.amplitudes)) ** 2) <= 1e-12

    @pytest.mark.parametrize("name", ["ks1", "ks2", "interval"])
    def test_cells_give_both_contexts_their_born_weights_across_measurements(self, name):
        """Each context's density and response are fixed or affine on every cell, so the
        cells integrate each context's density over each outcome to its Born weight, also
        for two random contexts that differ in measurement."""
        model = create_model(name)
        rng = stream(949)
        for _ in range(50):
            ctx_a, ctx_b = model.random_context(rng), model.random_context(rng)
            points, widths = model.cells(ctx_a, ctx_b)
            for ctx in (ctx_a, ctx_b):
                weights = model.density_arrays(points, ctx) * widths
                masses = np.bincount(model.outcome_index_arrays(points, ctx), weights, minlength=2)
                assert np.abs(masses - list(model.born_reference(ctx).values())).max() <= 1e-12

    def test_hall_tv_through_the_cells_of_its_three_axes(self):
        model = create_model("hall")

        def tv(a, b, b_alt):
            area, mean = great_circle_cells([a.as_array(), b.as_array(), b_alt.as_array()])
            arrays = {"vec": mean}
            diff = model.density_arrays(arrays, singlet_context(a, b)) - model.density_arrays(
                arrays, singlet_context(a, b_alt)
            )
            return 0.5 * float(np.abs(diff) @ area)

        assert abs(tv(Z_AXIS, DEG60, X_AXIS) - 1.0 / 12.0) <= 1e-12
        rng = stream(947)
        for _ in range(20):
            a, b, b_alt = (random_bloch(rng) for _ in range(3))
            want = oracles.hall_tv_goemans_williamson(a.as_array(), b.as_array(), b_alt.as_array())
            assert abs(tv(a, b, b_alt) - want) <= 1e-12


    def test_hall_joint_masses_through_the_cells_of_its_two_axes_are_the_born_weights(self):
        """Both signs, and so the joint outcome, are fixed on each cell of the two
        circles, so the cells integrate hall's law to (1 - x y a.b)/4 exactly.
        Axes a few ulp from parallel are left out: see ROADMAP item 16."""
        model = create_model("hall")
        xy = np.array([1, -1, -1, 1])  # outcome index 2 [A = -1] + [B = -1]
        rng = stream(951)
        pairs = [(Z_AXIS, Z_AXIS), (Z_AXIS, BlochVector(0, 0, -1)), (Z_AXIS, X_AXIS)]
        pairs += [(random_bloch(rng), random_bloch(rng)) for _ in range(50)]
        for a, b in pairs:
            area, mean = great_circle_cells([a.as_array(), b.as_array()])
            arrays, ctx = {"vec": mean}, singlet_context(a, b)
            weights = model.density_arrays(arrays, ctx) * area
            masses = np.bincount(model.outcome_index_arrays(arrays, ctx), weights, minlength=4)
            assert np.abs(masses - (1 - xy * a.dot(b)) / 4).max() <= 1e-12

def _random_unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _axis_rows() -> np.ndarray:
    """Each signed coordinate axis, with every choice of sign for its two zeros."""
    rows = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            for zeros in ((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)):
                row = list(zeros)
                row.insert(axis, sign)
                rows.append(row)
    return np.array(rows)


def _gathered_density(name: str, arrays: dict, ctx: ModelContext) -> np.ndarray:
    """The density as first written, per-row gather and step products, from tests/oracles.py."""
    psi_hat = bloch_from_ket(ctx.preparation).as_array()
    if name == "ks2":
        return oracles.ks2_density_stepped(arrays["vec"], psi_hat, ctx.measurement.as_array())
    oracle = {"ks1": oracles.ks1_density_gathered, "bellmermin": oracles.bellmermin_density_gathered}[name]
    return oracle(arrays["vec"], arrays["label"], _qubit_basis_axes(ctx.measurement), psi_hat)


class TestSphereDensitiesMatchTheGatherOracle:
    """The sphere densities select each row's dot from one product; they give
    the bytes of the per-row gather they replaced, signed zeros included."""

    MODELS = ("ks1", "ks2", "bellmermin")

    def assert_same_bytes(self, name, model, vec, label, ctx):
        arrays = {"vec": vec} if name == "ks2" else {"label": label, "vec": vec}
        got = model.density_arrays(arrays, ctx)
        assert got.dtype == np.float64
        assert got.tobytes() == _gathered_density(name, arrays, ctx).tobytes()
        return got

    @pytest.mark.parametrize("name", MODELS)
    def test_sampled_and_random_rows(self, name):
        model = create_model(name)
        for trial in range(100):
            ctx = model.random_context(stream(931, trial))
            rng = stream(933, trial)
            drawn = model.sample_arrays(ctx, 300, rng)
            vec = np.concatenate([drawn["vec"], _random_unit_rows(rng, 300)])
            label = np.concatenate([drawn.get("label", np.zeros(300, int)), rng.integers(0, 2, 300)])
            for tags in (label, 1 - label):  # each row under both labels
                self.assert_same_bytes(name, model, vec, tags, ctx)

    # the dot each model's step reads, from its preparation axis p and its label's axis k
    STEP_DOTS = {
        "ks1": lambda vec, p, k: vec @ k,
        "ks2": lambda vec, p, k: vec @ p,
        "bellmermin": lambda vec, p, k: (p + vec) @ k,
    }

    @pytest.mark.parametrize("name", MODELS)
    def test_axis_aligned_rows_with_zero_dots(self, name):
        # axis-aligned preparations and bases put many step dots at exactly zero; the
        # rows carry -0.0 components too, though numpy's dots sum them to +0.0
        model = create_model(name)
        vec = _axis_rows()
        minus = StateVector([S, -S])
        zero_and_positive = 0
        for psi in (ZERO, ONE, PLUS, minus):
            for M in (Z_BASIS, ProjectiveBasis([PLUS, minus])):
                ctx = model.basis_context(psi, M)
                for tag in (0, 1):
                    got = self.assert_same_bytes(name, model, vec, np.full(len(vec), tag), ctx)
                    k = _qubit_basis_axes(M)[tag]
                    dots = self.STEP_DOTS[name](vec, bloch_from_ket(psi).as_array(), k)
                    zero_and_positive += int(np.count_nonzero((dots == 0.0) & (got > 0.0)))
        assert zero_and_positive > 0  # step(0) = 1 shows in the bytes compared

    @pytest.mark.parametrize("name", ("ks1", "bellmermin"))
    @pytest.mark.parametrize("bad", (-1, 2))
    def test_label_outside_the_basis_raises(self, name, bad):
        model = create_model(name)
        ctx = model.random_context(stream(935))
        vec = _random_unit_rows(stream(937), 4)
        with pytest.raises(IndexError):
            model.density_arrays({"label": np.array([0, 1, bad, 0]), "vec": vec}, ctx)


class TestMixtureDensity:
    def test_preparation_context_support_inclusion(self):
        # two decompositions of the same density matrix get nested supports
        model = create_model("ks1")
        mix1 = [(0.75, ZERO), (0.25, ONE)]
        t = np.pi / 3.0
        mix2 = [
            (0.5, ket_from_bloch(BlochVector.from_polar(t, 0.0))),
            (0.5, ket_from_bloch(BlochVector.from_polar(t, np.pi))),
        ]

        def density(mix, arrays):
            return sum(w * model.density_arrays(arrays, ModelContext(state, Z_BASIS)) for w, state in mix)

        pts = stratified_sphere_points(4000, stream(89))
        strictly_smaller = False
        for tag in (0, 1):
            arrays = {"label": np.full(pts.shape[0], tag), "vec": pts}
            in1 = density(mix1, arrays) > TOL.support
            in2 = density(mix2, arrays) > TOL.support
            assert np.all(in1[in2])  # supp(mix2) inside supp(mix1)
            strictly_smaller |= bool(np.any(in1 & ~in2))
        assert strictly_smaller
