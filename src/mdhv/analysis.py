"""Numeric auditors for the foundational quantities of the model suite.

Degree of epistemicity, classical overlap, response randomness,
reciprocity, preparation-independence residuals, support/compatibility
predicates, and remote-setting marginal dependence.

Support masses, w_C, randomness and reciprocity are each one exact
`integrate` over a model's `cells`, because almost-everywhere statements
need an exact witness, not a statistical one.  Only the support mass of a
model without cells falls back to Monte Carlo, which counts a mass as zero
when it is at most five standard errors from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import TOL
from .models.base import HiddenVariableModel, ModelContext, OnticKind, integrate, singlet_context, stream
from .quantum import DensityMatrix, Povm, ProjectiveBasis, StateVector, born_probability
from .sphere import bootstrap_stderr, stratified_sphere_points

__all__ = [
    "OverlapReport",
    "ReciprocityReport",
    "PiReport",
    "CompatibilityReport",
    "MarginalDependenceReport",
    "projector_index",
    "support_overlap_mass",
    "degree_of_epistemicity",
    "classical_overlap",
    "randomness",
    "reciprocity_check",
    "preparation_independence_residual",
    "compatibility_audit",
    "setting_marginal_dependence",
]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def projector_index(M: ProjectiveBasis, phi: StateVector) -> int:
    """Index of the element |phi><phi| in M; raises if M does not contain it."""
    if not isinstance(M, ProjectiveBasis):
        raise TypeError("a projective basis is required")
    overlaps = born_probability(phi, M)
    k = int(np.argmax(overlaps))
    if overlaps[k] < 1.0 - TOL.structural:
        raise ValueError("measurement does not contain the projector of the given state")
    return k


def _sampled_support_mass(
    model: HiddenVariableModel,
    ctx_from: ModelContext,
    ctx_support: ModelContext,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Share of `samples` draws of ctx_from's ensemble (stream(seed, 0)) inside
    ctx_support's support, with its binomial stderr."""
    arrays = model.sample_arrays(ctx_from, samples, stream(seed, 0))
    mass = float(model.in_support_arrays(arrays, ctx_support).mean())
    return mass, float(np.sqrt(mass * (1.0 - mass) / samples))


# ---------------------------------------------------------------------------
# Epistemicity and overlaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapReport:
    mass_psi_in_phi_support: float
    omega: float
    quantum_overlap_sq: float
    mass_stderr: float  # of mass_psi_in_phi_support; omega's is mass_stderr / quantum_overlap_sq
    classification: str  # "disjoint" | "overlapping"
    method: str  # "analytic" | "monte-carlo"


def support_overlap_mass(
    model: HiddenVariableModel,
    ctx_from: ModelContext,
    ctx_support: ModelContext,
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float, str]:
    """Mass of p(.|ctx_from) inside the support of p(.|ctx_support).

    Returns (mass, stderr, method); the analytic path is exact and reports
    stderr 0.  The Monte Carlo path samples the `ctx_from` ensemble and tests
    support membership in `ctx_support`.
    """
    model.validate_context(ctx_from)
    model.validate_context(ctx_support)
    if (exact := model.support_mass_exact(ctx_from, ctx_support)) is not None:
        return exact, 0.0, "analytic"
    mass, err = _sampled_support_mass(model, ctx_from, ctx_support, samples, seed)
    return mass, err, "monte-carlo"


def degree_of_epistemicity(
    model: HiddenVariableModel,
    psi: StateVector,
    phi: StateVector,
    M: ProjectiveBasis,
    samples: int = 1_000_000,
    seed: int = 0,
    method: str = "auto",
) -> OverlapReport:
    """Ratio of psi's ensemble mass inside phi's support to |<psi|phi>|^2.

    Requires M to contain the projector of phi (support overlaps against a
    measurement that resolves neither state say nothing about
    distinguishability) and a nonzero Born overlap.  `method` is "auto" (the
    exact cell sum where the model has cells) or "monte-carlo".
    """
    if method not in ("auto", "monte-carlo"):
        raise ValueError(f"method must be 'auto' or 'monte-carlo', got {method!r}")
    k = projector_index(M, phi)
    q = float(born_probability(psi, M)[k])
    if q <= 0.0:
        raise ValueError("degree of epistemicity needs |<psi|phi>|^2 > 0")
    ctx_psi = model.basis_context(psi, M)
    ctx_phi = model.basis_context(phi, M)
    if method == "monte-carlo":
        mass, err = _sampled_support_mass(model, ctx_psi, ctx_phi, samples, seed)
        used = "monte-carlo"
    else:
        mass, err, used = support_overlap_mass(model, ctx_psi, ctx_phi, samples, seed)
    disjoint = mass <= 5.0 * err  # an analytic mass has err 0: disjoint exactly when 0
    return OverlapReport(
        mass_psi_in_phi_support=mass,
        omega=mass / q,
        quantum_overlap_sq=q,
        mass_stderr=err,
        classification="disjoint" if disjoint else "overlapping",
        method=used,
    )


def classical_overlap(
    model: HiddenVariableModel,
    psi: StateVector,
    phi: StateVector,
    M: ProjectiveBasis,
    resolution: int = 200_000,
    seed: int = 0,
) -> float:
    """w_C = 1 - (1/2) integral |p(.|psi,M) - p(.|phi,M)| over the ontic space, exactly.

    The model's `cells` cut the ontic space into pieces on which both
    densities and their difference are affine, with a point and a width
    each: outcome indices of width 1, interval cells, sphere cells at their
    mean points, or Bell-Mermin's latitude bands.  `integrate` sums the
    widths times |difference| at the points.  A model whose `cells` is None
    raises TypeError.  `resolution` and `seed` are unused; the benchmark in
    perfbench/ still passes them.
    """
    ctx_a = model.basis_context(psi, M)
    ctx_b = model.basis_context(phi, M)
    model.validate_context(ctx_a)
    model.validate_context(ctx_b)
    if (distance := integrate(model, (ctx_a, ctx_b), lambda _, p, q: np.abs(p - q))) is None:
        raise TypeError(f"classical overlap is undefined for {model.name} models")
    return 1.0 - 0.5 * distance


# ---------------------------------------------------------------------------
# Randomness and reciprocity
# ---------------------------------------------------------------------------


def randomness(
    model: HiddenVariableModel,
    psi: StateVector,
    M: ProjectiveBasis,
    outcome_label: str,
) -> float:
    """Response-weighted ensemble mass where the outcome is genuinely random.

    The integral of p(outcome|lam) p(lam|psi, M) over the region 0 < p(outcome|lam) < 1,
    an exact sum over the model's `cells`.  Deterministic responses contribute exact 0/1
    weights, so the result is literal 0.0 for deterministic models.
    `outcome_label` is one of the model's labels for the context (ks2: +b, -b).
    """
    ctx = model.basis_context(psi, M)
    model.validate_context(ctx)
    k = model.outcome_labels(ctx).index(outcome_label)

    def random_share(points, p):
        r = model.respond_probability_arrays(points, ctx, k)
        return p * (r * ((r > 0.0) & (r < 1.0)))

    if (mass := integrate(model, (ctx,), random_share)) is None:
        raise TypeError(f"randomness is undefined for {model.name} models")
    return mass


@dataclass(frozen=True)
class ReciprocityReport:
    reciprocal: bool
    violation_mass: float


def reciprocity_check(
    model: HiddenVariableModel,
    psi: StateVector,
    M: ProjectiveBasis,
) -> ReciprocityReport:
    """Does psi's ensemble sit inside the core of its own outcome's response?

    The mass of p(.|psi, M), summed over the model's `cells`, where the response
    probability of psi's outcome falls short of 1.  Requires M to contain |psi><psi|.
    """
    k = projector_index(M, psi)
    ctx = model.basis_context(psi, M)
    model.validate_context(ctx)

    def short_of_one(points, p):
        return p * (model.respond_probability_arrays(points, ctx, k) < 1.0)

    if (violation := integrate(model, (ctx,), short_of_one)) is None:
        raise TypeError(f"reciprocity is undefined for {model.name} models")
    return ReciprocityReport(reciprocal=violation == 0.0, violation_mass=violation)


# ---------------------------------------------------------------------------
# Preparation independence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiReport:
    joint: dict[str, float]
    product_of_marginals: dict[str, float]
    max_residual: float


def preparation_independence_residual(
    model: HiddenVariableModel,
    factors: list[StateVector],
    M: Povm,
) -> PiReport:
    """Worst deviation of the joint ontic-tuple law from the product of its marginals.

    The preparation is the tensor product of qubit `factors`; the 2^n
    measurement outcomes map to ontic bit-tuples lexicographically (outcome
    index in binary, most significant bit = subsystem 1).
    """
    if model.ontic_kind is not OnticKind.DISCRETE_INDEX:
        raise TypeError("the tuple decomposition needs a discrete ontic space")
    n = len(factors)
    if n < 2:
        raise ValueError("need at least two factors")
    if any(f.dim != 2 for f in factors):
        raise ValueError("factors must be qubits")
    if len(M) != 2**n or M.dim != 2**n:
        raise ValueError(f"measurement must have exactly {2 ** n} outcomes on the product space")
    prep = factors[0]
    for f in factors[1:]:
        prep = prep.tensor(f)
    ctx = ModelContext(prep, M)
    model.validate_context(ctx)
    joint = model.density_arrays({"j": np.arange(2**n)}, ctx)
    if abs(joint.sum() - 1.0) > TOL.structural:
        raise ValueError("joint tuple law is not normalized")

    bits = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(int)
    marginals = np.empty((n, 2))
    for k in range(n):
        for b in (0, 1):
            marginals[k, b] = joint[bits[:, k] == b].sum()
    product = np.prod(marginals[np.arange(n)[None, :], bits], axis=1)

    keys = ["".join(str(b) for b in row) for row in bits]
    return PiReport(
        joint={key: float(p) for key, p in zip(keys, joint)},
        product_of_marginals={key: float(p) for key, p in zip(keys, product)},
        max_residual=float(np.max(np.abs(joint - product))),
    )


# ---------------------------------------------------------------------------
# Support and compatibility predicates
# ---------------------------------------------------------------------------


def _padded(state: StateVector, slot: int) -> DensityMatrix:
    """|state><state| on one qubit slot, maximally mixed completion on the other."""
    proj = state.projector()
    eye = np.eye(2, dtype=complex) / 2.0
    return DensityMatrix(np.kron(proj, eye) if slot == 1 else np.kron(eye, proj))


@dataclass(frozen=True)
class CompatibilityReport:
    support_psi_padded: tuple[int, ...]
    support_phi_padded: tuple[int, ...]
    premise: tuple[int, ...]
    product_supports: dict[str, tuple[int, ...]]
    implications: dict[str, bool]
    compatible: bool
    common_support: tuple[int, ...]
    local_single_supports: tuple[tuple[int, ...], tuple[int, ...]]
    locally_compatible: bool


def compatibility_audit(
    model: HiddenVariableModel,
    psi: StateVector,
    phi: StateVector,
    M: Povm,
) -> CompatibilityReport:
    """Exhaustive support-implication audit on a two-qubit product space.

    Writing lam ~ (rho, M) for p(lam|rho, M) > 0, the audit enumerates the
    ontic values satisfying the padded-preparation premises
    (|psi><psi| (x) I/2 and |phi><phi| (x) I/2) and reports whether they land
    in the supports of the four product preparations, plus the common-support
    intersection across all four and the separable-tuple check on product
    preparations.  Only discrete ontic spaces are enumerable.
    """
    if model.ontic_kind is not OnticKind.DISCRETE_INDEX:
        raise TypeError("compatibility enumeration is undefined for continuous ontic spaces")
    if psi.dim != 2 or phi.dim != 2:
        raise ValueError("the audit covers two-qubit product spaces")
    if M.dim != 4:
        raise ValueError("measurement must act on the 4-dimensional product space")

    def supp(prep) -> frozenset[int]:
        ctx = ModelContext(prep, M)
        p = model.density_arrays({"j": np.arange(len(M))}, ctx)
        return frozenset(int(j) for j in np.flatnonzero(p > TOL.support))

    s_a = supp(_padded(psi, 1))
    s_b = supp(_padded(phi, 1))
    premise = s_a & s_b
    products = {
        "psi_phi": psi.tensor(phi),
        "phi_psi": phi.tensor(psi),
        "psi_psi": psi.tensor(psi),
        "phi_phi": phi.tensor(phi),
    }
    product_supports = {name: supp(state) for name, state in products.items()}
    implications = {
        "premise_in_psi_phi": premise <= product_supports["psi_phi"],
        "premise_in_phi_psi": premise <= product_supports["phi_psi"],
        "psi_padded_in_psi_psi": s_a <= product_supports["psi_psi"],
        "phi_padded_in_phi_phi": s_b <= product_supports["phi_phi"],
    }
    common = frozenset.intersection(*product_supports.values())

    # separable-tuple check: bit-marginal supports of the padded single-system
    # preparations must recombine inside the product preparation's support
    def bit_support(state: StateVector, slot: int) -> frozenset[int]:
        p = model.density_arrays({"j": np.arange(4)}, ModelContext(_padded(state, slot), M))
        bits = (np.arange(4) >> (1 if slot == 1 else 0)) & 1
        return frozenset(int(b) for b in (0, 1) if p[bits == b].sum() > TOL.support)

    s1 = bit_support(psi, 1)
    s2 = bit_support(phi, 2)
    joint = model.density_arrays({"j": np.arange(4)}, ModelContext(products["psi_phi"], M))
    locally_compatible = all(joint[2 * b1 + b2] > TOL.support for b1 in s1 for b2 in s2)

    return CompatibilityReport(
        support_psi_padded=tuple(sorted(s_a)),
        support_phi_padded=tuple(sorted(s_b)),
        premise=tuple(sorted(premise)),
        product_supports={k: tuple(sorted(v)) for k, v in product_supports.items()},
        implications=implications,
        compatible=all(implications.values()),
        common_support=tuple(sorted(common)),
        local_single_supports=(tuple(sorted(s1)), tuple(sorted(s2))),
        locally_compatible=locally_compatible,
    )


# ---------------------------------------------------------------------------
# Remote-setting marginal dependence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalDependenceReport:
    tv_distance: float
    stderr: float
    particle: int
    method: str


def setting_marginal_dependence(
    model: HiddenVariableModel,
    particle: int,
    a,
    b,
    b_alt,
    resolution: int = 1_000_000,
    seed: int = 0,
) -> MarginalDependenceReport:
    """Total-variation distance between one particle's ontic marginals when
    the REMOTE party's setting swaps from b to b_alt, the particle's own
    axis a held fixed.

    For particle 1 the contexts are (alice=a, bob=b) vs (alice=a, bob=b_alt);
    for particle 2 the roles mirror.  Exact for the tag-based singlet model
    (two-point counting marginal); stratified antithetic quadrature for the
    antipodal-pair model, whose ideal-bootstrap stderr treats the points as
    iid and so overstates the design's error (see mdhv.sphere).
    """
    if particle == 1:
        ctx1, ctx2 = singlet_context(a, b), singlet_context(a, b_alt)
    elif particle == 2:
        ctx1, ctx2 = singlet_context(b, a), singlet_context(b_alt, a)
    else:
        raise ValueError("particle must be 1 or 2")
    if model.ontic_kind is OnticKind.SETTINGS_OUTCOME_PAIR:
        tv = 0.5 * sum(
            abs(
                model.marginal_density(particle, i, ctx1)
                - model.marginal_density(particle, i, ctx2)
            )
            for i in (+1, -1)
        )
        return MarginalDependenceReport(float(tv), 0.0, particle, "exact")
    if model.ontic_kind is OnticKind.ANTIPODAL_PAIR:
        pts = stratified_sphere_points(resolution, stream(seed, 0))
        diff = np.abs(
            model.density_arrays({"vec": pts}, ctx1) - model.density_arrays({"vec": pts}, ctx2)
        )
        tv = 0.5 * 4.0 * np.pi * float(diff.mean())
        err = 0.5 * 4.0 * np.pi * bootstrap_stderr(diff)
        return MarginalDependenceReport(tv, err, particle, "quadrature")
    raise TypeError("setting-marginal dependence is defined for the bipartite singlet models")
