"""Hidden-variable model interface: ontic kinds, contexts, sampling engine.

A model is conditioned on a (preparation, measurement) pair and works on
named arrays, one row per ontic value: draw n values, evaluate the ensemble
density at each (w.r.t. the reference measure of the model's ontic kind),
give the outcome index of the response at each, and test support
membership.  These array operations are the whole model interface; a
single value is a length-1 array.

Randomness contract: streams are counter-based (Philox) and derived from
(seed, chunk-index), so shot ranges can be partitioned across workers and the
merged counts are bit-identical regardless of execution order.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum, auto
from typing import Callable, Union

import numpy as np

from ..constants import TOL
from ..quantum import (
    BlochVector,
    DensityMatrix,
    Povm,
    ProjectiveBasis,
    StateVector,
    bloch_from_ket,
    born_probability,
    random_basis,
    random_bloch,
    random_state,
)
from ..sphere import BLOCK_ROWS

__all__ = [
    "SingletFlag",
    "SINGLET",
    "AxisPair",
    "ModelContext",
    "OnticKind",
    "HiddenVariableModel",
    "QubitBasisModel",
    "SingletModel",
    "OutcomeIndexModel",
    "JOINT_LABELS",
    "OUTCOME_PAIRS",
    "singlet_context",
    "singlet_correlation",
    "json_form",
    "SimulationReport",
    "run_experiment",
    "stream",
    "stream_at",
    "categorical",
    "integrate",
    "rejection_sample",
    "workers",
]


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingletFlag:
    """Marker preparation: the two-qubit singlet."""


SINGLET = SingletFlag()


@dataclass(frozen=True)
class AxisPair:
    """Spin measurement axes for the two parties of a bipartite context."""

    alice: BlochVector
    bob: BlochVector

    def __post_init__(self):
        # a BlochVector has unit norm; an array in its place would bypass that check
        if not (isinstance(self.alice, BlochVector) and isinstance(self.bob, BlochVector)):
            got = f"{type(self.alice).__name__} and {type(self.bob).__name__}"
            raise TypeError(f"axis pair takes two BlochVectors, got {got}")


@dataclass(frozen=True, eq=False)
class ModelContext:
    """The conditioning pair (preparation, measurement) of an MD density."""

    preparation: Union[StateVector, DensityMatrix, SingletFlag]
    measurement: Union[Povm, AxisPair, BlochVector]


class OnticKind(Enum):
    """The ontic space of a model: the tag the auditors dispatch on.

    A kind fixes the named arrays that hold one ontic value per row, and the
    reference measure that the model's densities are stated against:

      DISCRETE_INDEX         {"j"}             counting measure on the outcome indices
      SETTINGS_OUTCOME_PAIR  {"j"}             counting measure on the four tag pairs
                                               (the setting axes are the context's own)
      INTERVAL               {"x"}             Lebesgue measure on the interval
      SPHERE                 {"vec"}           sphere surface measure
      ANTIPODAL_PAIR         {"vec"} = lam1    sphere surface measure of lam1 (lam2 = -lam1)
      LABELED_SPHERE         {"label", "vec"}  counting x sphere surface measure

    The delta factors of the settings pair and the antipodal pair are
    resolved analytically, which leaves those measures.
    """

    DISCRETE_INDEX = auto()
    SETTINGS_OUTCOME_PAIR = auto()
    INTERVAL = auto()
    SPHERE = auto()
    ANTIPODAL_PAIR = auto()
    LABELED_SPHERE = auto()


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, index)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(index)))))


def stream_at(seed: int, index: int, draw: int) -> np.random.Generator:
    """stream(seed, index) after its first `draw` 64-bit outputs (one per float64 uniform).

    Philox is counter-based (Salmon et al., SC'11): counter c yields outputs 4c .. 4c+3,
    so the generator opens at counter draw // 4 and drops the draw % 4 before its position.
    """
    rng = stream(seed, index)
    rng.bit_generator.advance(draw // 4)
    rng.bit_generator.random_raw(draw % 4)
    return rng


def categorical(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n indices drawn with probability proportional to `weights` (inverse CDF).

    One uniform u per draw, scaled to the total; its index is the count of
    CDF steps cum[:-1] <= u.  As cum is non-decreasing, that count equals
    the clamped binary search min(searchsorted(cum, u, "right"), K - 1) bit
    for bit.  A zero weight repeats a step, so no u falls between the two
    and its index is never drawn.  The cost is one comparison pass per
    outcome, each added into the narrowest unsigned integer that holds K - 1
    (np.min_scalar_type: 8 bits up to 256 outcomes) and widened to intp
    once.  At 65,536 draws that is a third of the binary search's time at
    64 outcomes and at parity with it near 256, where the sum widens to 16 bits.
    """
    cum = np.cumsum(weights)
    u = rng.random(n) * cum[-1]
    idx = np.zeros(n, np.min_scalar_type(cum.size - 1))
    for edge in cum[:-1]:
        idx += u >= edge
    return idx.astype(np.intp)


def rejection_sample(
    n: int,
    rng: np.random.Generator,
    batch: Callable[[int], float],
    propose: Callable[[int], np.ndarray],
    weight: Callable[[np.ndarray], np.ndarray],
    envelope: float,
) -> np.ndarray:
    """n rows kept from proposal batches, each proposal with probability weight/envelope.

    While rows are missing, draws min(BLOCK_ROWS, max(32, int(batch(missing))))
    proposals, then one uniform per proposal, and keeps the first accepted rows
    it needs.  The cap keeps each round's working set to one sphere block (see
    mdhv.sphere) and trims the last round's overshoot.
    """
    out = np.empty((n, 3))
    have = 0
    while have < n:
        todo = n - have
        k = min(BLOCK_ROWS, max(32, int(batch(todo))))
        props = propose(k)
        keep = rng.random(k) * envelope < weight(props)
        rows = np.flatnonzero(keep)[:todo]
        # every index is in range, so "clip" changes no row; the default "raise" buffers `out`
        np.take(props, rows, axis=0, out=out[have : have + rows.size], mode="clip")
        have += rows.size
    return out


# ---------------------------------------------------------------------------
# Model interface
# ---------------------------------------------------------------------------


class HiddenVariableModel(ABC):
    """Behavioral contract shared by all models in the registry.

    Subclasses declare `name`, `ontic_kind` (an OnticKind) and the context
    classes they are conditioned on: `preparations` and `measurements`, each
    a tuple of classes.  They set `any_dimension` (contexts in every
    Hilbert-space dimension, not only qubits) where it holds, and implement
    the array-level operations.  `validate_context` is the one check of a
    context against these declarations.  Densities are always stated with
    respect to the reference measure of the ontic kind.  `born_weights` is
    the model's one Born law: the exact outcome distribution that `verify`
    gates against and that samplers and bins read.
    """

    name: str = ""
    ontic_kind: OnticKind
    preparations: tuple[type, ...]
    measurements: tuple[type, ...]
    any_dimension: bool = False

    # -- context handling ---------------------------------------------------

    def validate_context(self, ctx: ModelContext) -> None:
        """Raise TypeError unless the preparation is one of `preparations` and the
        measurement one of `measurements`, both of dimension 2 unless `any_dimension`
        (a class without `dim` is a qubit's), and ValueError if the two dimensions differ.
        """
        prep, meas = ctx.preparation, ctx.measurement
        d_prep, d_meas = getattr(prep, "dim", 2), getattr(meas, "dim", 2)
        if not (
            isinstance(prep, self.preparations)
            and isinstance(meas, self.measurements)
            and (self.any_dimension or d_prep == d_meas == 2)
        ):
            raise TypeError(
                f"model {self.name!r} takes {_one_of(self.preparations)} x {_one_of(self.measurements)} "
                f"contexts{'' if self.any_dimension else ' of dimension 2'}, "
                f"got {type(prep).__name__} (dim {d_prep}) x {type(meas).__name__} (dim {d_meas})"
            )
        if d_prep != d_meas:
            raise ValueError(f"model {self.name!r}: preparation dim {d_prep} != measurement dim {d_meas}")

    def outcome_labels(self, ctx: ModelContext) -> tuple[str, ...]:
        """Outcome labels, in a fixed order shared with born_weights."""
        return ctx.measurement.labels

    def born_weights(self, ctx: ModelContext) -> np.ndarray:
        """Exact quantum outcome distribution for the context, in outcome_labels order:
        the Born distribution of its preparation over its Povm measurement.  A model
        whose measurement is not a Povm states its own."""
        return born_probability(ctx.preparation, ctx.measurement)

    def random_context(self, rng: np.random.Generator, dim: int = 2) -> ModelContext:
        """A random context of the shape this model accepts: by default a random state
        measured in a random projective basis, both of dimension dim."""
        return ModelContext(random_state(dim, rng), random_basis(dim, rng))

    def basis_context(self, state: StateVector, M: ProjectiveBasis) -> ModelContext:
        """Context for a pure state measured in a projective basis."""
        return ModelContext(state, M)

    # -- array-level engine ---------------------------------------------------

    @abstractmethod
    def sample_arrays(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> dict:
        """Draw n ontic values; returns model-specific named arrays."""

    @abstractmethod
    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        """Ensemble density at each ontic value, w.r.t. the reference measure."""

    @abstractmethod
    def outcome_index_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        """Index into outcome_labels of the (deterministic) response at each value."""

    def respond_probability_arrays(
        self, arrays: dict, ctx: ModelContext, label_index: int
    ) -> np.ndarray:
        """Vectorized response probability of one label; exact 0/1 when deterministic."""
        return (self.outcome_index_arrays(arrays, ctx) == label_index).astype(float)

    def in_support_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        """Whether the density at each value exceeds the structural-zero threshold."""
        return self.density_arrays(arrays, ctx) > TOL.support

    def sample_outcomes(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> np.ndarray:
        """Outcome indices of n fresh draws: outcome_index_arrays of sample_arrays.

        `run_experiment` counts these.  A model may override this only where
        its response reads a prefix of the draw (values drawn before anything
        else from rng), and the override must equal this composition bit for
        bit: same dtype, shape and values from the same stream.  It still
        goes through outcome_index_arrays, so the response is stated once.
        """
        arrays = self.sample_arrays(ctx, n, rng)
        return self.outcome_index_arrays(arrays, ctx)

    def cells(self, *contexts: ModelContext) -> tuple[dict, np.ndarray] | None:
        """Points (named arrays) and widths of cells on which every given context's response is
        fixed and its density affine, so that `integrate` is exact over them.  None: no cells."""
        return None

    def support_mass_exact(self, ctx_from: ModelContext, ctx_support: ModelContext) -> float | None:
        """Mass of p(.|ctx_from) inside ctx_support's support over `cells`; None (no cells) sends
        analysis.support_overlap_mass to Monte Carlo."""
        return integrate(self, (ctx_from, ctx_support), lambda _, p, q: p * (q > 0.0))

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


def _one_of(classes: tuple[type, ...]) -> str:
    return "|".join(cls.__name__ for cls in classes)


def integrate(model: HiddenVariableModel, contexts: tuple, f) -> float | None:
    """Sum of width * f(points, *densities) over model.cells(*contexts), or None without cells.

    densities[i] is contexts[i]'s density at the cell points, read as 0 where it is at most
    TOL.support (structural zeros add nothing), and a total at most TOL.arithmetic is 0.0
    (a cell sum rounds an exact 0, such as a cap's pole, to dust).  The sum is exact for an
    f affine on each cell, as every density and response on the model's cells is.
    """
    if (cells := model.cells(*contexts)) is None:
        return None
    points, widths = cells
    densities = [p * (p > TOL.support) for p in (model.density_arrays(points, ctx) for ctx in contexts)]
    total = float((widths * f(points, *densities)).sum())
    return total if total > TOL.arithmetic else 0.0


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------


def _qubit_basis_axes(M: ProjectiveBasis) -> np.ndarray:
    """(2, 3) Bloch axes of a qubit projective basis, in label order."""
    return np.stack([bloch_from_ket(ket).as_array() for ket in M.kets])


def _label_row(table: np.ndarray, label: np.ndarray) -> np.ndarray:
    """table[label[i], i] of a (2, n) table: each column's entry for its own label.

    A selection between two contiguous rows, not a per-row gather.  A label
    outside {0, 1} raises IndexError: it sets a bit other than the lowest
    (a negative one sets them all), which one OR over the labels shows.
    """
    if np.bitwise_or.reduce(label) not in (0, 1):
        raise IndexError("labels of a qubit basis are 0 and 1")
    return np.where(label == 0, table[0], table[1])


class QubitBasisModel(HiddenVariableModel):
    """A qubit state measured in a qubit projective basis, with ontic values
    (label, unit vector) on the labeled Bloch sphere and the point mass on
    the label as response.  Subclasses supply the sampler and the density.

    A subclass's law factors as Born(label) x p(lam_hat | label), and its
    sampler draws the labels first with _labels, from the first n uniforms
    of the stream, so `sample_outcomes` draws the labels alone, with the
    same bits.
    """

    ontic_kind = OnticKind.LABELED_SPHERE
    preparations = (StateVector,)
    measurements = (ProjectiveBasis,)

    def outcome_index_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        return np.asarray(arrays["label"], dtype=int)

    def _labels(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> np.ndarray:
        """n outcome labels, label 0 with its Born weight, from the next n uniforms."""
        return (rng.random(n) >= self.born_weights(ctx)[0]).astype(int)

    def sample_outcomes(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.outcome_index_arrays({"label": self._labels(ctx, n, rng)}, ctx)


JOINT_LABELS = ("++", "+-", "-+", "--")
OUTCOME_PAIRS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
_SIGN_PRODUCTS = np.array([x * y for x, y in OUTCOME_PAIRS], dtype=float)


def singlet_context(a: BlochVector, b: BlochVector) -> ModelContext:
    return ModelContext(SINGLET, AxisPair(a, b))


def singlet_correlation(estimates: dict[str, float]) -> float:
    """E(a, b) = sum over joint labels of x y p(x, y), summed in label order."""
    return sum(x * y * estimates[label] for label, (x, y) in zip(JOINT_LABELS, OUTCOME_PAIRS))


class SingletModel(HiddenVariableModel):
    """The two-qubit singlet measured along an axis pair, with joint sign
    labels as outcomes.  Subclasses supply the ontic space and its marginals.
    """

    preparations = (SingletFlag,)
    measurements = (AxisPair,)

    def outcome_labels(self, ctx: ModelContext) -> tuple[str, ...]:
        return JOINT_LABELS

    def born_weights(self, ctx: ModelContext) -> np.ndarray:
        """The singlet law (1 - x y a.b)/4 of each joint outcome (x, y), clamped to [0, 1]."""
        a_dot_b = ctx.measurement.alice.dot(ctx.measurement.bob)
        return np.clip((1.0 - _SIGN_PRODUCTS * a_dot_b) / 4.0, 0.0, 1.0)

    def random_context(self, rng: np.random.Generator, dim: int = 2) -> ModelContext:
        return singlet_context(random_bloch(rng), random_bloch(rng))


class OutcomeIndexModel(HiddenVariableModel):
    """Ontic value j ({"j"}), an index into outcome_labels drawn with its Born
    weight, whose response is the point mass on outcome j.  Subclasses supply
    the contexts and, where it is not the base default, born_weights.
    """

    def sample_arrays(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> dict:
        return {"j": categorical(self.born_weights(ctx), n, rng)}

    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        j = np.asarray(arrays["j"], dtype=int)
        p = self.born_weights(ctx)
        # p[j] raises IndexError past the end; only a negative j would wrap
        if j.size and j.min() < 0:
            raise IndexError(f"ontic index out of range for {p.size} outcomes")
        return p[j]

    def outcome_index_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        return np.asarray(arrays["j"], dtype=int)

    def cells(self, *contexts: ModelContext) -> tuple[dict, np.ndarray]:
        """Every outcome index ({"j"}), each with width 1, for contexts with one outcome count."""
        counts = [len(self.outcome_labels(ctx)) for ctx in contexts]
        if len(set(counts)) != 1:
            raise ValueError(f"cells need one outcome count, got {' and '.join(map(str, counts))} outcomes")
        return {"j": np.arange(counts[0])}, np.ones(counts[0])


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def json_form(obj):
    """The JSON form of a result, as the `default=` hook of `json.dumps`.

    A BlochVector is [x, y, z]; any other dataclass is its fields in
    declaration order.  Every report, transcript and CLI echo is written this way.
    """
    if isinstance(obj, BlochVector):
        return [obj.x, obj.y, obj.z]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} has no JSON form")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimulationReport:
    """Outcome counts of a seeded run together with the quantum reference."""

    shots: int
    seed: int
    counts: dict[str, int]
    estimates: dict[str, float]
    born_reference: dict[str, float]


def workers() -> int:
    """Worker threads for seeded runs: the CPUs this process may run on.

    The count can change no output, as each run's draws are fixed by its
    stream layout.  Where the platform has no affinity mask, os.cpu_count().
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_sizes(shots: int) -> list[int]:
    full, rest = divmod(shots, _CHUNK)
    return [_CHUNK] * full + ([rest] if rest else [])


def run_experiment(
    model: HiddenVariableModel,
    ctx: ModelContext,
    shots: int,
    seed: int,
    threads: int = 1,
) -> SimulationReport:
    """Sample `shots` outcomes and compare against the Born reference.

    Deterministic given (model, ctx, shots, seed): shots are split into fixed
    chunks, chunk c drawing from stream(seed, c), and counts merge by
    addition, so thread count cannot change the report.

    A chunk's `sample_outcomes` are tallied into Python ints by one exact
    np.count_nonzero(idx == j) pass per outcome j, about 0.2 ns a row each
    (np.bincount spends 1.1-1.8 ns a row on serial increments whatever the
    outcome count, so it is the cheaper tally only past about 6 outcomes).
    A chunk whose tallies do not add up to its size, such as one with an
    index outside 0..K-1, raises ValueError.  Each estimate is count / shots,
    the correctly rounded quotient.
    """
    model.validate_context(ctx)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    labels = model.outcome_labels(ctx)
    k = len(labels)
    sizes = _chunk_sizes(shots)

    def one_chunk(c: int) -> list[int]:
        idx = model.sample_outcomes(ctx, sizes[c], stream(seed, c))
        counts = [int(np.count_nonzero(idx == j)) for j in range(k)]
        if sum(counts) != sizes[c]:
            raise ValueError(f"chunk {c} of {sizes[c]} shots has {sum(counts)} outcome indices in 0..{k - 1}")
        return counts

    if threads > 1 and len(sizes) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(one_chunk, range(len(sizes))))
    else:
        tallies = [one_chunk(c) for c in range(len(sizes))]

    counts = [sum(col) for col in zip(*tallies)]
    return SimulationReport(
        shots=shots,
        seed=seed,
        counts=dict(zip(labels, counts)),
        estimates={label: n / shots for label, n in zip(labels, counts)},
        born_reference=dict(zip(labels, model.born_weights(ctx).tolist())),
    )
