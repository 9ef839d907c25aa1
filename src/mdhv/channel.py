"""Two-party classical simulation of a qubit channel, with cost accounting.

Alice prepares along a_hat and streams hemisphere-uniform unit vectors; Bob,
who alone knows his axis b_hat, keeps each incoming vector with probability
|lam.b| and reads the outcome off the sign of lam.b.  Accepted vectors then
follow the weighted hemisphere density step(lam.a)|lam.b|/pi, the acceptance
rate is 1/2 for every axis pair, and outcome frequencies are (1 +- a.b)/2.

The parties are separate state machines: Alice emits fixed blocks of
(round_id, lambda_xyz) messages and Bob processes each block as it arrives.

Cost accounting separates the NOMINAL asymptotic figure (1 bit of mutual
information between axis and message, doubled by the self-selection to
2 bits per accepted round) from the EMPIRICAL figure measured off a finite
transcript (sent/accepted times the quadrature value of the mutual
information in bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models.base import Report, stream
from .quantum import BlochVector
from .sphere import uniform_hemisphere

__all__ = [
    "ChannelTranscript",
    "InfoReport",
    "AliceSender",
    "BobFilter",
    "run_channel",
    "mutual_information_report",
    "communication_cost",
    "NOMINAL_BITS_PER_ROUND",
]

NOMINAL_BITS_PER_ROUND = 2.0
_BLOCK = 1 << 16  # rounds per Alice block; part of the stream layout
_TRACE_SLICE = 4096  # trace rows formatted and written per write call
MI_RESOLUTION = 512  # quadrature nodes per axis of the reported mutual information
TRACE_HEADER = ("round_id", "lambda_x", "lambda_y", "lambda_z", "accepted", "outcome")


@dataclass(frozen=True)
class ChannelTranscript(Report):
    """Per-run record of the protocol with exact send/accept accounting."""

    alice_axis: BlochVector
    bob_axis: BlochVector
    sent: int
    accepted: int
    outcome_counts: dict[str, int]
    nominal_bits_per_round: float
    seed: int

    def __post_init__(self):
        if self.accepted > self.sent:
            raise ValueError("accepted cannot exceed sent")
        if sum(self.outcome_counts.values()) != self.accepted:
            raise ValueError("outcome counts must sum to accepted")

    def acceptance_rate(self) -> float:
        return self.accepted / self.sent if self.sent else 0.0

    def outcome_frequencies(self) -> dict[str, float]:
        if not self.accepted:
            return {k: 0.0 for k in self.outcome_counts}
        return {k: v / self.accepted for k, v in self.outcome_counts.items()}


@dataclass(frozen=True)
class InfoReport(Report):
    """Differential entropies (nats) of the axis/message pair under uniform priors."""

    h_a: float
    h_lambda: float
    h_joint: float
    mutual_information: float


# ---------------------------------------------------------------------------
# State machines and the protocol loop
# ---------------------------------------------------------------------------


class AliceSender:
    """Alice's side: emits blocks of (round_id, lambda) messages."""

    def __init__(self, axis: BlochVector, rng: np.random.Generator):
        self.axis = axis.as_array()
        self.rng = rng
        self.next_round = 0

    def emit(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n messages, uniform on the hemisphere {lam : lam.a >= 0} (density step/2pi)."""
        ids = np.arange(self.next_round, self.next_round + n)
        self.next_round += n
        return ids, uniform_hemisphere(self.rng, n, self.axis)


class BobFilter:
    """Bob's side: filters a block of messages and reads outcomes off accepted ones."""

    def __init__(self, axis: BlochVector, rng: np.random.Generator):
        self.axis = axis.as_array()
        self.rng = rng

    def process(self, ids: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Accept each message with probability |lam.b|, the weight that tilts
        uniform to |lam.b|/pi; the outcome is +b iff lam.b >= 0 (sign at zero
        reads +b)."""
        dots = vecs @ self.axis
        accept = self.rng.random(ids.size) < np.abs(dots)
        outcome_plus = dots >= 0.0
        return accept, outcome_plus


def run_channel(
    a: BlochVector,
    b: BlochVector,
    target_accepted: int,
    seed: int,
    trace=None,
) -> ChannelTranscript:
    """Run rounds until `target_accepted` acceptances; exact cost accounting.

    Deterministic given the seed (the fixed block size is part of the stream
    layout).  `trace`, when given, is a writable text stream receiving one
    CSV row per round; the rows go out in slices of _TRACE_SLICE rounds, one
    write call per slice.
    """
    if target_accepted < 1:
        raise ValueError("target_accepted must be >= 1")
    alice = AliceSender(a, stream(seed, 1))
    bob = BobFilter(b, stream(seed, 2))

    if trace is not None:
        trace.write(",".join(TRACE_HEADER) + "\n")

    sent = 0
    accepted = 0
    plus = 0
    while accepted < target_accepted:
        ids, vecs = alice.emit(_BLOCK)
        accept, outcome_plus = bob.process(ids, vecs)

        cum = np.cumsum(accept)
        if accepted + cum[-1] >= target_accepted:
            # truncate at the round that reaches the target; later rounds never ran
            stop = int(np.searchsorted(cum, target_accepted - accepted))
            ids = ids[: stop + 1]
            vecs = vecs[: stop + 1]
            accept = accept[: stop + 1]
            outcome_plus = outcome_plus[: stop + 1]
        sent += ids.size
        accepted += int(accept.sum())
        plus += int(np.count_nonzero(accept & outcome_plus))

        if trace is not None:
            tails = np.where(accept, np.where(outcome_plus, "1,+b\n", "1,-b\n"), "0,\n")
            for lo in range(0, ids.size, _TRACE_SLICE):
                hi = lo + _TRACE_SLICE
                rows = zip(ids[lo:hi].tolist(), vecs[lo:hi].tolist(), tails[lo:hi].tolist())
                trace.write("".join([f"{i},{x!r},{y!r},{z!r},{tail}" for i, (x, y, z), tail in rows]))

    return ChannelTranscript(
        alice_axis=a,
        bob_axis=b,
        sent=sent,
        accepted=accepted,
        outcome_counts={"+b": plus, "-b": accepted - plus},
        nominal_bits_per_round=NOMINAL_BITS_PER_ROUND,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Information accounting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def mutual_information_report(resolution: int = 512) -> InfoReport:
    """Entropies of (axis, message) under uniform priors p(a) = p(lam) = 1/4pi.

    h(a) and h(lam) are closed forms (ln 4pi each).  The joint entropy is a
    product Gauss-Legendre quadrature of -f ln f with f = step(lam.a)/8pi^2;
    fixing a = +z by isotropy (outer sphere contributes its area 4pi) and
    restricting the polar range to the step's support removes the
    discontinuity from the integrand.
    """
    h_a = float(np.log(4.0 * np.pi))
    h_lambda = float(np.log(4.0 * np.pi))

    nodes, weights = np.polynomial.legendre.leggauss(resolution)
    wz = 0.5 * weights  # cos(theta) mapped to [0, 1]: the step's support
    wphi = np.pi * weights  # azimuth mapped to [0, 2pi]
    f = 1.0 / (8.0 * np.pi**2)  # p(lam|a) p(a) on the restricted domain
    integrand = -f * np.log(f) * np.ones((resolution, resolution))
    h_joint = 4.0 * np.pi * float(wz @ integrand @ wphi)

    return InfoReport(
        h_a=h_a,
        h_lambda=h_lambda,
        h_joint=h_joint,
        mutual_information=h_a + h_lambda - h_joint,
    )


def communication_cost(t: ChannelTranscript) -> float:
    """Empirical bits per accepted round: I(lam:a) in bits times sent/accepted."""
    if t.accepted < 1:
        raise ValueError("transcript has no accepted rounds")
    bits = mutual_information_report(MI_RESOLUTION).mutual_information / np.log(2.0)
    return float(bits * t.sent / t.accepted)
