"""Two-party classical simulation of a qubit channel, with cost accounting.

Alice prepares along a_hat and streams hemisphere-uniform unit vectors; Bob,
who alone knows his axis b_hat, keeps each incoming vector with probability
|lam.b| and reads the outcome off the sign of lam.b.  Accepted vectors then
follow the weighted hemisphere density step(lam.a)|lam.b|/pi, the acceptance
rate is 1/2 for every axis pair, and outcome frequencies are (1 +- a.b)/2.

Stream layout: per block of _BLOCK rounds, Alice draws all z, then all
azimuths in turns, from stream(seed, 1); Bob draws one uniform per round
from stream(seed, 2).  Every draw is a unit uniform, rng.random.
Alice and Bob read a unit of _UNIT rounds at its Philox counter offsets, so
the units run on a pool of one worker per available core, and the calling
thread takes them in order.  The output does not depend on the worker count.

Cost accounting separates the NOMINAL asymptotic figure (1 bit of mutual
information between axis and message, doubled by the self-selection to
2 bits per accepted round) from the EMPIRICAL figure measured off a finite
transcript (sent/accepted times the mutual information in bits).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .models.base import stream_at, workers
from .quantum import BlochVector
from .sphere import embed_local

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
_UNIT = 1 << 14  # rounds per pool task; divides _BLOCK, so no unit spans two blocks
_SLACK = 1024  # acceptances held back when sizing the units in flight: 16 sd of one unit's count
_TRACE_SLICE = 4096  # trace rows formatted and written per write call
TRACE_HEADER = ("round_id", "lambda_x", "lambda_y", "lambda_z", "accepted", "outcome")


@dataclass(frozen=True)
class ChannelTranscript:
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
class InfoReport:
    """Differential entropies (nats) of the axis/message pair under uniform priors."""

    h_a: float
    h_lambda: float
    h_joint: float
    mutual_information: float


# ---------------------------------------------------------------------------
# State machines and the protocol loop
# ---------------------------------------------------------------------------


class AliceSender:
    """Alice's side: the (round_id, lambda) messages of consecutive rounds,
    read from stream(seed, 1) at their places in the layout."""

    def __init__(self, axis: BlochVector, seed: int):
        self.axis = axis.as_array()
        self.seed = seed

    def emit(self, first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Rounds first .. first+n-1 of one block, uniform on the hemisphere
        {lam : lam.a >= 0} (density step/2pi): z from the block's first half,
        the azimuth in turns from its second."""
        k, r = divmod(first, _BLOCK)
        if r + n > _BLOCK:
            raise ValueError("emitted rounds must lie within one block")
        z = stream_at(self.seed, 1, 2 * _BLOCK * k + r).random(n)
        turns = stream_at(self.seed, 1, 2 * _BLOCK * k + _BLOCK + r).random(n)
        return np.arange(first, first + n), embed_local(self.axis, z, turns)


class BobFilter:
    """Bob's side: filters messages and reads outcomes off accepted ones.
    Round r's acceptance uniform is draw r of stream(seed, 2)."""

    def __init__(self, axis: BlochVector, seed: int):
        self.axis = axis.as_array()
        self.seed = seed

    def process(self, ids: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Accept each message with probability |lam.b|, the weight that tilts
        uniform to |lam.b|/pi; the outcome is +b iff lam.b >= 0 (sign at zero
        reads +b).  `ids` are consecutive rounds, as emit returns them."""
        dots = vecs @ self.axis
        accept = stream_at(self.seed, 2, int(ids[0])).random(ids.size) < np.abs(dots)
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

    Deterministic given the seed: the stream layout fixes every round's
    draws, whatever the number of workers.  `trace`, when given, is a
    writable text stream receiving one CSV row per round; the rows go out in
    slices of _TRACE_SLICE rounds, one write call per slice.
    """
    if target_accepted < 1:
        raise ValueError("target_accepted must be >= 1")
    from concurrent.futures import ThreadPoolExecutor

    alice, bob = AliceSender(a, seed), BobFilter(b, seed)

    def unit(u: int) -> tuple[np.ndarray, ...]:
        ids, vecs = alice.emit(u * _UNIT, _UNIT)
        return (ids, vecs, *bob.process(ids, vecs))

    if trace is not None:
        trace.write(",".join(TRACE_HEADER) + "\n")

    sent = accepted = plus = 0
    pending: deque = deque()
    n_workers = workers()
    pool = ThreadPoolExecutor(max_workers=n_workers)
    try:
        while accepted < target_accepted:
            # in flight: two units per worker at most, and only those the target needs at
            # the acceptance rate of 1/2 less _SLACK, so (but with negligible probability)
            # no unit runs past the target and every run computes the same units
            need = max(1, -(-2 * (target_accepted - accepted - _SLACK) // _UNIT))
            while len(pending) < min(2 * n_workers, need):  # every unit taken so far was whole
                pending.append(pool.submit(unit, sent // _UNIT + len(pending)))
            ids, vecs, accept, outcome_plus = pending.popleft().result()

            # a count costs a fortieth of the cumsum, which only the unit reaching the target needs
            if accepted + np.count_nonzero(accept) >= target_accepted:
                # truncate at the round that reaches the target; later rounds never ran
                stop = int(np.searchsorted(np.cumsum(accept), target_accepted - accepted)) + 1
                ids, vecs, accept, outcome_plus = ids[:stop], vecs[:stop], accept[:stop], outcome_plus[:stop]
            sent += ids.size
            accepted += int(np.count_nonzero(accept))
            plus += int(np.count_nonzero(accept & outcome_plus))

            if trace is not None:
                tails = np.where(accept, np.where(outcome_plus, "1,+b\n", "1,-b\n"), "0,\n")
                for lo in range(0, ids.size, _TRACE_SLICE):
                    hi = lo + _TRACE_SLICE
                    rows = zip(ids[lo:hi].tolist(), vecs[lo:hi].tolist(), tails[lo:hi].tolist())
                    trace.write("".join([f"{i},{x!r},{y!r},{z!r},{tail}" for i, (x, y, z), tail in rows]))
    finally:
        pool.shutdown(cancel_futures=True)  # joins the workers; units not yet started never run

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


def mutual_information_report(resolution: int = 512) -> InfoReport:
    """Entropies of (axis, message) under uniform priors p(a) = p(lam) = 1/4pi.

    h(a) = h(lam) = ln 4pi.  The joint density step(lam.a)/8pi^2 is constant on
    a support of measure 4pi * 2pi, so h(a, lam) = ln 8pi^2 and I = ln 2.
    `resolution` is unused; the benchmark in perfbench/ still passes it.
    """
    h_a = h_lambda = float(np.log(4 * np.pi))
    h_joint = float(np.log(8 * np.pi**2))
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
    bits = mutual_information_report().mutual_information / np.log(2.0)
    return float(bits * t.sent / t.accepted)
