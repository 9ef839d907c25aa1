"""Channel protocol: hemisphere sender, weighted filter, cost accounting."""

import io
import json
import sys
import threading
import time

import numpy as np
import pytest

import oracles
from mdhv import channel
from mdhv.constants import TOL
from mdhv.models import stream
from mdhv.models.base import json_form, stream_at
from mdhv.quantum import BlochVector, random_bloch

Z = BlochVector(0, 0, 1)
X = BlochVector(1, 0, 0)
DEG60 = BlochVector.from_polar(np.pi / 3, 0.0)


def emit_rounds(alice: channel.AliceSender, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rounds 0 .. n-1 of the stream layout, one block per emit call."""
    parts = [alice.emit(lo, min(channel._BLOCK, n - lo)) for lo in range(0, n, channel._BLOCK)]
    return np.concatenate([ids for ids, _ in parts]), np.concatenate([vecs for _, vecs in parts])


class TestAliceSend:
    def test_support(self):
        a = random_bloch(stream(601))
        _, vecs = channel.AliceSender(a, 601).emit(0, 200)
        assert np.all(vecs @ a.as_array() >= 0.0)

    def test_first_moment_is_half_axis(self):
        rng = stream(603)
        a = random_bloch(rng)
        assert np.allclose(oracles.hemisphere_mean(a.as_array()), a.as_array() / 2.0, atol=2e-3)
        _, vecs = emit_rounds(channel.AliceSender(a, 603), 1_000_000)
        assert np.allclose(vecs.mean(axis=0), a.as_array() / 2.0, atol=2e-3)

    def test_uniformity_chi_square(self):
        # equal-area cells on the hemisphere around +z: z in [0,1] x azimuth
        _, vecs = emit_rounds(channel.AliceSender(Z, 605), 400_000)
        nz, nphi = 10, 10
        zi = np.minimum((vecs[:, 2] * nz).astype(int), nz - 1)
        pi = np.minimum(
            ((np.arctan2(vecs[:, 1], vecs[:, 0]) + np.pi) / (2 * np.pi) * nphi).astype(int),
            nphi - 1,
        )
        counts = np.bincount(zi * nphi + pi, minlength=nz * nphi)
        expected = vecs.shape[0] / (nz * nphi)
        stat = float(((counts - expected) ** 2 / expected).sum())
        dof = nz * nphi - 1
        assert stat < dof + 5.0 * np.sqrt(2.0 * dof)


class TestBobFilter:
    def test_parallel_always_accepts(self):
        bob = channel.BobFilter(Z, 607)
        for sign in (+1, -1):
            vecs = np.tile([0.0, 0.0, float(sign)], (100, 1))
            accept, _ = bob.process(np.arange(100), vecs)
            assert accept.all()

    def test_orthogonal_never_accepts(self):
        bob = channel.BobFilter(Z, 609)
        accept, _ = bob.process(np.arange(100), np.tile(X.as_array(), (100, 1)))
        assert not accept.any()

    def test_acceptance_rate_half_any_axes(self):
        rng = stream(611)
        for trial in range(5):
            a, b = random_bloch(rng), random_bloch(rng)
            assert oracles.ks2_acceptance(a.as_array(), b.as_array()) == pytest.approx(
                0.5, abs=2e-3
            )
            t = channel.run_channel(a, b, 30_000, seed=trial)
            assert t.acceptance_rate() == pytest.approx(0.5, abs=0.01)

    def test_acceptance_rate_at_scale(self):
        rng = stream(613)
        a, b = random_bloch(rng), random_bloch(rng)
        t = channel.run_channel(a, b, 500_000, seed=613)
        assert t.acceptance_rate() == pytest.approx(0.5, abs=2e-3)


class TestBobOutcome:
    def test_signs(self):
        # rows: along b, against b, orthogonal (sign-at-zero convention reads +)
        vecs = np.array([Z.as_array(), -Z.as_array(), X.as_array()])
        _, outcome_plus = channel.BobFilter(Z, 615).process(np.arange(3), vecs)
        assert outcome_plus.tolist() == [True, False, True]


class TestRunChannel:
    def test_aligned_axes_all_plus(self):
        t = channel.run_channel(Z, Z, 20_000, seed=11)
        assert t.outcome_counts["-b"] == 0
        assert t.outcome_frequencies()["+b"] == 1.0

    def test_sixty_degree_frequencies(self):
        t = channel.run_channel(Z, DEG60, 200_000, seed=13)
        assert t.outcome_frequencies()["+b"] == pytest.approx(0.75, abs=5e-3)

    def test_sent_accepted_ratio_two(self):
        t = channel.run_channel(Z, DEG60, 100_000, seed=17)
        assert t.sent / t.accepted == pytest.approx(2.0, abs=0.02)

    def test_accepted_exactly_target(self):
        t = channel.run_channel(Z, X, 12_345, seed=19)
        assert t.accepted == 12_345
        assert sum(t.outcome_counts.values()) == t.accepted

    def test_transcript_bit_identical_across_runs(self):
        t1 = channel.run_channel(Z, DEG60, 5_000, seed=23)
        t2 = channel.run_channel(Z, DEG60, 5_000, seed=23)
        assert json.dumps(t1, default=json_form) == json.dumps(t2, default=json_form)

    def test_json_field_order(self):
        t = channel.run_channel(Z, X, 100, seed=29)
        assert list(json.loads(json.dumps(t, default=json_form))) == [
            "alice_axis",
            "bob_axis",
            "sent",
            "accepted",
            "outcome_counts",
            "nominal_bits_per_round",
            "seed",
        ]
        assert t.nominal_bits_per_round == 2.0

    def test_trace_schema(self):
        buf = io.StringIO()
        t = channel.run_channel(Z, DEG60, 500, seed=31, trace=buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "round_id,lambda_x,lambda_y,lambda_z,accepted,outcome"
        assert len(lines) - 1 == t.sent
        accepted_rows = [ln for ln in lines[1:] if ln.split(",")[4] == "1"]
        assert len(accepted_rows) == t.accepted
        assert all(ln.split(",")[5] in ("+b", "-b") for ln in accepted_rows)
        # plain locale-free decimal columns, round-trippable
        first = lines[1].split(",")
        vec = np.array([float(first[1]), float(first[2]), float(first[3])])
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_accepted_distribution_matches_weighted_density(self):
        # aligned axes: accepted density z/pi on the upper hemisphere, so a
        # (z, phi) cell carries exactly (z2^2 - z1^2) * dphi / (2 pi)
        ids, vecs = emit_rounds(channel.AliceSender(Z, 37), 400_000)
        accept, _ = channel.BobFilter(Z, 37).process(ids, vecs)
        kept = vecs[accept]
        nz, nphi = 10, 10
        z_edges = np.linspace(0.0, 1.0, nz + 1)
        zi = np.minimum(np.searchsorted(z_edges, kept[:, 2], side="right") - 1, nz - 1)
        pi = np.minimum(
            ((np.arctan2(kept[:, 1], kept[:, 0]) + np.pi) / (2 * np.pi) * nphi).astype(int),
            nphi - 1,
        )
        counts = np.bincount(zi * nphi + pi, minlength=nz * nphi).reshape(nz, nphi)
        cell_prob = (z_edges[1:] ** 2 - z_edges[:-1] ** 2)[:, None] / nphi
        expected = kept.shape[0] * cell_prob
        stat = float(((counts - expected) ** 2 / expected).sum())
        dof = nz * nphi - 1
        assert stat < dof + 5.0 * np.sqrt(2.0 * dof)

    def test_accepted_distribution_matches_weighted_density_generic_angle(self):
        # b at 60 deg from a = +z: expected cell masses of step(z)|lam.b|/pi
        # from a 4x4 midpoint sub-grid per cell (bias far below multinomial
        # noise), chi-square at one million accepted rounds
        b = DEG60.as_array()
        alice = channel.AliceSender(Z, 43)
        bob = channel.BobFilter(DEG60, 43)
        kept = []
        total = 0
        while total < 1_000_000:
            ids, vecs = alice.emit(len(kept) * channel._BLOCK, channel._BLOCK)
            accept, _ = bob.process(ids, vecs)
            kept.append(vecs[accept])
            total += int(accept.sum())
        kept = np.concatenate(kept)[:1_000_000]
        nz, nphi, sub = 8, 8, 4
        z_edges = np.linspace(0.0, 1.0, nz + 1)
        p_edges = np.linspace(-np.pi, np.pi, nphi + 1)
        zi = np.minimum(np.searchsorted(z_edges, kept[:, 2], side="right") - 1, nz - 1)
        pi_idx = np.minimum(
            np.searchsorted(p_edges, np.arctan2(kept[:, 1], kept[:, 0]), side="right") - 1,
            nphi - 1,
        )
        counts = np.bincount(zi * nphi + pi_idx, minlength=nz * nphi).astype(float)
        zs = np.linspace(0, 1, nz * sub, endpoint=False) + 0.5 / (nz * sub)
        ps = np.linspace(-np.pi, np.pi, nphi * sub, endpoint=False) + np.pi / (nphi * sub)
        zz, pp = np.meshgrid(zs, ps, indexing="ij")
        r = np.sqrt(np.maximum(0.0, 1.0 - zz**2))
        lam = np.stack([r * np.cos(pp), r * np.sin(pp), zz], axis=-1)
        dens = np.abs(lam @ b) / np.pi
        cell = dens.reshape(nz, sub, nphi, sub).mean(axis=(1, 3)) * (2 * np.pi / (nz * nphi))
        expected = (cell / cell.sum()).ravel() * kept.shape[0]
        stat = float(((counts - expected) ** 2 / expected).sum())
        dof = nz * nphi - 1
        assert stat < dof + 5.0 * np.sqrt(2.0 * dof)

    def test_target_must_be_positive(self):
        with pytest.raises(ValueError):
            channel.run_channel(Z, X, 0, seed=1)


GENERIC_A = np.array([0.330552869999331, 0.04891080580801897, -0.9425192481909404])
GENERIC_B = np.array([-0.8608316989878447, 0.4376032174564773, 0.2597541339217525])


class TestStreamPositions:
    """Each unit reads its rounds at their Philox counter offsets; the rows
    must be those of the sequential loop over 2^16-round blocks."""

    @pytest.fixture(scope="class")
    def oracle_rows(self):
        blocks = oracles.channel_blocks(GENERIC_A, GENERIC_B, 911)
        return [np.concatenate(parts) for parts in zip(*(next(blocks) for _ in range(3)))]

    @pytest.mark.parametrize("u", [0, 1, 3, 4, 5, 11])  # units next to and past the 2^16 boundaries
    def test_unit_equals_its_rows_of_the_sequential_loop(self, oracle_rows, u):
        a, b = BlochVector(*GENERIC_A), BlochVector(*GENERIC_B)
        ids, vecs = channel.AliceSender(a, 911).emit(u * channel._UNIT, channel._UNIT)
        accept, outcome_plus = channel.BobFilter(b, 911).process(ids, vecs)
        rows = slice(u * channel._UNIT, (u + 1) * channel._UNIT)
        for got, want in zip((ids, vecs, accept, outcome_plus), oracle_rows):
            assert got.tobytes() == want[rows].tobytes()

    def test_emit_stays_within_one_block(self):
        with pytest.raises(ValueError):
            channel.AliceSender(Z, 1).emit(channel._BLOCK - 4, 8)

    @pytest.mark.parametrize("draw", [0, 1, 3, 4, 5, 4097])
    def test_stream_at_continues_the_stream_at_its_draw(self, draw):
        assert stream_at(915, 2, draw).random(9).tobytes() == stream(915, 2).random(draw + 9)[draw:].tobytes()

    @pytest.mark.parametrize("draw", [0, 1, 5, 2 * channel._BLOCK + channel._UNIT + 3, 10**9 + 3, 2**40 + 7])
    @pytest.mark.parametrize(
        "seed, index", [(915, 1), (915, 2), (2**32 - 1, 2), (2**32, 2), (915, 2**32 - 1), (915, 2**32)]
    )
    def test_stream_at_gives_the_bits_of_stream_advanced_to_its_draw(self, seed, index, draw, monkeypatch):
        # stream(seed, index) advanced by whole counters, then the draws before its position dropped
        rng = stream(seed, index)
        rng.bit_generator.advance(draw // 4)
        rng.bit_generator.random_raw(draw % 4)
        # numpy seeds an unseeded SeedSequence from OS entropy through this function
        entropy = []
        randbits = np.random.bit_generator.randbits
        monkeypatch.setattr(np.random.bit_generator, "randbits", lambda k: entropy.append(k) or randbits(k))
        got = stream_at(seed, index, draw)
        assert entropy == []
        assert got.uniform(0.0, 1.0, 7).tobytes() == rng.uniform(0.0, 1.0, 7).tobytes()
        assert got.bit_generator.random_raw(9).tobytes() == rng.bit_generator.random_raw(9).tobytes()

    @pytest.mark.parametrize("target", [1, 8191, 16385, 70000])
    def test_transcript_and_trace_match_the_sequential_loop_at_any_worker_count(self, target, monkeypatch):
        want = io.StringIO()
        sent, accepted, plus = oracles.sequential_channel(GENERIC_A, GENERIC_B, target, 913, want)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # frequent thread switches, and 8 workers: more than most hosts have cores
        try:
            for count in (1, 2, 3, 8):
                monkeypatch.setattr(channel, "workers", lambda: count)
                got = io.StringIO()
                t = channel.run_channel(BlochVector(*GENERIC_A), BlochVector(*GENERIC_B), target, 913, trace=got)
                assert (t.sent, t.accepted, t.outcome_counts["+b"]) == (sent, accepted, plus)
                assert got.getvalue() == want.getvalue()
        finally:
            sys.setswitchinterval(interval)


class TestWorkerPool:
    def test_queued_units_are_cancelled_and_the_pool_joined(self, monkeypatch):
        # four units in flight on two workers, whatever the target needs.
        # Unit 0 meets the target.  Units 1 and 2 hold a worker each for
        # 0.3 s once started, so unit 3 is still queued when unit 0 is taken.
        monkeypatch.setattr(channel, "workers", lambda: 2)
        monkeypatch.setattr(channel, "_SLACK", -(1 << 40))
        emitted = []
        emit = channel.AliceSender.emit

        def slow_emit(self, first, n):
            emitted.append(first // channel._UNIT)
            if first // channel._UNIT in (1, 2):
                time.sleep(0.3)
            return emit(self, first, n)

        monkeypatch.setattr(channel.AliceSender, "emit", slow_emit)
        before = threading.active_count()
        t = channel.run_channel(Z, DEG60, 1000, seed=47)
        assert threading.active_count() == before
        time.sleep(0.05)
        assert 0 in emitted and 3 not in emitted
        monkeypatch.undo()
        again = channel.run_channel(Z, DEG60, 1000, seed=47)
        assert json.dumps(t, default=json_form) == json.dumps(again, default=json_form)

    def test_a_unit_error_reaches_the_caller_and_no_thread_outlives_it(self, monkeypatch):
        process = channel.BobFilter.process

        def failing_process(self, ids, vecs):
            if ids[0] == 2 * channel._UNIT:
                raise RuntimeError("third unit")
            return process(self, ids, vecs)

        monkeypatch.setattr(channel.BobFilter, "process", failing_process)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third unit"):
            channel.run_channel(Z, DEG60, 100_000, seed=53)
        assert threading.active_count() == before


class TestInformationAccounting:
    def test_closed_form_entropies(self):
        rep = channel.mutual_information_report()
        assert rep.h_a == np.log(4 * np.pi)
        assert rep.h_lambda == np.log(4 * np.pi)

    def test_joint_entropy_closed_form(self):
        # step(lam.a)/8pi^2 is constant on a support of measure 4pi * 2pi
        assert channel.mutual_information_report().h_joint == np.log(8 * np.pi**2)

    def test_mutual_information_is_one_bit(self):
        rep = channel.mutual_information_report()
        assert abs(rep.mutual_information - np.log(2.0)) <= 2e-15
        assert rep.mutual_information == rep.h_a + rep.h_lambda - rep.h_joint

    def test_cost_is_the_information_in_bits_times_sent_per_accepted(self):
        bits = channel.mutual_information_report().mutual_information / np.log(2.0)
        for t in (
            channel.ChannelTranscript(Z, X, 2000, 1000, {"+b": 500, "-b": 500}, 2.0, 1),
            channel.ChannelTranscript(Z, X, 1999, 1000, {"+b": 700, "-b": 300}, 2.0, 1),
            channel.run_channel(Z, DEG60, 1000, seed=43),
        ):
            assert channel.communication_cost(t) == bits * t.sent / t.accepted

    def test_info_report_serializes(self):
        rep = channel.mutual_information_report()
        fields = list(json.loads(json.dumps(rep, default=json_form)))
        assert fields == ["h_a", "h_lambda", "h_joint", "mutual_information"]


class TestCommunicationCost:
    def test_ideal_ratio_two_bits(self):
        t = channel.ChannelTranscript(Z, X, 2000, 1000, {"+b": 500, "-b": 500}, 2.0, 1)
        assert channel.communication_cost(t) == pytest.approx(2.0, abs=TOL.arithmetic)

    def test_no_rejection_one_bit(self):
        t = channel.ChannelTranscript(Z, X, 1000, 1000, {"+b": 500, "-b": 500}, 2.0, 1)
        assert channel.communication_cost(t) == pytest.approx(1.0, abs=TOL.arithmetic)

    def test_empirical_transcript(self):
        t = channel.run_channel(Z, DEG60, 100_000, seed=41)
        assert channel.communication_cost(t) == pytest.approx(2.0, abs=0.02)

    def test_empty_transcript_rejected(self):
        t = channel.ChannelTranscript(Z, X, 0, 0, {"+b": 0, "-b": 0}, 2.0, 1)
        with pytest.raises(ValueError):
            channel.communication_cost(t)

    def test_transcript_invariants(self):
        with pytest.raises(ValueError):
            channel.ChannelTranscript(Z, X, 10, 20, {"+b": 20, "-b": 0}, 2.0, 1)
        with pytest.raises(ValueError):
            channel.ChannelTranscript(Z, X, 30, 20, {"+b": 1, "-b": 0}, 2.0, 1)
