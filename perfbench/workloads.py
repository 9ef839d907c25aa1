"""The four closed-loop workloads: their inputs, operations and output checks.

A workload is a sequence of rounds.  Round r holds one operation of every
kind the workload has, in an order and with inputs drawn from
(seed, workload, r), so one seed always gives the same operations.  One
client runs them back to back: the next operation starts only after the
previous one, and its check, have finished.

Operations call `mdhv.cli.main(argv)` with stdout captured, or the public
`mdhv.analysis` functions where the CLI has no entry point.  Every output is
checked against a value the benchmark derives on its own (see reference.py);
no seeded output bits and no reported standard error are pinned.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import mdhv.analysis
import mdhv.channel
import mdhv.cli
from mdhv.models import create_model, singlet_context
from mdhv.quantum import BlochVector, ProjectiveBasis, StateVector

import reference

CHUNK = 1 << 16
THREADS = max(1, min(2, os.cpu_count() or 1))
MODELS = ("bellmermin", "brans", "gbrans", "hall", "interval", "ks1", "ks2")


class CheckFailed(AssertionError):
    """An operation's output disagrees with the benchmark's own reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class CliResult:
    rc: int
    out: str
    seconds: float


def cli_call(argv: list[str]) -> CliResult:
    """Run `mdhv <argv>` in-process; the exit code of a usage error counts too."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = mdhv.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    return CliResult(rc, buf.getvalue(), time.perf_counter() - t0)


@dataclass
class Op:
    kind: str
    run: Callable[[], dict]
    check: Callable[[dict], None]
    items: dict = field(default_factory=dict)  # work units; run() may add {"items": ...} it learns
    threads: dict = field(default_factory=lambda: {"op": 1})  # timed part -> threads it runs on


@dataclass
class Rate:
    """A throughput: sum over kinds of median items / sum of median seconds."""

    name: str
    item: str
    part: str = "op"
    kinds: tuple = ()


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def direction_arg(v) -> str:
    """'x,y,z' for the CLI; pass it as --opt=VALUE, since it may start with '-'."""
    return ",".join(repr(float(x)) for x in v)


def random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def basis_of(columns: np.ndarray) -> ProjectiveBasis:
    return ProjectiveBasis([StateVector(columns[:, k]) for k in range(columns.shape[1])])


class Workload:
    name = ""
    index = 0
    tail_pct = 50.0
    rates: tuple = ()

    def __init__(self, seed: int, scale: float, tmpdir: Path):
        self.seed = seed
        self.scale = scale
        self.tmpdir = tmpdir

    def size(self, full: int, floor: int) -> int:
        return max(floor, int(round(full * self.scale)))

    def rng(self, r: int, *key: int) -> np.random.Generator:
        """Generator for round r; r = -1 is the warm-up round, r = -2 the fixed state pool."""
        return np.random.default_rng([self.seed, self.index, r + 2, *key])

    def ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> None:
        """Run small operations of every kind, so lazy imports and first calls are paid in set-up.

        Their outputs are not checked: that would put the benchmark's own
        reference computations into set-up time.
        """
        for op in self.ops(-1):
            op.run()


# ---------------------------------------------------------------------------
# verify: output checks shared by both verify workloads
# ---------------------------------------------------------------------------


# Per-row level of the benchmark's own tests.  A run makes ~1e5 of them and a
# regression comparison ~1e2 runs, so 1e-12 keeps false failures out of all of them.
ALPHA = 1e-12
CORR_SIGMAS = 7.0  # the normal tail beyond 7 sigma is ~2.6e-12
# A trial joins the pooled chi-square test when every outcome expects this many
# counts, where Pearson's statistic is close to chi-square; rarer outcomes are
# left to the exact per-row test.
POOL_MIN_EXPECTED = 10.0


def chi2_tail_bound(x: float, dof: int) -> float:
    """Chernoff upper bound on P(chi-square(dof) >= x); 1 when x is not above the mean."""
    if dof == 0 or x <= dof:
        return 1.0
    return math.exp(0.5 * dof * math.log(x / dof) - 0.5 * (x - dof))


def check_pooled(x2: float, dof: int, what: str) -> None:
    """Fail a systematic bias that no single row shows: the pooled Pearson statistic's tail."""
    bound = chi2_tail_bound(x2, dof)
    require(bound >= ALPHA, f"{what}: pooled Pearson chi-square {x2:.6g} on {dof} dof, tail below {bound:.3g}")


def binomial_tail(k: int, n: int, p: float) -> float:
    """Exact binomial tail of a count k: P(X >= k) above the mean, P(X <= k) below it."""
    if not 0.0 < p < 1.0:
        return 1.0 if k == round(n * p) else 0.0

    def pmf(j: int) -> float:
        return math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * math.log(p) + (n - j) * math.log1p(-p))

    # walk away from the mean, where the terms only shrink
    js = range(k, n + 1) if k > n * p else range(k, -1, -1)
    total = 0.0
    for j in js:
        term = pmf(j)
        total += term
        if term <= 1e-17 * total:
            break
    return min(1.0, total)


def check_verify(res: CliResult, model: str, shots: int, trials: int, threads: int) -> dict:
    """Exit code, echoed config, and every row's count against its Born weight.

    The CLI's 5-sigma gate is a normal approximation; at expected counts
    below ~1 it rejects counts that are not rare (e.g. 3 seen, 0.24
    expected: exact tail 0.002).  A row it flags passes here only if its
    exact binomial tail is at least ALPHA; such rows are counted as
    `gate_false_alarms`, and exit 1 is accepted only when all flagged rows
    are false alarms.  A small bias in every row, which no row shows alone,
    fails the pooled Pearson test over the trials whose outcomes all expect
    POOL_MIN_EXPECTED counts; the caller pools the same sums over a run.
    """
    lines = res.out.splitlines()
    require(lines and lines[0].startswith("config: "), f"verify {model} exited {res.rc} without its config echo")
    config = json.loads(lines[0][len("config: "):])
    require(
        (config["model"], config["shots"], config["trials"], config["threads"]) == (model, shots, trials, threads),
        f"echoed config {config} differs from the invocation",
    )
    header_at = next(i for i, line in enumerate(lines) if line.startswith("trial  "))
    keys = lines[header_at].split("  ")
    rows = [dict(zip(keys, line.split("  "))) for line in lines[header_at + 1:]]
    require({int(row["trial"]) for row in rows} == set(range(trials)), "verify rows miss a trial")
    born_sum = [0.0] * trials
    pearson = [0.0] * trials
    outcomes = [0] * trials
    rarest = [math.inf] * trials  # smallest expected count of each trial
    alarms = 0
    for row in rows:
        p, est, trial = float(row["born"]), float(row["estimate"]), int(row["trial"])
        born_sum[trial] += p
        expected = p * shots
        outcomes[trial] += 1
        rarest[trial] = min(rarest[trial], expected)
        if expected > 0.0:
            pearson[trial] += (round(est * shots) - expected) ** 2 / expected
        gate = 5.0 * math.sqrt(max(p * (1.0 - p), 0.0) / shots)
        if row["ok"] == "1":
            require(abs(est - p) <= gate + 2e-9, f"{model} row marked ok is {abs(est - p):.3g} from Born {p}")
        else:
            tail = binomial_tail(round(est * shots), shots, p)
            require(tail >= ALPHA, f"{model} estimate {est} vs Born {p}: exact binomial tail {tail:.3g}")
            alarms += 1
        if "corr_est" in row:
            c = float(row["corr_expected"])
            corr_gate = CORR_SIGMAS * math.sqrt(max(1.0 - c * c, 0.0) / shots)
            require(abs(float(row["corr_est"]) - c) <= corr_gate + 2e-9, f"{model} correlation off: {row}")
    require(all(abs(s - 1.0) < 1e-6 for s in born_sum), f"{model} Born weights do not sum to 1: {born_sum}")
    gate_line = f"all_within_5_stderr: {'false' if alarms else 'true'}"
    require(gate_line in lines and res.rc == (1 if alarms else 0),
            f"verify {model} exit {res.rc} / gate line disagree with {alarms} flagged rows")
    pooled = [t for t in range(trials) if rarest[t] >= POOL_MIN_EXPECTED]
    x2 = sum(pearson[t] for t in pooled)
    dof = sum(outcomes[t] - 1 for t in pooled)
    check_pooled(x2, dof, f"verify {model}")
    return {"gate_rows": len(rows), "gate_false_alarms": alarms, "pool_x2": x2, "pool_dof": dof}


class VerifyBulk(Workload):
    """`mdhv verify <model>` for all seven models, each at 2 threads and at 1 thread."""

    name = "verify-bulk"
    index = 1
    tail_pct = 75.0
    rates = (Rate("shots_per_s", "shots", "t2"), Rate("shots_per_s_1t", "shots", "t1"))

    def __init__(self, seed, scale, tmpdir):
        super().__init__(seed, scale, tmpdir)
        self.shots = self.size(1_000_000, 1000)

    def ops(self, r):
        shots = min(self.shots, CHUNK + 1) if r < 0 else self.shots
        rng = self.rng(r)
        return [self._op(MODELS[i], shots, int(rng.integers(2**31))) for i in rng.permutation(len(MODELS))]

    def _op(self, model: str, shots: int, seed: int) -> Op:
        argv = ["verify", model, "--shots", str(shots), "--trials", "1", "--seed", str(seed)]

        def run():
            t2 = cli_call(argv + ["--threads", str(THREADS)])
            t1 = cli_call(argv + ["--threads", "1"])
            return {"t2": t2, "t1": t1, "parts": {"t2": t2.seconds, "t1": t1.seconds}}

        def check(res):
            res["items"] = check_verify(res["t2"], model, shots, 1, THREADS)
            check_verify(res["t1"], model, shots, 1, 1)
            # the echoed config differs by `threads`; everything after it must not
            require(
                res["t2"].out.splitlines()[1:] == res["t1"].out.splitlines()[1:],
                f"verify {model} rows differ between --threads {THREADS} and --threads 1",
            )

        return Op(model, run, check, {"shots": shots}, {"t2": THREADS, "t1": 1})


class VerifySmall(Workload):
    """Many contexts of few shots: per-context overhead dominates."""

    name = "verify-small"
    index = 2
    tail_pct = 90.0
    rates = (Rate("shots_per_s", "shots"), Rate("contexts_per_s", "contexts"))
    KINDS = tuple((m, 2) for m in MODELS) + (("gbrans", 4), ("interval", 4))
    SHOTS = 1000

    def __init__(self, seed, scale, tmpdir):
        super().__init__(seed, scale, tmpdir)
        self.trials = self.size(50, 2)

    def ops(self, r):
        trials = 2 if r < 0 else self.trials
        rng = self.rng(r)
        return [self._op(*self.KINDS[i], trials, int(rng.integers(2**31))) for i in rng.permutation(len(self.KINDS))]

    def _op(self, model: str, dim: int, trials: int, seed: int) -> Op:
        argv = ["verify", model, "--shots", str(self.SHOTS), "--trials", str(trials), "--seed", str(seed)]
        if dim != 2:  # never pass --dim to a qubit-only model
            argv += ["--dim", str(dim)]

        def run():
            return {"cli": cli_call(argv)}

        def check(res):
            res["items"] = check_verify(res["cli"], model, self.SHOTS, trials, 1)

        kind = model if dim == 2 else f"{model}-d{dim}"
        return Op(kind, run, check, {"shots": self.SHOTS * trials, "contexts": trials})


# ---------------------------------------------------------------------------
# audit-quadrature
# ---------------------------------------------------------------------------

HALL_CLOSED_FORM = (
    np.array([0.0, 0.0, 1.0]),
    np.array([math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)]),
    np.array([1.0, 0.0, 0.0]),
    1.0 / 12.0,  # TV of Hall's marginal when Bob's axis moves from 60 degrees to x, Alice on z
)


class AuditQuadrature(Workload):
    """One auditor call per operation: quadrature and Monte Carlo over model densities."""

    name = "audit-quadrature"
    index = 3
    tail_pct = 90.0
    rates = (Rate("points_per_s", "points"), Rate("marginal_points_per_s", "points", kinds=("marginal",)))
    SPHERE = ("ks1", "ks2", "bellmermin")
    KINDS = (
        ("marginal",)
        + tuple(f"overlap-{m}" for m in SPHERE + ("gbrans", "interval"))
        + tuple(f"epistemic-{m}" for m in SPHERE)
        + ("support-brans", "support-hall")
    )
    POOL = 2  # distinct states per overlap/epistemicity kind, so each grid reference is computed once per run
    FINITE_DIM = 3

    def __init__(self, seed, scale, tmpdir):
        super().__init__(seed, scale, tmpdir)
        self.points = self.size(100_000, 2000)
        self.grid = None
        self._refs: dict = {}
        self.models = {m: create_model(m) for m in MODELS}

    def ops(self, r):
        points = min(self.points, 2000) if r < 0 else self.points
        rng = self.rng(r)
        out = []
        for i in rng.permutation(len(self.KINDS)):
            kind = self.KINDS[i]
            seed = int(rng.integers(2**31))
            if kind == "marginal":
                out.append(self._marginal(r, rng, points, seed))
            elif kind.startswith("overlap-"):
                out.append(self._overlap(kind, r % self.POOL, points, seed))
            elif kind.startswith("epistemic-"):
                out.append(self._epistemic(kind, r % self.POOL, points, seed))
            else:
                out.append(self._support(kind, rng, points, seed))
        return out

    def reference(self, key, compute):
        if key not in self._refs:
            if self.grid is None:
                self.grid = reference.sphere_grid()
            self._refs[key] = compute()
        return self._refs[key]

    def _marginal(self, r: int, rng, points: int, seed: int) -> Op:
        if r % 3 == 0:
            a, b, b_alt, expected = HALL_CLOSED_FORM
        else:
            a, b, b_alt, expected = unit_vector(rng), unit_vector(rng), unit_vector(rng), None
        particle = int(rng.integers(1, 3))
        argv = ["audit", "marginal", "hall", "--samples", str(points), "--seed", str(seed),
                "--particle", str(particle), "--alice=" + direction_arg(a), "--bob=" + direction_arg(b),
                "--bob2=" + direction_arg(b_alt), "--format", "json"]

        def run():
            return {"cli": cli_call(argv)}

        def check(res):
            cli = res["cli"]
            require(cli.rc == 0, f"audit marginal exited {cli.rc}")
            report = json.loads(cli.out)["marginal"]
            ref = expected if expected is not None else reference.hall_marginal_tv(a, b, b_alt)
            # the stderr may legitimately shrink; the floor is ~10x the estimator's spread
            tol = max(5.0 * report["stderr"], 0.2 / math.sqrt(points))
            require(abs(report["tv_distance"] - ref) <= tol,
                    f"hall TV {report['tv_distance']} vs reference {ref} (tol {tol:.3g})")

        return Op("marginal", run, check, {"points": points})

    def _pool_inputs(self, kind: str, slot: int, dim: int):
        rng = self.rng(-2, self.KINDS.index(kind), slot)
        return random_ket(rng, dim), random_ket(rng, dim), random_unitary(rng, dim)

    def _overlap(self, kind: str, slot: int, points: int, seed: int) -> Op:
        model_name = kind.split("-", 1)[1]
        dim = 2 if model_name in self.SPHERE else self.FINITE_DIM
        psi, phi, basis = self._pool_inputs(kind, slot, dim)
        args = (self.models[model_name], StateVector(psi), StateVector(phi), basis_of(basis))

        def run():
            return {"w": mdhv.analysis.classical_overlap(*args, resolution=points, seed=seed)}

        def check(res):
            if model_name == "gbrans":
                ref, tol = reference.discrete_overlap(psi, phi, basis), 1e-9
            elif model_name == "interval":
                ref, tol = reference.interval_overlap(psi, phi, basis), 1e-9
            else:
                ref = self.reference((kind, slot), lambda: reference.sphere_overlap(model_name, psi, phi, basis, self.grid))
                tol = 1.0 / math.sqrt(points)  # ~6x the largest stratified-quadrature error seen
            require(abs(res["w"] - ref) <= tol, f"{kind} w_C {res['w']} vs reference {ref} (tol {tol:.3g})")

        return Op(kind, run, check, {"points": points if dim == 2 else dim})

    def _epistemic(self, kind: str, slot: int, points: int, seed: int) -> Op:
        model_name = kind.split("-", 1)[1]
        psi, phi, _ = self._pool_inputs(kind, slot, 2)
        perp = np.array([-np.conj(phi[1]), np.conj(phi[0])])
        basis = np.stack([phi, perp], axis=1)  # contains phi's projector, as the auditor requires
        args = (self.models[model_name], StateVector(psi), StateVector(phi), basis_of(basis))

        def run():
            return {"report": mdhv.analysis.degree_of_epistemicity(
                *args, samples=points, seed=seed, method="monte-carlo")}

        def check(res):
            report = res["report"]
            ref = self.reference((kind, slot), lambda: reference.support_mass(model_name, psi, phi, basis, self.grid))
            q = float(np.abs(np.vdot(phi, psi)) ** 2)
            tol = 5.0 * math.sqrt(max(ref * (1.0 - ref), 0.0) / points) + 2e-4  # 2e-4: grid error
            require(abs(report.mass_psi_in_phi_support - ref) <= tol,
                    f"{kind} mass {report.mass_psi_in_phi_support} vs reference {ref} (tol {tol:.3g})")
            require(abs(report.quantum_overlap_sq - q) <= 1e-12, f"{kind} |<psi|phi>|^2 {report.quantum_overlap_sq} != {q}")
            require(abs(report.omega - report.mass_psi_in_phi_support / q) <= 1e-12 * max(1.0, report.omega),
                    f"{kind} omega is not mass / |<psi|phi>|^2")

        return Op(kind, run, check, {"points": points})

    def _support(self, kind: str, rng, points: int, seed: int) -> Op:
        model_name = kind.split("-", 1)[1]
        a, b, c, d = (unit_vector(rng) for _ in range(4))
        ctx_from = singlet_context(BlochVector(*a), BlochVector(*b))
        if model_name == "brans":
            # parallel support axes: outcomes ++ and -- have weight 0, so the mass is P(+-) + P(-+)
            ctx_support = singlet_context(BlochVector(*c), BlochVector(*c))
            expected = (1.0 + float(a @ b)) / 2.0
        else:
            # Hall's density is positive everywhere off the degenerate axes
            ctx_support = singlet_context(BlochVector(*c), BlochVector(*d))
            expected = 1.0
        model = self.models[model_name]

        def run():
            return {"mass": mdhv.analysis.support_overlap_mass(model, ctx_from, ctx_support, points, seed)}

        def check(res):
            mass, _, method = res["mass"]
            tol = 5.0 * math.sqrt(expected * (1.0 - expected) / points)
            require(abs(mass - expected) <= tol, f"{kind} mass {mass} ({method}) vs {expected} (tol {tol:.3g})")

        return Op(kind, run, check, {"points": points})


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

TRACE_HEADER = "round_id,lambda_x,lambda_y,lambda_z,accepted,outcome"


def check_trace(path: Path, sent: int, accepted: int, plus: int, a: np.ndarray, b: np.ndarray) -> None:
    """Every row parses, ids run 0..sent-1, and each row agrees with the protocol."""
    lines = path.read_text().splitlines()
    require(lines and lines[0] == TRACE_HEADER, "trace header missing")
    require(len(lines) - 1 == sent, f"trace has {len(lines) - 1} rows, transcript says sent={sent}")
    fields = [line.split(",") for line in lines[1:]]
    require(all(len(f) == 6 for f in fields), "a trace row does not have six fields")
    ids = np.array([int(f[0]) for f in fields])
    lam = np.array([[float(f[1]), float(f[2]), float(f[3])] for f in fields])
    acc = np.array([int(f[4]) for f in fields])
    outcome = [f[5] for f in fields]
    require(np.array_equal(ids, np.arange(sent)), "trace round ids are not 0..sent-1")
    require(np.all(np.abs(np.einsum("ij,ij->i", lam, lam) - 1.0) < 1e-9), "a traced lambda is not a unit vector")
    require(np.all(lam @ a >= -1e-12), "a traced lambda lies outside Alice's hemisphere")
    require(set(acc.tolist()) <= {0, 1} and int(acc.sum()) == accepted, "trace accepted column disagrees")
    expect = np.where(acc == 1, np.where(lam @ b >= 0.0, "+b", "-b"), "")
    require(outcome == expect.tolist(), "trace outcome column disagrees with sign(lambda.b)")
    require(outcome.count("+b") == plus, "trace +b count disagrees with the transcript")


class Channel(Workload):
    """`mdhv channel`: two untraced runs, then one that writes --trace, per round."""

    name = "channel"
    index = 4
    tail_pct = 75.0
    rates = (Rate("accepted_per_s", "accepted", kinds=("untraced",)), Rate("trace_rows_per_s", "rows", kinds=("traced",)))
    KINDS = ("untraced", "untraced", "traced")

    def __init__(self, seed, scale, tmpdir):
        super().__init__(seed, scale, tmpdir)
        self.accepted = {"untraced": self.size(300_000, 1000), "traced": self.size(20_000, 200)}
        self.mi_first_s = None

    def warmup(self):
        t0 = time.perf_counter()
        # positional, as communication_cost calls it, so the CLI hits the same cache entry
        mdhv.channel.mutual_information_report(512)
        self.mi_first_s = time.perf_counter() - t0
        super().warmup()

    def ops(self, r):
        rng = self.rng(r)
        out = []
        for kind in self.KINDS:
            accepted = min(self.accepted[kind], 1000) if r < 0 else self.accepted[kind]
            out.append(self._op(kind, unit_vector(rng), unit_vector(rng), accepted, int(rng.integers(2**31))))
        return out

    def _op(self, kind: str, a: np.ndarray, b: np.ndarray, accepted: int, seed: int) -> Op:
        trace = self.tmpdir / "trace.csv"
        argv = ["channel", "--alice=" + direction_arg(a), "--bob=" + direction_arg(b),
                "--accepted", str(accepted), "--seed", str(seed), "--format", "json"]
        if kind == "traced":
            argv += ["--trace", str(trace)]

        def run():
            cli = cli_call(argv)
            res = {"cli": cli}
            if cli.rc == 0:
                t = json.loads(cli.out)["transcript"]
                res["items"] = {"accepted": t["accepted"], "sent": t["sent"], "rows": t["sent"] if kind == "traced" else 0}
            return res

        def check(res):
            cli = res["cli"]
            require(cli.rc == 0, f"channel exited {cli.rc}")
            payload = json.loads(cli.out)
            t = payload["transcript"]
            sent, got, plus = t["sent"], t["accepted"], t["outcome_counts"]["+b"]
            require(got == accepted and sent >= got, f"channel accepted {got} of target {accepted}")
            rate = payload["acceptance_rate"]
            require(abs(rate - 0.5) <= 5.0 * math.sqrt(0.25 / sent), f"acceptance rate {rate} is not 1/2 within 5 sigma")
            p = (1.0 + float(a @ b)) / 2.0
            freq = payload["outcome_frequencies"]["+b"]
            require(abs(freq - p) <= 5.0 * math.sqrt(p * (1.0 - p) / got) + 1e-12,
                    f"+b frequency {freq} vs (1 + a.b)/2 = {p}")
            # I(lambda:a) is exactly 1 bit, so the empirical cost is sent/accepted bits
            require(abs(payload["empirical_cost_bits"] - sent / got) <= 1e-6 * sent / got, "empirical cost is not sent/accepted")
            if kind == "traced":
                check_trace(trace, sent, got, plus, a, b)

        return Op(kind, run, check)


WORKLOADS = {w.name: w for w in (VerifyBulk, VerifySmall, AuditQuadrature, Channel)}
