"""Command-line front end: verification suites, scans, protocol runs, audits.

Every command echoes its fully resolved configuration (seed included) so any
output can be reproduced byte-identically by re-running the echoed
configuration.  Exit status: 0 = pass, 1 = a statistical gate failed,
2 = usage error (argparse's own convention).
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import sys
from dataclasses import dataclass, field

from . import analysis, channel
from .models import (
    MODEL_REGISTRY,
    SingletModel,
    create_model,
    run_experiment,
    singlet_context,
    singlet_correlation,
    stream,
)
from .quantum import (
    BlochVector,
    StateVector,
    orthonormal_basis_containing,
    random_state,
)

_CHAR_KETS = {
    "0": [1.0, 0.0],
    "1": [0.0, 1.0],
    "+": [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
    "-": [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)],
}


@dataclass
class RunConfig:
    """Resolved invocation, echoed verbatim into every output."""

    command: str
    seed: int
    options: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"command": self.command, "seed": self.seed, **self.options}


def parse_direction(text: str) -> BlochVector:
    """'theta,phi' in degrees, or 'x,y,z' components (normalized)."""
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 2:
        return BlochVector.from_polar(math.radians(parts[0]), math.radians(parts[1]))
    if len(parts) == 3:
        return BlochVector.normalized(*parts)
    raise argparse.ArgumentTypeError(f"expected 'theta,phi' or 'x,y,z', got {text!r}")


def _int_at_least(low: int):
    """argparse type for an integer option that must be >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def parse_angles(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def parse_product_state(text: str) -> list[StateVector]:
    """Comma-separated single-qubit labels from {0, 1, +, -}, e.g. '+,0'."""
    factors = []
    for part in text.split(","):
        part = part.strip()
        if part not in _CHAR_KETS:
            raise argparse.ArgumentTypeError(f"unknown qubit label {part!r}; use 0, 1, +, -")
        factors.append(StateVector(_CHAR_KETS[part]))
    return factors


def _ket(label: str) -> StateVector:
    return StateVector(_CHAR_KETS[label])


def _named_basis(name: str):
    """Two-qubit bases used by the pi/compat audits."""
    from .quantum import ProjectiveBasis

    s = 1.0 / math.sqrt(2.0)
    if name == "product-zz":
        kets = [
            _ket("0").tensor(_ket("0")),
            _ket("0").tensor(_ket("1")),
            _ket("1").tensor(_ket("0")),
            _ket("1").tensor(_ket("1")),
        ]
    elif name == "bell":
        kets = [
            StateVector([s, 0, 0, s]),
            StateVector([s, 0, 0, -s]),
            StateVector([0, s, s, 0]),
            StateVector([0, s, -s, 0]),
        ]
    elif name == "mixed-psi-plus":
        kets = [
            _ket("0").tensor(_ket("0")),
            _ket("0").tensor(_ket("1")),
            StateVector([0, 0, s, s]),
            StateVector([0, 0, s, -s]),
        ]
    elif name == "pbr":
        kets = [
            StateVector([0, s, s, 0]),
            StateVector([0.5, -0.5, 0.5, 0.5]),
            StateVector([0.5, 0.5, -0.5, 0.5]),
            StateVector([s, 0, 0, -s]),
        ]
    else:
        raise argparse.ArgumentTypeError(f"unknown basis {name!r}")
    return ProjectiveBasis(kets)


def _emit(config: RunConfig, payload: dict, rows: list[dict], args) -> None:
    """Write the report in the requested format, config echoed first."""
    fmt = args.format
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        if fmt == "json":
            out.write(json.dumps({"config": config.as_dict(), **payload, "rows": rows}) + "\n")
        elif fmt == "csv":
            out.write("# config: " + json.dumps(config.as_dict()) + "\n")
            if rows:
                keys = list(rows[0])
                out.write(",".join(keys) + "\n")
                for row in rows:
                    out.write(",".join(str(row[k]) for k in keys) + "\n")
        else:  # table
            out.write("config: " + json.dumps(config.as_dict()) + "\n")
            for key, value in payload.items():
                out.write(f"{key}: {json.dumps(value)}\n")
            if rows:
                keys = list(rows[0])
                out.write("  ".join(keys) + "\n")
                for row in rows:
                    out.write("  ".join(str(row[k]) for k in keys) + "\n")
    finally:
        if args.output:
            out.close()


def _resolve_model(args) -> str:
    name = getattr(args, "model", None) or getattr(args, "model_flag", None)
    if not name:
        raise SystemExit(2)
    return name


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    name = _resolve_model(args)
    model = create_model(name)
    config = RunConfig(
        "verify",
        args.seed,
        {
            "model": name,
            "shots": args.shots,
            "trials": args.trials,
            "dim": args.dim,
            "threads": args.threads,
        },
    )
    rows = []
    all_ok = True
    for trial in range(args.trials):
        ctx = model.random_context(stream(args.seed, 10_000 + trial), dim=args.dim)
        report = run_experiment(model, ctx, args.shots, args.seed + trial, threads=args.threads)
        corr = None
        if isinstance(model, SingletModel):
            corr = singlet_correlation(report.estimates)
            corr_expected = -ctx.measurement.alice.dot(ctx.measurement.bob)
        for label in model.outcome_labels(ctx):
            p = report.born_reference[label]
            gate = 5.0 * math.sqrt(p * (1.0 - p) / args.shots)
            delta = abs(report.estimates[label] - p)
            ok = delta <= gate if gate > 0.0 else delta == 0.0
            all_ok &= ok
            row = {
                "trial": trial,
                "outcome": label,
                "born": f"{p:.9f}",
                "estimate": f"{report.estimates[label]:.9f}",
                "abs_error": f"{delta:.9f}",
                "gate_5se": f"{gate:.9f}",
                "ok": int(ok),
            }
            if corr is not None:
                row["corr_est"] = f"{corr:.9f}"
                row["corr_expected"] = f"{corr_expected:.9f}"
            rows.append(row)
    _emit(config, {"model": name, "all_within_5_stderr": all_ok}, rows, args)
    return 0 if all_ok else 1


def cmd_scan(args) -> int:
    name = _resolve_model(args)
    model = create_model(name)
    if not isinstance(model, SingletModel):
        print(f"scan requires a bipartite singlet model, got {name!r}", file=sys.stderr)
        return 2
    config = RunConfig(
        "scan", args.seed, {"model": name, "shots": args.shots, "angles": args.angles}
    )
    a = BlochVector(0.0, 0.0, 1.0)
    rows = []
    all_ok = True
    for k, angle in enumerate(args.angles):
        rad = math.radians(angle)
        b = BlochVector.from_polar(rad, 0.0)
        report = run_experiment(model, singlet_context(a, b), args.shots, args.seed + k)
        est = singlet_correlation(report.estimates)
        expected = -math.cos(rad)
        stderr = math.sqrt(max(1e-300, (1.0 - expected**2)) / args.shots)
        ok = abs(est - expected) <= 5.0 * stderr
        all_ok &= ok
        rows.append(
            {
                "angle_deg": angle,
                "estimate": f"{est:.9f}",
                "expected_minus_cos": f"{expected:.9f}",
                "stderr": f"{stderr:.9f}",
                "ok": int(ok),
            }
        )
    _emit(config, {"model": name, "all_within_5_stderr": all_ok}, rows, args)
    return 0 if all_ok else 1


def cmd_channel(args) -> int:
    config = RunConfig(
        "channel",
        args.seed,
        {
            "alice": [args.alice.x, args.alice.y, args.alice.z],
            "bob": [args.bob.x, args.bob.y, args.bob.z],
            "accepted": args.accepted,
            "trace": args.trace,
        },
    )
    trace_file = open(args.trace, "w") if args.trace else None
    try:
        transcript = channel.run_channel(
            args.alice, args.bob, args.accepted, args.seed, trace=trace_file
        )
    finally:
        if trace_file:
            trace_file.close()
    payload = {
        "transcript": json.loads(transcript.to_json()),
        "acceptance_rate": transcript.acceptance_rate(),
        "outcome_frequencies": transcript.outcome_frequencies(),
        "nominal_cost_bits": transcript.nominal_bits_per_round,
        "empirical_cost_bits": channel.communication_cost(transcript),
    }
    _emit(config, payload, [], args)
    return 0


def cmd_info(args) -> int:
    config = RunConfig("info", args.seed, {"resolution": args.resolution})
    report = channel.mutual_information_report(args.resolution)
    _emit(config, {"info": json.loads(report.to_json())}, [], args)
    return 0


def cmd_audit(args) -> int:
    name = _resolve_model(args)
    model = create_model(name)
    check = args.check
    config = RunConfig(
        "audit",
        args.seed,
        {"check": check, "model": name, "dim": args.dim, "samples": args.samples},
    )
    rng = stream(args.seed, 99)

    if check == "epistemicity":
        psi = random_state(args.dim, rng)
        phi = random_state(args.dim, rng)
        M = orthonormal_basis_containing(phi)
        report = analysis.degree_of_epistemicity(model, psi, phi, M, args.samples, args.seed)
        _emit(config, {"epistemicity": json.loads(report.to_json())}, [], args)
        return 0
    if check == "randomness":
        ctx = model.random_context(rng, dim=args.dim)
        values = {
            label: analysis.randomness(
                model, ctx.preparation, ctx.measurement, label, args.samples, args.seed
            )
            for label in model.outcome_labels(ctx)
        }
        _emit(config, {"randomness": values}, [], args)
        return 0
    if check == "reciprocity":
        psi = random_state(args.dim, rng)
        M = orthonormal_basis_containing(psi)
        report = analysis.reciprocity_check(model, psi, M, args.samples, args.seed)
        _emit(config, {"reciprocity": json.loads(report.to_json())}, [], args)
        return 0
    if check == "pi":
        factors = parse_product_state(args.state)
        M = _named_basis(args.basis)
        report = analysis.preparation_independence_residual(model, factors, M)
        _emit(config, {"pi": json.loads(report.to_json())}, [], args)
        return 0
    if check == "compat":
        psi, phi = parse_product_state(args.states)
        M = _named_basis(args.basis)
        report = analysis.compatibility_audit(model, psi, phi, M)
        _emit(config, {"compat": json.loads(report.to_json())}, [], args)
        return 0
    if check == "marginal":
        if not isinstance(model, SingletModel):
            print(f"marginal requires a bipartite singlet model, got {name!r}", file=sys.stderr)
            return 2
        report = analysis.setting_marginal_dependence(
            model, args.particle, args.alice, args.bob, args.bob2, args.samples, args.seed
        )
        _emit(config, {"marginal": json.loads(report.to_json())}, [], args)
        return 0
    print(f"unknown audit check {check!r}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed", type=_int_at_least(0), default=None, help="RNG seed (default: fresh entropy)"
    )
    p.add_argument("--output", default=None, help="write the report to this path")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdhv",
        description="Measurement-dependent hidden-variable models: verify, scan, simulate, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="Born-rule agreement over random contexts")
    p.add_argument("model", nargs="?", choices=sorted(MODEL_REGISTRY))
    p.add_argument("--model", dest="model_flag", choices=sorted(MODEL_REGISTRY))
    p.add_argument("--shots", type=_int_at_least(1), default=100_000)
    p.add_argument("--trials", type=_int_at_least(1), default=20)
    p.add_argument("--dim", type=_int_at_least(2), default=2)
    p.add_argument("--threads", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="singlet correlation curve vs -cos(angle)")
    p.add_argument("model", nargs="?", choices=sorted(MODEL_REGISTRY))
    p.add_argument("--model", dest="model_flag", choices=sorted(MODEL_REGISTRY))
    p.add_argument(
        "--angles",
        type=parse_angles,
        default=[float(x) for x in range(0, 181, 15)],
        help="comma-separated degrees",
    )
    p.add_argument("--shots", type=_int_at_least(1), default=100_000)
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("channel", help="two-party qubit channel simulation")
    p.add_argument("--alice", type=parse_direction, default=BlochVector(0.0, 0.0, 1.0))
    p.add_argument("--bob", type=parse_direction, default=BlochVector(0.0, 0.0, 1.0))
    p.add_argument(
        "--accepted", type=_int_at_least(1), default=10_000, help="target accepted rounds"
    )
    p.add_argument("--trace", default=None, help="write a per-round CSV trace to this path")
    _add_common(p)
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("info", help="entropy/mutual-information accounting")
    p.add_argument("--resolution", type=int, default=512)
    _add_common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("audit", help="analysis-module audits")
    p.add_argument(
        "check", choices=("epistemicity", "randomness", "reciprocity", "pi", "compat", "marginal")
    )
    p.add_argument("model", nargs="?", choices=sorted(MODEL_REGISTRY))
    p.add_argument("--model", dest="model_flag", choices=sorted(MODEL_REGISTRY))
    p.add_argument("--dim", type=_int_at_least(2), default=2)
    p.add_argument("--samples", type=_int_at_least(1), default=100_000)
    p.add_argument("--state", default="+,0", help="product state for the pi check")
    p.add_argument("--states", default="0,+", help="state pair for the compat check")
    p.add_argument("--basis", default="mixed-psi-plus", help="named two-qubit basis")
    p.add_argument("--particle", type=int, choices=(1, 2), default=1)
    p.add_argument("--alice", type=parse_direction, default=BlochVector(0.0, 0.0, 1.0))
    p.add_argument("--bob", type=parse_direction, default=BlochVector(0.0, 0.0, 1.0))
    p.add_argument("--bob2", type=parse_direction, default=BlochVector(1.0, 0.0, 0.0))
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None:
        args.seed = secrets.randbits(32)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
