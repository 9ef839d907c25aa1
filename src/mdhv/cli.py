"""Command-line front end: verification suites, scans, protocol runs, audits.

Each command declares its inputs once, in its argparse subparser: model
choices come from what the models declare, and value domains are argparse
types or choices.  Every command echoes its configuration straight from the
parsed arguments (command, seed, then the command's options in declaration
order), so re-running the echoed configuration reproduces the output byte for
byte.  Exit status: 0 = pass, 1 = a statistical gate failed, 2 = usage error,
reported on one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import secrets
import sys

from . import analysis, channel
from .constants import TOL
from .models import (
    MODEL_REGISTRY,
    AxisPair,
    OnticKind,
    SingletFlag,
    create_model,
    json_form,
    run_experiment,
    singlet_context,
    singlet_correlation,
    stream,
    workers,
)
from .quantum import (
    BlochVector,
    ProjectiveBasis,
    StateVector,
    orthonormal_basis_containing,
    random_basis,
    random_state,
    singlet_expectation,
)

_S = 1.0 / math.sqrt(2.0)

_CHAR_KETS = {"0": [1.0, 0.0], "1": [0.0, 1.0], "+": [_S, _S], "-": [_S, -_S]}

# Two-qubit bases of the pi/compat audits, one ket per row.
_NAMED_BASES = {
    "product-zz": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "bell": ((_S, 0, 0, _S), (_S, 0, 0, -_S), (0, _S, _S, 0), (0, _S, -_S, 0)),
    "mixed-psi-plus": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, _S, _S), (0, 0, _S, -_S)),
    "pbr": ((0, _S, _S, 0), (0.5, -0.5, 0.5, 0.5), (0.5, 0.5, -0.5, 0.5), (_S, 0, 0, -_S)),
}

# Parsed values that select the output rather than the computation, and the
# report stream `main` opens.
_NOT_ECHOED = ("command", "seed", "output", "format", "func", "parser", "out")

# Output formats of the commands that print rows (verify, scan); csv carries the rows only.
_ROW_FORMATS = ("table", "csv", "json")


def parse_direction(text: str) -> BlochVector:
    """'theta,phi' in degrees, or 'x,y,z' components (normalized unless already unit)."""
    parts = [float(p) for p in text.split(",")]
    if not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"expected finite components, got {text!r}")
    if len(parts) == 2:
        return BlochVector.from_polar(math.radians(parts[0]), math.radians(parts[1]))
    if len(parts) == 3:
        # a unit vector is taken as given, so an echoed direction re-parses to the same bits
        if abs(math.hypot(*parts) - 1.0) <= TOL.structural:
            return BlochVector(*parts)
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
    angles = [float(p) for p in text.split(",") if p.strip()]
    if not angles or not all(map(math.isfinite, angles)):
        raise argparse.ArgumentTypeError(f"expected finite comma-separated degrees, got {text!r}")
    return angles


def parse_product_state(text: str) -> list[StateVector]:
    """Comma-separated single-qubit labels from {0, 1, +, -}, e.g. '+,0'."""
    factors = []
    for part in text.split(","):
        part = part.strip()
        if part not in _CHAR_KETS:
            raise argparse.ArgumentTypeError(f"unknown qubit label {part!r}; use 0, 1, +, -")
        factors.append(StateVector(_CHAR_KETS[part]))
    return factors


def _qubit_pair(text: str) -> str:
    """argparse type for exactly two qubit labels, kept as text for the echo."""
    if len(parse_product_state(text)) != 2:
        raise argparse.ArgumentTypeError(f"expected two qubit labels, got {text!r}")
    return text


def _named_basis(name: str) -> ProjectiveBasis:
    return ProjectiveBasis([StateVector(row) for row in _NAMED_BASES[name]])


def _config(args) -> dict:
    """The echo: command, seed, then the command's options in declaration order.

    argparse sets every default in declaration order before it reads the
    command line, so `vars(args)` is already in that order.
    """
    options = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    return {"command": args.command, "seed": args.seed, **options}


def _open(args, option: str):
    """Open the path of a file option for writing; an unwritable path is a usage error."""
    path = getattr(args, option)
    try:
        return open(path, "w")
    except OSError as exc:
        args.parser.error(f"argument --{option}: can't open {path!r}: {exc.strerror}")


def _dumps(value) -> str:
    return json.dumps(value, default=json_form)


def _emit(args, payload: dict, rows: list[dict] = ()) -> None:
    """Write the report to `args.out` in the requested format, config echoed first.

    Payload values may be report objects; they are written in their JSON form.
    """
    config = _config(args)
    out = args.out
    if args.format == "json":
        out.write(_dumps({"config": config, **payload, "rows": rows}) + "\n")
    else:  # csv carries the rows only; table also carries the payload
        csv = args.format == "csv"
        out.write(("# config: " if csv else "config: ") + _dumps(config) + "\n")
        if not csv:
            for key, value in payload.items():
                out.write(f"{key}: {_dumps(value)}\n")
        sep = "," if csv else "  "
        if rows:  # every row has the first row's keys, in its order
            out.write(sep.join(rows[0]) + "\n")
            for row in rows:
                out.write(sep.join(map(str, row.values())) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    model = create_model(args.model)
    rows = []
    all_ok = True
    for trial in range(args.trials):
        ctx = model.random_context(stream(args.seed, 10_000 + trial), dim=args.dim)
        report = run_experiment(model, ctx, args.shots, args.seed + trial, threads=args.threads)
        corr = {}
        if isinstance(ctx.measurement, AxisPair):
            corr_expected = singlet_expectation(ctx.measurement.alice, ctx.measurement.bob)
            corr = {
                "corr_est": f"{singlet_correlation(report.estimates):.9f}",
                "corr_expected": f"{corr_expected:.9f}",
            }
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
                **corr,
            }
            rows.append(row)
    _emit(args, {"model": args.model, "all_within_5_stderr": all_ok}, rows)
    return 0 if all_ok else 1


def cmd_scan(args) -> int:
    model = create_model(args.model)
    a = BlochVector(0.0, 0.0, 1.0)
    rows = []
    all_ok = True
    for k, angle in enumerate(args.angles):
        rad = math.radians(angle)
        b = BlochVector.from_polar(rad, 0.0)
        report = run_experiment(model, singlet_context(a, b), args.shots, args.seed + k, threads=workers())
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
    _emit(args, {"model": args.model, "all_within_5_stderr": all_ok}, rows)
    return 0 if all_ok else 1


def cmd_channel(args) -> int:
    trace_file = _open(args, "trace") if args.trace else None
    try:
        transcript = channel.run_channel(
            args.alice, args.bob, args.accepted, args.seed, trace=trace_file
        )
    finally:
        if trace_file:
            trace_file.close()
    payload = {
        "transcript": transcript,
        "acceptance_rate": transcript.acceptance_rate(),
        "outcome_frequencies": transcript.outcome_frequencies(),
        "nominal_cost_bits": transcript.nominal_bits_per_round,
        "empirical_cost_bits": channel.communication_cost(transcript),
    }
    _emit(args, payload)
    return 0


def cmd_info(args) -> int:
    _emit(args, {"info": channel.mutual_information_report()})
    return 0


def _audit(check):
    """The command of an audit check: its report, emitted under the check's name."""

    def run(args) -> int:
        _emit(args, {args.check: check(args)})
        return 0

    return run


def audit_epistemicity(args) -> analysis.OverlapReport:
    rng = stream(args.seed, 99)
    psi = random_state(args.dim, rng)
    phi = random_state(args.dim, rng)
    M = orthonormal_basis_containing(phi)
    return analysis.degree_of_epistemicity(create_model(args.model), psi, phi, M)


def audit_randomness(args) -> dict[str, float]:
    rng = stream(args.seed, 99)
    psi = random_state(args.dim, rng)
    M = random_basis(args.dim, rng)
    model = create_model(args.model)
    labels = model.outcome_labels(model.basis_context(psi, M))
    return {label: analysis.randomness(model, psi, M, label) for label in labels}


def audit_reciprocity(args) -> analysis.ReciprocityReport:
    psi = random_state(args.dim, stream(args.seed, 99))
    M = orthonormal_basis_containing(psi)
    model = create_model(args.model)
    return analysis.reciprocity_check(model, psi, M)


def audit_pi(args) -> analysis.PiReport:
    factors = parse_product_state(args.state)
    return analysis.preparation_independence_residual(
        create_model(args.model), factors, _named_basis(args.basis)
    )


def audit_compat(args) -> analysis.CompatibilityReport:
    psi, phi = parse_product_state(args.states)
    return analysis.compatibility_audit(
        create_model(args.model), psi, phi, _named_basis(args.basis)
    )


def audit_marginal(args) -> analysis.MarginalDependenceReport:
    model = create_model(args.model)
    return analysis.setting_marginal_dependence(
        model, args.particle, args.alice, args.bob, args.bob2, args.samples, args.seed
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, `<prog>: error: <message>`, and exit 2.

    `--dim` above 2 is checked against the model's declared `any_dimension`
    as part of parsing, so a qubit model never echoes a dimension it did not run.
    """

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        if getattr(ns, "dim", 2) != 2 and not MODEL_REGISTRY[ns.model].any_dimension:
            self.error(f"argument --dim: model {ns.model!r} runs in dimension 2 only")
        return ns, extras


def _add_model(p: argparse.ArgumentParser, accepts=lambda cls: True) -> None:
    """The model positional; its choices are the registered models `accepts` admits."""
    p.add_argument("model", choices=sorted(n for n, c in MODEL_REGISTRY.items() if accepts(c)))


def _add_common(p: argparse.ArgumentParser, func, formats=("table", "json")) -> None:
    p.add_argument(
        "--seed", type=_int_at_least(0), default=None, help="RNG seed (default: fresh entropy)"
    )
    p.add_argument("--output", default=None, help="write the report to this path")
    p.add_argument("--format", choices=formats, default="table")
    p.set_defaults(func=func, parser=p)


def _is_singlet(cls) -> bool:
    return SingletFlag in cls.preparations


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; built once per process, since parsing does not change it."""
    z, x = BlochVector(0.0, 0.0, 1.0), BlochVector(1.0, 0.0, 0.0)
    parser = _Parser(
        prog="mdhv",
        description="Measurement-dependent hidden-variable models: verify, scan, simulate, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="Born-rule agreement over random contexts")
    _add_model(p)
    p.add_argument("--shots", type=_int_at_least(1), default=100_000)
    p.add_argument("--trials", type=_int_at_least(1), default=20)
    p.add_argument("--dim", type=_int_at_least(2), default=2)
    p.add_argument("--threads", type=_int_at_least(1), default=1)
    _add_common(p, cmd_verify, _ROW_FORMATS)

    p = sub.add_parser("scan", help="singlet correlation curve vs -cos(angle)")
    _add_model(p, _is_singlet)
    p.add_argument("--shots", type=_int_at_least(1), default=100_000)
    angles = tuple(float(x) for x in range(0, 181, 15))
    p.add_argument("--angles", type=parse_angles, default=angles, help="comma-separated degrees")
    _add_common(p, cmd_scan, _ROW_FORMATS)

    p = sub.add_parser("channel", help="two-party qubit channel simulation")
    p.add_argument("--alice", type=parse_direction, default=z)
    p.add_argument("--bob", type=parse_direction, default=z)
    p.add_argument(
        "--accepted", type=_int_at_least(1), default=10_000, help="target accepted rounds"
    )
    p.add_argument("--trace", default=None, help="write a per-round CSV trace to this path")
    _add_common(p, cmd_channel)

    p = sub.add_parser("info", help="entropy/mutual-information accounting")
    _add_common(p, cmd_info)

    checks = sub.add_parser("audit", help="analysis-module audits").add_subparsers(
        dest="check", required=True
    )
    # every model these accept has cells, so each audit is an exact sum and samples nothing
    for check, func, summary in (
        ("epistemicity", audit_epistemicity, "degree of epistemicity of two random states"),
        ("randomness", audit_randomness, "ensemble mass with non-deterministic responses"),
        ("reciprocity", audit_reciprocity, "does a state's ensemble sit in its outcome's core"),
    ):
        p = checks.add_parser(check, help=summary)
        _add_model(p, lambda cls: StateVector in cls.preparations)
        p.add_argument("--dim", type=_int_at_least(2), default=2)
        _add_common(p, _audit(func))
    for check, flag, default, func, summary in (
        ("pi", "--state", "+,0", audit_pi, "preparation-independence residual of a product state"),
        ("compat", "--states", "0,+", audit_compat, "support-implication audit of two states"),
    ):
        p = checks.add_parser(check, help=summary)
        _add_model(p, lambda cls: cls.ontic_kind is OnticKind.DISCRETE_INDEX)
        p.add_argument(flag, type=_qubit_pair, default=default, help="two qubit labels, e.g. '+,0'")
        p.add_argument("--basis", choices=tuple(_NAMED_BASES), default="mixed-psi-plus")
        _add_common(p, _audit(func))
    p = checks.add_parser("marginal", help="remote-setting dependence of a singlet marginal")
    _add_model(p, _is_singlet)
    p.add_argument("--samples", type=_int_at_least(1), default=100_000)
    p.add_argument("--particle", type=int, choices=(1, 2), default=1)
    p.add_argument("--alice", type=parse_direction, default=z)
    p.add_argument("--bob", type=parse_direction, default=z)
    p.add_argument("--bob2", type=parse_direction, default=x)
    _add_common(p, _audit(audit_marginal))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None:
        args.seed = secrets.randbits(32)
    # opened before the run, as --trace is, so an unwritable path costs no work
    args.out = _open(args, "output") if args.output else sys.stdout
    try:
        return args.func(args)
    finally:
        if args.output:
            args.out.close()


if __name__ == "__main__":
    sys.exit(main())
