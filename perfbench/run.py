"""mdhv benchmark: closed-loop workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload verify-bulk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one report each
    python3 perfbench/run.py --workload channel --seed 1 --trace 1   # per-layer metrics + ROADMAP table

Run from anywhere; mdhv is imported from the `src/` tree next to this
directory.  With `--trace 0` one workload runs for `--seconds` (whole rounds)
and the end-to-end metrics are reported: the JSON line carries END_TO_END,
and the human-readable lines add raw latencies in ms, wall time, failure
fraction and the workload's throughputs.  The JSON line's latency,
`op_p50_rel`, divides each operation's time by a fixed calibration kernel
timed beside it (see calibration.py), because the raw milliseconds on a
shared host drift by up to 2x over minutes.  With `--trace 1` one round of
every workload forms a pass; untraced and traced passes alternate for `--seconds`,
and the per-layer metrics, the tracing overhead on the named workload, and
the ROADMAP baseline table are reported.  Human-readable lines come first;
the last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status is 0 when the run completed, even if an output check
failed (that shows as correct=false), and 2 when mdhv cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import program

WORKLOAD_NAMES = ("verify-bulk", "verify-small", "audit-quadrature", "channel")
# setup_s is the median CPU time (user + system) of this many fresh processes'
# set-up.  CPU time, not wall time: the host takes the vCPU away for seconds at
# a time, which wall time counts and CPU time does not; wall-clock set-up
# medians of two ten-run sets of one workload moved by up to 21%.
SETUP_REPEATS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# End-to-end metrics on the JSON line.  Raw latencies and throughputs are
# printed but not listed: on a shared host they swing more than a regression
# bound, so the listed latency is relative to the calibration kernel.  The
# relative tail is printed too; it is not listed because a tail is made of the
# host's sub-second stalls, which the calibration samples do not catch.
END_TO_END = ("setup_s", "op_p50_rel", "peak_rss_mb")


@dataclass
class Record:
    workload: str
    kind: str
    seconds: float
    ok: bool
    parts: dict = field(default_factory=dict)
    items: dict = field(default_factory=dict)
    stdout_bytes: int = 0
    spans: list = field(default_factory=list)
    start: float = 0.0
    threads: dict = field(default_factory=dict)
    rel: float = math.nan  # latency in calibration-kernel times


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="multiply every operation's size (smoke tests)")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


def set_up(names, seed: int, scale: float, tmpdir: Path) -> dict:
    import workloads

    built = {}
    for name in names:
        wl = workloads.WORKLOADS[name](seed, scale, tmpdir)
        wl.warmup()
        built[name] = wl
    return built


def execute(workload: str, op, tracer=None) -> Record:
    """Run one operation and its output check; a failure is recorded, not raised."""
    from workloads import CliResult

    res, ok, seconds, spans, t0 = {}, False, float("nan"), [], time.perf_counter()
    try:
        with tracer.operation(f"op.{workload}.{op.kind}") if tracer else nullcontext([]) as spans:
            t0 = time.perf_counter()
            try:
                res = op.run()
            finally:
                seconds = time.perf_counter() - t0
        op.check(res)
        ok = True
    except Exception:  # one failed operation must not end the run; it is counted
        print(f"perfbench: {workload}/{op.kind} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    return Record(
        workload,
        op.kind,
        seconds,
        ok,
        parts={"op": seconds, **res.get("parts", {})},
        items={**op.items, **res.get("items", {})},
        stdout_bytes=sum(len(v.out) for v in res.values() if isinstance(v, CliResult)),
        spans=spans,
        start=t0,
        threads=op.threads,
    )


def setup_probes(args) -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of fresh processes' set-up: import, inputs from the seed, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", str(args.scale)]
    wall, cpu = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=program.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        w, c = proc.stdout.split()[-2:]
        wall.append(float(w))
        cpu.append(float(c))
    return wall, cpu


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(n: int, preferred: float) -> float:
    """The workload's fixed tail percentile, or the highest lower one with ten operations beyond it."""
    for pct in TAIL_LADDER:
        if pct <= preferred and n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def per_kind(records, pct: float, value) -> float:
    """Geometric mean over operation kinds of each kind's percentile of value(record).

    Each kind weighs the same however long it takes, so the figure does not
    jump when a change reorders the kinds, as a pooled median of a few kinds
    of very different latency does.
    """
    import numpy as np

    kinds = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(value(r))
    return math.exp(statistics.fmean(math.log(np.percentile(v, pct)) for v in kinds.values()))


def rate(records, spec) -> float:
    """Sum over kinds of the median items per operation over the sum of median seconds."""
    kinds = spec.kinds or sorted({r.kind for r in records})
    items = secs = 0.0
    for kind in kinds:
        mine = [r for r in records if r.kind == kind]
        if mine:
            items += statistics.median(r.items[spec.item] for r in mine)
            secs += statistics.median(r.parts[spec.part] for r in mine)
    return items / secs if secs else 0.0


def run_record(args, extra: dict) -> dict:
    import numpy as np

    import mdhv

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in program.BLAS_THREAD_VARS},
        "mdhv": mdhv.__version__,
        "commit": program.git_commit(),
        **extra,
    }


def result_line(correct: bool, records, metrics: dict) -> str:
    failed = sum(not r.ok for r in records)
    return json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def end_to_end(args, t0: float, tmpdir: Path) -> tuple[bool, list, dict]:
    import numpy as np

    import workloads
    from calibration import Calibration

    wl = set_up([args.workload], args.seed, args.scale, tmpdir)[args.workload]
    setup_main_s = time.perf_counter() - t0
    setup_wall, setup_cpu = setup_probes(args)
    cal = Calibration({n for op in wl.ops(0) for n in op.threads.values()})

    records, rounds = [], 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        for op in wl.ops(rounds):
            cal.maybe_sample()
            records.append(execute(wl.name, op))
        rounds += 1
    cal.sample()
    wall = time.perf_counter() - start

    ok = [r for r in records if r.ok]
    for r in ok:
        r.rel = cal.relative(r.start, r.parts, r.threads)
    lat = np.array([r.seconds for r in ok]) * 1000.0
    pct = tail_percentile(lat.size, wl.tail_pct)
    rel = (lambda q: per_kind(ok, q, lambda r: r.rel)) if ok else (lambda q: 0.0)
    rates = [(spec.name, rate(ok, spec)) for spec in wl.rates]
    report = {
        "setup_s": (statistics.median(setup_cpu), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (float(np.median(lat)) if lat.size else 0.0, "ms"),
        "op_tail_ms": (float(np.percentile(lat, pct)) if lat.size else 0.0, "ms"),
        "op_p50_rel": (rel(50.0), "ratio"),
        "op_tail_rel": (rel(pct), "ratio"),
        "fail_frac": ((len(records) - len(ok)) / len(records), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **{name: (value, "1/s") for name, value in rates},
    }
    print(f"workload {wl.name}: {rounds} rounds, {len(records)} operations, closed loop, one client")
    gate = {key: sum(r.items.get(key, 0) for r in ok) for key in ("gate_rows", "gate_false_alarms", "pool_x2", "pool_dof")}
    correct = True
    for name, (value, unit) in report.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  at p{pct:g} of n={lat.size} ({lat.size * (1 - pct / 100):.0f} beyond)"
        elif name == "op_p50_ms":
            note = f"  n={lat.size}"
        elif name.startswith("op_") and name.endswith("_rel"):
            note = f"  geometric mean over kinds of each kind's p{50 if 'p50' in name else pct:g}, in calibration-kernel times"
        elif name == "setup_s":
            note = (f"  CPU, median of {len(setup_cpu)} fresh processes; their wall median "
                    f"{statistics.median(setup_wall):.4f} s; this process {setup_main_s:.4f} s wall")
        print(f"  {name:<24} {value:>14.6g} {unit}{note}")
    if gate["gate_rows"]:
        print(f"  verify rows flagged by the CLI's 5-sigma normal gate but passing the exact binomial test: "
              f"{gate['gate_false_alarms']} of {gate['gate_rows']}")
        print(f"  pooled Pearson chi-square of the run's well-filled verify trials: "
              f"{gate['pool_x2']:.6g} on {gate['pool_dof']} dof")
        try:
            workloads.check_pooled(gate["pool_x2"], gate["pool_dof"], f"{wl.name} run")
        except workloads.CheckFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            correct = False
    record = run_record(args, {
        "rounds": rounds,
        **gate,
        "percentiles": {"op_p50_ms": {"pct": 50, "n": int(lat.size)},
                        "op_tail_ms": {"pct": pct, "n": int(lat.size)}},
        "setup_probes_cpu_s": setup_cpu,
        "setup_probes_wall_s": setup_wall,
        **cal.summary(),
        "setup_this_process_s": setup_main_s,
    })
    print("record: " + json.dumps(record))
    metrics = {name: report[name] for name in END_TO_END}
    return correct, records, metrics


def traced(args, tmpdir: Path) -> tuple[bool, list, dict]:
    import layers
    from tracing import Tracer

    wls = set_up(WORKLOAD_NAMES, args.seed, args.scale, tmpdir)
    pass_ops = [(wl.name, op) for wl in wls.values() for op in wl.ops(0)]
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        recs = {}
        # alternate which pass of a pair runs first, so drift on a shared machine cancels
        for with_spans in (False, True) if len(passes) % 2 == 0 else (True, False):
            if with_spans:
                tracer.counts.clear()
                with tracer.installed():
                    recs[True] = [execute(name, op, tracer) for name, op in pass_ops]
            else:
                recs[False] = [execute(name, op) for name, op in pass_ops]
        passes.append((recs[False], recs[True], Counter(tracer.counts)))

    per_pass = [
        {**layers.pass_metrics(traced_recs, counts), **layers.untraced_pass_metrics(untraced)}
        for untraced, traced_recs, counts in passes
    ]
    problems = set(tracer.problems)
    unmeasured = {name for p in per_pass for name, value in p.items() if math.isnan(value)}
    problems |= {f"per-layer metric {name} recorded nothing, so it is left out" for name in unmeasured}
    for name in layers.EXACT:
        seen = {repr(p[name]) for p in per_pass}
        if len(seen) > 1:
            problems.add(f"exact count {name} differs between identical passes: {seen}")
    for problem in sorted(problems):
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not problems

    exact = set(layers.EXACT)
    metrics = {
        name: per_pass[0][name] if name in exact else statistics.median(p[name] for p in per_pass)
        for name in per_pass[0] if name not in unmeasured
    }
    metrics["channel.mutual_information_report.first_s"] = wls["channel"].mi_first_s
    ratios = [
        sum(r.seconds for r in t if r.workload == args.workload) / sum(r.seconds for r in u if r.workload == args.workload)
        for u, t, _ in passes
    ]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0

    print(f"traced run: {len(passes)} untraced/traced pass pairs of one round of every workload")
    for name in sorted(metrics):
        print(f"  {name:<48} {metrics[name]:>14.6g} {layers.unit_of(name)}")
    print(f"  tracing overhead on {args.workload}: {100 * metrics['trace.overhead_frac']:+.1f}% of its untraced time")
    print("  every span closed inside its operation's span" if correct else "  per-layer problems: see stderr")
    if not unmeasured:
        print("ROADMAP baseline table (traced pass; channel trace rate from the untraced pass):")
        print(layers.roadmap_table(metrics, wls["verify-bulk"].shots))
    print("record: " + json.dumps(run_record(args, {"passes": len(passes)})))
    records = [r for u, t, _ in passes for r in u + t]
    return correct, records, {name: (value, layers.unit_of(name)) for name, value in metrics.items()}


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=program.ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct &= result["correct"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        program.import_mdhv()
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=program.ROOT) as tmp:
        tmpdir = Path(tmp)
        if args.probe_setup:
            set_up([args.workload], args.seed, args.scale, tmpdir)
            print(repr(time.perf_counter() - t0), repr(time.process_time() - c0))
            return 0
        if args.trace:
            correct, records, metrics = traced(args, tmpdir)
        else:
            correct, records, metrics = end_to_end(args, t0, tmpdir)
    print(result_line(correct, records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
