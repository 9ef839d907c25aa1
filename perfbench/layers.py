"""Per-layer metrics of one traced pass, and the ROADMAP baseline table built from them."""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict

NAN = math.nan

MODELS = ("brans", "gbrans", "interval", "ks1", "ks2", "hall", "bellmermin")  # registry order
ARRAY_METHODS = ("sample_arrays", "outcome_index_arrays", "density_arrays")
REJECTION_SAMPLERS = {"ks2": "sphere.uniform_hemisphere", "hall": "sphere.uniform_sphere"}
TIMED = [
    "models.run_experiment",
    "sphere.embed_local",
    "sphere.uniform_sphere",
    "sphere.uniform_hemisphere",
    "sphere.cosine_hemisphere",
    "sphere.uniform_cap",
    "sphere.stratified_sphere_points",
    "sphere.bootstrap_stderr",
    "quantum.random_basis",
    "quantum.random_state",
    "quantum.born_probability",
    "analysis.setting_marginal_dependence",
    "analysis.classical_overlap",
    "analysis.degree_of_epistemicity",
    "channel.AliceSender.emit",
    "channel.BobFilter.process",
    "channel.run_channel",
    "cli.main",
]
CALLED = ["models.stream", "sphere.embed_local", "sphere.tangent_frame", "quantum.bloch_from_ket"]
# Counts that repeat exactly for one seed; a later change may name one in advance.
EXACT = [
    "models.stream.calls",
    "sphere.embed_local.calls",
    "sphere.tangent_frame.calls",
    "quantum.bloch_from_ket.calls",
    "models.ks2.proposals_per_shot",
    "models.hall.proposals_per_shot",
    "channel.sent_per_accepted",
    "channel.trace.write_calls",
    "channel.trace.bytes",
    "cli.emit.bytes",
]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_per_row"):
        return "us"
    if name.endswith("calls"):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def _ratio(num: float, den: float) -> float:
    """num / den, or NaN when either is 0: for every ratio here that means a layer was not reached."""
    return num / den if num and den else NAN


def _measured(value: float) -> float:
    """A count or byte total, or NaN when nothing was recorded."""
    return value if value else NAN


def pass_metrics(records, trace_counts: Counter) -> dict[str, float]:
    """Layer metrics of one traced pass (one round of every workload).

    Times are seconds per pass; `*.calls` and `*.bytes` are counts per pass.
    A metric whose layer recorded nothing reads NaN, which the caller treats
    as a failure: a renamed or bypassed function must not look like a gain.
    """
    records = [rec for rec in records if rec.ok]  # a failed operation is counted by the caller
    spans = [s for rec in records for s in rec.spans]
    self_s = defaultdict(float)
    calls = Counter()
    for s in spans:
        self_s[s.name] += s.self_s
        calls[s.name] += 1
    m: dict[str, float] = {}
    for model in MODELS:
        for method in ARRAY_METHODS:
            name = f"models.{model}.{method}"
            m[f"{name}.self_s"] = self_s[name] if calls[name] else NAN
    for model, sampler in REJECTION_SAMPLERS.items():
        owner = f"models.{model}.sample_arrays"
        drawn = sum(s.attrs.get("n", 0) for s in spans if s.name == sampler and s.parent is not None and s.parent.name == owner)
        shots = sum(s.attrs.get("n", 0) for s in spans if s.name == owner)
        m[f"models.{model}.proposals_per_shot"] = _ratio(drawn, shots)
    for name in TIMED:
        m[f"{name}.self_s"] = self_s[name] if calls[name] else NAN
    for name in CALLED:
        m[f"{name}.calls"] = _measured(calls[name])
    contexts = [k for k in calls if k.endswith(".random_context")]
    m["models.random_context.self_s"] = sum(self_s[k] for k in contexts) if contexts else NAN

    bulk_runs = [s for rec in records if rec.workload == "verify-bulk" for s in rec.spans if s.name == "models.run_experiment"]
    by_threads = defaultdict(float)
    for s in bulk_runs:
        by_threads[s.attrs.get("threads", 1) > 1] += s.duration
    m["models.run_experiment.thread_speedup"] = _ratio(by_threads[False], by_threads[True])

    marginal = [s for s in spans if s.name == "analysis.setting_marginal_dependence"]
    marginal_s = sum(s.duration for s in marginal)
    bootstrap_s = sum(
        s.duration for s in spans
        if s.name == "sphere.bootstrap_stderr" and s.ancestor("analysis.setting_marginal_dependence") is not None
    )
    m["analysis.bootstrap_share"] = _ratio(bootstrap_s, marginal_s)

    channel = [rec for rec in records if rec.workload == "channel"]
    m["channel.sent_per_accepted"] = _ratio(sum(r.items["sent"] for r in channel), sum(r.items["accepted"] for r in channel))
    m["channel.trace.write_calls"] = _measured(trace_counts["channel.trace.write_calls"])
    m["channel.trace.bytes"] = _measured(trace_counts["channel.trace.bytes"])
    m["cli.emit.bytes"] = _measured(sum(rec.stdout_bytes for rec in records))

    # ROADMAP rows
    for model in MODELS:
        for threads, label in ((False, "t1"), (True, "t2")):
            runs = [s.duration for s in bulk_runs if s.attrs.get("model") == model and (s.attrs.get("threads", 1) > 1) == threads]
            m[f"roadmap.run_experiment.{model}.{label}_ms"] = 1000.0 * statistics.fmean(runs) if runs else NAN
    ks2 = [s for s in bulk_runs if s.attrs.get("model") == "ks2" and s.attrs.get("threads", 1) == 1]
    ks2_ids = {id(s) for s in ks2}
    embed = sum(
        s.duration for rec in records for s in rec.spans
        if s.name == "sphere.embed_local" and id(s.ancestor("models.run_experiment")) in ks2_ids
    )
    m["roadmap.ks2.embed_local_share"] = _ratio(embed, sum(s.duration for s in ks2))
    m["roadmap.marginal.per_1m_points_s"] = _ratio(marginal_s * 1e6, sum(s.attrs.get("points", 0) for s in marginal))
    untraced_runs = [s for rec in channel if rec.kind == "untraced" for s in rec.spans if s.name == "channel.run_channel"]
    untraced_accepted = sum(rec.items["accepted"] for rec in channel if rec.kind == "untraced")
    m["roadmap.channel.per_1m_accepted_s"] = _ratio(sum(s.duration for s in untraced_runs) * 1e6, untraced_accepted)
    return m


def untraced_pass_metrics(records) -> dict[str, float]:
    """Layer figures that tracing itself would distort, read off the untraced pass."""
    traced = [rec for rec in records if rec.ok and rec.workload == "channel" and rec.kind == "traced"]
    return {
        "roadmap.channel.trace_us_per_row": _ratio(
            sum(rec.seconds for rec in traced) * 1e6, sum(rec.items["rows"] for rec in traced)
        )
    }


def roadmap_table(m: dict[str, float], bulk_shots: int) -> str:
    runs = " · ".join(
        f"{model} {m[f'roadmap.run_experiment.{model}.t1_ms']:.0f} ({m[f'roadmap.run_experiment.{model}.t2_ms']:.0f})"
        for model in MODELS
    )
    share = m["analysis.bootstrap_share"]
    per_1m = m["roadmap.marginal.per_1m_points_s"]
    return "\n".join([
        "| layer / path | now |",
        "| --- | --- |",
        f"| `run_experiment`, {bulk_shots:,} shots, threads=1 (threads=2) | {runs} ms |",
        f"| ks2 profile | `embed_local` is {100 * m['roadmap.ks2.embed_local_share']:.0f}% of `run_experiment` "
        f"(threads=1); the rejection step draws {m['models.ks2.proposals_per_shot']:.2f}x proposals per accepted shot |",
        f"| `setting_marginal_dependence(hall)`, per 1M points | {per_1m:.2f} s, of which `bootstrap_stderr` "
        f"takes {share * per_1m:.2f} s ({100 * share:.0f}%) |",
        f"| `run_channel`, per 1M accepted | {m['roadmap.channel.per_1m_accepted_s']:.2f} s; the per-round CSV trace "
        f"runs at {m['roadmap.channel.trace_us_per_row']:.2f} µs/row |",
    ])
