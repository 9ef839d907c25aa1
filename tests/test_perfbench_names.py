"""perfbench traces mdhv functions by name; every traced name must resolve.

A traced function, model method or channel method that is renamed or
deleted reads NaN in perfbench and fails its run.  These tests catch the
rename here instead.  perfbench/tracing.py and perfbench/layers.py import
only the standard library, so they are loaded by file path, and nothing
under perfbench/ is changed.

perfbench/workloads.py also calls mdhv outside its tracer: analysis
functions, report fields, a basis constructor and CLI argv.  A change to
one of those fails a perfbench operation, so the last tests here mirror
each call, naming the line of perfbench/workloads.py it copies.
"""

import importlib
import importlib.util
import inspect
import shlex
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from mdhv import analysis, channel
from mdhv.cli import build_parser, main
from mdhv.models import MODEL_REGISTRY, run_experiment, stream
from mdhv.models.base import rejection_sample
from mdhv.quantum import ProjectiveBasis, orthonormal_basis_containing, random_state
from mdhv.sphere import BLOCK_ROWS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")
layers = load_perfbench("layers")


def run_extractor(extract, fn):
    """Run `extract` on a mapping of `fn`'s own parameter names, each to a stand-in value."""
    arguments = {name: SimpleNamespace(name=name) for name in inspect.signature(fn).parameters}
    extract(arguments)


@pytest.mark.parametrize(
    "module_name, fn_name, extract",
    [(m, f, e) for m, f, _, e in tracing.FUNCTIONS],
    ids=[span for _, _, span, _ in tracing.FUNCTIONS],
)
def test_traced_function_resolves(module_name, fn_name, extract):
    fn = getattr(importlib.import_module(module_name), fn_name, None)
    assert callable(fn), f"{module_name}.{fn_name} is missing"
    if extract is not None:
        run_extractor(extract, fn)


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
@pytest.mark.parametrize("method", sorted(tracing.MODEL_METHODS))
def test_traced_model_method_resolves(model_name, method):
    fn = getattr(MODEL_REGISTRY[model_name], method, None)
    assert callable(fn), f"model {model_name} has no method {method}"
    extract = tracing.MODEL_METHODS[method]
    if extract is not None:
        run_extractor(extract, fn)


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_run_experiment_reaches_outcome_index_arrays(model_name, monkeypatch):
    """`verify` is the only caller of some models' `outcome_index_arrays` in a
    traced perfbench pass (bellmermin's, for one).  A `sample_outcomes` that
    bypasses it records no span, so that layer reads NaN in a `--trace 1`
    pass and the run reports correct: false.  sample_arrays may be skipped,
    as other workloads reach it."""
    cls = MODEL_REGISTRY[model_name]
    calls = {"sample_arrays": 0, "outcome_index_arrays": 0}

    def spy(method):
        original = getattr(cls, method)

        def counted(*args, **kwargs):
            calls[method] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, method, counted)

    for method in calls:
        spy(method)
    model = cls()
    ctx = model.random_context(stream(151))
    run_experiment(model, ctx, 1000, seed=1)
    # 1000 shots are one chunk: one response, and at most one draw of the full arrays
    assert calls["sample_arrays"] <= calls["outcome_index_arrays"] == 1


def test_brans_support_mass_reaches_density_arrays():
    """perfbench's support-brans operation (workloads.py:470) is the only caller
    of brans' `density_arrays` in a traced pass.  A closed form that bypasses
    it records no span, so that layer reads NaN and the pass reports correct: false."""
    model = MODEL_REGISTRY["brans"]()
    rng = stream(152)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation("support-brans") as spans:
        analysis.support_overlap_mass(model, model.random_context(rng), model.random_context(rng), 1000, 1)
    assert not tracer.problems
    assert any(s.name == "models.brans.density_arrays" for s in spans)


@pytest.mark.parametrize("model_name", ["ks1", "bellmermin"])
@pytest.mark.parametrize("auditor", ["overlap", "epistemic"])
def test_sphere_audits_reach_density_arrays(model_name, auditor):
    """perfbench's overlap and epistemic operations (workloads.py:417, 439) are
    where a traced pass reads ks1's and bellmermin's `density_arrays` layers.
    A density kernel that an auditor calls as a module-level helper records
    no span, so the layer reads NaN and the pass reports correct: false.

    As `verify` draws ks1's labels alone, the Monte Carlo epistemic-ks1
    operation is also the only caller of `sphere.cosine_hemisphere` in a
    traced pass: a ks1 sampler that drew its lobe another way would leave
    that layer NaN."""
    model = MODEL_REGISTRY[model_name]()
    rng = stream(153)
    psi, phi = random_state(2, rng), random_state(2, rng)
    M = orthonormal_basis_containing(phi)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation(f"{auditor}-{model_name}") as spans:
        if auditor == "overlap":
            analysis.classical_overlap(model, psi, phi, M, resolution=2000, seed=1)
        else:
            analysis.degree_of_epistemicity(model, psi, phi, M, samples=2000, seed=1, method="monte-carlo")
    assert not tracer.problems
    assert any(s.name == f"models.{model_name}.density_arrays" for s in spans)
    if (model_name, auditor) == ("ks1", "epistemic"):
        assert any(s.name == "sphere.cosine_hemisphere" and s.ancestor("models.ks1.sample_arrays") for s in spans)


@pytest.mark.parametrize("model_name, sampler", sorted(layers.REJECTION_SAMPLERS.items()))
def test_rejection_proposals_go_through_the_traced_sampler(model_name, sampler, monkeypatch):
    """perfbench's `proposals_per_shot` is the rows of the `sampler` spans directly
    under `sample_arrays`, per shot.  A proposal drawn another way is not counted,
    and with none counted the metric reads NaN and a `--trace 1` pass reports
    correct: false.  Each round also stays within one sphere block."""
    model = MODEL_REGISTRY[model_name]()
    ctx = model.random_context(stream(151))
    module = sys.modules[type(model).__module__]
    proposed = []

    def counted_rejection_sample(*args, propose, **kwargs):
        def counted_propose(k):
            rows = propose(k)
            proposed.append(len(rows))
            return rows

        return rejection_sample(*args, propose=counted_propose, **kwargs)

    monkeypatch.setattr(module, "rejection_sample", counted_rejection_sample)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation("verify") as spans:
        run_experiment(model, ctx, 1 << 16, seed=1)  # one chunk of many rounds
    owner = f"models.{model_name}.sample_arrays"
    drawn = [s.attrs["n"] for s in spans if s.name == sampler and s.parent is not None and s.parent.name == owner]
    assert not tracer.problems
    assert sum(s.attrs["n"] for s in spans if s.name == owner) == 1 << 16
    assert len(proposed) > 1 and drawn == proposed
    assert max(drawn) <= BLOCK_ROWS


@pytest.mark.parametrize("cls_name, method", tracing.CHANNEL_METHODS)
def test_traced_channel_method_resolves(cls_name, method):
    assert callable(getattr(getattr(channel, cls_name, None), method, None))


def test_channel_units_record_their_spans_inside_the_operation(tmp_path, monkeypatch):
    """The channel's units run on worker threads.  perfbench times
    `AliceSender.emit` and `BobFilter.process` there, and fails its run on a
    span that is open or outside its operation after the pool is joined."""
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation("channel") as spans:
        assert main(["channel", "--accepted", "40000", "--seed", "5", "--trace", "t.csv"]) == 0
    assert not tracer.problems
    for name in ("channel.AliceSender.emit", "channel.BobFilter.process"):
        units = [s for s in spans if s.name == name]
        assert len(units) >= 3
        assert all(s.ancestor("channel.run_channel") is not None for s in units)


# (callable, a stand-in positional-argument count, keyword names) of each call
# perfbench/workloads.py makes outside its tracer
UNTRACED_CALLS = {
    "workloads.py:110 ProjectiveBasis([StateVector(...), ...])": (ProjectiveBasis, 1, ()),
    "workloads.py:417 classical_overlap(*args, resolution=, seed=)": (
        analysis.classical_overlap,
        4,
        ("resolution", "seed"),
    ),
    "workloads.py:439 degree_of_epistemicity(*args, samples=, seed=, method=)": (
        analysis.degree_of_epistemicity,
        4,
        ("samples", "seed", "method"),
    ),
    "workloads.py:470 support_overlap_mass(model, ctx_from, ctx_support, points, seed)": (
        analysis.support_overlap_mass,
        5,
        (),
    ),
    "workloads.py:524 mutual_information_report(512)": (channel.mutual_information_report, 1, ()),
}


@pytest.mark.parametrize("call", sorted(UNTRACED_CALLS))
def test_untraced_call_binds(call):
    fn, positional, keywords = UNTRACED_CALLS[call]
    inspect.signature(fn).bind(*range(positional), **{k: None for k in keywords})


def test_overlap_report_fields_perfbench_reads():
    # workloads.py:447-451 read these three fields of degree_of_epistemicity's report
    fields = analysis.OverlapReport.__dataclass_fields__
    assert {"mass_psi_in_phi_support", "quantum_overlap_sq", "omega"} <= fields.keys()


# perfbench's CLI argv shapes, and the parsed values each relies on
PERFBENCH_ARGV = {
    "workloads.py:268-272 verify-bulk": (
        "verify ks2 --shots 1000000 --trials 1 --seed 5 --threads 2",
        {"model": "ks2", "threads": 2},
    ),
    "workloads.py:307-309 verify-small": (
        "verify interval --shots 1000 --trials 50 --seed 5 --dim 4",
        {"model": "interval", "dim": 4},
    ),
    "workloads.py:387-389 audit-quadrature": (
        "audit marginal hall --samples 200000 --seed 5 --particle 2"
        " --alice=-0.6,0.0,0.8 --bob=0.0,-1.0,0.0 --bob2=0.36,-0.48,0.8 --format json",
        {"check": "marginal", "samples": 200000, "particle": 2, "format": "json"},
    ),
    "workloads.py:538-541 channel": (
        "channel --alice=-0.6,0.0,0.8 --bob=0.0,-1.0,0.0 --accepted 20000 --seed 5"
        " --format json --trace trace.csv",
        {"accepted": 20000, "format": "json", "trace": "trace.csv"},
    ),
}


@pytest.mark.parametrize("shape", sorted(PERFBENCH_ARGV))
def test_perfbench_argv_parses(shape):
    argv, expected = PERFBENCH_ARGV[shape]
    ns = build_parser().parse_args(shlex.split(argv))
    assert {key: getattr(ns, key) for key in expected} == expected
