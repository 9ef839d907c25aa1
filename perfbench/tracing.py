"""Spans around mdhv's layer functions, installed from outside the package.

`Tracer.installed()` replaces each traced function everywhere a loaded mdhv
module holds a reference to it (the sphere samplers, for instance, are
imported by name into the model modules), records one span per call, and
puts the originals back on exit.  Spans live in memory until the operation
that caused them ends.

Self time partitions an operation's wall time: each instant is shared
equally among the spans active at that instant that have no active child.
Without threads this is the usual duration-minus-children; with the
`run_experiment` worker pool, two concurrent chunk spans each get half of the
time they overlap, so under threads self time is a share of wall-clock time,
not CPU time, and the self times of one operation add up to its span time by
construction.

A traced function that is missing, an attribute its extractor cannot read,
and a span that is still open or lies outside its operation are recorded in
`Tracer.problems`; the caller fails the run on any of them rather than report
a layer figure that silently reads 0.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, span name, extractor of recorded call attributes).  An
# extractor reads the call's arguments by parameter name, so it survives a
# change of argument order; a function that no longer exists is a problem.
FUNCTIONS = [
    ("mdhv.models.base", "run_experiment", "models.run_experiment",
     lambda a: {"model": a["model"].name, "shots": a["shots"], "threads": a.get("threads", 1)}),
    ("mdhv.models.base", "stream", "models.stream", None),
    ("mdhv.sphere", "tangent_frame", "sphere.tangent_frame", None),
    ("mdhv.sphere", "embed_local", "sphere.embed_local", None),
    ("mdhv.sphere", "uniform_sphere", "sphere.uniform_sphere", lambda a: {"n": a["n"]}),
    ("mdhv.sphere", "uniform_hemisphere", "sphere.uniform_hemisphere", lambda a: {"n": a["n"]}),
    ("mdhv.sphere", "cosine_hemisphere", "sphere.cosine_hemisphere", lambda a: {"n": a["n"]}),
    ("mdhv.sphere", "uniform_cap", "sphere.uniform_cap", lambda a: {"n": a["n"]}),
    ("mdhv.sphere", "stratified_sphere_points", "sphere.stratified_sphere_points", None),
    ("mdhv.sphere", "bootstrap_stderr", "sphere.bootstrap_stderr", None),
    ("mdhv.quantum", "bloch_from_ket", "quantum.bloch_from_ket", None),
    ("mdhv.quantum", "random_basis", "quantum.random_basis", None),
    ("mdhv.quantum", "random_state", "quantum.random_state", None),
    ("mdhv.quantum", "born_probability", "quantum.born_probability", None),
    ("mdhv.analysis", "setting_marginal_dependence", "analysis.setting_marginal_dependence",
     lambda a: {"points": a["resolution"]}),
    ("mdhv.analysis", "classical_overlap", "analysis.classical_overlap", None),
    ("mdhv.analysis", "degree_of_epistemicity", "analysis.degree_of_epistemicity", None),
    ("mdhv.analysis", "support_overlap_mass", "analysis.support_overlap_mass", None),
    ("mdhv.channel", "run_channel", "channel.run_channel", None),
    ("mdhv.cli", "main", "cli.main", None),
]

MODEL_METHODS = {
    "sample_arrays": lambda a: {"n": a["n"]},
    "outcome_index_arrays": None,
    "density_arrays": None,
    "random_context": None,
}

CHANNEL_METHODS = [("AliceSender", "emit"), ("BobFilter", "process")]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "self_s")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs
        self.self_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def ancestor(self, name: str):
        node = self.parent
        while node is not None and node.name != name:
            node = node.parent
        return node


class CountingFile:
    """Trace sink that counts write calls and characters before passing them on."""

    def __init__(self, inner, counts: Counter):
        self._inner = inner
        self._counts = counts

    def write(self, text: str) -> int:
        self._counts["channel.trace.write_calls"] += 1
        self._counts["channel.trace.bytes"] += len(text)
        return self._inner.write(text)

    def close(self) -> None:
        self._inner.close()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.problems: set[str] = set()
        self._local = threading.local()
        self._root_stack: list[Span] | None = None

    # -- span recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs=None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            # a worker thread of run_experiment: its caller waits on the root thread
            parent = self._root_stack[-1]
        else:
            parent = None
        span = Span(name, time.perf_counter(), parent, attrs)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; yields the list of its spans."""
        self.spans = []
        self._root_stack = self._stack()
        root = self.open(name)
        collected: list[Span] = []
        try:
            yield collected
        finally:
            self.close(root)
            self._root_stack = None
            for span in self.spans:
                if span.end is None or span.start < root.start or span.end > root.end:
                    self.problems.add(f"span {span.name} is still open or lies outside its operation {name}")
            collected.extend(s for s in self.spans if s.end is not None)
            self.spans = []
            attribute_self_time(collected)

    def wrap(self, name, fn, extract=None):
        tracer = self
        signature = inspect.signature(fn) if extract else None

        def traced(*args, **kwargs):
            try:
                attrs = extract(signature.bind(*args, **kwargs).arguments) if extract else {}
            except (KeyError, TypeError) as exc:  # a renamed parameter loses its attribute, not the call
                tracer.problems.add(f"span {name} cannot read {exc!r} from its call's arguments")
                attrs = {}
            span = tracer.open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return functools.wraps(fn)(traced)

    # -- installation -------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Trace every function in FUNCTIONS and the model/channel methods."""
        from mdhv.models import MODEL_REGISTRY

        mdhv_modules = [m for n, m in list(sys.modules.items()) if n == "mdhv" or n.startswith("mdhv.")]
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, value)

        for module_name, fn_name, span_name, extract in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), fn_name, None)
            if original is None:
                self.problems.add(f"{module_name}.{fn_name} is missing, so span {span_name} is not recorded")
                continue
            traced = self.wrap(span_name, original, extract)
            for module in mdhv_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch(module, attr, traced)
        for cls in MODEL_REGISTRY.values():
            for method, extract in MODEL_METHODS.items():
                if not hasattr(cls, method):
                    self.problems.add(f"model {cls.name} has no method {method}")
                    continue
                # getattr also finds a method a model inherits; the patch shadows it on this class only
                patch(cls, method, self.wrap(f"models.{cls.name}.{method}", getattr(cls, method), extract))
        channel = sys.modules["mdhv.channel"]
        for cls_name, method in CHANNEL_METHODS:
            cls = getattr(channel, cls_name, None)
            if cls is None or not hasattr(cls, method):
                self.problems.add(f"mdhv.channel.{cls_name}.{method} is missing")
                continue
            patch(cls, method, self.wrap(f"channel.{cls_name}.{method}", getattr(cls, method)))
        counts = self.counts

        def counting_open(*args, **kwargs):
            return CountingFile(builtins.open(*args, **kwargs), counts)

        patch(sys.modules["mdhv.cli"], "open", counting_open)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                if value is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, value)


_MISSING = object()


def attribute_self_time(spans: list[Span]) -> None:
    """Set `self_s` on every span by sharing each instant among the active leaves."""
    events = []
    for i, span in enumerate(spans):
        events.append((span.start, 1, i))
        events.append((span.end, 0, i))
    events.sort()
    index = {id(s): i for i, s in enumerate(spans)}
    parent = [index.get(id(s.parent), -1) if s.parent is not None else -1 for s in spans]
    active: set[int] = set()
    active_children = defaultdict(int)
    prev = None
    for t, is_start, i in events:
        if active and t > prev:
            leaves = [j for j in active if active_children[j] == 0]
            share = (t - prev) / len(leaves)
            for j in leaves:
                spans[j].self_s += share
        prev = t
        p = parent[i]
        if is_start:
            active.add(i)
            if p >= 0:
                active_children[p] += 1
        else:
            active.discard(i)
            if p >= 0:
                active_children[p] -= 1
