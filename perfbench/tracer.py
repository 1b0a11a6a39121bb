"""In-memory span tracer that wraps layer entry points from the outside.

A traced run patches each public function in :data:`TARGETS` at the
attribute its caller looks it up through (``repro.core.pipeline.build_cfg``,
not ``repro.cfg.builder.build_cfg``), records one span per call, and
restores every attribute when the run ends.  Nothing under ``src/`` is
modified: the spans sit at the layer boundaries as seen from the callers.

Spans nest per thread (every wrapped function is synchronous, so a thread's
spans form a proper tree); a span's *self time* is its duration minus the
time its direct children cover.  A target whose attribute does not exist
raises :class:`TraceTargetMissing` at install time, so a renamed function
fails loudly instead of reporting a silent zero for its layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class TraceTargetMissing(AttributeError):
    """A layer entry point named in :data:`TARGETS` no longer exists."""


def _store_span(op: str):
    def name(args, kwargs) -> str:
        kind = kwargs["kind"] if "kind" in kwargs else args[1]
        return f"store.{kind}.{op}"
    return name


def _count_len(counter: str):
    def count(tracer: "Tracer", result, args, kwargs) -> None:
        tracer.add(counter, len(result))
    return count


def _count_rounds(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.add("cfg.fixpoint_rounds", result[1])


def _count_wrapper(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.add("wrappers.attempts", 1)
    tracer.add("wrappers.confirmed", result is not None)


def _count_ident(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.add("identify.anchors", 1)
    tracer.add("identify.nodes", result.nodes_explored)
    tracer.add("identify.steps", result.steps_used)
    tracer.add("identify.complete", result.complete)


def _count_hit(op: str):
    def count(tracer: "Tracer", result, args, kwargs) -> None:
        kind = kwargs["kind"] if "kind" in kwargs else args[1]
        tracer.add(f"store.{kind}.{op}_hits", result is not None)
    return count


#: (span name or name function, owner "module" or "module:Class",
#:  attribute, counter hook or None)
TARGETS: list[tuple] = [
    ("loader.parse", "repro.loader.image:LoadedImage", "from_bytes", None),
    ("loader.parse", "repro.loader.image:LoadedImage", "from_path", None),
    ("loader.resolve", "repro.loader.resolve:LibraryResolver",
     "topological_order", None),
    ("x86.decode", "repro.cfg.builder", "decode_all", _count_len("x86.insns")),
    ("x86.decode", "repro.core.pipeline", "decode_all",
     _count_len("x86.insns")),
    ("cfg.build", "repro.core.pipeline", "build_cfg", None),
    ("cfg.carve", "repro.cfg.builder", "carve_blocks", None),
    ("cfg.carve", "repro.core.pipeline", "carve_blocks", None),
    ("cfg.indirect", "repro.core.pipeline", "resolve_indirect_active",
     _count_rounds),
    ("cfg.reachability", "repro.core.pipeline", "reachable_blocks", None),
    ("cfg.scan", "repro.core.pipeline", "scan_image", None),
    ("sites.find", "repro.core.pipeline", "find_sites",
     _count_len("sites.found")),
    ("wrappers.detect", "repro.core.pipeline", "detect_wrapper",
     _count_wrapper),
    ("identify.plain", "repro.core.pipeline", "identify_plain_site",
     _count_ident),
    ("identify.wrapper_call", "repro.core.pipeline",
     "identify_wrapper_call_site", _count_ident),
    ("interface.build", "repro.core.analyzer:BSideAnalyzer",
     "analyze_library", None),
    (_store_span("get"), "repro.core.artifacts:ArtifactStore", "get",
     _count_hit("get")),
    (_store_span("put"), "repro.core.artifacts:ArtifactStore", "put", None),
    (_store_span("lookup"), "repro.core.artifacts:ArtifactStore", "lookup",
     _count_hit("lookup")),
    ("report.encode", "repro.core.report:AnalysisReport", "to_doc", None),
    ("report.encode", "repro.core.report:AnalysisReport", "to_json", None),
    ("report.decode", "repro.core.report:AnalysisReport", "from_doc", None),
    ("fleet.warm_interfaces", "repro.core.fleet:FleetAnalyzer",
     "warm_interfaces", None),
    ("service.submit", "repro.service.client:ServiceClient", "submit_path",
     None),
    ("service.wait", "repro.service.client:ServiceClient", "wait", None),
    ("service.poll", "repro.service.client:ServiceClient", "job", None),
]


def resolve_owner(spec: str):
    """Import ``module`` or ``module:Class`` and return the object."""
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "child", "index")

    def __init__(self, name: str, start: float, parent: int, thread: int):
        self.name = name
        self.start = start
        self.end = 0.0
        #: index of the enclosing span on the same thread, -1 for a root
        self.parent = parent
        self.thread = thread
        #: seconds covered by direct children
        self.child = 0.0
        self.index = -1

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class NullTracer:
    """The untraced run's tracer: every operation is a no-op."""

    active = False

    @contextmanager
    def span(self, name: str):
        yield

    @contextmanager
    def paused(self):
        yield


class Tracer:
    """Collects spans and counters while installed."""

    active = True

    def __init__(self, targets: list[tuple] | None = None) -> None:
        self.targets = TARGETS if targets is None else targets
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.started = 0.0
        self.stopped = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> Span | None:
        if getattr(self._local, "paused", False):
            return None
        stack = self._stack()
        span = Span(
            name, time.perf_counter(),
            stack[-1].index if stack else -1, threading.get_ident(),
        )
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        return span

    def _exit(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.end - span.start

    def add(self, counter: str, amount: float) -> None:
        if getattr(self._local, "paused", False):
            return
        with self._lock:
            self.counters[counter] += amount

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one unit of work)."""
        token = self._enter(name)
        try:
            yield
        finally:
            self._exit(token)

    @contextmanager
    def paused(self):
        """Call wrapped functions on this thread without recording them
        (the benchmark's own output checks must not count as layer work)."""
        previous = getattr(self._local, "paused", False)
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = previous

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if count is not None and span is not None:
                count(tracer, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Patch every target; raises :class:`TraceTargetMissing` (after
        undoing any partial patching) if one does not exist."""
        try:
            for name, owner_spec, attr, count in self.targets:
                owner = resolve_owner(owner_spec)
                try:
                    raw = inspect.getattr_static(owner, attr)
                except AttributeError:
                    raise TraceTargetMissing(
                        f"trace target {owner_spec}.{attr} does not exist; "
                        "update perfbench/tracer.py TARGETS"
                    ) from None
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, count))
                elif callable(raw):
                    patched = self._wrap(raw, name, count)
                else:
                    raise TraceTargetMissing(
                        f"trace target {owner_spec}.{attr} is not callable"
                    )
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
        except BaseException:
            self.uninstall()
            raise
        self.started = time.perf_counter()

    def uninstall(self) -> None:
        self.stopped = time.perf_counter()
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.end]

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (seconds)."""
        out: dict[str, float] = defaultdict(float)
        for span in self.finished():
            out[span.name] += span.self_time
        return dict(out)

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.finished():
            out[span.name] += 1
        return dict(out)

    def self_time_by_thread(self) -> dict[int, float]:
        out: dict[int, float] = defaultdict(float)
        for span in self.finished():
            out[span.thread] += span.self_time
        return dict(out)

    def ancestors_named(self, name: str, below: str) -> int:
        """How many ``name`` spans have a ``below`` span somewhere under
        them (e.g. interface builds that actually decoded code)."""
        spans = self.spans
        found: set[int] = set()
        for span in spans:
            if span.name != below:
                continue
            parent = span.parent
            while parent >= 0:
                if spans[parent].name == name:
                    found.add(parent)
                    break
                parent = spans[parent].parent
        return len(found)

    def write(self, path: str) -> None:
        """Write every span out (start/end relative to install time)."""
        origin = self.started
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "thread"],
            "spans": [
                [s.name, round(s.start - origin, 9), round(s.end - origin, 9),
                 s.parent, s.thread]
                for s in self.finished()
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
