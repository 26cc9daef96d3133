"""In-memory span recorder for the traced benchmark run.

The recorder wraps facedet functions from outside the program: every module
binding of a hooked function object (``facedet.pipeline.merge_detections``
as well as ``facedet.detect.merge_detections``) is replaced by a wrapper
that records a span, so the calls the program makes between its own
modules are seen too. Spans stay in memory until the run ends.

A span records its id, name, kind, start, end, parent id and group (the
scene or phase it belongs to). ``layer`` spans come from hooked functions;
``phase`` spans are opened by the benchmark around its own steps (one scene,
the validator bootstrap) and their self time is unattributed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

LAYER = "layer"
PHASE = "phase"


class TraceError(RuntimeError):
    """The traced run cannot be trusted: a hook is missing or a layer that
    must run recorded no call."""


@dataclass(frozen=True)
class Hook:
    module: str  # e.g. "facedet.detect"
    function: str  # e.g. "merge_detections"
    layer: str  # span name, e.g. "detect.merge"
    # (bound arguments, result) -> work counts stored on the span
    count: Callable[[dict, object], dict] | None = None
    # False: only count calls, keyed by the enclosing layer; no span
    span: bool = True


@dataclass
class Span:
    id: int
    name: str
    kind: str
    start: float
    end: float
    parent: int | None
    group: str | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; installs and removes the hooks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (hooked name, enclosing layer or phase) -> calls, for span=False hooks
        self.tallies: Counter = Counter()
        self.enabled = False
        self._stack: list[Span] = []
        self._group: str | None = None
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, kind: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, name, kind, 0.0, 0.0, parent, self._group)
        self._next_id += 1
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def phase(self, name: str, group: str | None = None):
        """A benchmark-side span; ``group`` tags it and everything inside."""
        if not self.enabled:
            yield
            return
        saved = self._group
        if group is not None:
            self._group = group
        span = self._open(name, PHASE)
        try:
            yield
        finally:
            self._close(span)
            self._group = saved

    def _wrap(self, hook: Hook, original):
        signature = inspect.signature(original)

        if not hook.span:
            def tally(*args, **kwargs):
                if self.enabled:
                    enclosing = self._stack[-1].name if self._stack else None
                    self.tallies[(hook.layer, enclosing)] += 1
                return original(*args, **kwargs)

            return tally

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = self._open(hook.layer, LAYER)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if hook.count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = hook.count(bound.arguments, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- hooks -------------------------------------------------------------

    def install(self, hooks: list[Hook], package: str = "facedet") -> None:
        """Replace every module binding of each hooked function."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for hook in hooks:
            try:
                original = getattr(importlib.import_module(hook.module), hook.function)
            except (ImportError, AttributeError) as exc:
                self.uninstall()
                raise TraceError(
                    f"cannot hook {hook.module}.{hook.function} ({exc}); "
                    "update the hook table in perfbench/workloads.py"
                ) from None
            wrapper = self._wrap(hook, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


@dataclass
class LayerReport:
    """Per-layer aggregates of one traced interval."""

    self_time: dict[str, float]  # layer -> summed self time
    calls: dict[str, int]  # layer -> spans recorded
    counts: dict[str, float]  # "layer.key" -> summed work count
    # the traced time no layer span covers: phase self time plus time
    # outside every span, so the self times and it add up to ``traced``
    unattributed: float
    traced: float  # end-to-end time of the traced interval
    spans: list[Span]

    def _ancestors(self):
        by_id = {s.id: s for s in self.spans}

        def names(span: Span):
            parent = span.parent
            while parent is not None:
                ancestor = by_id[parent]
                yield ancestor.name
                parent = ancestor.parent

        return names

    def inclusive(self, layer: str, under: str) -> float:
        """Summed duration of ``layer`` spans that run inside an ``under`` span."""
        names = self._ancestors()
        return sum(s.duration for s in self.spans if s.name == layer and under in names(s))

    def count_under(self, layer: str, key: str, under: str) -> float:
        names = self._ancestors()
        return sum(
            s.counts.get(key, 0) for s in self.spans if s.name == layer and under in names(s)
        )


def report(spans: list[Span], traced: float) -> LayerReport:
    """Self time per layer: a span's duration minus its direct children's."""
    child_time: defaultdict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    self_time: defaultdict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: defaultdict[str, float] = defaultdict(float)
    phase_self = 0.0
    roots = 0.0
    for span in spans:
        own = span.duration - child_time[span.id]
        if span.kind == LAYER:
            self_time[span.name] += own
            calls[span.name] += 1
            for key, value in span.counts.items():
                counts[f"{span.name}.{key}"] += value
        else:
            phase_self += own
        if span.parent is None:
            roots += span.duration
    return LayerReport(
        dict(self_time),
        dict(calls),
        dict(counts),
        phase_self + (traced - roots),
        traced,
        spans,
    )
