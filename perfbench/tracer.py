"""Span and counter recorder for the benchmark's traced runs.

The recorder lives entirely in the benchmark: it measures the program from
the outside by replacing, for the duration of a traced pass, the public
functions of each layer with timing wrappers.  A wrapper is installed at
every name a caller looks the function up under — ``repro.verifier.frontend``,
``repro.fuzz.oracle``, ``repro.lang.scheduler`` and ``repro.lang.interpreter``
bind their callees by name at import time, so patching only the defining
module would miss them.  Lazy ``from .x import f`` statements inside a
function read the defining module's attribute at call time, so those are
covered by patching the defining module.

Spans (name, start, end, parent, request id, thread) stay in memory until
the run ends; :meth:`Tracer.write_chrome_trace` writes them as Chrome
trace-event JSON and :func:`self_times` derives each layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span names of the benchmark's own structure; every other span is a layer.
PASS = "pass"
REQUEST = "request"

# (layer, kind, [(module, attribute path), ...]).  ``call`` spans a plain
# call, ``generator`` spans the iteration of a returned generator, ``count``
# only counts calls (the interpreter's step function is too hot to span).
HOOKS: Tuple[Tuple[str, str, Tuple[Tuple[str, str], ...]], ...] = (
    ("verifier.verify", "call", (
        ("repro.verifier.frontend", "verify"),
        ("repro.fuzz.oracle", "verify"),
    )),
    ("spec.validity", "call", (("repro.verifier.frontend", "check_validity_batch"),)),
    ("verifier.analysis", "call", (("repro.verifier.analysis", "TaintAnalyzer.analyze"),)),
    ("analysis.prepass", "call", (("repro.analysis.prepass", "run_prepass"),)),
    ("verifier.conformance.symbolic", "call", (
        ("repro.verifier.vcgen", "discharge_conformance"),
    )),
    ("verifier.conformance.sampled", "call", (
        ("repro.verifier.frontend", "check_conformance"),
    )),
    ("smt.check_validity", "call", (
        ("repro.verifier.vcgen", "check_validity"),
        ("repro.smt.solver", "check_validity"),
    )),
    ("security.ni", "call", (("repro.verifier.frontend", "check_noninterference"),)),
    ("security.ni_sampled", "call", (("repro.fuzz.oracle", "check_noninterference"),)),
    ("security.leakage", "call", (
        ("repro.fuzz.oracle", "mutual_information"),
        ("repro.fuzz.oracle", "threshold_leak"),
    )),
    ("lang.enumerate", "generator", (
        ("repro.fuzz.oracle", "enumerate_executions"),
        ("repro.security.noninterference", "enumerate_executions"),
        ("repro.lang.scheduler", "enumerate_executions"),
    )),
    ("lang.run", "call", (
        ("repro.security.noninterference", "run"),
        ("repro.security.leakage", "run"),
        ("repro.verifier.conformance", "run"),
        ("repro.verifier.product", "run"),
        ("repro.lang.interpreter", "run"),
    )),
    ("lang.step", "count", (
        ("repro.lang.scheduler", "step"),
        ("repro.lang.interpreter", "step"),
    )),
)

#: Every span layer, in reporting order (the benchmark's ``fuzz.gen`` span
#: wraps its own call to the generator).
LAYERS: Tuple[str, ...] = tuple(
    name for name, kind, _ in HOOKS if kind != "count"
) + ("fuzz.gen",)


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Nested spans plus counters; a disabled tracer records nothing."""

    def __init__(self) -> None:
        self.enabled = False
        #: [id, parent id, name, start ns, end ns, request, thread id]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[str] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[5]
        record = [
            next(self._ids),
            parent[0] if parent is not None else None,
            name,
            time.perf_counter_ns(),
            None,
            request,
            threading.get_ident(),
        ]
        stack.append(record)
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[4] = time.perf_counter_ns()
        stack = self._stack()
        # A generator abandoned mid-iteration closes after its consumer
        # opened nothing further, but remove by identity to stay safe.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is record:
                del stack[index]
                break

    def span(self, name: str, request: Optional[str] = None):
        """Context manager for one span; a no-op when tracing is off."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, request)

    @contextlib.contextmanager
    def _span(self, name: str, request: Optional[str]):
        record = self.open(name, request)
        try:
            yield record
        finally:
            self.close(record)

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(record)
            tracer.counts[layer + ".calls"] += 1
            tracer._observe(layer, result)
            return result

        return wrapper

    def _wrap_generator(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        def iterate(generator):
            record = tracer.open(layer)
            tracer.counts[layer + ".calls"] += 1
            try:
                for item in generator:
                    tracer.counts[layer + ".executions"] += 1
                    yield item
                tracer.counts[layer + ".completed"] += 1
            finally:
                tracer.close(record)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return iterate(fn(*args, **kwargs))

        return wrapper

    def _wrap_count(self, layer: str, fn: Callable) -> Callable:
        counts = self.counts
        key = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, layer: str, result: Any) -> None:
        """Counters that need the layer's result."""
        if layer == "analysis.prepass" and getattr(result, "secure", False):
            self.counts["analysis.prepass.secure"] += 1
        elif layer in ("security.ni", "security.ni_sampled"):
            self.counts[layer + ".executions"] += result.executions_checked

    def install(self) -> None:
        """Enable tracing and put every wrapper in place."""
        if self.enabled:
            return
        wrap = {
            "call": self._wrap_call,
            "generator": self._wrap_generator,
            "count": self._wrap_count,
        }
        for layer, kind, sites in HOOKS:
            for module_name, path in sites:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrap[kind](layer, original))
        self.enabled = True

    def uninstall(self) -> None:
        """Restore every original and disable tracing."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.enabled = False

    # -- output --------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        pid = os.getpid()
        origin = min((record[3] for record in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": "benchmark" if name in (PASS, REQUEST) else "layer",
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": ((end if end is not None else start) - start) / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent, "request": request},
            }
            for span_id, parent, name, start, end, request, tid in self.spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _covered(intervals: Iterable[Tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[list]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-name inclusive and self time, in seconds, over ``spans``.

    Self time is a span's duration minus the part of it that its child
    spans cover.  Inclusive time counts a span nested inside a span of the
    same name only once."""
    by_id = {record[0]: record for record in spans}
    children: Dict[int, List[Tuple[int, int]]] = {}
    for record in spans:
        if record[1] is not None and record[4] is not None:
            children.setdefault(record[1], []).append((record[3], record[4]))
    inclusive: Dict[str, float] = {}
    own: Dict[str, float] = {}
    for span_id, parent, name, start, end, _request, _tid in spans:
        if end is None:
            continue
        duration = end - start
        covered = _covered(children.get(span_id, ()), start, end)
        own[name] = own.get(name, 0.0) + (duration - covered) / 1e9
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            inclusive[name] = inclusive.get(name, 0.0) + duration / 1e9
    return inclusive, own
