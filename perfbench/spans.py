"""Spans recorded from outside the program, around each layer's entry point.

:func:`install` replaces a layer's public function or method with a
wrapper that records ``[name, start, end, parent, thread, note]`` in
memory.  Module-level functions are replaced in every loaded module that
imported them by name, so the wrappers must be installed after the
program's modules are imported.  Spans are written out when the run ends.

A span's self time is its duration minus the time its child spans cover;
children run nested on the parent's thread, so that is the sum of their
durations.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict

# Indexes into a span record.
NAME, START, END, PARENT, THREAD, NOTE = range(6)

#: Compile layers: (span name, module, function or Class.method).
COMPILE_LAYERS = (
    ("service.artifact", "repro.service.artifact", "build_artifact"),
    ("service.artifact_bytes", "repro.service.artifact", "artifact_bytes"),
    ("ir.parse", "repro.ir.parser", "parse_function"),
    ("ir.print", "repro.ir.printer", "print_function"),
    ("ir.flat_lower", "repro.passes.analysis_manager", "FlatIRAnalysis.run"),
    ("analysis", "repro.passes.analysis_manager", "AnalysisManager.get"),
    ("alloc.greedy", "repro.alloc.greedy", "GreedyAllocator.run"),
    ("sim.static", "repro.sim.static_stats", "analyze_static"),
)

#: The prescount passes, by their ``Pass.name``.
PRESCOUNT_PASSES = (
    "coalescing", "scheduling", "bank-assignment", "allocation", "sdg-split",
)

#: Service layers (the server process only).
SERVICE_LAYERS = (
    ("service.handler", "repro.service.server", "ServiceHandler._do_post"),
    ("service.normalize", "repro.service.artifact", "normalize_request"),
    ("service.admission", "repro.service.queue", "AllocationService.submit"),
    ("service.cache.get", "repro.service.cache", "AllocationCache.get_entry"),
    ("service.cache.put", "repro.service.cache", "AllocationCache.put"),
    ("service.journal.append", "repro.service.durability",
     "JobJournal.record_accepted"),
    ("service.journal.append", "repro.service.durability",
     "JobJournal.record_terminal"),
)


def pass_span_name(pass_name: str) -> str:
    return "prescount." + pass_name.replace("-", "_")


class Recorder:
    """In-memory span store; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> list | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn, before=None, after=None):
        """*fn* recording one span per call.

        ``before(args)`` runs first and its result goes to
        ``after(token, args, result)``, whose value becomes the span's note.
        """
        record = self.spans.append
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), None]
            token = before(args) if before is not None else None
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                record(span)
            if after is not None:
                span[NOTE] = after(token, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans as JSON rows with parent indexes."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [span[NAME], span[START], span[END],
             index.get(id(span[PARENT]), -1) if span[PARENT] else -1,
             span[THREAD], span[NOTE]]
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def load(path: str) -> list[list]:
    """Rows written by :meth:`Recorder.dump`, parents resolved to rows."""
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    for row in rows:
        row[PARENT] = rows[row[PARENT]] if row[PARENT] >= 0 else None
    return rows


def _notes(name: str):
    """(before, after) hooks for layers whose spans carry a note."""
    if name == "analysis":
        # A computed (missed) analysis bumps its counter's misses.
        return (
            lambda args: args[0].counter(args[1]).misses,
            lambda token, args, result: int(
                args[0].counter(args[1]).misses > token
            ),
        )
    if name == "service.admission":
        return (
            None,
            lambda token, args, result: {
                "job": result.job_id, "cache": result.cache,
                "depth": args[0]._queue.qsize(),
            },
        )
    if name == "prescount.sdg_split":
        return (None, lambda token, args, result: result.copies_inserted)
    return (None, None)


def _targets(layers):
    for name, module_name, attr in layers:
        yield name, importlib.import_module(module_name), attr
    if layers is COMPILE_LAYERS:
        from repro.passes.manager import Pass

        module = importlib.import_module("repro.prescount.passes")
        for value in vars(module).values():
            if (
                isinstance(value, type) and issubclass(value, Pass)
                and "run" in vars(value)
                and getattr(value, "name", None) in PRESCOUNT_PASSES
            ):
                yield pass_span_name(value.name), module, f"{value.__name__}.run"


def install(recorder: Recorder, layers) -> None:
    """Wrap every target of *layers* so each call records a span."""
    for name, module, attr in _targets(layers):
        before, after = _notes(name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = vars(cls)[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    recorder.wrap(name, raw.__func__, before, after)
                )
            else:
                wrapped = recorder.wrap(name, raw, before, after)
            setattr(cls, method, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original, before, after)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time (seconds) of every span, keyed by ``id(span)``."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            covered[id(span[PARENT])] += span[END] - span[START]
    return {
        id(span): span[END] - span[START] - covered[id(span)] for span in spans
    }


def root_of(span: list) -> list:
    while span[PARENT] is not None:
        span = span[PARENT]
    return span


class CallCounter:
    """``sys.setprofile`` hook counting Python and C calls per layer.

    Each call event is charged to the innermost open span of *recorder*
    on this thread (its self region); calls outside every span are not
    counted.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.calls: dict[str, int] = defaultdict(int)

    def __enter__(self):
        current = self.recorder.current
        calls = self.calls

        def hook(frame, event, arg):
            if event == "call" or event == "c_call":
                span = current()
                if span is not None:
                    calls[span[NAME]] += 1

        sys.setprofile(hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False
