"""The outside-in layer tracer.

In a traced run the benchmark wraps each layer's public entry point (see
:data:`ENTRY_POINTS`) with a function that records a span: name, start,
end, parent span and op id. Spans live in memory and are written out
when the run ends. Nothing here touches the program's own files: the
wrappers are installed on the imported classes and modules at run time
and removed afterwards.

A span's *self time* is its duration minus the time its children cover;
the op span's self time is the time spent in generated code and glue
outside every wrapped layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time

#: (span name, module, attribute path). Wrapping ``Class.method`` patches
#: the class; wrapping a module function patches both the module named
#: here and the module that defines it (callers import it by name at call
#: time from either).
ENTRY_POINTS = [
    ("jit", "repro.jit.api", "Lancet.__init__"),
    ("jit", "repro.jit.api", "Lancet.load"),
    ("jit", "repro.jit.api", "Lancet.compile_function"),
    ("jit", "repro.jit.api", "Lancet.compile_closure"),
    ("frontend", "repro.frontend.compiler", "compile_source"),
    ("interp", "repro.interp.interpreter", "Interpreter.run_frames"),
    ("baseline", "repro.baseline", "compile_baseline"),
    ("compiler", "repro.compiler.stagedinterp",
     "StagedInterpreter.compile_unit"),
    ("pipeline", "repro.pipeline.passes", "PassManager.run"),
    ("lms", "repro.pipeline.backend", "PythonBackend.emit"),
    ("delite", "repro.delite.runtime", "DeliteRuntime.run"),
    ("tier1.code", "repro.baseline.compiler", "BaselineFunction.__call__"),
    ("codecache.load", "repro.codecache.store", "PersistentCodeCache.load"),
    ("codecache.store", "repro.codecache.store",
     "PersistentCodeCache.store"),
    ("codecache.load", "repro.server.shards", "ShardedCodeCache.load"),
    ("codecache.store", "repro.server.shards", "ShardedCodeCache.store"),
    ("server", "repro.server.daemon", "CompileServer.coordinate"),
]

#: Span name -> the layer its self time is charged to.
LAYER_OF = {"codecache.load": "codecache", "codecache.store": "codecache",
            "op": "code"}


#: Marks a patched attribute that its class only inherited.
_INHERITED = object()


class Span:
    """One call into a layer; ``size`` is the source length of a
    frontend span (for ``frontend.kb_per_s``)."""

    __slots__ = ("sid", "name", "start", "end", "parent", "op", "size")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.size = 0

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "size": self.size}


class NullTracer:
    """The untraced run's tracer: every hook is free."""

    enabled = False

    @contextlib.contextmanager
    def op(self, op_id):
        yield


class Tracer:
    """Span recorder with one span stack per thread."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, op=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.sid if parent is not None else None, op)
        stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, op_id):
        span = self.begin("op", op=op_id)
        try:
            yield span
        finally:
            self.end(span)

    # -- wrappers ---------------------------------------------------------------

    def _wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
                if name == "frontend" and args:
                    span.size = len(args[0])

        return traced

    def install(self, entry_points=ENTRY_POINTS):
        """Wrap every entry point; returns the ones that could not be
        wrapped as ``(layer, target, reason)``."""
        missing = []
        for name, module_name, path in entry_points:
            try:
                module = importlib.import_module(module_name)
                owner = module
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                attr = parts[-1]
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                missing.append((name, "%s.%s" % (module_name, path),
                                "%s: %s" % (type(exc).__name__, exc)))
                continue
            wrapped = self._wrapper(name, original)
            targets = [owner]
            if not isinstance(owner, type):
                # A module-level function: also patch the defining module
                # so package re-exports and direct imports agree.
                defining = importlib.import_module(original.__module__)
                if defining is not owner:
                    targets.append(defining)
            for target in targets:
                # An inherited method gets an override on this class only;
                # uninstall deletes it again.
                own = target.__dict__.get(attr, _INHERITED)
                self._patches.append((target, attr, own))
                setattr(target, attr, wrapped)
        return missing

    def uninstall(self):
        for target, attr, own in reversed(self._patches):
            if own is _INHERITED:
                delattr(target, attr)
            else:
                setattr(target, attr, own)
        self._patches = []

    def dump(self):
        return [s.as_dict() for s in self.spans]


# -- span arithmetic ------------------------------------------------------------


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """``{span id: self seconds}``: each span's duration minus the time
    its direct children cover. ``spans`` are dicts as from
    :meth:`Tracer.dump`."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], ()))
            for s in spans}


def layer_split(spans):
    """Self seconds per layer over every span that belongs to an op."""
    selfs = self_times(spans)
    split = {}
    for s in spans:
        if s["op"] is None:
            continue
        layer = LAYER_OF.get(s["name"], s["name"])
        split[layer] = split.get(layer, 0.0) + selfs[s["id"]]
    return split
