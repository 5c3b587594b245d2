"""Layer timing from outside the program: wrap public entry points.

Every layer of ``repro`` is timed by replacing its public entry point
with a wrapper, at the defining module *and* at every other module that
bound the same object with ``from ... import`` (``run_to_sync`` is also
bound in ``repro.fleet.pipeline`` and ``repro.fleet.bisect``;
``serialize``/``rehydrate`` in ``repro.serve.manager``).  Nothing inside
``src/`` changes: the untraced run calls the original functions, and the
wrappers are removed again when a :class:`Patch` exits.

:class:`Tracer` records one span per call -- name, start, end, parent
span and operation id -- in memory, and turns them into per-layer call
counts, inclusive time and self time.  The benchmark's own tests install
a different hook through the same :class:`Patch` to slow one layer down.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: (span name, defining module, attribute path) for every timed layer.
#: A rename in ``src/`` makes :class:`Patch` fail loudly here instead of
#: silently dropping the layer from the per-layer table.
ENTRY_POINTS = (
    ("fortran.parse", "repro.fortran.parser", "parse_program"),
    ("fortran.semantics", "repro.fortran.semantics", "analyze_program"),
    ("ir.build", "repro.ir.program", "AnalyzedProgram.from_source"),
    ("interproc.summary", "repro.interproc.summary",
     "SummaryBuilder.build"),
    ("dependence.loop", "repro.dependence.ddg",
     "DependenceAnalyzer.analyze_loop"),
    ("dependence.pair", "repro.dependence.tests", "test_pair"),
    ("lint", "repro.lint.driver", "lint_program"),
    ("lint", "repro.lint.driver", "SessionLinter.refresh"),
    ("ped.autopar", "repro.ped.autopar", "auto_parallelize"),
    ("ped.health", "repro.ped.session", "PedSession.health"),
    ("transform.apply", "repro.transform.base", "Transformation.apply"),
    ("interp.tree", "repro.interp.machine", "Interpreter.run"),
    ("interp.relative", "repro.interp.relative", "run_to_sync"),
    ("interp.shadow", "repro.interp.shadow", "run_shadow"),
    ("interp.exec", "repro.interp.compile", "CompiledInterpreter.run"),
    ("fleet.bisect", "repro.fleet.bisect", "find_divergence"),
    ("serve.op", "repro.serve.manager", "SessionManager.run"),
    ("serve.serialize", "repro.serve.state", "serialize"),
    ("serve.rehydrate", "repro.serve.state", "rehydrate"),
    ("store.get", "repro.store", "ArtifactStore.get"),
    ("store.put", "repro.store", "ArtifactStore.put"),
    ("synth.check", "repro.corpus.synth", "check_program"),
)

#: span names, each reported as ``<name>.calls``, ``.ms`` and ``.self_ms``
TIMED = tuple(dict.fromkeys(name for name, _, _ in ENTRY_POINTS
                            if name != "serve.op"))

#: served ops reported as ``serve.op.<op>.ms`` / ``.self_ms``
SERVED_OPS = ("select_loop", "apply", "assert_fact", "health",
              "dependences")

#: the root span of each benchmark operation
OP_SPAN = "bench.op"


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    if name == "serve.op":        # SessionManager.run(self, sid, op, ...)
        op = args[2] if len(args) > 2 else kwargs.get("op")
        return f"serve.op.{op}"
    return name


# --------------------------------------------------------------------------
# Patching
# --------------------------------------------------------------------------

class Patch:
    """Context manager installing ``around`` on entry points.

    ``around(name, fn, args, kwargs)`` is called instead of ``fn``; it
    must call ``fn(*args, **kwargs)`` and return its result.  ``names``
    restricts the patch to those span names (default: all).
    """

    def __init__(self, around, names=None):
        self.around = around
        self.names = None if names is None else set(names)
        self._undo: list = []            # (owner, attr, original)
        self._originals: dict = {}       # id(wrapper) -> original

    def _wrap(self, name: str, fn):
        around = self.around

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return around(name, fn, args, kwargs)

        self._originals[id(wrapper)] = fn
        return wrapper

    def __enter__(self) -> "Patch":
        if self.names is not None:
            unknown = self.names - {n for n, _, _ in ENTRY_POINTS}
            if unknown:
                raise ValueError(f"unknown entry points {sorted(unknown)}")
        try:
            for name, module, path in ENTRY_POINTS:
                if self.names is None or name in self.names:
                    self._install(name, module, path)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self, name: str, module: str, path: str) -> None:
        mod = importlib.import_module(module)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            desc = owner.__dict__[attr]
            if isinstance(desc, classmethod):
                new = classmethod(self._wrap(name, desc.__func__))
            else:
                new = self._wrap(name, desc)
            self._undo.append((owner, attr, desc))
            setattr(owner, attr, new)
            return
        fn = getattr(mod, attr)
        wrapper = self._wrap(name, fn)
        for m in _repro_modules():
            for key, value in list(vars(m).items()):
                if value is fn:
                    self._undo.append((m, key, fn))
                    setattr(m, key, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        # a module imported while the patch was active bound a wrapper
        for m in _repro_modules():
            for key, value in list(vars(m).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(m, key, original)
        self._originals.clear()


def _repro_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------

class Tracer:
    """``around`` hook recording one span per call, in memory.

    A span is ``(id, name, start, end, parent, op, thread)``.  The
    parent is the innermost open span of the calling thread; work a pool
    thread does for an operation is parented to that operation's root
    span.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.snapshot_bytes = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self.op = 0
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def __call__(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, _span_name(name, args, kwargs), t0, t1,
                               parent, self.op, threading.get_ident()))
        if name == "serve.serialize":
            self.snapshot_bytes += len(result)
        return result

    def operation(self, op_id: int, fn):
        """Run one benchmark operation under its root span."""
        self.op = op_id
        sid = next(self._ids)
        self._root = sid
        stack = self._stack()
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._root = None
            self.spans.append((sid, OP_SPAN, t0, t1, None, op_id,
                               threading.get_ident()))

    # -- analysis -----------------------------------------------------------

    def layer_times(self) -> dict:
        """name -> {calls, ms, self_ms}.

        ``calls`` and ``ms`` count only spans with no ancestor of the
        same name, so a recursive entry point is not counted twice;
        ``self_ms`` sums every span's duration minus the part of it its
        child spans cover.
        """
        by_id = {s[0]: s for s in self.spans}
        children: dict = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append(s)
        out: dict = defaultdict(lambda: {"calls": 0, "ms": 0.0,
                                         "self_ms": 0.0})
        for sid, name, t0, t1, parent, _, _ in self.spans:
            row = out[name]
            row["self_ms"] += (t1 - t0 - _covered(t0, t1,
                                                  children.get(sid, ()))) \
                * 1e3
            p = parent
            while p is not None and by_id[p][1] != name:
                p = by_id[p][4]
            if p is None:
                row["calls"] += 1
                row["ms"] += (t1 - t0) * 1e3
        return dict(out)

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto): one complete event per span, one row per thread."""
        base = min((s[2] for s in self.spans), default=0.0)
        events = [{"name": name, "ph": "X", "pid": 1, "tid": tid,
                   "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                   "args": {"span": sid, "parent": parent, "op": op}}
                  for sid, name, t0, t1, parent, op, tid in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


def _covered(t0: float, t1: float, kids) -> float:
    """Length of [t0, t1] covered by the union of the kids' intervals."""
    if not kids:
        return 0.0
    ivs = sorted((max(k[2], t0), min(k[3], t1)) for k in kids)
    total = 0.0
    cur_a, cur_b = ivs[0]
    for a, b in ivs[1:]:
        if a > cur_b:
            total += max(0.0, cur_b - cur_a)
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    return total + max(0.0, cur_b - cur_a)
