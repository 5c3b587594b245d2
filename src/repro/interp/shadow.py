"""Shadow access-logging execution for dynamic race detection.

:class:`ShadowInterpreter` subclasses the reference tree-walking
:class:`~repro.interp.machine.Interpreter` and records, for every
PARALLEL DO it executes, the per-iteration read/write *cell* sets —
concrete storage locations, byte-addressed for arrays so COMMON
aliasing, argument association and array-element actuals all resolve to
the same cell no matter which name a unit uses.  The logs cross-validate
the static race detector (:mod:`repro.lint`): a loop the linter passes
must show no cross-iteration conflicts here, and a seeded race must be
observable as one.

What counts as a dynamic race mirrors the semantics the fork-join
runtime actually provides (:mod:`repro.interp.runtime`):

* a cross-iteration *flow/anti* conflict — one iteration writes a cell
  another iteration reads before writing it itself (an *exposed* read)
  — is always a race: the read's value depends on iteration order;
* a *write-write* conflict is a race only when some later read observes
  one of the conflicted cells before it is overwritten.  Output
  dependences on storage that is dead after the loop (arc3d's ZCOL,
  wholly rewritten by every iteration and never read again) are benign:
  the runtime lets workers race on them precisely because no observable
  value survives.

Scalars private to the loop, inner DO variables, the loop variable and
reduction scalars are excluded (they are replicated or combined by the
runtime).  The inner DO variables and the reductions are read off the
runtime's own :func:`~repro.interp.runtime.loop_facts`; the reduction
set is its shape-only ``shape_reductions`` (no storage or type gate),
and :func:`dynamic_races` can re-include reductions to confirm that a
REAL sum the runtime refuses really does carry a cross-iteration
recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fortran import ast
from .machine import Interpreter, _Jump, parallel_jump_fault, \
    parallel_overhead, ArrayStorage, Frame, _ScalarRef
from .runtime import chunk_ranges, loop_facts

__all__ = [
    "ShadowInterpreter", "ShadowLoopLog", "DynamicRace",
    "dynamic_races", "races_under", "run_shadow", "log_for",
]


# --------------------------------------------------------------------------
# Logs
# --------------------------------------------------------------------------

@dataclass
class ShadowLoopLog:
    """Per-iteration access sets of one PARALLEL DO execution."""

    unit: str
    line: int
    uid: int
    var: str
    trips: int
    private: frozenset
    inner_vars: frozenset
    reduction_names: frozenset
    #: one (written cells, exposed-read cells) pair per iteration
    iters: list = field(default_factory=list)
    #: cell -> (kind, variable name, display text)
    cellinfo: dict = field(default_factory=dict)
    #: private scalars whose loop-exit value was read afterwards
    liveout_reads: set = field(default_factory=set)
    #: write-write conflicted cells later observed by a read
    observed_ww: set = field(default_factory=set)

    def name_of(self, cell) -> str:
        return self.cellinfo.get(cell, ("?", "?", "?"))[1]

    def display_of(self, cell) -> str:
        return self.cellinfo.get(cell, ("?", "?", "?"))[2]


@dataclass(frozen=True)
class DynamicRace:
    """One observed cross-iteration conflict."""

    kind: str          # "write-write" | "read-write" | "privatization"
    var: str
    display: str       # representative cell, e.g. "F(5)"
    iterations: tuple  # two distinct iteration numbers that conflicted
                       # (empty for privatization live-out violations)

    def describe(self) -> str:
        if self.kind == "privatization":
            return (f"privatized scalar {self.var} was read after the "
                    f"loop (worker-private last value is lost)")
        a, b = self.iterations
        return (f"{self.kind} race on {self.display} between iterations "
                f"{a} and {b}")


# --------------------------------------------------------------------------
# Per-loop record
# --------------------------------------------------------------------------

class _LoopRecord:
    __slots__ = ("loop", "frame", "log", "cur_writes", "cur_exposed",
                 "writers", "exposed_by", "active")

    def __init__(self, s: ast.DoLoop, frame: Frame, trips: int):
        self.loop = s
        self.frame = frame
        # shape-only reductions: REAL sums are excluded too (RACE003
        # reports their recurrence statically)
        facts = loop_facts(s, frame.symtab)
        self.log = ShadowLoopLog(
            unit=frame.unit_name, line=s.line, uid=s.uid,
            var=s.var.upper(), trips=trips,
            private=frozenset(n.upper() for n in s.private_vars),
            inner_vars=frozenset(facts.inner_vars),
            reduction_names=facts.shape_reductions)
        self.cur_writes: set = set()
        self.cur_exposed: set = set()
        #: cell -> list of iterations that wrote it (for pending WW)
        self.writers: dict = {}
        self.exposed_by: dict = {}
        self.active = False

    def begin_iteration(self) -> None:
        if self.active:
            self._commit()
        self.active = True
        self.cur_writes = set()
        self.cur_exposed = set()

    def _commit(self) -> None:
        it = len(self.log.iters)
        self.log.iters.append((frozenset(self.cur_writes),
                               frozenset(self.cur_exposed)))
        for c in self.cur_writes:
            self.writers.setdefault(c, []).append(it)
        for c in self.cur_exposed:
            self.exposed_by.setdefault(c, []).append(it)

    def note(self, cell, write: bool, kind: str, name: str,
             display: str) -> None:
        if kind == "local" and cell[1] != id(self.frame):
            return  # another frame's local: fresh per call, private
        if cell not in self.log.cellinfo:
            self.log.cellinfo[cell] = (kind, name, display)
        if write:
            self.cur_writes.add(cell)
        elif cell not in self.cur_writes:
            self.cur_exposed.add(cell)

    def finish(self) -> ShadowLoopLog:
        if self.active:
            self._commit()
            self.active = False
        return self.log


class _LoggedScalarRef(_ScalarRef):
    """Scalar-argument reference that reports its accesses."""

    def __init__(self, shadow: "ShadowInterpreter", frame: Frame,
                 name: str):
        super().__init__(frame, name)
        self.shadow = shadow

    def get(self):
        self.shadow._note_scalar(self.name, self.frame, write=False)
        return super().get()

    def set(self, value) -> None:
        self.shadow._note_scalar(self.name, self.frame, write=True)
        super().set(value)


# --------------------------------------------------------------------------
# The interpreter
# --------------------------------------------------------------------------

class ShadowInterpreter(Interpreter):
    """Reference interpreter + per-iteration access logging.

    Observable state (outputs, storage, virtual clock) is byte-identical
    to the base interpreter: logging only reads addresses, and array
    reads/writes go through the same bounds-checked accessors.
    """

    def __init__(self, program, inputs=(), **kw):
        super().__init__(program, inputs, **kw)
        self.access_log: list[ShadowLoopLog] = []
        self._stack: list[_LoopRecord] = []
        #: cell -> log: private-scalar cells whose loop value escaping
        #: the loop would be a privatization violation if read
        self._pending_liveout: dict = {}
        #: cell -> log: write-write conflicted cells awaiting a reader
        self._pending_ww: dict = {}
        #: strong refs to every logged buffer so addresses stay unique
        self._keepalive: dict = {}

    # -- cell identity -----------------------------------------------------

    def _array_cell(self, arr: ArrayStorage, subs: tuple) -> int:
        idx = arr.index(subs)
        data = arr.data
        base = data.__array_interface__["data"][0]
        addr = base + sum(i * st for i, st in zip(idx, data.strides))
        ka = self._keepalive
        if id(data) not in ka:
            ka[id(data)] = data
            if data.base is not None:
                ka[id(data.base)] = data.base
        return addr

    def _scalar_cell(self, name: str, frame: Frame):
        sym = frame.symtab.get(name)
        if sym is not None and sym.storage == "common":
            return ("common", name)
        return ("local", id(frame), name)

    # -- logging core ------------------------------------------------------

    def _touch(self, cell, write: bool, kind: str, name: str,
               display: str) -> None:
        if write:
            self._pending_liveout.pop(cell, None)
            self._pending_ww.pop(cell, None)
        else:
            hit = self._pending_liveout.pop(cell, None)
            if hit is not None:
                hit.liveout_reads.add(name)
            hit = self._pending_ww.pop(cell, None)
            if hit is not None:
                hit.observed_ww.add(cell)
        for rec in self._stack:
            rec.note(cell, write, kind, name, display)

    def _note_scalar(self, name: str, frame: Frame, write: bool) -> None:
        if not self._stack and not self._pending_liveout \
                and not self._pending_ww:
            return
        cell = self._scalar_cell(name, frame)
        kind = cell[0]
        self._touch(cell, write, kind, name, name)

    def _note_array(self, arr: ArrayStorage, subs: tuple,
                    write: bool) -> None:
        if not self._stack and not self._pending_ww:
            return
        cell = self._array_cell(arr, subs)
        display = f"{arr.name}({', '.join(str(s) for s in subs)})"
        self._touch(cell, write, "array", arr.name, display)

    def _kill_scalar_pending(self, name: str, frame: Frame) -> None:
        if self._pending_liveout or self._pending_ww:
            cell = self._scalar_cell(name, frame)
            self._pending_liveout.pop(cell, None)
            self._pending_ww.pop(cell, None)

    def _register_pending(self, rec: _LoopRecord) -> None:
        log = rec.log
        excluded = {log.var} | set(log.inner_vars)
        for cell, its in rec.writers.items():
            kind, name, _ = log.cellinfo[cell]
            if name in excluded:
                continue
            if kind != "array" and name in log.private:
                # value of a privatized scalar escaping the loop
                self._pending_liveout[cell] = log
            elif len(its) >= 2 and name not in log.reduction_names:
                self._pending_ww[cell] = log

    # -- interpreter overrides ---------------------------------------------

    def _exec_do(self, s: ast.DoLoop, frame: Frame) -> None:
        # the DO variable is assigned directly, bypassing _store
        self._kill_scalar_pending(s.var, frame)
        super()._exec_do(s, frame)

    def _exec_parallel_do(self, s: ast.DoLoop, frame: Frame, start, step,
                          trips: int) -> None:
        rec = _LoopRecord(s, frame, trips)
        self._stack.append(rec)
        t0 = self.clock
        max_iter = 0.0
        v = start
        try:
            for _ in range(trips):
                rec.begin_iteration()
                it_start = self.clock
                frame.scalars[s.var] = v
                try:
                    self._exec_block(s.body, frame)
                except _Jump as j:
                    if j.label != s.term_label:
                        raise parallel_jump_fault(s.line)
                max_iter = max(max_iter, self.clock - it_start)
                v = v + step
            frame.scalars[s.var] = v
            self.clock = t0 + max_iter + (parallel_overhead() if trips
                                          else 0.0)
        finally:
            self._stack.pop()
            log = rec.finish()
            self.access_log.append(log)
            self._register_pending(rec)

    def _eval_in(self, e: ast.Expr, frame: Frame):
        if isinstance(e, ast.VarRef):
            if e.name in frame.scalars:
                self._note_scalar(e.name, frame, write=False)
            return super()._eval_in(e, frame)
        if isinstance(e, (ast.ArrayRef, ast.NameRef)) \
                and e.name in frame.arrays:
            arr = frame.arrays[e.name]
            subs = tuple(int(self._eval_in(x, frame))
                         for x in e.children())
            self._note_array(arr, subs, write=False)
            return arr.get(subs)
        return super()._eval_in(e, frame)

    def _store(self, target: ast.Expr, value, frame: Frame) -> None:
        if isinstance(target, ast.VarRef):
            self._note_scalar(target.name, frame, write=True)
            return super()._store(target, value, frame)
        if isinstance(target, (ast.ArrayRef, ast.NameRef)) \
                and target.name in frame.arrays:
            arr = frame.arrays[target.name]
            subs = tuple(int(self._eval_in(x, frame))
                         for x in target.children())
            self._note_array(arr, subs, write=True)
            arr.set(subs, value)
            return
        return super()._store(target, value, frame)

    def _make_actual(self, a: ast.Expr, frame: Frame):
        if isinstance(a, ast.VarRef) and a.name not in frame.arrays:
            # scalar passed by reference: the callee's binding read and
            # copy-back write bypass _eval_in/_store
            return _LoggedScalarRef(self, frame, a.name)
        return super()._make_actual(a, frame)


# --------------------------------------------------------------------------
# Race derivation
# --------------------------------------------------------------------------

def dynamic_races(log: ShadowLoopLog, include_reductions: bool = False,
                  require_observed_ww: bool = True) -> list[DynamicRace]:
    """Cross-iteration conflicts of one logged PARALLEL DO.

    ``include_reductions=True`` also reports conflicts on recognized
    reduction scalars (to demonstrate the recurrence a mis-classified
    REAL reduction carries).  ``require_observed_ww=False`` reports every
    write-write conflict even when no later read observed the cell.
    """
    excluded = {log.var} | set(log.private) | set(log.inner_vars)
    if not include_reductions:
        excluded |= set(log.reduction_names)

    writers: dict = {}
    exposed: dict = {}
    for it, (w, r) in enumerate(log.iters):
        for c in w:
            writers.setdefault(c, []).append(it)
        for c in r:
            exposed.setdefault(c, []).append(it)

    out: list[DynamicRace] = []
    seen: set = set()

    def emit(kind: str, cell, a: int, b: int) -> None:
        name = log.name_of(cell)
        key = (kind, name)
        if key not in seen:
            seen.add(key)
            out.append(DynamicRace(kind, name, log.display_of(cell),
                                   (a, b)))

    for cell, its in sorted(writers.items(), key=lambda kv: str(kv[0])):
        name = log.name_of(cell)
        if name in excluded:
            continue
        cross = [(w, r) for w in its for r in exposed.get(cell, ())
                 if w != r]
        if cross:
            emit("read-write", cell, *cross[0])
        if len(its) >= 2 and (not require_observed_ww
                              or cell in log.observed_ww):
            emit("write-write", cell, its[0], its[1])

    # privatized scalars whose value was read after the loop: a worker
    # pool discards private copies, so the post-loop read is unsound for
    # any worker count (reported independently of chunking)
    for name in sorted(log.liveout_reads):
        key = ("privatization", name)
        if key not in seen:
            seen.add(key)
            out.append(DynamicRace("privatization", name, name, ()))
    return out


def races_under(log: ShadowLoopLog, workers: int, schedule: str,
                include_reductions: bool = False) -> list[DynamicRace]:
    """Conflicts that cross chunk boundaries under a concrete schedule.

    Iteration-to-chunk assignment is deterministic (chunk boundaries come
    from :func:`~repro.interp.runtime.chunk_ranges`; only chunk-to-worker
    claiming varies at run time), so this is the exact set of conflicts
    the fork-join runtime could expose with that worker count.
    """
    if log.trips <= 0:
        return []
    chunk_of: dict[int, int] = {}
    for index, offset, count in chunk_ranges(log.trips, workers, schedule):
        for k in range(offset, offset + count):
            chunk_of[k] = index
    races = dynamic_races(log, include_reductions=include_reductions)
    out = []
    for r in races:
        if r.kind == "privatization":
            out.append(r)   # worker-count independent
            continue
        a, b = r.iterations
        if chunk_of.get(a) != chunk_of.get(b):
            out.append(r)
            continue
        # the representative pair may share a chunk while another pair
        # does not; re-derive against the full log for this variable
        if _any_cross_chunk(log, r, chunk_of, include_reductions):
            out.append(r)
    return out


def _any_cross_chunk(log: ShadowLoopLog, race: DynamicRace,
                     chunk_of: dict, include_reductions: bool) -> bool:
    writers: dict = {}
    exposed: dict = {}
    for it, (w, r) in enumerate(log.iters):
        for c in w:
            if log.name_of(c) == race.var:
                writers.setdefault(c, []).append(it)
        for c in r:
            if log.name_of(c) == race.var:
                exposed.setdefault(c, []).append(it)
    for cell, its in writers.items():
        if race.kind == "write-write":
            if len({chunk_of.get(i) for i in its}) > 1 \
                    and (cell in log.observed_ww):
                return True
        else:
            for w in its:
                for r in exposed.get(cell, ()):
                    if w != r and chunk_of.get(w) != chunk_of.get(r):
                        return True
    return False


def run_shadow(program, inputs=(), **kw) -> ShadowInterpreter:
    """Execute ``program`` under the shadow interpreter and return it
    (with ``access_log`` populated)."""
    interp = ShadowInterpreter(program, inputs, **kw)
    interp.run()
    return interp


def log_for(interp: ShadowInterpreter, unit: str,
            line: int) -> ShadowLoopLog | None:
    """The first logged execution of the PARALLEL DO at ``unit:line``
    (the relative debugger's hook into the access log), or None when
    that loop never executed."""
    unit = unit.upper()
    for log in interp.access_log:
        if log.unit == unit and log.line == line:
            return log
    return None
