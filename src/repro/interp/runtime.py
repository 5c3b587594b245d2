"""Real fork-join DOALL runtime for compiled ``PARALLEL DO`` loops.

The serial engines *simulate* a ``PARALLEL DO``: they run every
iteration on one thread and then collapse the virtual clock to
``max(iteration) + overhead``.  This module executes eligible loops for
real on a persistent thread pool while keeping the simulated engines as
the differential oracle: for any worker count and either schedule the
run must produce **byte-identical** ``snapshot()`` observables, step
counts, virtual clocks, and profiles.  Threads share the frame's
``ArrayStorage`` directly, so the serial memory model holds as is.

How byte-identity survives real parallelism:

* **exact virtual clock** -- every statement cost is a dyadic rational
  (multiples of 1/8, see ``machine.COST_TERM``) far below 2**49, so
  float accumulation is exact and per-iteration clock deltas do not
  depend on the clock base a worker starts from; summed partials equal
  the serial fold bit-for-bit under any chunk partition;
* **privatization** -- per-chunk register files; privatized scalars and
  inner DO variables start as *unset* in every chunk and the last chunk
  that wrote one wins at the join (chunks partition the iteration space
  in order, so this is the serial last-write);
* **reductions** -- only *exactly associative* recurrences run in
  parallel: INTEGER ``+``/``-``/``*`` with statically integer-typed
  operands (per-chunk partials from the identity, combined in chunk
  order with arbitrary-precision int arithmetic) and ``MAX``/``MIN``
  (per-chunk partials seeded with the loop-entry value; max/min never
  rounds).  Floating-point ``+``/``*`` reductions are *ineligible* and
  fall back to the serial simulation rather than reassociate;
* **eligibility, not heroics** -- loops whose bodies do I/O reads,
  STOP/RETURN, escaping jumps, writes to COMMON scalars, or writes to
  scalars that are neither privatized nor recognized reductions fall
  back to the (byte-identical by construction) serial simulation, and a
  counter records the fallback.

Scheduling is chunked: ``static`` deals ``workers`` near-equal
contiguous chunks; ``dynamic`` deals smaller contiguous chunks that idle
workers claim.  Chunk boundaries never affect results (see above), only
load balance.  The pool itself is process-wide and reused across runs
(:func:`repro.perf.pool.shared_executor`).
"""

from __future__ import annotations

import os
import threading
from typing import NamedTuple

import numpy as np

from ..fortran import ast
from ..perf import counters as perf_counters
from .machine import (
    StepLimitExceeded, parallel_jump_fault, parallel_overhead,
)

__all__ = [
    "ParallelRuntime", "ParLoopPlan", "LoopFacts", "ForkBlocker",
    "build_plan", "loop_facts", "fork_blocker", "summary_lookup",
    "chunk_ranges",
    "interleaved_order", "resolve_workers", "resolve_schedule",
    "SCHEDULES",
]

SCHEDULES = ("static", "dynamic")

#: dynamic schedule: aim for this many chunks per worker
_DYNAMIC_CHUNKS_PER_WORKER = 4


def resolve_workers(workers: int | None = None) -> int | None:
    """Worker count: explicit argument > ``REPRO_EXEC_WORKERS`` > None
    (None = keep the serial simulation; 1 = run the fork-join runtime
    inline, exercising the chunk/merge machinery without a pool).  An
    empty ``REPRO_EXEC_WORKERS`` counts as unset; any other value that
    is not an integer >= 1 raises ``ValueError``."""
    if workers is not None:
        w = int(workers)
        if w < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return w
    env = os.environ.get("REPRO_EXEC_WORKERS")
    if not env:
        return None
    try:
        w = int(env)
    except ValueError:
        w = 0
    if w < 1:
        raise ValueError(
            f"REPRO_EXEC_WORKERS must be an integer >= 1, got {env!r}")
    return w


def resolve_schedule(schedule: str | None = None) -> str:
    """Iteration schedule: explicit > ``REPRO_EXEC_SCHEDULE`` > static."""
    s = schedule or os.environ.get("REPRO_EXEC_SCHEDULE") or "static"
    s = s.lower()
    if s not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {s!r} (expected one of {SCHEDULES})")
    return s


def chunk_ranges(trips: int, workers: int, schedule: str) -> list:
    """Contiguous ``(index, offset, count)`` chunks over ``range(trips)``.

    Static: ``min(workers, trips)`` near-equal chunks.  Dynamic: smaller
    chunks (about ``_DYNAMIC_CHUNKS_PER_WORKER`` per worker) that idle
    workers claim.  Correctness never depends on the partition; the
    index orders the join merge back into iteration order.
    """
    if trips <= 0:
        return []
    if schedule == "dynamic":
        size = max(1, trips // (workers * _DYNAMIC_CHUNKS_PER_WORKER))
        return [(ci, off, min(size, trips - off))
                for ci, off in enumerate(range(0, trips, size))]
    n = min(workers, trips)
    base, rem = divmod(trips, n)
    out = []
    off = 0
    for i in range(n):
        cnt = base + (1 if i < rem else 0)
        out.append((i, off, cnt))
        off += cnt
    return out


def interleaved_order(trips: int, workers: int,
                      schedule: str) -> list[tuple[int, int]]:
    """A deterministic *adversarial* iteration order: one iteration from
    each chunk in turn, i.e. every chunk of :func:`chunk_ranges` makes
    progress in lock-step.

    This is a legal concurrent execution of a PARALLEL DO at iteration
    granularity -- exactly the interleaving a worker pool could produce
    -- chosen to maximally violate sequential iteration order.  The
    relative debugger (:mod:`repro.interp.relative`) replays racy loops
    under it to turn "results differ under the runtime, sometimes" into
    a reproducible divergence it can bisect.  Returns ``(chunk_index,
    iteration_index)`` pairs covering ``range(trips)`` exactly once.
    """
    chunks = chunk_ranges(trips, workers, schedule)
    out: list[tuple[int, int]] = []
    step = 0
    remaining = trips
    while remaining > 0:
        for ci, off, cnt in chunks:
            if step < cnt:
                out.append((ci, off + step))
                remaining -= 1
        step += 1
    return out


# --------------------------------------------------------------------------
# Lazy handle on the compile module (compile imports us at module level)
# --------------------------------------------------------------------------

_ENG = None


def _engine():
    global _ENG
    if _ENG is None:
        from . import compile as engmod
        _ENG = engmod
    return _ENG


# --------------------------------------------------------------------------
# Compile-time loop facts: reductions, written scalars, blockers
# --------------------------------------------------------------------------

_MAXFNS = frozenset({"MAX", "AMAX1", "MAX0", "DMAX1"})
_MINFNS = frozenset({"MIN", "AMIN1", "MIN0", "DMIN1"})
#: intrinsics whose value is integer when every argument is integer
_INTFNS = frozenset({"ABS", "IABS", "MOD", "ISIGN", "SIGN", "IDIM",
                     "DIM"} | _MAXFNS | _MINFNS)
#: intrinsics whose value is integer regardless of argument type
_TOINT = frozenset({"INT", "IFIX", "IDINT", "NINT"})


class RedPlan:
    """One recognized parallel reduction: ``s = s op e`` (or MAX/MIN)."""

    __slots__ = ("name", "slot", "kind", "type_name")

    def __init__(self, name, slot, kind, type_name):
        self.name = name
        self.slot = slot
        self.kind = kind          # "sum" (+/-), "prod" (*), "max", "min"
        self.type_name = type_name


class ParLoopPlan:
    """One PARALLEL DO as the compiled runtime sees it: the loop's
    :class:`LoopFacts` plus the register slots of its exact reductions
    and the compiled body the workers run."""

    __slots__ = ("facts", "vslot", "term", "line", "body", "reductions")

    def __init__(self, facts, vslot, term, line, body, reductions):
        self.facts = facts
        self.vslot = vslot
        self.term = term
        self.line = line
        self.body = body
        self.reductions = reductions


def _int_typed(e, st) -> bool:
    """Conservatively: does this expression always evaluate to a Python
    int?  (Gate for +/-/* reductions: integer accumulation is exact.)"""
    if isinstance(e, ast.IntConst):
        return True
    if isinstance(e, ast.VarRef):
        sym = st.get(e.name)
        return sym is not None and sym.type_name == "INTEGER"
    if isinstance(e, (ast.ArrayRef, ast.NameRef)):
        sym = st.get(e.name)
        return (sym is not None and sym.is_array
                and sym.type_name == "INTEGER")
    if isinstance(e, ast.UnOp):
        return e.op in ("+", "-") and _int_typed(e.operand, st)
    if isinstance(e, ast.BinOp):
        return (e.op in ("+", "-", "*", "/")
                and _int_typed(e.left, st) and _int_typed(e.right, st))
    if isinstance(e, ast.FuncRef) and e.intrinsic:
        u = e.name.upper()
        if u in _TOINT:
            return True
        if u in _INTFNS:
            return all(_int_typed(a, st) for a in e.args)
    return False


def _red_match(value, name):
    """``(kind, operand)`` when ``value`` is ``name op e`` in a
    reduction shape, else None."""
    if isinstance(value, ast.BinOp):
        le, ri = value.left, value.right
        l_is = isinstance(le, ast.VarRef) and le.name.upper() == name
        r_is = isinstance(ri, ast.VarRef) and ri.name.upper() == name
        if value.op == "+":
            if l_is:
                return ("sum", ri)
            if r_is:
                return ("sum", le)
        elif value.op == "-" and l_is:
            return ("sum", ri)
        elif value.op == "*":
            if l_is:
                return ("prod", ri)
            if r_is:
                return ("prod", le)
    elif isinstance(value, ast.FuncRef) and value.intrinsic \
            and len(value.args) == 2:
        u = value.name.upper()
        if u in _MAXFNS or u in _MINFNS:
            kind = "max" if u in _MAXFNS else "min"
            a, b = value.args
            if isinstance(a, ast.VarRef) and a.name.upper() == name:
                return (kind, b)
            if isinstance(b, ast.VarRef) and b.name.upper() == name:
                return (kind, a)
    return None


def _stmt_read_exprs(s):
    """Expression trees this statement *reads* (incl. store subscripts)."""
    exprs = list(s.exprs())
    if isinstance(s, ast.Assign) and isinstance(
            s.target, (ast.ArrayRef, ast.NameRef)):
        exprs.extend(s.target.children())
    elif isinstance(s, ast.ReadStmt):
        for it in s.items:
            if isinstance(it, (ast.ArrayRef, ast.NameRef)):
                exprs.extend(it.children())
    return exprs


class LoopFacts:
    """Name-level facts of one statement list, gathered in one walk.

    :func:`loop_facts` fills ``var`` and the last four fields for a loop
    body (the reduction verdicts and the static fork blocker);
    :func:`_summarize_unit` reads only the walk itself.
    """

    __slots__ = ("var", "labels", "jumps", "halts", "has_assert",
                 "assigned", "written", "inner_vars", "callees", "reads",
                 "self_reads", "shapes", "shape_reductions", "reductions",
                 "inexact", "blocked")

    def __init__(self):
        self.var: str | None = None
        self.labels: set = set()
        self.jumps: set = set()
        #: ``(walk position, "READ" | "STOP" | "RETURN")``, in walk order
        self.halts: list = []
        self.has_assert = False
        #: scalar assignment target -> walk position of its first store
        self.assigned: dict = {}
        #: scalars stored other than by a recognized reduction
        self.written: set = set()
        self.inner_vars: set = set()
        self.callees: set = set()
        #: scalar -> read count, and the reads its own updates make
        self.reads: dict = {}
        self.self_reads: dict = {}
        #: scalar -> ``[(kind, operand)]`` of every ``s = s op e`` store
        self.shapes: dict = {}
        #: reduction shape alone (no storage or type gate)
        self.shape_reductions: frozenset = frozenset()
        #: ``(name, kind, type_name)`` the runtime combines exactly
        self.reductions: tuple = ()
        #: REAL or mixed sums/products: forkable only by reassociating
        self.inexact: frozenset = frozenset()
        #: READ/STOP/RETURN, a jump out, or a COMMON scalar store
        self.blocked: str | None = None


def _scan(body, st) -> LoopFacts:
    f = LoopFacts()

    def actuals(args):
        # a scalar actual may be stored through by the callee
        for a in args:
            if isinstance(a, ast.VarRef):
                sym = st.get(a.name)
                if sym is None or not sym.is_array:
                    f.written.add(a.name.upper())

    for pos, (stmt, _) in enumerate(ast.walk_stmts(body)):
        if stmt.label is not None:
            f.labels.add(stmt.label)
        if isinstance(stmt, ast.DoLoop):
            f.inner_vars.add(stmt.var.upper())
            if stmt.term_label is not None:
                f.labels.add(stmt.term_label)
        elif isinstance(stmt, ast.ReadStmt):
            f.halts.append((pos, "READ"))
        elif isinstance(stmt, ast.Stop):
            f.halts.append((pos, "STOP"))
        elif isinstance(stmt, ast.Return):
            f.halts.append((pos, "RETURN"))
        elif isinstance(stmt, ast.AssertStmt):
            f.has_assert = True
        elif isinstance(stmt, ast.Goto):
            f.jumps.add(stmt.target)
        elif isinstance(stmt, ast.ComputedGoto):
            f.jumps.update(stmt.targets)
        elif isinstance(stmt, ast.ArithIf):
            f.jumps.update((stmt.neg_label, stmt.zero_label,
                            stmt.pos_label))
        elif isinstance(stmt, ast.CallStmt):
            f.callees.add(stmt.name.upper())
            actuals(stmt.args)

        if isinstance(stmt, ast.Assign) and isinstance(
                stmt.target, ast.VarRef):
            name = stmt.target.name.upper()
            f.assigned.setdefault(name, pos)
            m = _red_match(stmt.value, name)
            if m is not None and name not in {
                    v.upper() for v in ast.variables_in(m[1])}:
                f.shapes.setdefault(name, []).append(m)
                f.self_reads[name] = f.self_reads.get(name, 0) + 1
            else:
                f.written.add(name)

        for e in _stmt_read_exprs(stmt):
            for node in ast.walk_expr(e):
                if isinstance(node, ast.VarRef):
                    n = node.name.upper()
                    f.reads[n] = f.reads.get(n, 0) + 1
                elif isinstance(node, ast.FuncRef) and not node.intrinsic:
                    f.callees.add(node.name.upper())
                    actuals(node.args)
                elif isinstance(node, ast.NameRef):
                    sym = st.get(node.name)
                    if sym is None or not sym.is_array:
                        f.callees.add(node.name.upper())
    return f


_HALT_REASONS = {"READ": "READ statement in loop body",
                 "STOP": "STOP in loop body",
                 "RETURN": "RETURN in loop body"}


def loop_facts(loop: ast.DoLoop, symtab) -> LoopFacts:
    """The facts of one DO loop: the body walk, its reductions and its
    static fork blocker."""
    f = _scan(loop.body, symtab)
    f.var = var = loop.var.upper()
    f.shape_reductions = frozenset(
        name for name, ms in f.shapes.items()
        if len({kind for kind, _ in ms}) == 1
        and name != var and name not in f.inner_vars
        and name not in f.written
        and f.reads.get(name, 0) == f.self_reads[name])
    reductions = []
    inexact = set()
    for name, ms in f.shapes.items():
        sym = symtab.get(name)
        if name not in f.shape_reductions or sym is None \
                or sym.storage == "common":
            continue
        kind, tname = ms[0][0], sym.type_name
        if kind in ("sum", "prod"):
            # only integer accumulation is exactly associative
            if tname == "INTEGER" and all(
                    _int_typed(e, symtab) for _, e in ms):
                reductions.append((name, kind, tname))
            else:
                inexact.add(name)
        elif tname in ("INTEGER", "REAL", "DOUBLEPRECISION"):
            reductions.append((name, kind, tname))
    f.reductions = tuple(reductions)
    f.inexact = frozenset(inexact)
    f.written |= f.shapes.keys() - {r[0] for r in reductions}

    if f.halts:
        f.blocked = _HALT_REASONS[f.halts[0][1]]
    elif f.jumps - f.labels - {loop.term_label}:
        # the serial simulation faults at the offending iteration; keep
        # full state parity by never forking
        f.blocked = "jump out of the loop body"
    else:
        # a COMMON scalar would race through the shared globals dict
        for name in sorted(f.written):
            sym = symtab.get(name)
            if sym is not None and sym.storage == "common":
                f.blocked = f"writes COMMON scalar {name}"
                break
    return f


class _UnitSummary(NamedTuple):
    """What a call into one program unit brings into a forked loop."""

    blocked: str | None
    has_assert: bool
    callees: set
    common_arrays: set


def _summarize_unit(uir) -> _UnitSummary:
    st = uir.symtab
    f = _scan(uir.unit.body, st)
    # first in walk order: READ, STOP (it ends the whole program
    # mid-loop; a worker cannot) or a COMMON scalar store
    found = [(pos, kind) for pos, kind in f.halts if kind != "RETURN"]
    for name, pos in f.assigned.items():
        sym = st.get(name)
        if sym is not None and sym.storage == "common" \
                and not sym.is_array:
            found.append((pos, f"writes COMMON scalar {sym.name}"))
    if found:
        blocked = min(found)[1]
    elif f.jumps - f.labels:
        blocked = "cross-unit jump"
    else:
        blocked = None
    return _UnitSummary(
        blocked, f.has_assert, f.callees,
        {sym.name for sym in st.symbols.values()
         if sym.is_array and sym.storage == "common"})


def summary_lookup(units, cache: dict):
    """The ``summary_of`` argument of :func:`fork_blocker` for a
    program's ``units``, memoized in ``cache``."""
    def summary_of(name):
        if name not in cache:
            uir = units.get(name)
            cache[name] = _summarize_unit(uir) if uir is not None else None
        return cache[name]
    return summary_of


# --------------------------------------------------------------------------
# The fork verdict (the compiled runtime, the relative debugger's
# emulator and LINT004 all ask this one function)
# --------------------------------------------------------------------------

class ForkBlocker(NamedTuple):
    """Why the runtime will not fork a loop; exactly one kind is set."""

    #: a construct in the body (``LoopFacts.blocked`` or an ASSERT)
    static: str | None = None
    #: sorted shared scalars written but neither private nor reductions
    stray: tuple = ()
    #: the first callee that blocks, walked depth-first (each callee
    #: list sorted and taken from its end, so the walk is deterministic)
    callee: str | None = None
    #: that callee's summary reason; None means it has no program unit
    why: str | None = None

    def reason(self) -> str:
        """The one-line fallback reason the relative debugger records."""
        if self.static is not None:
            return self.static
        if self.stray:
            return f"writes shared scalar {self.stray[0]}"
        return f"callee {self.callee}: {self.why or 'no program unit'}"


def fork_blocker(facts: LoopFacts, privates, summary_of,
                 check_assertions: bool,
                 allow_inexact: bool = False) -> ForkBlocker | None:
    """None when the fork-join runtime forks this loop, else the reason.

    ``privates`` are the loop's PRIVATE scalars; ``summary_of(name)``
    returns a callee's :class:`_UnitSummary` or None for a name with no
    program unit.  ``check_assertions`` blocks loops that reach an
    ASSERT (the checker runs in the parent only).  ``allow_inexact``
    treats REAL sums and products as reductions, which reassociates
    them -- the relative debugger's demonstration mode only.
    """
    if facts.blocked is not None:
        return ForkBlocker(static=facts.blocked)
    if check_assertions and facts.has_assert:
        return ForkBlocker(static="ASSERT in loop body")
    shared = facts.written - facts.inexact if allow_inexact \
        else facts.written
    stray = shared - facts.inner_vars - privates - {facts.var}
    if stray:
        return ForkBlocker(stray=tuple(sorted(stray)))
    seen: set = set()
    stack = sorted(facts.callees)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        sm = summary_of(name)
        if sm is None:
            return ForkBlocker(callee=name)
        why = sm.blocked or (
            "ASSERT" if check_assertions and sm.has_assert else None)
        if why is not None:
            return ForkBlocker(callee=name, why=why)
        stack.extend(sorted(sm.callees))
    return None


def build_plan(cx, s: ast.DoLoop, body, vslot, term) -> ParLoopPlan:
    """The loop's facts plus its register slots.

    Called by ``compile._comp_do`` with the unit's compile context; the
    compiled PARALLEL DO op holds the plan it returns.
    """
    facts = loop_facts(s, cx.st)
    reds = sorted((RedPlan(name, cx.slot(name), kind, tname)
                   for name, kind, tname in facts.reductions),
                  key=lambda r: r.name)
    for name in facts.written | facts.inner_vars:
        cx.slot(name)
    return ParLoopPlan(facts, vslot, term, s.line, body, tuple(reds))


# --------------------------------------------------------------------------
# Worker-side minimal interpreter state (clone of CompiledInterpreter's
# runtime surface; the compiled closures only touch these attributes)
# --------------------------------------------------------------------------

class _WorkerRT:
    __slots__ = ("program", "inputs", "_input_pos", "outputs",
                 "max_steps", "steps", "clock", "check_assertions",
                 "assertion_checker", "_globals", "_global_arrays",
                 "_lk", "_prof", "_unit_time", "_unit_calls", "_runtime")

    def __init__(self, program, globals_, global_arrays, max_steps,
                 lk_map):
        self.program = program
        self.inputs = []
        self._input_pos = 0
        self.outputs = []
        self.max_steps = max_steps
        self.steps = 0
        self.clock = 0.0
        self.check_assertions = False
        self.assertion_checker = None
        self._globals = globals_
        self._global_arrays = global_arrays
        self._lk = lk_map
        self._prof = {}
        self._unit_time = {}
        self._unit_calls = {}
        self._runtime = None          # nested PARALLEL DO simulates

    def _linked(self, name):
        return self._lk.get(name)


class _ChunkRec:
    """Per-chunk results, merged at the join in chunk (iteration) order."""

    __slots__ = ("ci", "steps", "max_iter", "outputs", "partials",
                 "finals", "fault")

    def __init__(self, ci, steps, max_iter, outputs, partials, finals,
                 fault):
        self.ci = ci
        self.steps = steps
        self.max_iter = max_iter
        self.outputs = outputs
        self.partials = partials
        self.finals = finals
        self.fault = fault


class _Claim:
    """Thread-safe chunk claim queue (the dynamic schedule)."""

    __slots__ = ("_it", "_lock")

    def __init__(self, chunks):
        self._it = iter(chunks)
        self._lock = threading.Lock()

    def __iter__(self):
        return self

    def __next__(self):
        with self._lock:
            return next(self._it)


def _red_init(red: RedPlan, s0):
    if red.kind == "sum":
        return 0
    if red.kind == "prod":
        return 1
    return s0                      # max/min partials seed from s0


def _red_combine(red: RedPlan, acc, partial):
    if red.kind == "sum":
        return acc + partial
    if red.kind == "prod":
        return acc * partial
    if red.kind == "max":
        return max(acc, partial)
    return min(acc, partial)


def _coerce_store(v, tname):
    """The scalar-store coercion of ``compile._comp_store``, applied to
    merged values at the join."""
    if isinstance(v, np.generic):
        v = v.item()
    if tname == "INTEGER" and isinstance(v, float):
        return int(v)
    if tname in ("REAL", "DOUBLEPRECISION") and isinstance(v, int):
        return float(v)
    return v


def _run_chunks(wrt, lk, plan, state, regs0, arrs, start, step, chunks):
    """Execute a sequence of chunks on one worker interpreter.

    Every chunk gets a fresh register file (privates/inner vars unset,
    reduction slots at their identity) so the join can merge per-chunk
    finals; the profile accumulators are worker-level (exact arithmetic
    makes their merge order irrelevant).
    """
    eng = _engine()
    unset = eng._UNSET
    code = lk.code
    acc = wrt._prof.get(lk)
    if acc is None:
        acc = ([0] * code.n_stmts, [0] * code.n_loops,
               [0.0] * code.n_loops, bytearray(code.n_loops),
               bytearray(code.n_loops))
        wrt._prof[lk] = acc
    body = plan.body
    vslot = plan.vslot
    term = plan.term
    line = plan.line
    unset_slots = state["unset_slots"]
    reds = state["reds"]
    red_inits = state["red_inits"]
    out = []
    for ci, off, n in chunks:
        regs = list(regs0)
        for sl in unset_slots:
            regs[sl] = unset
        for red, init in zip(reds, red_inits):
            regs[red.slot] = init
        fr = eng._Frame(wrt, regs, arrs, lk, acc[0], acc[1], acc[2],
                        acc[3], acc[4])
        out_mark = len(wrt.outputs)
        steps0 = wrt.steps
        max_iter = 0.0
        v = start + off * step
        fault = None
        try:
            for _ in range(n):
                it0 = wrt.clock
                regs[vslot] = v
                sig = body(fr)
                if sig is not None and \
                        not (type(sig) is int and sig == term):
                    raise parallel_jump_fault(line)
                d = wrt.clock - it0
                if d > max_iter:
                    max_iter = d
                v = v + step
        except Exception as e:
            fault = e
        out.append(_ChunkRec(
            ci, wrt.steps - steps0, max_iter, wrt.outputs[out_mark:],
            [regs[r.slot] for r in reds],
            [regs[sl] for sl in unset_slots], fault))
        if fault is not None:
            break                  # this worker stops; others drain
    return out


# --------------------------------------------------------------------------
# The runtime
# --------------------------------------------------------------------------

class ParallelRuntime:
    """Per-interpreter fork-join executor (the pool itself is shared
    process-wide; see ``perf.pool.shared_executor``)."""

    def __init__(self, workers: int, schedule: str | None = None):
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.schedule = resolve_schedule(schedule)
        #: (id(lk), lidx, checker?) -> execution state dict | None
        self._state: dict = {}
        #: unit name -> _UnitSummary | None (missing unit)
        self._summaries: dict = {}
        #: id(program) -> {name: LinkedUnit} full pre-link map
        self._lk_maps: dict = {}

    # -- eligibility -------------------------------------------------------

    def _exec_state(self, rt, plan, lk, lidx):
        """Eligibility verdict + precomputed merge/reduction slots for
        one (loop, link) pair; None means "always simulate"."""
        key = (id(lk), lidx, rt.assertion_checker is not None)
        st = self._state.get(key, _NOT_CACHED)
        if st is not _NOT_CACHED:
            return st
        st = self._compute_state(rt, plan, lk, lidx)
        self._state[key] = st
        return st

    def _compute_state(self, rt, plan, lk, lidx):
        facts = plan.facts
        privates = lk.loop_privates[lidx] if lidx < len(
            lk.loop_privates) else frozenset()
        lookup = summary_lookup(rt.program.units, self._summaries)
        reached = []

        def summary_of(name):
            reached.append(lookup(name))
            return reached[-1]

        if fork_blocker(facts, privates, summary_of,
                        rt.assertion_checker is not None) is not None:
            return None
        reg = lk.code.reg_index
        merge_names = (facts.written | facts.inner_vars) - {facts.var}
        return {
            "unset_slots": tuple(sorted(reg[n] for n in merge_names)),
            "reds": plan.reductions,
            # COMMON arrays a callee might lazily allocate
            "common_arrays": frozenset().union(
                *(sm.common_arrays for sm in reached)),
        }

    def _lk_map(self, rt):
        """Pre-link every unit of the program in the parent so workers
        never touch the (unsynchronized) compile cache."""
        m = self._lk_maps.get(id(rt.program))
        if m is None:
            eng = _engine()
            m = {name: eng.linked_unit(uir)
                 for name, uir in rt.program.units.items()}
            self._lk_maps[id(rt.program)] = m
        return m

    # -- entry point from the compiled PARALLEL DO op ----------------------

    def try_execute(self, fr, plan, lidx, start, step, trips) -> bool:
        """Execute the loop for real; False = caller runs the serial
        simulation (the byte-identical fallback).  A loop of at most
        one trip has nothing to fork and is declined without counting a
        fallback."""
        if trips <= 1:
            return False
        rt = fr.rt
        if type(start) is not int or type(step) is not int:
            perf_counters.bump("par_fallbacks")
            return False
        state = self._exec_state(rt, plan, fr.lk, lidx)
        if state is None:
            perf_counters.bump("par_fallbacks")
            return False
        regs = fr.regs
        eng = _engine()
        unset = eng._UNSET
        red_inits = []
        for red in state["reds"]:
            s0 = regs[red.slot]
            bad = s0 is unset or isinstance(s0, bool) or (
                red.kind in ("sum", "prod") and type(s0) is not int) or (
                red.kind in ("max", "min")
                and not isinstance(s0, (int, float)))
            if bad:
                perf_counters.bump("par_fallbacks")
                return False
            red_inits.append(_red_init(red, s0))
        # COMMON arrays a callee might lazily allocate must already
        # exist (allocation inside a worker would be chunk-local)
        for name in state["common_arrays"]:
            if name not in rt._global_arrays:
                perf_counters.bump("par_fallbacks")
                return False
        self._execute(fr, plan, state, red_inits, start, step, trips)
        return True

    def _execute(self, fr, plan, state, red_inits, start, step, trips):
        chunks = chunk_ranges(trips, self.workers, self.schedule)
        state = dict(state, red_inits=red_inits)
        recs = self._run_threads(fr, plan, state, start, step, chunks)
        self._join(fr, plan, state, start, step, trips, recs)
        perf_counters.bump("par_loops")
        perf_counters.bump("par_chunks", len(chunks))

    # -- thread / inline execution -----------------------------------------

    def _run_threads(self, fr, plan, state, start, step, chunks):
        rt = fr.rt
        lk = fr.lk
        lk_map = self._lk_map(rt)
        regs0 = list(fr.regs)
        arrs = fr.arrs

        def worker(chunk_iter):
            wrt = _WorkerRT(rt.program, rt._globals, rt._global_arrays,
                            rt.max_steps, lk_map)
            recs = _run_chunks(wrt, lk, plan, state, regs0, arrs, start,
                               step, chunk_iter)
            return recs, wrt

        n_workers = min(self.workers, len(chunks))
        if n_workers <= 1:
            recs, wrt = worker(list(chunks))
            self._merge_worker(rt, wrt)
            return recs
        from ..perf.pool import shared_executor
        ex = shared_executor("thread", self.workers)
        if self.schedule == "dynamic":
            claim = _Claim(chunks)
            futures = [ex.submit(worker, claim)
                       for _ in range(n_workers)]
        else:
            futures = [ex.submit(worker, [chunk]) for chunk in chunks]
        recs = []
        for f in futures:
            r, wrt = f.result()
            recs.extend(r)
            self._merge_worker(rt, wrt)
        return recs

    def _merge_worker(self, rt, wrt):
        """Fold a worker's profile accounting into the parent run.

        All quantities are exact (ints and dyadic-rational floats), so
        worker merge order cannot change a single bit.
        """
        for lk2, (cnt, li, lt, lf, ltf) in wrt._prof.items():
            pacc = rt._prof.get(lk2)
            if pacc is None:
                rt._prof[lk2] = (list(cnt), list(li), list(lt),
                                 bytearray(lf), bytearray(ltf))
                continue
            pc, pl, pt, pf, ptf = pacc
            for k, c in enumerate(cnt):
                if c:
                    pc[k] += c
            for k, c in enumerate(li):
                if c:
                    pl[k] += c
            for k, c in enumerate(lt):
                if c:
                    pt[k] += c
            for k in range(len(lf)):
                if lf[k]:
                    pf[k] = 1
                if ltf[k]:
                    ptf[k] = 1
        ut = rt._unit_time
        for name, t in wrt._unit_time.items():
            ut[name] = ut.get(name, 0.0) + t
        uc = rt._unit_calls
        for name, n in wrt._unit_calls.items():
            uc[name] = uc.get(name, 0) + n

    # -- the join ----------------------------------------------------------

    def _join(self, fr, plan, state, start, step, trips, recs):
        rt = fr.rt
        recs = sorted(recs, key=lambda r: r.ci)
        fault = None
        for r in recs:
            if r.fault is not None:
                fault = r.fault
                break
        total_steps = 0
        max_iter = 0.0
        pending: dict = {}
        red_accs = [regs0v for regs0v in
                    (fr.regs[red.slot] for red in state["reds"])]
        eng = _engine()
        unset = eng._UNSET
        for r in recs:
            total_steps += r.steps
            if r.max_iter > max_iter:
                max_iter = r.max_iter
            if r.fault is None:
                rt.outputs.extend(r.outputs)
                for pos, sl in enumerate(state["unset_slots"]):
                    v = r.finals[pos]
                    if v is not unset:
                        pending[sl] = v
                for pos, red in enumerate(state["reds"]):
                    red_accs[pos] = _red_combine(red, red_accs[pos],
                                                 r.partials[pos])
        rt.steps += total_steps
        if fault is not None:
            raise fault
        regs = fr.regs
        for sl, v in pending.items():
            regs[sl] = v
        for pos, red in enumerate(state["reds"]):
            regs[red.slot] = _coerce_store(red_accs[pos], red.type_name)
        regs[plan.vslot] = start + trips * step
        if rt.steps > rt.max_steps:
            raise StepLimitExceeded(
                f"exceeded {rt.max_steps} interpreter steps")
        rt.clock = rt.clock + max_iter + parallel_overhead()


_NOT_CACHED = object()
