"""Compile-to-closures execution engine.

The tree-walking :class:`~repro.interp.machine.Interpreter` re-discovers
the same facts on every statement execution: which dict key a name lives
under, whether a ``NAME(...)`` is an array or a call, what a statement's
virtual-clock cost is, where a GOTO label lands.  This module lowers each
:class:`~repro.fortran.ast.ProgramUnit` once into nested Python closures:

* **slot-resolved frames** -- every scalar gets an index into a flat
  ``regs`` list and every array an index into an ``arrs`` list, resolved
  at compile time (no per-access dict lookups);
* **structured control flow** -- a block compiles to a driver loop over
  statement closures that return *signals* (``None`` = fall through, an
  ``int`` = jump to that label, ``_RETURN`` = RETURN), with the label ->
  index map precomputed per block; ``_Jump``/``_ReturnSignal`` exceptions
  are off the normal path (a cross-unit GOTO still propagates as a
  ``_Jump`` exception, exactly like the tree engine);
* **fused cost/profile accounting** -- static expression costs are
  precomputed, statement counts and loop timers update dense per-unit
  arrays (index -> uid tables map them back to a :class:`Profile`).

Compiled code is cached at two levels so PR 1's scoped invalidation and
PR 2's rollback/undo carry over:

* each :class:`~repro.ir.program.UnitIR` keeps ``(generation,
  LinkedUnit)`` -- an unmodified unit never recompiles across a
  transform -> verify cycle;
* a process-wide LRU keyed by a *structural fingerprint* (uid-free) lets
  rollback/undo -- which restores the AST but bumps the generation --
  re-link the cached :class:`UnitCode` (rebuild the dense-index -> uid
  tables, a linear AST walk) instead of recompiling.

The relative debugger runs a third variant beside the plain and the
vector one: ``sync=True`` wraps every statement op to number sync
points (:func:`_sync_op`), so plain and vector code never pay for it.

The tree engine stays the reference oracle: both engines produce
byte-identical ``snapshot()`` observables and matching profiles (see
``tests/test_compiled_engine.py``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from ..fortran import ast
from ..perf import counters as perf_counters
from ..store import MISS, declare as _declare_ns, get_store
from .machine import (
    COST_BRANCH, COST_CALL, COST_MEMREF, COST_STMT, COST_TERM,
    _TYPE_DTYPE, ArrayStorage, Frame, Interpreter, Profile,
    RuntimeFault, StepLimitExceeded, AssertionViolated, _binop,
    _expr_cost, _intrinsic, _Jump,
    parallel_jump_fault, parallel_overhead, _pyval, _ScalarRef,
    _StopSignal,
)
# compile -> runtime is the safe import direction; runtime reaches back
# into this module lazily (function-local imports) to avoid a cycle
from .runtime import build_plan

__all__ = [
    "CompiledInterpreter", "UnitCode", "LinkedUnit", "linked_unit",
    "compile_cache_info", "clear_code_cache",
    "unit_fingerprint", "program_fingerprint", "SyncRecord",
]


class _Unset:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


#: sentinel stored in a register slot that has no value yet
_UNSET = _Unset()
#: signal returned by a RETURN statement (labels are ints, this is not)
_RETURN = _Unset()
#: distinct missing-marker for dict probes
_MISSING = _Unset()


class _SyncHalt(Exception):
    """Execution reached the requested sync point (not an error)."""


@dataclass(frozen=True)
class SyncRecord:
    """What executed at a sync point."""

    index: int          # 1-based sync counter value
    unit: str
    line: int
    uid: int
    kind: str           # "parallel_do" | "do" | statement class name
    var: str = ""       # loop variable for (parallel) DO records

    def describe(self) -> str:
        what = f"PARALLEL DO {self.var}" if self.kind == "parallel_do" \
            else (f"DO {self.var}" if self.kind == "do" else self.kind)
        return f"{self.unit} line {self.line}: {what}"


class _SlotRef:
    """Slot-based analogue of machine._ScalarRef (copy-in/copy-out)."""

    __slots__ = ("regs", "slot")

    def __init__(self, regs: list, slot: int):
        self.regs = regs
        self.slot = slot

    def get(self):
        v = self.regs[self.slot]
        return 0 if v is _UNSET else v

    def set(self, value) -> None:
        self.regs[self.slot] = value


class _Frame:
    """Per-invocation register file plus the run's profile accumulators."""

    __slots__ = ("rt", "regs", "arrs", "lk", "cnt", "li", "lt", "lf",
                 "ltf")

    def __init__(self, rt, regs, arrs, lk, cnt, li, lt, lf, ltf):
        self.rt = rt
        self.regs = regs
        self.arrs = arrs
        self.lk = lk
        self.cnt = cnt
        self.li = li
        self.lt = lt
        self.lf = lf
        self.ltf = ltf


class UnitCode:
    """Compiled (uid-free) code for one program unit.

    ``invoke(rt, lk, actuals)`` is the whole unit as a closure; the
    dense statement/loop index spaces are mapped back to uids by the
    :class:`LinkedUnit` produced for a concrete AST instance.
    """

    __slots__ = ("name", "kind", "n_params", "invoke", "n_stmts",
                 "n_loops", "reg_index", "arr_index", "n_regs", "n_arrs",
                 "vec_info")

    def __init__(self, name, kind, n_params, invoke, n_stmts, n_loops,
                 reg_index, arr_index, vec_info=None):
        self.name = name
        self.kind = kind
        self.n_params = n_params
        self.invoke = invoke
        self.n_stmts = n_stmts
        self.n_loops = n_loops
        self.reg_index = reg_index
        self.arr_index = arr_index
        self.n_regs = len(reg_index)
        self.n_arrs = len(arr_index)
        #: dense loop index -> vectorize.LoopDecision (vector tier only)
        self.vec_info = vec_info if vec_info is not None else {}


class LinkedUnit:
    """A :class:`UnitCode` bound to one concrete AST instance: the
    dense-index -> uid tables plus the live symbol table."""

    __slots__ = ("code", "symtab", "stmt_uids", "loop_uids",
                 "loop_privates")

    def __init__(self, code: UnitCode, symtab, stmt_uids, loop_uids,
                 loop_privates=()):
        self.code = code
        self.symtab = symtab
        self.stmt_uids = stmt_uids
        self.loop_uids = loop_uids
        #: per-loop privatization facts (frozenset of names, dense loop
        #: order); carried here, not in UnitCode, because ``private_vars``
        #: is outside the structural fingerprint (_FP_SKIP)
        self.loop_privates = loop_privates


# --------------------------------------------------------------------------
# Structural fingerprints + the two-level compile cache
# --------------------------------------------------------------------------

#: statement fields that do not affect compiled execution
_FP_SKIP = frozenset({"uid", "private_vars"})


def _fp_val(v):
    if isinstance(v, ast.Stmt):
        return _fp_stmt(v)
    if isinstance(v, (list, tuple)):
        return tuple(_fp_val(x) for x in v)
    if isinstance(v, set):
        return frozenset(v)
    return v  # Expr nodes are frozen/hashable; rest are primitives


def _fp_stmt(s: ast.Stmt) -> tuple:
    out = [type(s).__name__]
    for f in dc_fields(s):
        if f.name in _FP_SKIP:
            continue
        out.append(_fp_val(getattr(s, f.name)))
    return tuple(out)


def _fp_symtab(st) -> tuple:
    return (st.unit_name, st.implicit_none,
            tuple(sorted(st.implicit_map.items())),
            tuple((s.name, s.type_name, s.dims, s.storage,
                   s.common_block, s.param_value, s.declared, s.saved,
                   s.external) for s in st.symbols.values()))


def fingerprint_unit(unit: ast.ProgramUnit, st) -> tuple:
    """Uid-free structural identity of a unit (AST + symbol state).

    Two units with equal fingerprints execute identically, so they can
    share one :class:`UnitCode`; ``line`` numbers are included because
    fault messages bake them in.
    """
    return (unit.kind, unit.name, unit.params, unit.result_type,
            tuple(_fp_stmt(s) for s in unit.body), _fp_symtab(st))


#: compiled units live in the artifact store's memory tier only --
#: UnitCode closes over python functions, which cannot round-trip
#: through the disk tier's pickles
_COMPILE_NS = "compile"
_declare_ns(_COMPILE_NS, mem_entries=256, disk=False)

_STATS = {"hits": 0, "relinks": 0, "misses": 0}


def unit_fingerprint(uir) -> str:
    """Uid-free fingerprint digest of a UnitIR's current state.

    A sha256 over the structural tuple: digests hash in O(1) as cache
    keys (the raw tuples re-walk the whole unit on every dict probe)
    and are stable across processes, which the disk tier needs.

    Memoized per ``(generation, symbol count)``.  Symtabs can be
    enriched *without* a generation bump (interprocedural COMMON
    propagation), so a generation-only memo would serve stale
    fingerprints -- but that enrichment strictly *adds* symbols, and
    nothing in the engine edits a Symbol in place or removes one, so
    the pair is a sound validity key.
    """
    memo_key = (uir.generation, len(uir.symtab.symbols))
    memo = uir._fp_memo
    if memo is not None and memo[0] == memo_key:
        return memo[1]
    raw = repr(fingerprint_unit(uir.unit, uir.symtab))
    fp = hashlib.sha256(
        raw.encode("utf-8", "backslashreplace")).hexdigest()
    uir._fp_memo = (memo_key, fp)
    return fp


def program_fingerprint(program) -> tuple:
    """Uid-free structural identity of a whole analyzed program: the
    sorted per-unit fingerprints.  Two sessions editing structurally
    identical programs share one interprocedural-summary artifact."""
    return tuple(unit_fingerprint(u)
                 for u in sorted(program.units.values(),
                                 key=lambda u: u.unit.name))


def compile_cache_info() -> dict:
    """Compile-cache occupancy and hit/miss counters (cf.
    ``dependence.tests.pair_cache_info``)."""
    info = get_store().info(_COMPILE_NS)
    total = _STATS["hits"] + _STATS["relinks"] + _STATS["misses"]
    return {"size": info["size"], "limit": info["limit"],
            "hits": _STATS["hits"], "relinks": _STATS["relinks"],
            "misses": _STATS["misses"],
            "hit_rate": (_STATS["hits"] + _STATS["relinks"]) / total
            if total else 0.0}


def clear_code_cache() -> None:
    get_store().clear(_COMPILE_NS)
    _STATS["hits"] = _STATS["relinks"] = _STATS["misses"] = 0


def linked_unit(uir, vector: bool = False,
                sync: bool = False) -> LinkedUnit:
    """Compiled code for a UnitIR, through the two cache levels.

    Fast path: the UnitIR's own ``(generation, LinkedUnit)`` pair.  On a
    generation bump (transform, rollback, undo) the structural
    fingerprint is recomputed; an LRU hit re-links the cached code (uid
    tables only) instead of recompiling.

    ``vector=True`` compiles the vector-lowered variant of the unit; it
    shares the same two cache levels (a separate per-UnitIR slot and a
    tagged LRU key), so transform -> verify re-lowers only mutated units
    in that tier too.  ``sync=True`` (never vectorized) is the relative
    debugger's variant, which numbers sync points (:func:`_sync_op`);
    it is cached the same way under its own slot and key.
    """
    slot = "_vcompiled" if vector else ("_scompiled" if sync
                                        else "_compiled")
    cached = getattr(uir, slot)
    if cached is not None and cached[0] == uir.generation:
        _STATS["hits"] += 1
        perf_counters.bump("compile_hits")
        return cached[1]
    fp = unit_fingerprint(uir)
    if vector:
        fp = ("vector", fp)
    elif sync:
        fp = ("sync", fp)
    store = get_store()
    code = store.get(_COMPILE_NS, fp)
    if code is not MISS:
        _STATS["relinks"] += 1
        perf_counters.bump("compile_relinks")
    else:
        code = _compile_unit(uir.unit, uir.symtab, vector=vector,
                             sync=sync)
        store.put(_COMPILE_NS, fp, code, disk=False)
        _STATS["misses"] += 1
        perf_counters.bump("compile_misses")
    walk = list(ast.walk_stmts(uir.unit.body))
    loops = [s for s, _ in walk if isinstance(s, ast.DoLoop)]
    lk = LinkedUnit(code, uir.symtab,
                    [s.uid for s, _ in walk],
                    [s.uid for s in loops],
                    [frozenset(s.private_vars) for s in loops])
    setattr(uir, slot, (uir.generation, lk))
    return lk


# --------------------------------------------------------------------------
# Compile context
# --------------------------------------------------------------------------

class _Cx:
    """Per-unit compile state: slot maps and dense index spaces."""

    def __init__(self, unit: ast.ProgramUnit, st, vector: bool = False,
                 sync: bool = False):
        self.unit = unit
        self.st = st
        self.uname = unit.name
        #: vector tier: _comp_do attempts numpy lowering per loop
        self.vector = vector
        #: relative-debugging variant: every op numbers sync points
        self.sync = sync
        #: dense loop index -> vectorize.LoopDecision, filled by _comp_do
        self.vec_info: dict[int, object] = {}
        self.reg_index: dict[str, int] = {}
        self.arr_index: dict[str, int] = {}
        # stable slot order: symbol-table insertion order first
        for sym in st.symbols.values():
            self.slot(sym.name)
            if sym.is_array:
                self.arr_slot(sym.name)
        #: (slot, name) of every COMMON scalar: the flush/re-read pairs
        self.common = tuple((self.slot(sym.name), sym.name)
                            for sym in st.symbols.values()
                            if sym.storage == "common" and not sym.is_array)
        # dense statement/loop index spaces (compile order == link order
        # == ast.walk_stmts pre-order)
        walk = [s for s, _ in ast.walk_stmts(unit.body)]
        self.idx_of = {id(s): i for i, s in enumerate(walk)}
        loops = [s for s in walk if isinstance(s, ast.DoLoop)]
        self.loop_idx_of = {id(s): i for i, s in enumerate(loops)}
        self.n_stmts = len(walk)
        self.n_loops = len(loops)

    def slot(self, name: str) -> int:
        key = name.upper()
        i = self.reg_index.get(key)
        if i is None:
            i = self.reg_index[key] = len(self.reg_index)
        return i

    def arr_slot(self, name: str) -> int:
        """Array-slot index, or -1 when the name is not a declared
        array (the dynamic frame can then never hold it as an array)."""
        key = name.upper()
        j = self.arr_index.get(key)
        if j is not None:
            return j
        sym = self.st.get(key)
        if sym is not None and sym.is_array:
            j = self.arr_index[key] = len(self.arr_index)
            return j
        return -1


def _tick(rt, cost):
    """Fused virtual-clock tick (inlined at most sites; helper for the
    cold ones)."""
    rt.clock += cost
    steps = rt.steps + 1
    rt.steps = steps
    if steps > rt.max_steps:
        raise StepLimitExceeded(
            f"exceeded {rt.max_steps} interpreter steps")


# --------------------------------------------------------------------------
# Expression compiler: ast.Expr -> closure(fr) -> value
# --------------------------------------------------------------------------

def _const_of(e):
    """Python value of a literal expression, else None-marker."""
    if isinstance(e, ast.IntConst):
        return e.value
    if isinstance(e, ast.RealConst):
        return e.value
    if isinstance(e, ast.LogicalConst):
        return e.value
    return _MISSING


def _comp_expr(cx: _Cx, e: ast.Expr):
    t = type(e)
    if t is ast.IntConst or t is ast.LogicalConst or t is ast.StringConst:
        v = e.value
        return lambda fr: v
    if t is ast.RealConst:
        v = e.value  # float, precomputed once
        return lambda fr: v
    if t is ast.VarRef:
        return _comp_varref(cx, e.name)
    if t is ast.ArrayRef or t is ast.NameRef:
        return _comp_arrayref(cx, e.name, tuple(e.children()))
    if t is ast.FuncRef:
        if e.intrinsic:
            return _comp_intrinsic(cx, e.name, e.args)
        return _comp_user_call(cx, e.name, e.args)
    if t is ast.UnOp:
        vf = _comp_expr(cx, e.operand)
        if e.op == "-":
            return lambda fr: -vf(fr)
        if e.op == "+":
            return vf
        return lambda fr: not bool(vf(fr))
    if t is ast.BinOp:
        return _comp_binop(cx, e)
    raise RuntimeFault(f"cannot compile {t.__name__}")


def _comp_varref(cx: _Cx, name: str):
    uname = cx.uname
    key = name.upper()
    i = cx.slot(key)
    j = cx.arr_slot(key)
    if j >= 0:
        def f(fr):
            v = fr.regs[i]
            if v is not _UNSET:
                return v
            a = fr.arrs[j]
            if a is not None:
                return a
            raise RuntimeFault(f"{uname}: {key} has no value")
        return f

    def f(fr):
        v = fr.regs[i]
        if v is not _UNSET:
            return v
        raise RuntimeFault(f"{uname}: {key} has no value")
    return f


def _comp_subscript(cx: _Cx, e: ast.Expr):
    """Subscript closure: int(value), constant-folded for literals."""
    c = _const_of(e)
    if c is not _MISSING:
        k = int(c)
        return lambda fr: k
    vf = _comp_expr(cx, e)
    return lambda fr: int(vf(fr))


def _comp_subscript_raw(cx: _Cx, e: ast.Expr):
    """Subscript closure *without* the int() wrapper; the generated
    fast paths normalize inline (one call per subscript, not two)."""
    c = _const_of(e)
    if c is not _MISSING:
        k = int(c)
        return lambda fr: k
    return _comp_expr(cx, e)


def _codegen_fast(rank: int):
    """Generate rank-specialized array load/store closure factories.

    The generated ``f(fr)`` avoids tuple construction and
    ``ArrayStorage.offset`` on the in-bounds path: subscripts evaluate
    into locals, the flat F-order offset is a literal dot product, and
    out-of-bounds (or non-contiguous storage) falls back to
    ``a.get``/``a.set`` for the exact tree-engine fault."""
    ss = ", ".join(f"s{k}" for k in range(rank))
    fetch = "".join(
        f"        v{k} = s{k}(fr)\n"
        f"        if type(v{k}) is not int:\n"
        f"            v{k} = int(v{k})\n" for k in range(rank))
    icalc = "".join(f"            i{k} = v{k} - lo[{k}]\n"
                    for k in range(rank))
    checks = " and ".join(f"0 <= i{k} < sh[{k}]" for k in range(rank))
    offs = " + ".join(["i0"] + [f"i{k} * st[{k}]"
                                for k in range(1, rank)])
    stbind = "st = a.strides\n                " if rank > 1 else ""
    tup = ", ".join(f"v{k}" for k in range(rank))
    if rank == 1:
        tup += ","
    src = f'''
def _mk_load(j, callfb, {ss}):
    def f(fr):
        a = fr.arrs[j]
        if a is None:
            return callfb(fr)
{fetch}        fl = a.flat
        if fl is not None and len(a.shape) == {rank}:
            lo = a.lowers
            sh = a.shape
{icalc}            if {checks}:
                {stbind}return fl.item({offs})
        return a.get(({tup}))
    return f


def _mk_store(j, fault, {ss}):
    def f(fr, value):
        a = fr.arrs[j]
        if a is None:
            raise RuntimeFault(fault)
{fetch}        fl = a.flat
        if fl is not None and len(a.shape) == {rank}:
            lo = a.lowers
            sh = a.shape
{icalc}            if {checks}:
                {stbind}fl[{offs}] = value
                return
        a.set(({tup}), value)
    return f
'''
    ns = {"RuntimeFault": RuntimeFault}
    exec(compile(src, f"<repro fastpath rank {rank}>", "exec"), ns)
    return ns["_mk_load"], ns["_mk_store"]


#: rank -> (load factory, store factory); rank >= 5 uses the generic path
_FAST = {r: _codegen_fast(r) for r in (1, 2, 3, 4)}


def _comp_arrayref(cx: _Cx, name: str, subs: tuple[ast.Expr, ...]):
    """Array element load; falls back to the function-call path when the
    name is not bound as an array at run time (tree-engine parity)."""
    key = name.upper()
    j = cx.arr_slot(key)
    callfb = _comp_user_call(cx, key, subs)
    if j < 0:
        return callfb
    mk = _FAST.get(len(subs))
    if mk is not None:
        return mk[0](j, callfb,
                     *[_comp_subscript_raw(cx, s) for s in subs])
    sfns = [_comp_subscript(cx, s) for s in subs]

    def f(fr):
        a = fr.arrs[j]
        if a is None:
            return callfb(fr)
        return a.get(tuple(sf(fr) for sf in sfns))
    return f


def _comp_binop(cx: _Cx, e: ast.BinOp):
    op = e.op
    lf = _comp_expr(cx, e.left)
    rf = _comp_expr(cx, e.right)
    lc = _const_of(e.left)
    rc = _const_of(e.right)
    if op == "+":
        if rc is not _MISSING:
            return lambda fr: lf(fr) + rc
        if lc is not _MISSING:
            return lambda fr: lc + rf(fr)
        return lambda fr: lf(fr) + rf(fr)
    if op == "-":
        if rc is not _MISSING:
            return lambda fr: lf(fr) - rc
        if lc is not _MISSING:
            return lambda fr: lc - rf(fr)
        return lambda fr: lf(fr) - rf(fr)
    if op == "*":
        if rc is not _MISSING:
            return lambda fr: lf(fr) * rc
        if lc is not _MISSING:
            return lambda fr: lc * rf(fr)
        return lambda fr: lf(fr) * rf(fr)
    if op == "/":
        # integer division goes through machine._binop for the exact
        # Fraction-based truncation semantics
        return lambda fr: _binop("/", lf(fr), rf(fr))
    if op == "**":
        return lambda fr: lf(fr) ** rf(fr)
    if op == ".EQ.":
        return lambda fr: lf(fr) == rf(fr)
    if op == ".NE.":
        return lambda fr: lf(fr) != rf(fr)
    if op == ".LT.":
        if rc is not _MISSING:
            return lambda fr: lf(fr) < rc
        return lambda fr: lf(fr) < rf(fr)
    if op == ".LE.":
        if rc is not _MISSING:
            return lambda fr: lf(fr) <= rc
        return lambda fr: lf(fr) <= rf(fr)
    if op == ".GT.":
        if rc is not _MISSING:
            return lambda fr: lf(fr) > rc
        return lambda fr: lf(fr) > rf(fr)
    if op == ".GE.":
        if rc is not _MISSING:
            return lambda fr: lf(fr) >= rc
        return lambda fr: lf(fr) >= rf(fr)
    if op == ".AND.":
        # eager like the tree engine: both operands always evaluate
        def f_and(fr):
            a = lf(fr)
            b = rf(fr)
            return bool(a) and bool(b)
        return f_and
    if op == ".OR.":
        def f_or(fr):
            a = lf(fr)
            b = rf(fr)
            return bool(a) or bool(b)
        return f_or
    if op == ".EQV.":
        return lambda fr: bool(lf(fr)) == bool(rf(fr))
    if op == ".NEQV.":
        return lambda fr: bool(lf(fr)) != bool(rf(fr))
    return lambda fr: _binop(op, lf(fr), rf(fr))


def _comp_intrinsic(cx: _Cx, name: str, args: tuple[ast.Expr, ...]):
    u = name.upper()
    fns = [_comp_expr(cx, a) for a in args]
    n = len(fns)
    if n == 1:
        a0 = fns[0]
        if u in ("ABS", "IABS", "DABS"):
            return lambda fr: abs(a0(fr))
        if u in ("SQRT", "DSQRT"):
            return lambda fr: math.sqrt(a0(fr))
        if u in ("EXP", "DEXP"):
            return lambda fr: math.exp(a0(fr))
        if u in ("LOG", "ALOG", "DLOG"):
            return lambda fr: math.log(a0(fr))
        if u in ("SIN", "DSIN"):
            return lambda fr: math.sin(a0(fr))
        if u in ("COS", "DCOS"):
            return lambda fr: math.cos(a0(fr))
        if u in ("INT", "IFIX", "IDINT"):
            return lambda fr: int(a0(fr))
        if u in ("NINT",):
            return lambda fr: int(round(a0(fr)))
        if u in ("REAL", "FLOAT", "SNGL", "DBLE"):
            return lambda fr: float(a0(fr))
    if n == 2:
        a0, a1 = fns
        if u in ("MAX", "AMAX1", "MAX0", "DMAX1"):
            return lambda fr: max(a0(fr), a1(fr))
        if u in ("MIN", "AMIN1", "MIN0", "DMIN1"):
            return lambda fr: min(a0(fr), a1(fr))
        if u in ("MOD", "AMOD", "DMOD"):
            def f_mod(fr):
                a = a0(fr)
                b = a1(fr)
                return math.fmod(a, b) if isinstance(a, float) \
                    else int(math.fmod(a, b))
            return f_mod
        if u in ("SIGN", "ISIGN", "DSIGN"):
            def f_sign(fr):
                a = a0(fr)
                return abs(a) if a1(fr) >= 0 else -abs(a)
            return f_sign
        if u in ("DIM", "IDIM"):
            return lambda fr: max(a0(fr) - a1(fr), 0)
    if u in ("MAX", "AMAX1", "MAX0", "DMAX1"):
        return lambda fr: max([g(fr) for g in fns])
    if u in ("MIN", "AMIN1", "MIN0", "DMIN1"):
        return lambda fr: min([g(fr) for g in fns])
    return lambda fr: _intrinsic(u, [g(fr) for g in fns])


def _comp_actual(cx: _Cx, a: ast.Expr):
    """Compiled Interpreter._make_actual: argument-passing convention."""
    if isinstance(a, ast.VarRef):
        key = a.name.upper()
        i = cx.slot(key)
        j = cx.arr_slot(key)
        if j >= 0:
            def mk(fr):
                arr = fr.arrs[j]
                if arr is not None:
                    return arr
                return _SlotRef(fr.regs, i)
            return mk
        return lambda fr: _SlotRef(fr.regs, i)
    if isinstance(a, ast.ArrayRef):
        j = cx.arr_slot(a.name)
        if j >= 0:
            sfns = [_comp_subscript(cx, s) for s in a.subscripts]
            evalfb = _comp_expr(cx, a)

            def mk(fr):
                arr = fr.arrs[j]
                if arr is None:
                    return evalfb(fr)
                subs = tuple(sf(fr) for sf in sfns)
                flat = arr.flat if arr.flat is not None \
                    else arr.data.reshape(-1, order="F")
                return ArrayStorage(arr.name, flat[arr.offset(subs):],
                                    (1,))
            return mk
    return _comp_expr(cx, a)


def _comp_user_call(cx: _Cx, name: str, args: tuple[ast.Expr, ...]):
    """User FUNCTION reference (machine._call_function: tick, actuals,
    COMMON flush before the call and re-read after it)."""
    callee = name.upper()
    uname = cx.uname
    makers = [_comp_actual(cx, a) for a in args]
    flush = _comp_flush(cx)
    reread = _comp_reread(cx)

    def f(fr):
        rt = fr.rt
        lk = rt._linked(callee)
        if lk is None:
            raise RuntimeFault(
                f"{uname}: no such function or array {callee}")
        rt.clock += COST_CALL
        steps = rt.steps + 1
        rt.steps = steps
        if steps > rt.max_steps:
            raise StepLimitExceeded(
                f"exceeded {rt.max_steps} interpreter steps")
        actuals = [m(fr) for m in makers]
        flush(fr)
        result = lk.code.invoke(rt, lk, actuals)
        reread(fr)
        return result
    return f


def _comp_flush(cx: _Cx):
    """COMMON scalar write-back (machine._flush_common, slot form)."""
    pairs = cx.common
    if not pairs:
        return lambda fr: None

    def flush(fr):
        g = fr.rt._globals
        regs = fr.regs
        for slot, gname in pairs:
            v = regs[slot]
            if v is not _UNSET:
                g[gname] = v
    return flush


def _comp_reread(cx: _Cx):
    """COMMON scalar re-read after a call (machine._reread_common)."""
    pairs = cx.common
    if not pairs:
        return lambda fr: None

    def reread(fr):
        g = fr.rt._globals
        regs = fr.regs
        for slot, gname in pairs:
            v = g.get(gname, _MISSING)
            if v is not _MISSING:
                regs[slot] = v
    return reread


# --------------------------------------------------------------------------
# Stores (compiled Interpreter._store)
# --------------------------------------------------------------------------

def _comp_store(cx: _Cx, target: ast.Expr):
    """Closure ``set(fr, value)`` with the declared-type coercion and
    COMMON mirroring of machine._store."""
    if isinstance(target, ast.VarRef):
        key = target.name.upper()
        slot = cx.slot(key)
        sym = cx.st.get(key)
        tname = sym.type_name if sym else None
        common = sym is not None and sym.storage == "common"
        if tname == "INTEGER":
            if common:
                def set_(fr, v):
                    if isinstance(v, np.generic):
                        v = v.item()
                    if isinstance(v, float):
                        v = int(v)
                    fr.regs[slot] = v
                    fr.rt._globals[key] = v
            else:
                def set_(fr, v):
                    if isinstance(v, np.generic):
                        v = v.item()
                    if isinstance(v, float):
                        v = int(v)
                    fr.regs[slot] = v
        elif tname in ("REAL", "DOUBLEPRECISION"):
            if common:
                def set_(fr, v):
                    if isinstance(v, np.generic):
                        v = v.item()
                    if isinstance(v, int):
                        v = float(v)
                    fr.regs[slot] = v
                    fr.rt._globals[key] = v
            else:
                def set_(fr, v):
                    if isinstance(v, np.generic):
                        v = v.item()
                    if isinstance(v, int):
                        v = float(v)
                    fr.regs[slot] = v
        elif tname == "LOGICAL":
            if common:
                def set_(fr, v):
                    v = bool(_pyval(v))
                    fr.regs[slot] = v
                    fr.rt._globals[key] = v
            else:
                def set_(fr, v):
                    fr.regs[slot] = bool(_pyval(v))
        else:
            if common:
                def set_(fr, v):
                    v = _pyval(v)
                    fr.regs[slot] = v
                    fr.rt._globals[key] = v
            else:
                def set_(fr, v):
                    fr.regs[slot] = _pyval(v)
        return set_
    if isinstance(target, (ast.ArrayRef, ast.NameRef)):
        key = target.name.upper()
        uname = cx.uname
        j = cx.arr_slot(key)
        fault = f"{uname}: assignment to unknown array {key}"
        if j < 0:
            def set_(fr, v):
                raise RuntimeFault(fault)
            return set_
        children = tuple(target.children())
        mk = _FAST.get(len(children))
        if mk is not None:
            return mk[1](j, fault,
                         *[_comp_subscript_raw(cx, s) for s in children])
        sfns = [_comp_subscript(cx, s) for s in children]

        def set_(fr, v):
            a = fr.arrs[j]
            if a is None:
                raise RuntimeFault(fault)
            a.set(tuple(sf(fr) for sf in sfns), v)
        return set_
    raise RuntimeFault(f"bad assignment target {target}")


# --------------------------------------------------------------------------
# Statement compiler: ast.Stmt -> op(fr) -> signal
# --------------------------------------------------------------------------

#: statements that execute as pure declarations (count only, no tick)
_DECL_TYPES = (ast.TypeDecl, ast.DimensionStmt, ast.CommonStmt,
               ast.ParameterStmt, ast.DataStmt, ast.SaveStmt,
               ast.ExternalStmt, ast.IntrinsicStmt, ast.ImplicitStmt,
               ast.FormatStmt, ast.EquivalenceStmt)

_STRAIGHT_TYPES = (ast.Assign, ast.Continue, ast.WriteStmt,
                   ast.ReadStmt) + _DECL_TYPES


def _no_signal(s: ast.Stmt) -> bool:
    """True when the statement can neither jump, return, stop, nor call
    user code (whose cross-unit GOTOs arrive as _Jump exceptions)."""
    if not isinstance(s, _STRAIGHT_TYPES):
        return False
    exprs = list(s.exprs())
    if isinstance(s, ast.Assign):
        exprs.append(s.target)
    elif isinstance(s, ast.ReadStmt):
        exprs.extend(s.items)
    for e in exprs:
        for node in ast.walk_expr(e):
            if isinstance(node, ast.NameRef):
                return False
            if isinstance(node, ast.FuncRef) and not node.intrinsic:
                return False
    return True


def _comp_stmt(cx: _Cx, s: ast.Stmt):
    op = _comp_op(cx, s)
    return _sync_op(cx, s, op) if cx.sync else op


def _sync_op(cx: _Cx, s: ast.Stmt, op):
    """``op`` numbering sync points, for the relative debugger.

    A sync point is a statement that completes -- its op returns None
    and raises nothing -- while no PARALLEL DO is active.  So a logical
    IF's inner statement, a declaration and every statement of a called
    unit count, while GOTO, RETURN, STOP and a cross-unit jump do not.
    A PARALLEL DO raises the interpreter's parallel depth around its op
    and counts once, at its join: inside it, statement order is what the
    serial and the parallel run disagree about.  ``sync_count`` reaching
    ``_sync_next`` hands over to the interpreter's ``_sync_event``.
    """
    idx = cx.idx_of[id(s)]
    common = cx.common
    if isinstance(s, ast.DoLoop):
        at = (cx.uname, s.line, "parallel_do" if s.parallel else "do",
              s.var.upper())
    else:
        at = (cx.uname, s.line, type(s).__name__, "")

    if isinstance(s, ast.DoLoop) and s.parallel:
        loop = op

        def op(fr):
            rt = fr.rt
            rt._par_depth += 1
            try:
                return loop(fr)
            finally:
                rt._par_depth -= 1

    def sop(fr):
        sig = op(fr)
        if sig is None:
            rt = fr.rt
            if not rt._par_depth:
                k = rt.sync_count = rt.sync_count + 1
                if k >= rt._sync_next:
                    rt._sync_event(fr, idx, at, common)
        return sig
    return sop


def _comp_op(cx: _Cx, s: ast.Stmt):
    idx = cx.idx_of[id(s)]
    if isinstance(s, _DECL_TYPES) or (isinstance(s, ast.OpaqueStmt)
                                      and s.decl):
        def op(fr):
            fr.cnt[idx] += 1
            return None
        return op
    if isinstance(s, ast.Assign):
        cost = _expr_cost(s.value) + COST_MEMREF
        vf = _comp_expr(cx, s.value)
        set_ = _comp_store(cx, s.target)

        def op(fr):
            fr.cnt[idx] += 1
            rt = fr.rt
            rt.clock += cost
            steps = rt.steps + 1
            rt.steps = steps
            if steps > rt.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {rt.max_steps} interpreter steps")
            set_(fr, vf(fr))
            return None
        return op
    if isinstance(s, ast.DoLoop):
        return _comp_do(cx, s, idx)
    if isinstance(s, ast.IfBlock):
        cost = COST_BRANCH + _expr_cost(s.cond)
        cf = _comp_expr(cx, s.cond)
        then_b = _comp_block(cx, s.then_body)
        arms = tuple((_comp_expr(cx, c), _comp_block(cx, b))
                     for c, b in s.elifs)
        else_b = _comp_block(cx, s.else_body) if s.else_body else None

        def op(fr):
            fr.cnt[idx] += 1
            rt = fr.rt
            rt.clock += cost
            steps = rt.steps + 1
            rt.steps = steps
            if steps > rt.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {rt.max_steps} interpreter steps")
            if cf(fr):
                return then_b(fr)
            for acf, ab in arms:
                if acf(fr):
                    return ab(fr)
            if else_b is not None:
                return else_b(fr)
            return None
        return op
    if isinstance(s, ast.LogicalIf):
        cost = COST_BRANCH + _expr_cost(s.cond)
        cf = _comp_expr(cx, s.cond)
        inner = _comp_stmt(cx, s.stmt)

        def op(fr):
            fr.cnt[idx] += 1
            rt = fr.rt
            rt.clock += cost
            steps = rt.steps + 1
            rt.steps = steps
            if steps > rt.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {rt.max_steps} interpreter steps")
            if cf(fr):
                return inner(fr)
            return None
        return op
    if isinstance(s, ast.ArithIf):
        cost = COST_BRANCH + _expr_cost(s.expr)
        ef = _comp_expr(cx, s.expr)
        neg, zero, pos = s.neg_label, s.zero_label, s.pos_label

        def op(fr):
            fr.cnt[idx] += 1
            _tick(fr.rt, cost)
            v = ef(fr)
            if v < 0:
                return neg
            if v == 0:
                return zero
            return pos
        return op
    if isinstance(s, ast.Goto):
        target = s.target

        def op(fr):
            fr.cnt[idx] += 1
            _tick(fr.rt, COST_BRANCH)
            return target
        return op
    if isinstance(s, ast.ComputedGoto):
        targets = tuple(s.targets)
        ntargets = len(targets)
        ef = _comp_expr(cx, s.expr)

        def op(fr):
            fr.cnt[idx] += 1
            _tick(fr.rt, COST_BRANCH)
            v = int(ef(fr))
            if 1 <= v <= ntargets:
                return targets[v - 1]
            return None
        return op
    if isinstance(s, ast.Continue):
        def op(fr):
            fr.cnt[idx] += 1
            rt = fr.rt
            rt.clock += COST_TERM
            steps = rt.steps + 1
            rt.steps = steps
            if steps > rt.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {rt.max_steps} interpreter steps")
            return None
        return op
    if isinstance(s, ast.CallStmt) and s.alt_labels:
        line = s.line

        def op(fr):
            fr.cnt[idx] += 1
            raise RuntimeFault(
                f"line {line}: alternate returns are not lowered")
        return op
    if isinstance(s, ast.Return) and s.alt is not None:
        line = s.line

        def op(fr):
            fr.cnt[idx] += 1
            raise RuntimeFault(
                f"line {line}: alternate returns are not lowered")
        return op
    if isinstance(s, ast.CallStmt):
        callee = s.name.upper()
        makers = [_comp_actual(cx, a) for a in s.args]
        flush = _comp_flush(cx)
        reread = _comp_reread(cx)

        def op(fr):
            fr.cnt[idx] += 1
            rt = fr.rt
            _tick(rt, COST_CALL)
            lk = rt._linked(callee)
            if lk is None:
                raise RuntimeFault(f"no source for procedure {callee}")
            actuals = [m(fr) for m in makers]
            flush(fr)
            lk.code.invoke(rt, lk, actuals)
            reread(fr)
            return None
        return op
    if isinstance(s, ast.Return):
        flush = _comp_flush(cx)

        def op(fr):
            fr.cnt[idx] += 1
            flush(fr)
            return _RETURN
        return op
    if isinstance(s, ast.Stop):
        flush = _comp_flush(cx)
        msg = s.message

        def op(fr):
            fr.cnt[idx] += 1
            flush(fr)
            raise _StopSignal(msg)
        return op
    if isinstance(s, ast.ReadStmt):
        setters = [_comp_store(cx, it) for it in s.items]

        def op(fr):
            fr.cnt[idx] += 1
            rt = fr.rt
            _tick(rt, COST_STMT)
            for set_ in setters:
                pos = rt._input_pos
                if pos >= len(rt.inputs):
                    raise RuntimeFault("READ past end of input")
                set_(fr, rt.inputs[pos])
                rt._input_pos = pos + 1
            return None
        return op
    if isinstance(s, ast.WriteStmt):
        fns = [_comp_expr(cx, it) for it in s.items]

        def op(fr):
            fr.cnt[idx] += 1
            rt = fr.rt
            _tick(rt, COST_STMT)
            out = rt.outputs
            for f in fns:
                out.append(_pyval(f(fr)))
            return None
        return op
    if isinstance(s, ast.AssertStmt):
        text = s.text
        line = s.line

        def op(fr):
            fr.cnt[idx] += 1
            rt = fr.rt
            _tick(rt, COST_STMT)
            if rt.check_assertions and rt.assertion_checker is not None:
                if not rt._check_assertion(text, fr):
                    raise AssertionViolated(
                        f"line {line}: assertion failed: {text}")
            return None
        return op
    uname = type(s).__name__

    def op(fr):
        fr.cnt[idx] += 1
        raise RuntimeFault(f"cannot execute {uname}")
    return op


def _comp_do(cx: _Cx, s: ast.DoLoop, idx: int):
    lidx = cx.loop_idx_of[id(s)]
    vslot = cx.slot(s.var)
    fs = _comp_expr(cx, s.start)
    fe = _comp_expr(cx, s.end)
    fstep = _comp_expr(cx, s.step) if s.step is not None else None
    body = _comp_block(cx, s.body)
    term = s.term_label
    line = s.line
    floor = math.floor

    if not s.parallel:
        def op(fr):
            fr.cnt[idx] += 1
            rt = fr.rt
            start = fs(fr)
            end = fe(fr)
            step = fstep(fr) if fstep is not None else 1
            if step == 0:
                raise RuntimeFault(f"line {line}: zero DO step")
            trips = int(floor((end - start + step) / step))
            if trips < 0:
                trips = 0
            fr.li[lidx] += trips
            fr.lf[lidx] = 1
            t0 = rt.clock
            regs = fr.regs
            v = start
            for _ in range(trips):
                regs[vslot] = v
                sig = body(fr)
                if sig is not None and \
                        not (type(sig) is int and sig == term):
                    # jump past the loop (or RETURN): the tree engine
                    # propagates before recording loop_time
                    return sig
                v = v + step
            regs[vslot] = v
            fr.lt[lidx] += rt.clock - t0
            fr.ltf[lidx] = 1
            return None
        if cx.vector:
            from .vectorize import maybe_vectorize
            return maybe_vectorize(cx, s, idx, lidx, op)
        return op

    plan = build_plan(cx, s, body, vslot, term)

    def op(fr):
        fr.cnt[idx] += 1
        rt = fr.rt
        start = fs(fr)
        end = fe(fr)
        step = fstep(fr) if fstep is not None else 1
        if step == 0:
            raise RuntimeFault(f"line {line}: zero DO step")
        trips = int(floor((end - start + step) / step))
        if trips < 0:
            trips = 0
        fr.li[lidx] += trips
        fr.lf[lidx] = 1
        t0 = rt.clock
        runner = rt._runtime
        if runner is not None and \
                runner.try_execute(fr, plan, lidx, start, step, trips):
            # executed by the runner (the worker pool, or the relative
            # debugger's adversarial schedule); it has already collapsed
            # the clock and merged the forked state
            fr.lt[lidx] += rt.clock - t0
            fr.ltf[lidx] = 1
            return None
        max_iter = 0.0
        regs = fr.regs
        v = start
        for _ in range(trips):
            it_start = rt.clock
            regs[vslot] = v
            sig = body(fr)
            if sig is not None:
                if type(sig) is int:
                    if sig != term:
                        raise parallel_jump_fault(line)
                else:
                    return sig
            d = rt.clock - it_start
            if d > max_iter:
                max_iter = d
            v = v + step
        regs[vslot] = v
        # collapse to fork-join wall time
        rt.clock = t0 + max_iter + (parallel_overhead() if trips else 0.0)
        fr.lt[lidx] += rt.clock - t0
        fr.ltf[lidx] = 1
        return None
    if cx.vector:
        from .vectorize import maybe_vectorize
        return maybe_vectorize(cx, s, idx, lidx, op)
    return op


def _empty_block(fr):
    return None


def _comp_block(cx: _Cx, body: list[ast.Stmt]):
    """Block driver with a precomputed first-win label -> index map."""
    if not body:
        return _empty_block
    ops = [_comp_stmt(cx, s) for s in body]
    labmap: dict[int, int] = {}
    for k, s in enumerate(body):
        if s.label is not None and s.label not in labmap:
            labmap[s.label] = k
        if isinstance(s, ast.DoLoop) and s.term_label is not None \
                and s.term_label not in labmap:
            # jump to a loop terminator from outside means "after"
            labmap[s.term_label] = k + 1
    if not labmap and all(_no_signal(s) for s in body):
        if len(ops) == 1:
            return ops[0]
        ops_t = tuple(ops)

        def straight(fr):
            for op in ops_t:
                op(fr)
            return None
        return straight
    n = len(ops)
    ops_t = tuple(ops)

    def block(fr):
        i = 0
        while i < n:
            try:
                sig = ops_t[i](fr)
            except _Jump as j:
                # cross-unit (or nested-call) GOTO arriving as an
                # exception: resolve against this block's labels
                sig = j.label
            if sig is None:
                i += 1
            elif type(sig) is int:
                k = labmap.get(sig)
                if k is None:
                    return sig
                i = k
            else:
                return sig
        return None
    return block


# --------------------------------------------------------------------------
# Unit compiler: ProgramUnit -> UnitCode
# --------------------------------------------------------------------------

def _zero_of(type_name):
    if type_name == "INTEGER":
        return 0
    if type_name == "LOGICAL":
        return False
    if type_name == "CHARACTER":
        return ""
    return 0.0


def _comp_dims(cx: _Cx, dims):
    """(lower_closure, upper_closure|None) per declared dimension."""
    return tuple((_comp_expr(cx, d.lower),
                  _comp_expr(cx, d.upper) if d.upper is not None else None)
                 for d in dims)


def _comp_alloc(cx: _Cx, sym):
    """Local/COMMON array allocation (machine._alloc_array)."""
    dim_plans = _comp_dims(cx, sym.dims)
    name = sym.name
    dtype = _TYPE_DTYPE.get(sym.type_name, np.float64)

    def alloc(fr):
        shape = []
        lowers = []
        for lof, upf in dim_plans:
            lo = int(lof(fr))
            if upf is None:
                raise RuntimeFault(
                    f"{name}: assumed-size array must be an argument")
            hi = int(upf(fr))
            lowers.append(lo)
            shape.append(hi - lo + 1)
        data = np.zeros(tuple(shape), dtype=dtype, order="F")
        return ArrayStorage(name, data, tuple(lowers))
    return alloc


def _comp_reshape(cx: _Cx, sym):
    """Fortran sequence association for an array formal
    (machine._reshape_arg)."""
    dim_plans = _comp_dims(cx, sym.dims)
    name = sym.name

    def reshape(fr, actual):
        flat = actual.data.reshape(-1, order="F")
        shape = []
        lowers = []
        known = True
        for lof, upf in dim_plans:
            lo = lof(fr)
            lowers.append(int(lo))
            if upf is None:
                known = False
                shape.append(-1)
            else:
                hi = upf(fr)
                shape.append(int(hi) - int(lo) + 1)
        if not known:
            fixed = 1
            for s in shape:
                if s != -1:
                    fixed *= s
            shape[shape.index(-1)] = flat.size // max(fixed, 1)
        total = 1
        for s in shape:
            total *= s
        if total > flat.size:
            raise RuntimeFault(
                f"array argument for {name} too small "
                f"({flat.size} < {total})")
        view = flat[:total].reshape(tuple(shape), order="F")
        return ArrayStorage(name, view, tuple(lowers))
    return reshape


def _comp_inits(cx: _Cx, unit: ast.ProgramUnit, st):
    """Local initialization plan in symtab insertion order
    (machine._init_locals); formals are skipped, they bind earlier."""
    formals = {p.upper() for p in unit.params}
    ops = []
    for sym in st.symbols.values():
        name = sym.name
        if name in formals:
            continue
        if sym.storage == "parameter":
            i = cx.slot(name)
            vf = _comp_expr(cx, sym.param_value)

            def init(fr, i=i, vf=vf):
                fr.regs[i] = vf(fr)
            ops.append(init)
            continue
        if sym.storage == "common":
            if sym.is_array:
                j = cx.arr_slot(name)
                alloc = _comp_alloc(cx, sym)

                def init(fr, j=j, alloc=alloc, name=name):
                    ga = fr.rt._global_arrays
                    a = ga.get(name)
                    if a is None:
                        a = alloc(fr)
                        ga[name] = a
                    fr.arrs[j] = a
            else:
                i = cx.slot(name)
                zero = _zero_of(sym.type_name)

                def init(fr, i=i, zero=zero, name=name):
                    g = fr.rt._globals
                    v = g.get(name, _MISSING)
                    if v is _MISSING:
                        v = zero
                        g[name] = v
                    fr.regs[i] = v
            ops.append(init)
            continue
        if sym.storage == "function" and name != unit.name:
            continue
        if sym.is_array:
            j = cx.arr_slot(name)
            alloc = _comp_alloc(cx, sym)

            def init(fr, j=j, alloc=alloc):
                fr.arrs[j] = alloc(fr)
        else:
            i = cx.slot(name)
            zero = _zero_of(sym.type_name)

            def init(fr, i=i, zero=zero):
                fr.regs[i] = zero
        ops.append(init)
    return tuple(ops)


def _comp_data(cx: _Cx, unit: ast.ProgramUnit, st):
    """DATA statement initialization plan (machine._apply_data_stmts)."""
    uname = cx.uname
    groups = []
    for s, _ in ast.walk_stmts(unit.body):
        if not isinstance(s, ast.DataStmt):
            continue
        for targets, values in s.groups:
            vfs = tuple(_comp_expr(cx, v) for v in values)
            plans = []
            for t in targets:
                if isinstance(t, ast.VarRef):
                    sym = st.get(t.name)
                    if sym is not None and sym.is_array:
                        plans.append(("fill", cx.arr_slot(t.name), None))
                    else:
                        plans.append(("sc", cx.slot(t.name), None))
                elif isinstance(t, (ast.ArrayRef, ast.NameRef)):
                    plans.append(
                        ("el", cx.arr_slot(t.name),
                         tuple(_comp_subscript(cx, x)
                               for x in t.children())))
            groups.append((vfs, tuple(plans)))
    if not groups:
        return None
    groups = tuple(groups)

    def apply_data(fr):
        regs = fr.regs
        arrs = fr.arrs
        for vfs, plans in groups:
            vals = [vf(fr) for vf in vfs]
            vi = 0
            for kind, slot, sfns in plans:
                if kind == "sc":
                    regs[slot] = vals[vi]
                    vi += 1
                elif kind == "fill":
                    a = arrs[slot] if slot >= 0 else None
                    if a is None:
                        raise RuntimeFault(
                            f"{uname}: DATA for unknown array")
                    flat = a.data.reshape(-1, order="F")
                    n = flat.size
                    take = vals[vi:vi + n]
                    flat[:len(take)] = take
                    vi += len(take)
                else:
                    a = arrs[slot] if slot >= 0 else None
                    if a is None:
                        raise RuntimeFault(
                            f"{uname}: DATA for unknown array")
                    a.set(tuple(sf(fr) for sf in sfns), vals[vi])
                    vi += 1
    return apply_data


def _compile_unit(unit: ast.ProgramUnit, st, vector: bool = False,
                  sync: bool = False) -> UnitCode:
    cx = _Cx(unit, st, vector=vector, sync=sync)
    uname = unit.name
    kind = unit.kind

    # formal-binding plan (scalars bind first; array formals' bounds may
    # reference them, so reshape is deferred -- machine._invoke)
    formal_plans = []
    for p in unit.params:
        p = p.upper()
        sym = st.get(p)
        is_arr = sym is not None and sym.is_array
        formal_plans.append(
            (p, cx.slot(p), cx.arr_slot(p) if is_arr else -1, is_arr,
             _comp_reshape(cx, sym) if is_arr else None))
    formal_plans = tuple(formal_plans)
    n_params = len(formal_plans)

    init_ops = _comp_inits(cx, unit, st)
    data_op = _comp_data(cx, unit, st)
    body = _comp_block(cx, unit.body)
    result_slot = cx.slot(uname) if kind == "function" else -1
    is_function = kind == "function"
    n_regs = len(cx.reg_index)
    n_arrs = len(cx.arr_index)

    def invoke(rt, lk, actuals):
        acc = rt._prof.get(lk)
        if acc is None:
            acc = ([0] * code.n_stmts, [0] * code.n_loops,
                   [0.0] * code.n_loops, bytearray(code.n_loops),
                   bytearray(code.n_loops))
            rt._prof[lk] = acc
        regs = [_UNSET] * n_regs
        arrs = [None] * n_arrs
        fr = _Frame(rt, regs, arrs, lk, acc[0], acc[1], acc[2], acc[3],
                    acc[4])
        uc = rt._unit_calls
        uc[uname] = uc.get(uname, 0) + 1
        t0 = rt.clock
        if len(actuals) != n_params:
            raise RuntimeFault(
                f"{uname}: called with {len(actuals)} args, "
                f"declares {n_params}")
        copy_back = None
        deferred = None
        for (p, i, j, is_arr, reshape), actual in zip(formal_plans,
                                                      actuals):
            if isinstance(actual, ArrayStorage):
                if is_arr:
                    if deferred is None:
                        deferred = []
                    deferred.append((j, reshape, actual))
                else:
                    raise RuntimeFault(
                        f"{uname}: array passed for scalar {p}")
            elif isinstance(actual, (_SlotRef, _ScalarRef)):
                regs[i] = actual.get()
                if copy_back is None:
                    copy_back = []
                copy_back.append((i, actual))
            else:
                regs[i] = actual
        if deferred is not None:
            for j, reshape, actual in deferred:
                arrs[j] = reshape(fr, actual)
        for init in init_ops:
            init(fr)
        if data_op is not None:
            data_op(fr)
        try:
            sig = body(fr)
        finally:
            if copy_back is not None:
                for i, ref in copy_back:
                    v = regs[i]
                    if v is not _UNSET:
                        ref.set(v)
            ut = rt._unit_time
            ut[uname] = ut.get(uname, 0.0) + (rt.clock - t0)
        if type(sig) is int:
            # GOTO whose label lives in a *caller* unit: propagate as an
            # exception, exactly like the tree engine
            raise _Jump(sig)
        if is_function:
            v = regs[result_slot]
            if v is _UNSET:
                raise RuntimeFault(
                    f"function {uname} returned no value")
            return v
        return None

    code = UnitCode(uname, kind, n_params, invoke, cx.n_stmts,
                    cx.n_loops, dict(cx.reg_index), dict(cx.arr_index),
                    cx.vec_info)
    return code


def _overlay_common(g: dict, regs: list, common: tuple) -> None:
    """Write a frame's set COMMON scalars into ``g`` (a flush)."""
    for slot, name in common:
        v = regs[slot]
        if v is not _UNSET:
            g[name] = v


# --------------------------------------------------------------------------
# The compiled interpreter (drop-in for machine.Interpreter)
# --------------------------------------------------------------------------

class CompiledInterpreter:
    """Drop-in replacement for :class:`machine.Interpreter` that executes
    closure-compiled units.  Same constructor, ``run``, ``snapshot``,
    ``profile``, ``outputs``, ``clock``, and ``steps`` surface; produces
    byte-identical observables and profiles (tree engine = oracle).

    ``sync=True`` links the sync-numbering variant of every unit (see
    :func:`_sync_op`) for the relative debugger: ``sync_count`` counts
    the sync points, ``halt_at=k`` stops the run right after sync point
    ``k`` (flushing the current frame's COMMON scalars, so ``snapshot()``
    is meaningful mid-run) and leaves its :class:`SyncRecord` in
    ``halted``.  A ``sampler`` observes chosen sync points without
    stopping there: it is any object with a ``next`` attribute, the next
    sync index to sample (None: no more), and a call ``sampler(record,
    snapshot) -> bool``.  The snapshot is the one a halt at that point
    would leave; True halts the run there.
    """

    def __init__(self, program, inputs=None, max_steps: int = 5_000_000,
                 check_assertions: bool = True, assertion_checker=None,
                 workers: int | None = None, schedule: str | None = None,
                 sync: bool = False, halt_at: int | None = None,
                 sampler=None):
        self.program = program
        self.inputs = list(inputs or [])
        self._input_pos = 0
        self.outputs: list[object] = []
        self.max_steps = max_steps
        self.steps = 0
        self.clock = 0.0
        self.check_assertions = check_assertions
        self.assertion_checker = assertion_checker
        self._globals: dict[str, object] = {}
        self._global_arrays: dict[str, ArrayStorage] = {}
        #: per-run link cache: unit name -> LinkedUnit | None
        self._lk: dict[str, object] = {}
        #: LinkedUnit -> (cnt, li, lt, lf, ltf) dense accumulators
        self._prof: dict[LinkedUnit, tuple] = {}
        self._unit_time: dict[str, float] = {}
        self._unit_calls: dict[str, int] = {}
        self._shim = None
        #: real fork-join executor for PARALLEL DO (None = simulate)
        self._runtime = None
        if workers is not None and workers >= 1:
            from .runtime import ParallelRuntime
            self._runtime = ParallelRuntime(workers, schedule)
        self._sync = sync
        #: 1-based count of completed sync points (sync runs only)
        self.sync_count = 0
        self.halt_at = halt_at
        self.sampler = sampler
        #: the statement at the halt
        self.halted: SyncRecord | None = None
        self._sample_at = sampler.next if sampler is not None else None
        #: first sync index with a sample or a halt due
        self._sync_next = self._next_event()
        #: > 0 while a PARALLEL DO runs (its statements are no sync points)
        self._par_depth = 0

    # -- public API --------------------------------------------------------

    def run(self, unit_name: str | None = None,
            args: list[object] | None = None) -> object:
        if unit_name is None:
            main = self.program.main_unit
            if main is None:
                raise RuntimeFault("program has no PROGRAM unit")
            unit_name = main.unit.name
        try:
            return self._invoke(unit_name, args or [])
        except (_StopSignal, _SyncHalt):
            return None

    def snapshot(self) -> dict[str, object]:
        return self._observe(self._globals)

    def _observe(self, globals_: dict) -> dict[str, object]:
        out: dict[str, object] = {"outputs": list(self.outputs)}
        for k, v in sorted(globals_.items()):
            out[f"common:{k}"] = v
        for k, st in sorted(self._global_arrays.items()):
            out[f"common:{k}"] = st.data.copy()
        return out

    @property
    def profile(self) -> Profile:
        """Materialize the dense per-unit accumulators into the uid-keyed
        :class:`Profile` the navigation views consume."""
        p = Profile()
        sc = p.stmt_counts
        li_d = p.loop_iterations
        lt_d = p.loop_time
        for lk, (cnt, li, lt, lf, ltf) in self._prof.items():
            su = lk.stmt_uids
            for k, c in enumerate(cnt):
                if c:
                    sc[su[k]] = c
            lu = lk.loop_uids
            for k, uid in enumerate(lu):
                if lf[k]:
                    li_d[uid] = li[k]
                if ltf[k]:
                    lt_d[uid] = lt[k]
        p.unit_time = dict(self._unit_time)
        p.unit_calls = dict(self._unit_calls)
        p.total_time = self.clock
        return p

    # -- internals ---------------------------------------------------------

    def _invoke(self, unit_name: str, actuals: list[object]) -> object:
        lk = self._linked(unit_name.upper())
        if lk is None:
            raise RuntimeFault(
                f"no source for procedure {unit_name.upper()}")
        return lk.code.invoke(self, lk, actuals)

    def _linked(self, name: str):
        """LinkedUnit for a unit name, or None; memoized per run so the
        global compile cache (and its lock-free counters) is consulted
        once per unit."""
        lk = self._lk.get(name, _MISSING)
        if lk is _MISSING:
            uir = self.program.units.get(name)
            lk = linked_unit(uir, sync=self._sync) if uir is not None \
                else None
            self._lk[name] = lk
        return lk

    # -- sync points (relative debugging) -----------------------------------

    def _next_event(self):
        due = [k for k in (self._sample_at, self.halt_at) if k is not None]
        return min(due) if due else math.inf

    def _sync_event(self, fr: _Frame, idx: int, at: tuple,
                    common: tuple) -> None:
        """Sync point ``sync_count`` is due for a sample or a halt.  It
        completed statement ``idx`` of ``fr``'s unit; ``at`` is that
        statement's (unit, line, kind, var) and ``common`` the unit's
        COMMON scalar (slot, name) pairs."""
        k = self.sync_count
        rec = SyncRecord(k, at[0], at[1], fr.lk.stmt_uids[idx], at[2],
                         at[3])
        if k == self._sample_at:
            overlay = dict(self._globals)
            _overlay_common(overlay, fr.regs, common)
            stop = self.sampler(rec, self._observe(overlay))
            self._sample_at = self.sampler.next
            if stop:
                self._halt(rec, fr, common)
        if self.halt_at is not None and k >= self.halt_at:
            self._halt(rec, fr, common)
        self._sync_next = self._next_event()

    def _halt(self, rec: SyncRecord, fr: _Frame, common: tuple) -> None:
        self.halted = rec
        _overlay_common(self._globals, fr.regs, common)
        raise _SyncHalt()

    def _check_assertion(self, text: str, fr: _Frame) -> bool:
        """Assertion checkers speak the tree-engine dialect (dict frames
        + Interpreter._eval_in); materialize a Frame and delegate to a
        shim that shares this run's COMMON storage and clocks."""
        shim = self._shim
        if shim is None:
            shim = Interpreter(self.program, inputs=[],
                               max_steps=self.max_steps,
                               check_assertions=False)
            shim._globals = self._globals
            shim._global_arrays = self._global_arrays
            self._shim = shim
        code = fr.lk.code
        scalars: dict[str, object] = {}
        regs = fr.regs
        for name, i in code.reg_index.items():
            v = regs[i]
            if v is not _UNSET:
                scalars[name] = v
        arrays: dict[str, ArrayStorage] = {}
        arrs = fr.arrs
        for name, j in code.arr_index.items():
            a = arrs[j]
            if a is not None:
                arrays[name] = a
        frame = Frame(unit_name=code.name, symtab=fr.lk.symtab,
                      scalars=scalars, arrays=arrays)
        shim.clock = self.clock
        shim.steps = self.steps
        try:
            return bool(self.assertion_checker(text, frame, shim))
        finally:
            self.clock = shim.clock
            self.steps = shim.steps
