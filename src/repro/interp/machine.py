"""A direct AST interpreter for the Fortran 77 subset.

The interpreter is PED's "execution substrate" in this reproduction: it

* validates transformations by running original and transformed programs
  on concrete data and comparing observable state (tests do this
  systematically);
* produces the statement/loop-level execution profiles the workshop users
  got from gprof and Forge (Section 3.2, "Program Navigation");
* simulates parallel loop execution with a fork-join cost model (virtual
  clock: a PARALLEL DO costs the *maximum* iteration time plus a startup
  overhead, a sequential DO the sum), giving relative speedup estimates;
* checks user assertions at run time (Section 3.3 requires assertions be
  verifiable).

Arrays are numpy-backed with Fortran (column-major) layout and
1-based-by-declaration index arithmetic.  CALL arguments follow Fortran
reference semantics: whole arrays alias, array-element actuals alias a
view, scalar variables copy in/out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..fortran import ast
from ..ir.program import AnalyzedProgram
from ..ir.symtab import SymbolTable


class RuntimeFault(Exception):
    pass


class StepLimitExceeded(RuntimeFault):
    pass


class AssertionViolated(RuntimeFault):
    pass


class _Jump(Exception):
    def __init__(self, label: int):
        self.label = label


class _ReturnSignal(Exception):
    pass


class _StopSignal(Exception):
    def __init__(self, message: str | None):
        self.message = message


_TYPE_DTYPE = {
    "INTEGER": np.int64,
    "REAL": np.float64,
    "DOUBLEPRECISION": np.float64,
    "LOGICAL": np.bool_,
    "COMPLEX": np.complex128,
}


@dataclass
class ArrayStorage:
    name: str
    data: np.ndarray
    #: per-dimension declared lower bounds
    lowers: tuple[int, ...]

    def __post_init__(self) -> None:
        # Column-major element strides and the flat view are fixed at
        # allocation so every subscript access is a dot product instead
        # of a per-access recomputation; both execution engines share
        # these.
        d = self.data
        self.shape = d.shape
        acc = 1
        strides = []
        for n in d.shape:
            strides.append(acc)
            acc *= n
        self.strides = tuple(strides)
        self.size = acc
        #: flat offset of element (lowers[0], lowers[1], ...)
        self.base = -sum(lo * st for lo, st in zip(self.lowers, strides))
        #: 1-D column-major alias of ``data`` (None when not aliasable)
        self.flat = d.reshape(-1, order="F") if d.flags.f_contiguous \
            else None

    def index(self, subs: tuple[int, ...]) -> tuple[int, ...]:
        if len(subs) != self.data.ndim:
            raise RuntimeFault(
                f"{self.name}: rank mismatch ({len(subs)} subscripts for "
                f"rank {self.data.ndim})")
        idx = tuple(s - lo for s, lo in zip(subs, self.lowers))
        for k, (i, n) in enumerate(zip(idx, self.data.shape)):
            if not 0 <= i < n:
                raise RuntimeFault(
                    f"{self.name}: subscript {k + 1} = {subs[k]} out of "
                    f"bounds [{self.lowers[k]}, "
                    f"{self.lowers[k] + n - 1}]")
        return idx

    def offset(self, subs: tuple[int, ...]) -> int:
        """Flat column-major offset of a subscript tuple (bounds-checked
        with the same fault messages as :meth:`index`)."""
        shape = self.shape
        if len(subs) != len(shape):
            raise RuntimeFault(
                f"{self.name}: rank mismatch ({len(subs)} subscripts for "
                f"rank {self.data.ndim})")
        off = 0
        lowers = self.lowers
        strides = self.strides
        for k in range(len(subs)):
            i = subs[k] - lowers[k]
            if not 0 <= i < shape[k]:
                raise RuntimeFault(
                    f"{self.name}: subscript {k + 1} = {subs[k]} out of "
                    f"bounds [{lowers[k]}, "
                    f"{lowers[k] + shape[k] - 1}]")
            off += i * strides[k]
        return off

    def get(self, subs: tuple[int, ...]):
        """Bounds-checked element read as a Python scalar."""
        flat = self.flat
        if flat is not None:
            return flat.item(self.offset(subs))
        v = self.data[self.index(subs)]
        return v.item() if isinstance(v, np.generic) else v

    def set(self, subs: tuple[int, ...], value) -> None:
        """Bounds-checked element write."""
        flat = self.flat
        if flat is not None:
            flat[self.offset(subs)] = value
        else:
            self.data[self.index(subs)] = value

    def as_ndarray(self) -> np.ndarray:
        """Zero-copy ndarray view of the backing buffer for bulk paths.

        Dtype-stable and column-major: the view aliases ``data``
        directly (same strides), so mutations through it, through
        :meth:`set`, and through :meth:`set_flat` all land in the same
        storage.  Subscript ``(s0, s1, ...)`` maps to view index
        ``(s0 - lowers[0], s1 - lowers[1], ...)``.
        """
        return self.data

    def set_flat(self, offset: int, value) -> None:
        """Write one element by flat column-major offset (the inverse of
        :meth:`offset`); used by bulk/merge paths that iterate storage
        linearly."""
        flat = self.flat
        if flat is not None:
            flat[offset] = value
            return
        idx = []
        for n in self.shape:
            idx.append(offset % n)
            offset //= n
        self.data[tuple(idx)] = value


@dataclass
class Frame:
    unit_name: str
    symtab: SymbolTable
    scalars: dict[str, object] = field(default_factory=dict)
    arrays: dict[str, ArrayStorage] = field(default_factory=dict)


#: relative costs for the virtual clock (arbitrary units ~ cycles)
COST_OP = {"+": 1, "-": 1, "*": 2, "/": 8, "**": 16}
COST_INTRINSIC = 10
COST_MEMREF = 2
COST_STMT = 1
COST_BRANCH = 2
COST_CALL = 10
#: loop-terminator (CONTINUE) tick.  An exact dyadic rational (1/8): with
#: every cost a multiple of 1/8 and clock magnitudes far below 2**49,
#: float accumulation of the virtual clock is exact, so per-iteration
#: time deltas are independent of the clock base a worker starts from
#: and the parallel runtime's partial sums combine to the same bits as
#: the serial fold.
COST_TERM = 0.125
#: default fork-join startup charge for a PARALLEL DO
PARALLEL_OVERHEAD = 100.0

_overhead_override: float | None = None


def parallel_overhead() -> float:
    """The fork-join startup charge, calibratable per machine.

    The value set by :func:`set_parallel_overhead` (the session setting),
    else the :data:`PARALLEL_OVERHEAD` default.  Both engines and the
    static estimator read it through this accessor at loop-execution
    time, so a calibration applies without recompiling cached units.
    """
    if _overhead_override is not None:
        return _overhead_override
    return PARALLEL_OVERHEAD


def set_parallel_overhead(value: float | None) -> None:
    """Set (or with ``None`` clear) the process-wide overhead
    calibration."""
    global _overhead_override
    _overhead_override = None if value is None else float(value)


def _expr_cost(e: ast.Expr) -> float:
    """Virtual-clock cost of evaluating an expression; every engine
    charges it (the compiled ones once per statement, at compile time)."""
    cost = 0.0
    for node in ast.walk_expr(e):
        if isinstance(node, ast.BinOp):
            cost += COST_OP.get(node.op, 1)
        elif isinstance(node, ast.UnOp):
            cost += 1
        elif isinstance(node, ast.ArrayRef):
            cost += COST_MEMREF
        elif isinstance(node, ast.FuncRef):
            cost += COST_INTRINSIC if node.intrinsic else COST_CALL
    return cost


def parallel_jump_fault(line: int) -> RuntimeFault:
    """The one "jump out of a PARALLEL DO" fault both engines raise."""
    return RuntimeFault(f"line {line}: jump out of a PARALLEL DO")


@dataclass
class Profile:
    """Execution counters the PED navigation views consume."""

    stmt_counts: dict[int, int] = field(default_factory=dict)
    #: loop uid -> total iterations executed
    loop_iterations: dict[int, int] = field(default_factory=dict)
    #: loop uid -> virtual time spent inside (inclusive)
    loop_time: dict[int, float] = field(default_factory=dict)
    #: unit name -> inclusive virtual time
    unit_time: dict[str, float] = field(default_factory=dict)
    #: unit name -> number of invocations
    unit_calls: dict[str, int] = field(default_factory=dict)
    total_time: float = 0.0

    def loop_fraction(self, uid: int) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.loop_time.get(uid, 0.0) / self.total_time


class Interpreter:
    """Executes an :class:`AnalyzedProgram`."""

    def __init__(self, program: AnalyzedProgram,
                 inputs: list[object] | None = None,
                 max_steps: int = 5_000_000,
                 check_assertions: bool = True,
                 assertion_checker=None,
                 workers: int | None = None,
                 schedule: str | None = None):
        # The tree engine is the semantic oracle: it always executes
        # serially, so ``workers``/``schedule`` are accepted (uniform
        # construction via verify.make_interpreter) and ignored.
        self.program = program
        self.inputs = list(inputs or [])
        self._input_pos = 0
        self.outputs: list[object] = []
        self.max_steps = max_steps
        self.steps = 0
        self.clock = 0.0
        self.profile = Profile()
        self.check_assertions = check_assertions
        #: callable(text, frame, interp) -> bool, wired by repro.assertions
        self.assertion_checker = assertion_checker
        self._globals: dict[str, object] = {}      # COMMON scalars
        self._global_arrays: dict[str, ArrayStorage] = {}

    # -- public API ----------------------------------------------------------

    def run(self, unit_name: str | None = None,
            args: list[object] | None = None) -> object:
        """Execute a unit (the PROGRAM by default).  Returns the function
        result for FUNCTION units, else None."""
        if unit_name is None:
            main = self.program.main_unit
            if main is None:
                raise RuntimeFault("program has no PROGRAM unit")
            unit_name = main.unit.name
        try:
            return self._invoke(unit_name, args or [])
        except _StopSignal:
            return None

    def snapshot(self) -> dict[str, object]:
        """Observable state after a run: outputs + COMMON storage."""
        out: dict[str, object] = {"outputs": list(self.outputs)}
        for k, v in sorted(self._globals.items()):
            out[f"common:{k}"] = v
        for k, st in sorted(self._global_arrays.items()):
            out[f"common:{k}"] = st.data.copy()
        return out

    # -- frames and storage ----------------------------------------------------

    def _invoke(self, unit_name: str, actuals: list[object]) -> object:
        unit_name = unit_name.upper()
        if unit_name not in self.program.units:
            raise RuntimeFault(f"no source for procedure {unit_name}")
        uir = self.program.units[unit_name]
        unit, st = uir.unit, uir.symtab
        frame = Frame(unit_name=unit_name, symtab=st)
        self.profile.unit_calls[unit_name] = \
            self.profile.unit_calls.get(unit_name, 0) + 1
        t0 = self.clock

        if len(actuals) != len(unit.params):
            raise RuntimeFault(
                f"{unit_name}: called with {len(actuals)} args, "
                f"declares {len(unit.params)}")

        # Bind scalar formals first: array formals' declared bounds may
        # reference them (REAL X(N) with N a later parameter).
        copy_back: list[tuple[str, object]] = []
        deferred: list[tuple[str, ArrayStorage]] = []
        for formal, actual in zip(unit.params, actuals):
            formal = formal.upper()
            sym = st.lookup(formal)
            if isinstance(actual, ArrayStorage):
                if sym.is_array:
                    deferred.append((formal, actual))
                else:
                    raise RuntimeFault(
                        f"{unit_name}: array passed for scalar {formal}")
            elif isinstance(actual, _ScalarRef):
                frame.scalars[formal] = actual.get()
                copy_back.append((formal, actual))
            else:
                frame.scalars[formal] = actual
        for formal, actual in deferred:
            sym = st.lookup(formal)
            frame.arrays[formal] = self._reshape_arg(actual, sym, frame, st)

        self._init_locals(frame, unit, st)
        self._apply_data_stmts(frame, unit, st)

        try:
            self._exec_block(unit.body, frame)
        except _ReturnSignal:
            pass
        finally:
            for formal, ref in copy_back:
                if formal in frame.scalars:
                    ref.set(frame.scalars[formal])
            self.profile.unit_time[unit_name] = \
                self.profile.unit_time.get(unit_name, 0.0) \
                + (self.clock - t0)
            self.profile.total_time = self.clock

        if unit.kind == "function":
            if unit.name in frame.scalars:
                return frame.scalars[unit.name]
            raise RuntimeFault(f"function {unit_name} returned no value")
        return None

    def _reshape_arg(self, actual: ArrayStorage, sym, frame: Frame,
                     st: SymbolTable) -> ArrayStorage:
        """Adapt a passed array to the callee's declaration (Fortran
        sequence association)."""
        want_dims = sym.dims
        flat = actual.data.reshape(-1, order="F")
        shape: list[int] = []
        lowers: list[int] = []
        known = True
        for d in want_dims:
            lo = self._eval_in(d.lower, frame)
            lowers.append(int(lo))
            if d.upper is None:
                known = False
                shape.append(-1)
            else:
                hi = self._eval_in(d.upper, frame)
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
                f"array argument for {sym.name} too small "
                f"({flat.size} < {total})")
        view = flat[:total].reshape(tuple(shape), order="F")
        return ArrayStorage(sym.name, view, tuple(lowers))

    def _init_locals(self, frame: Frame, unit: ast.ProgramUnit,
                     st: SymbolTable) -> None:
        for sym in st.symbols.values():
            if sym.name in frame.scalars or sym.name in frame.arrays:
                continue
            if sym.storage == "parameter":
                frame.scalars[sym.name] = self._eval_in(
                    sym.param_value, frame)
                continue
            if sym.storage == "common":
                self._bind_common(frame, sym, st)
                continue
            if sym.storage == "function" and sym.name != unit.name:
                continue
            if sym.is_array:
                frame.arrays[sym.name] = self._alloc_array(sym, frame)
            else:
                frame.scalars[sym.name] = self._zero_of(sym.type_name)

    def _alloc_array(self, sym, frame: Frame) -> ArrayStorage:
        shape: list[int] = []
        lowers: list[int] = []
        for d in sym.dims:
            lo = int(self._eval_in(d.lower, frame))
            if d.upper is None:
                raise RuntimeFault(
                    f"{sym.name}: assumed-size array must be an argument")
            hi = int(self._eval_in(d.upper, frame))
            lowers.append(lo)
            shape.append(hi - lo + 1)
        dtype = _TYPE_DTYPE.get(sym.type_name, np.float64)
        data = np.zeros(tuple(shape), dtype=dtype, order="F")
        return ArrayStorage(sym.name, data, tuple(lowers))

    def _bind_common(self, frame: Frame, sym, st: SymbolTable) -> None:
        if sym.is_array:
            if sym.name not in self._global_arrays:
                self._global_arrays[sym.name] = self._alloc_array(sym, frame)
            frame.arrays[sym.name] = self._global_arrays[sym.name]
        else:
            if sym.name not in self._globals:
                self._globals[sym.name] = self._zero_of(sym.type_name)
            frame.scalars[sym.name] = self._globals[sym.name]

    def _flush_common(self, frame: Frame) -> None:
        """Write ``frame``'s COMMON scalars back to ``_globals``."""
        for sym in frame.symtab.symbols.values():
            if sym.storage == "common" and not sym.is_array:
                if sym.name in frame.scalars:
                    self._globals[sym.name] = frame.scalars[sym.name]

    def _reread_common(self, frame: Frame) -> None:
        """Re-read COMMON scalars a callee may have updated."""
        for sym in frame.symtab.symbols.values():
            if sym.storage == "common" and not sym.is_array \
                    and sym.name in self._globals:
                frame.scalars[sym.name] = self._globals[sym.name]

    @staticmethod
    def _zero_of(type_name: str):
        if type_name == "INTEGER":
            return 0
        if type_name == "LOGICAL":
            return False
        if type_name == "CHARACTER":
            return ""
        return 0.0

    def _apply_data_stmts(self, frame: Frame, unit: ast.ProgramUnit,
                          st: SymbolTable) -> None:
        for s, _ in ast.walk_stmts(unit.body):
            if not isinstance(s, ast.DataStmt):
                continue
            for targets, values in s.groups:
                vals = [self._eval_in(v, frame) for v in values]
                vi = 0
                for t in targets:
                    if isinstance(t, ast.VarRef):
                        sym = st.get(t.name)
                        if sym is not None and sym.is_array:
                            arr = frame.arrays[t.name]
                            flat = arr.data.reshape(-1, order="F")
                            n = flat.size
                            take = vals[vi:vi + n]
                            flat[:len(take)] = take
                            vi += len(take)
                        else:
                            frame.scalars[t.name] = vals[vi]
                            vi += 1
                    elif isinstance(t, (ast.ArrayRef, ast.NameRef)):
                        subs = tuple(int(self._eval_in(x, frame))
                                     for x in t.children())
                        arr = frame.arrays[t.name]
                        arr.set(subs, vals[vi])
                        vi += 1

    # -- execution -----------------------------------------------------------

    def _tick(self, cost: float = COST_STMT) -> None:
        self.clock += cost
        self.steps += 1
        if self.steps > self.max_steps:
            raise StepLimitExceeded(
                f"exceeded {self.max_steps} interpreter steps")

    def _count(self, s: ast.Stmt) -> None:
        self.profile.stmt_counts[s.uid] = \
            self.profile.stmt_counts.get(s.uid, 0) + 1

    def _exec_block(self, body: list[ast.Stmt], frame: Frame) -> None:
        """Execute a statement list, handling GOTO jumps into this list."""
        i = 0
        n = len(body)
        while i < n:
            try:
                self._exec_stmt(body[i], frame)
                i += 1
            except _Jump as j:
                found = None
                for k, s in enumerate(body):
                    if s.label == j.label:
                        found = k
                        break
                    if isinstance(s, ast.DoLoop) and s.term_label == j.label:
                        # jump to a loop terminator from inside handled by
                        # the loop itself; from outside it means "after"
                        found = k + 1
                        break
                if found is None:
                    raise
                i = found

    def _exec_stmt(self, s: ast.Stmt, frame: Frame) -> None:
        self._count(s)
        if isinstance(s, (ast.TypeDecl, ast.DimensionStmt, ast.CommonStmt,
                          ast.ParameterStmt, ast.DataStmt, ast.SaveStmt,
                          ast.ExternalStmt, ast.IntrinsicStmt,
                          ast.ImplicitStmt, ast.FormatStmt,
                          ast.EquivalenceStmt)):
            return
        if isinstance(s, ast.OpaqueStmt):
            # Declaration-like opaques are no-ops; executable ones were
            # accepted by the front end but never lowered -- refuse to
            # guess their semantics.
            if s.decl:
                return
            raise RuntimeFault(
                f"line {s.line}: cannot execute un-lowered statement "
                f"({s.kind}): {s.text}")
        if isinstance(s, ast.Assign):
            self._tick(_expr_cost(s.value) + COST_MEMREF)
            value = self._eval_in(s.value, frame)
            self._store(s.target, value, frame)
            return
        if isinstance(s, ast.DoLoop):
            self._exec_do(s, frame)
            return
        if isinstance(s, ast.IfBlock):
            self._tick(COST_BRANCH + _expr_cost(s.cond))
            if _truth(self._eval_in(s.cond, frame)):
                self._exec_block(s.then_body, frame)
                return
            for cond, arm in s.elifs:
                if _truth(self._eval_in(cond, frame)):
                    self._exec_block(arm, frame)
                    return
            if s.else_body:
                self._exec_block(s.else_body, frame)
            return
        if isinstance(s, ast.LogicalIf):
            self._tick(COST_BRANCH + _expr_cost(s.cond))
            if _truth(self._eval_in(s.cond, frame)):
                self._exec_stmt(s.stmt, frame)
            return
        if isinstance(s, ast.ArithIf):
            self._tick(COST_BRANCH + _expr_cost(s.expr))
            v = self._eval_in(s.expr, frame)
            if v < 0:
                raise _Jump(s.neg_label)
            if v == 0:
                raise _Jump(s.zero_label)
            raise _Jump(s.pos_label)
        if isinstance(s, ast.Goto):
            self._tick(COST_BRANCH)
            raise _Jump(s.target)
        if isinstance(s, ast.ComputedGoto):
            self._tick(COST_BRANCH)
            v = int(self._eval_in(s.expr, frame))
            if 1 <= v <= len(s.targets):
                raise _Jump(s.targets[v - 1])
            return
        if isinstance(s, ast.Continue):
            self._tick(COST_TERM)
            return
        if isinstance(s, ast.CallStmt):
            if s.alt_labels:
                raise RuntimeFault(
                    f"line {s.line}: alternate returns are not lowered")
            self._tick(COST_CALL)
            self._call(s.name, s.args, frame)
            return
        if isinstance(s, ast.Return):
            if s.alt is not None:
                raise RuntimeFault(
                    f"line {s.line}: alternate returns are not lowered")
            self._flush_common(frame)
            raise _ReturnSignal()
        if isinstance(s, ast.Stop):
            self._flush_common(frame)
            raise _StopSignal(s.message)
        if isinstance(s, ast.ReadStmt):
            self._tick(COST_STMT)
            for item in s.items:
                if self._input_pos >= len(self.inputs):
                    raise RuntimeFault("READ past end of input")
                self._store(item, self.inputs[self._input_pos], frame)
                self._input_pos += 1
            return
        if isinstance(s, ast.WriteStmt):
            self._tick(COST_STMT)
            for item in s.items:
                self.outputs.append(_pyval(self._eval_in(item, frame)))
            return
        if isinstance(s, ast.AssertStmt):
            self._tick(COST_STMT)
            if self.check_assertions and self.assertion_checker is not None:
                ok = self.assertion_checker(s.text, frame, self)
                if not ok:
                    raise AssertionViolated(
                        f"line {s.line}: assertion failed: {s.text}")
            return
        raise RuntimeFault(f"cannot execute {type(s).__name__}")

    def _exec_do(self, s: ast.DoLoop, frame: Frame) -> None:
        start = self._eval_in(s.start, frame)
        end = self._eval_in(s.end, frame)
        step = self._eval_in(s.step, frame) if s.step is not None else 1
        if step == 0:
            raise RuntimeFault(f"line {s.line}: zero DO step")
        trips = int(math.floor((end - start + step) / step))
        trips = max(0, trips)
        self.profile.loop_iterations[s.uid] = \
            self.profile.loop_iterations.get(s.uid, 0) + trips
        t0 = self.clock
        if s.parallel:
            self._exec_parallel_do(s, frame, start, step, trips)
        else:
            v = start
            for _ in range(trips):
                frame.scalars[s.var] = v
                try:
                    self._exec_block(s.body, frame)
                except _Jump as j:
                    if j.label == s.term_label:
                        pass  # jump to terminal statement: next iteration
                    else:
                        raise
                v = v + step
            frame.scalars[s.var] = v
        self.profile.loop_time[s.uid] = \
            self.profile.loop_time.get(s.uid, 0.0) + (self.clock - t0)

    def _exec_parallel_do(self, s: ast.DoLoop, frame: Frame, start, step,
                          trips: int) -> None:
        """Fork-join simulation: wall time = max iteration time + overhead.

        Iterations run sequentially for determinism (the loop was proved
        dependence-free, so order cannot matter).  Private variables are
        not copied or restored: they keep the last iteration's value
        (last-value privatization), which is what the fork-join
        runtime's join produces too.
        """
        t0 = self.clock
        max_iter = 0.0
        v = start
        for _ in range(trips):
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
        # collapse to fork-join wall time
        self.clock = t0 + max_iter + (parallel_overhead() if trips
                                      else 0.0)

    # -- calls ------------------------------------------------------------------

    def _call(self, name: str, args: tuple[ast.Expr, ...],
              frame: Frame) -> object:
        name = name.upper()
        if name not in self.program.units:
            raise RuntimeFault(f"no source for procedure {name}")
        actuals: list[object] = []
        for a in args:
            actuals.append(self._make_actual(a, frame))
        self._flush_common(frame)
        result = self._invoke(name, actuals)
        self._reread_common(frame)
        return result

    def _make_actual(self, a: ast.Expr, frame: Frame) -> object:
        if isinstance(a, ast.VarRef):
            if a.name in frame.arrays:
                return frame.arrays[a.name]
            return _ScalarRef(frame, a.name)
        if isinstance(a, ast.ArrayRef) and a.name in frame.arrays:
            arr = frame.arrays[a.name]
            subs = tuple(int(self._eval_in(x, frame)) for x in a.subscripts)
            # Array element actual: pass the trailing section (sequence
            # association), aliasing the original storage.
            flat = arr.flat if arr.flat is not None \
                else arr.data.reshape(-1, order="F")
            return ArrayStorage(arr.name, flat[arr.offset(subs):], (1,))
        return self._eval_in(a, frame)

    # -- expression evaluation ----------------------------------------------------

    def _eval_in(self, e: ast.Expr, frame: Frame):
        if isinstance(e, ast.IntConst):
            return e.value
        if isinstance(e, ast.RealConst):
            return e.value
        if isinstance(e, ast.LogicalConst):
            return e.value
        if isinstance(e, ast.StringConst):
            return e.value
        if isinstance(e, ast.VarRef):
            if e.name in frame.scalars:
                return frame.scalars[e.name]
            if e.name in frame.arrays:
                return frame.arrays[e.name]
            raise RuntimeFault(f"{frame.unit_name}: {e.name} has no value")
        if isinstance(e, (ast.ArrayRef, ast.NameRef)):
            if e.name in frame.arrays:
                arr = frame.arrays[e.name]
                subs = tuple(int(self._eval_in(x, frame))
                             for x in e.children())
                return arr.get(subs)
            # NameRef that is actually a call
            return self._call_function(e.name, tuple(e.children()), frame)
        if isinstance(e, ast.FuncRef):
            if e.intrinsic:
                args = [self._eval_in(a, frame) for a in e.args]
                return _intrinsic(e.name, args)
            return self._call_function(e.name, e.args, frame)
        if isinstance(e, ast.UnOp):
            v = self._eval_in(e.operand, frame)
            if e.op == "-":
                return -v
            if e.op == "+":
                return v
            return not _truth(v)
        if isinstance(e, ast.BinOp):
            lv = self._eval_in(e.left, frame)
            rv = self._eval_in(e.right, frame)
            return _binop(e.op, lv, rv)
        raise RuntimeFault(f"cannot evaluate {type(e).__name__}")

    def _call_function(self, name: str, args: tuple[ast.Expr, ...], frame):
        name = name.upper()
        if name in self.program.units:
            self._tick(COST_CALL)
            actuals = [self._make_actual(a, frame) for a in args]
            self._flush_common(frame)
            result = self._invoke(name, actuals)
            self._reread_common(frame)
            return result
        # Unknown name without subscripted array: maybe intrinsic spelled
        # differently; fail loudly.
        raise RuntimeFault(f"{frame.unit_name}: no such function or array "
                           f"{name}")

    def _store(self, target: ast.Expr, value, frame: Frame) -> None:
        if isinstance(target, ast.VarRef):
            sym = frame.symtab.get(target.name)
            frame.scalars[target.name] = _coerce(
                value, sym.type_name if sym else None)
            if sym is not None and sym.storage == "common":
                self._globals[target.name] = frame.scalars[target.name]
            return
        if isinstance(target, (ast.ArrayRef, ast.NameRef)):
            if target.name not in frame.arrays:
                raise RuntimeFault(
                    f"{frame.unit_name}: assignment to unknown array "
                    f"{target.name}")
            arr = frame.arrays[target.name]
            subs = tuple(int(self._eval_in(x, frame))
                         for x in target.children())
            arr.set(subs, value)
            return
        raise RuntimeFault(f"bad assignment target {target}")


class _ScalarRef:
    """Reference to a caller's scalar for copy-in/copy-out binding."""

    def __init__(self, frame: Frame, name: str):
        self.frame = frame
        self.name = name

    def get(self):
        return self.frame.scalars.get(self.name, 0)

    def set(self, value) -> None:
        self.frame.scalars[self.name] = value


def _truth(v) -> bool:
    return bool(v)


def _pyval(v):
    if isinstance(v, np.generic):
        return v.item()
    return v


def _coerce(value, type_name: str | None):
    value = _pyval(value)
    if type_name == "INTEGER" and isinstance(value, float):
        return int(value)  # Fortran truncates toward zero
    if type_name in ("REAL", "DOUBLEPRECISION") and isinstance(value, int):
        return float(value)
    if type_name == "LOGICAL":
        return bool(value)
    return value


def _binop(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if isinstance(a, (int, np.integer)) and isinstance(b, (int,
                                                               np.integer)):
            if b == 0:
                raise RuntimeFault("integer division by zero")
            q = Fraction(int(a), int(b))
            return int(q) if q.denominator == 1 else int(a / b)
        return a / b
    if op == "**":
        return a ** b
    if op == ".EQ.":
        return a == b
    if op == ".NE.":
        return a != b
    if op == ".LT.":
        return a < b
    if op == ".LE.":
        return a <= b
    if op == ".GT.":
        return a > b
    if op == ".GE.":
        return a >= b
    if op == ".AND.":
        return _truth(a) and _truth(b)
    if op == ".OR.":
        return _truth(a) or _truth(b)
    if op == ".EQV.":
        return _truth(a) == _truth(b)
    if op == ".NEQV.":
        return _truth(a) != _truth(b)
    raise RuntimeFault(f"unknown operator {op}")


def _intrinsic(name: str, args: list):
    name = name.upper()
    a = args[0] if args else None
    if name in ("ABS", "IABS", "DABS"):
        return abs(a)
    if name in ("SQRT", "DSQRT"):
        return math.sqrt(a)
    if name in ("EXP", "DEXP"):
        return math.exp(a)
    if name in ("LOG", "ALOG", "DLOG"):
        return math.log(a)
    if name in ("LOG10", "ALOG10"):
        return math.log10(a)
    if name in ("SIN", "DSIN"):
        return math.sin(a)
    if name in ("COS", "DCOS"):
        return math.cos(a)
    if name in ("TAN",):
        return math.tan(a)
    if name in ("ASIN",):
        return math.asin(a)
    if name in ("ACOS",):
        return math.acos(a)
    if name in ("ATAN", "DATAN"):
        return math.atan(a)
    if name in ("ATAN2", "DATAN2"):
        return math.atan2(a, args[1])
    if name in ("SINH",):
        return math.sinh(a)
    if name in ("COSH",):
        return math.cosh(a)
    if name in ("TANH",):
        return math.tanh(a)
    if name in ("MAX", "AMAX1", "MAX0", "DMAX1"):
        return max(args)
    if name in ("MIN", "AMIN1", "MIN0", "DMIN1"):
        return min(args)
    if name in ("MOD", "AMOD", "DMOD"):
        return math.fmod(a, args[1]) if isinstance(a, float) \
            else int(math.fmod(a, args[1]))
    if name in ("INT", "IFIX", "IDINT"):
        return int(a)
    if name in ("NINT",):
        return int(round(a))
    if name in ("REAL", "FLOAT", "SNGL", "DBLE"):
        return float(a)
    if name in ("SIGN", "ISIGN", "DSIGN"):
        return abs(a) if args[1] >= 0 else -abs(a)
    if name in ("DIM", "IDIM"):
        return max(a - args[1], 0)
    if name in ("LEN",):
        return len(a)
    if name in ("ICHAR",):
        return ord(a)
    if name in ("CHAR",):
        return chr(a)
    raise RuntimeFault(f"intrinsic {name} not implemented")
