"""Vector execution tier: lower eligible DO nests to numpy bulk ops.

The closure-compiled engine still pays Python dispatch per iteration;
this module removes the iteration loop entirely for eligible nests.  At
compile time (:func:`maybe_vectorize`, called from ``compile._comp_do``
when a unit is compiled with ``vector=True``) each DO loop is pattern
matched:

* the nest collapses through perfectly nested levels (only CONTINUEs
  beside the single inner loop, invariant side-effect-free bounds);
* the innermost body is straight-line assignments and CONTINUEs -- no
  I/O, calls, branches, or jumps;
* every array subscript is affine in at most one loop variable per
  dimension, scalars are either iteration-private temporaries or
  exactly-associative reductions (INTEGER sum/product, MAX/MIN) --
  the same verdicts the fork-join eligibility plan in ``runtime.py``
  computes;
* the value semantics of every operator/intrinsic is bit-reproducible
  with numpy (no transcendentals, no INTEGER division, guarded
  division/SQRT/MOD domains).

An eligible nest compiles to a closure that executes the whole
iteration space as numpy slice/ufunc operations over zero-copy
``ArrayStorage.as_ndarray()`` views, then books the virtual clock,
step count, and profile *in aggregate* -- every cost is a dyadic
rational (multiples of 1/8) well below 2**49, so the analytic totals
are bit-identical to the tree walker's per-iteration accumulation.

Anything the static pattern match cannot prove falls back at compile
time; anything the runtime prechecks cannot prove (actual dependence
distances, bounds, aliasing, non-integer subscripts...) falls back at
execution time to the unchanged closure-compiled loop, before any state
is mutated.  The fallback ladder is therefore per-loop:
vector -> compiled -> (oracle) tree.
"""

from __future__ import annotations

import math

import numpy as np

from ..fortran import ast
from ..perf import counters as perf_counters
from .machine import COST_MEMREF, COST_TERM, parallel_overhead
from .compile import (
    _MISSING, CompiledInterpreter, _comp_expr, _comp_varref, _expr_cost,
    linked_unit,
)
from .runtime import _MAXFNS, _MINFNS, _red_match

__all__ = ["VectorInterpreter", "LoopDecision", "maybe_vectorize",
           "lowering_decisions"]

#: hard cap on iteration-space points materialized per nest entry
#: (memory guard; larger nests run on the closure engine)
MAX_ELEMENTS = 1 << 23

#: virtual-clock magnitude below which dyadic (k/8) accumulation is
#: exact, so aggregate == per-iteration bit-for-bit
_EXACT_CLOCK = float(2 ** 49)

_INT = "INT"
_FLOAT = "FLOAT"

class LoopDecision:
    """Why one loop did (or did not) lower to the vector tier."""

    __slots__ = ("line", "var", "vectorized", "reason", "depth")

    def __init__(self, line, var, vectorized, reason="", depth=1):
        self.line = line
        self.var = var
        self.vectorized = vectorized
        self.reason = reason
        self.depth = depth

    def as_dict(self) -> dict:
        return {"line": self.line, "var": self.var,
                "vectorized": self.vectorized, "reason": self.reason,
                "depth": self.depth}

    def __repr__(self):
        tag = f"depth {self.depth}" if self.vectorized else self.reason
        return f"LoopDecision(line {self.line} {self.var}: {tag})"


class _Reject(Exception):
    """Compile-time lowering rejection (the message is user-facing)."""


# --------------------------------------------------------------------------
# Static type classification (value-semantics gates)
# --------------------------------------------------------------------------

def _vtype_name(cx, key: str):
    sym = cx.st.get(key)
    if sym is None:
        return None
    t = sym.type_name
    if t == "INTEGER":
        return _INT
    if t in ("REAL", "DOUBLEPRECISION"):
        return _FLOAT
    return None


def _combine_arith(a, b):
    if a == _INT and b == _INT:
        return _INT
    if a in (_INT, _FLOAT) and b in (_INT, _FLOAT):
        return _FLOAT
    return None


# --------------------------------------------------------------------------
# Invariance analysis
# --------------------------------------------------------------------------

def _invariance(lx, e):
    """'inv' when e is nest-invariant and side-effect-free, 'varying'
    when it depends on nest state, raises for constructs whose repeated
    evaluation is unsafe (user calls)."""
    out = "inv"
    for node in ast.walk_expr(e):
        t = type(node)
        if t is ast.NameRef:
            raise _Reject("call in subscript or bound")
        if t is ast.FuncRef and not node.intrinsic:
            raise _Reject(f"call to {node.name} in subscript or bound")
        if t is ast.VarRef:
            key = node.name.upper()
            if key in lx.nest_vars or key in lx.written_scalars:
                out = "varying"
        elif t is ast.ArrayRef:
            if node.name.upper() in lx.written_arrays:
                out = "varying"
    return out


def _inv_closure(lx, e):
    """Entry-time evaluator for a nest-invariant expression (no ticks,
    no side effects; may raise -- callers fall back pre-mutation)."""
    return _comp_expr(lx.cx, e)


# --------------------------------------------------------------------------
# Affine subscript decomposition: e == coef * V_level + off
# --------------------------------------------------------------------------

def _neg(f):
    return lambda fr: -f(fr)


def _affine(lx, e):
    """Decompose a subscript as ``coef * V + off`` with at most one nest
    variable; returns ``(level|None, coef_fn|None, off_fn)`` where the
    closures are nest-invariant ``fr -> value`` evaluators."""
    t = type(e)
    if t is ast.IntConst:
        v = e.value
        return None, None, (lambda fr: v)
    if t is ast.VarRef:
        key = e.name.upper()
        lvl = lx.nest_vars.get(key)
        if lvl is not None:
            return lvl, (lambda fr: 1), (lambda fr: 0)
        if key in lx.written_scalars:
            raise _Reject(f"subscript depends on loop scalar {key}")
        return None, None, _comp_varref(lx.cx, key)
    if t is ast.UnOp:
        if e.op not in ("-", "+"):
            raise _Reject("non-affine subscript")
        lvl, cf, of = _affine(lx, e.operand)
        if e.op == "+":
            return lvl, cf, of
        return lvl, (_neg(cf) if cf is not None else None), _neg(of)
    if t is ast.BinOp and e.op in ("+", "-"):
        l1, c1, o1 = _affine(lx, e.left)
        l2, c2, o2 = _affine(lx, e.right)
        if e.op == "-":
            o2 = _neg(o2)
            c2 = _neg(c2) if c2 is not None else None
        if l1 is not None and l2 is not None and l1 != l2:
            raise _Reject("subscript mixes two loop variables")
        lvl = l1 if l1 is not None else l2
        if c1 is not None and c2 is not None:
            cf = (lambda a=c1, b=c2: lambda fr: a(fr) + b(fr))()
        else:
            cf = c1 if c1 is not None else c2
        of = (lambda a=o1, b=o2: lambda fr: a(fr) + b(fr))()
        return lvl, cf, of
    if t is ast.BinOp and e.op == "*":
        li = _invariance(lx, e.left) == "inv"
        ri = _invariance(lx, e.right) == "inv"
        if li and ri:
            return None, None, _inv_closure(lx, e)
        if li or ri:
            inv_e, var_e = (e.left, e.right) if li else (e.right, e.left)
            k = _inv_closure(lx, inv_e)
            lvl, cf, of = _affine(lx, var_e)
            nof = (lambda a=k, b=of: lambda fr: a(fr) * b(fr))()
            if lvl is None:
                return None, None, nof
            ncf = (lambda a=k, b=cf: lambda fr: a(fr) * b(fr))()
            return lvl, ncf, nof
        raise _Reject("non-affine subscript (product of loop variables)")
    if _invariance(lx, e) == "inv":
        return None, None, _inv_closure(lx, e)
    raise _Reject("non-affine subscript")


# --------------------------------------------------------------------------
# Array reference plans
# --------------------------------------------------------------------------

class _Ref:
    """One array reference: per-dimension affine/invariant plans plus
    the static orientation (transpose + expand) into level axis order."""

    __slots__ = ("key", "j", "dims", "write", "pos", "levels",
                 "transpose", "expand", "vidx")

    def __init__(self, lx, e, write, pos):
        key = e.name.upper()
        j = lx.cx.arr_slot(key)
        if j < 0:
            raise _Reject(f"{key} is not a declared array")
        vt = _vtype_name(lx.cx, key)
        if vt is None:
            raise _Reject(f"array {key} has non-numeric type")
        subs = e.subscripts if isinstance(e, ast.ArrayRef) \
            else tuple(e.children())
        dims = []
        axes_levels = []
        for sub in subs:
            lvl, cf, of = _affine(lx, sub)
            if lvl is None:
                dims.append((None, None, of))
            else:
                if lvl in axes_levels:
                    raise _Reject(
                        "loop variable appears in two subscripts")
                dims.append((lvl, cf, of))
                axes_levels.append(lvl)
        self.key = key
        self.j = j
        self.dims = tuple(dims)
        self.write = write
        self.pos = pos
        self.levels = tuple(axes_levels)
        order = sorted(range(len(axes_levels)),
                       key=lambda i: axes_levels[i])
        self.transpose = tuple(order) \
            if order != list(range(len(axes_levels))) else None
        present = set(axes_levels)
        self.expand = tuple(slice(None) if lvl in present else None
                            for lvl in range(lx.depth))
        self.vidx = -1  # assigned on registration

    def eval_params(self, fr):
        """Entry-time: evaluate the per-dimension runtime parameters as
        ``(level, coef, offset)`` triples (level None for invariant
        subscripts), or None when a coefficient is unusable.  Array-
        independent -- together with the nest bounds this keys the
        entry-plan memo; any evaluation fault propagates pre-mutation,
        so serial replay reproduces it exactly."""
        params = []
        for lvl, cf, of in self.dims:
            if lvl is None:
                v = of(fr)
                if type(v) is not int:
                    v = int(v)
                params.append((None, 0, v))
            else:
                ac = cf(fr)
                bc = of(fr)
                if not isinstance(ac, int) or not isinstance(bc, int) \
                        or ac == 0:
                    return None
                params.append((lvl, ac, bc))
        return tuple(params)

    def make_view(self, data, lowers, starts, steps, trips, params):
        """Bounds-check ``params`` against one array and build the
        oriented zero-copy view, or None to fall back.  Pure in the
        array contents: for fixed params/bounds and the same backing
        ndarray the result is identical, which is what lets the nest
        memoize it across entries."""
        if data.ndim != len(self.dims):
            return None
        idx = []
        shape = data.shape
        for d, (lvl, ac, bc) in enumerate(params):
            lo = lowers[d]
            n = shape[d]
            if lvl is None:
                i = bc - lo
                if not 0 <= i < n:
                    return None
                idx.append(i)
            else:
                i0 = ac * starts[lvl] + bc - lo
                istep = ac * steps[lvl]
                ilast = i0 + (trips[lvl] - 1) * istep
                if not (0 <= i0 < n and 0 <= ilast < n):
                    return None
                stop = ilast + (1 if istep > 0 else -1)
                idx.append(slice(i0, stop if stop >= 0 else None, istep))
        view = data[tuple(idx)]
        if not isinstance(view, np.ndarray):
            # all-invariant subscripts: keep a writable 0-d view
            view = data[tuple(slice(i, i + 1) for i in idx)].reshape(())
        elif self.transpose is not None:
            view = view.transpose(self.transpose)
        return view[self.expand]


# --------------------------------------------------------------------------
# Expression lowering: ast.Expr -> (fn(ev), vtype, varies, safe)
# --------------------------------------------------------------------------

class _Lx:
    """Per-nest lowering context."""

    def __init__(self, cx, levels, nest_vars, written_arrays,
                 written_scalars):
        self.cx = cx
        self.levels = levels
        self.depth = len(levels)
        self.nest_vars = nest_vars
        self.written_arrays = written_arrays
        self.written_scalars = written_scalars
        #: serial position (recipe index) of the statement being lowered;
        #: read refs record it so dependence pairs know read/write order
        self.cur_pos = 0
        #: names assigned by earlier statements (iteration-private temps)
        self.assigned: set[str] = set()
        #: reduction variable names (readable only in their own update)
        self.reductions: set[str] = set()
        self.refs: list[_Ref] = []
        #: entry-time invariant evaluators (fr -> value)
        self.inv: list = []
        #: entry-time domain prechecks: (fn(ev), what)
        self.prechecks: list = []

    def add_ref(self, ref: _Ref) -> int:
        ref.vidx = len(self.refs)
        self.refs.append(ref)
        return ref.vidx

    def add_inv(self, fn) -> int:
        self.inv.append(fn)
        return len(self.inv) - 1


class _Ev:
    """Per-entry evaluation environment for lowered expressions."""

    __slots__ = ("fr", "ivecs", "views", "inv", "temps")

    def __init__(self, fr, ivecs, views, inv):
        self.fr = fr
        self.ivecs = ivecs
        self.views = views
        self.inv = inv
        self.temps = {}


def _vexpr(lx, e):
    """Lower one expression; returns ``(fn, vtype, varies, safe)``.

    ``fn(ev)`` produces a scalar or a rank-``depth`` ndarray whose
    elementwise values match the tree walker bit-for-bit.  ``varies``
    is the set of nest levels the value may vary along; ``safe`` means
    the expression reads no temps/reductions and no nest-written
    arrays, so it may be pre-evaluated for entry-time domain checks.
    """
    t = type(e)
    if t is ast.IntConst:
        v = e.value
        return (lambda ev: v), _INT, frozenset(), True
    if t is ast.RealConst:
        v = e.value
        return (lambda ev: v), _FLOAT, frozenset(), True
    if t in (ast.LogicalConst, ast.StringConst):
        raise _Reject("logical/character value in loop body")
    if t is ast.VarRef:
        key = e.name.upper()
        lvl = lx.nest_vars.get(key)
        if lvl is not None:
            return (lambda ev, k=lvl: ev.ivecs[k]), _INT, \
                frozenset((lvl,)), True
        if key in lx.reductions:
            raise _Reject(f"reduction variable {key} read elsewhere")
        if key in lx.written_scalars:
            if key not in lx.assigned:
                raise _Reject(f"scalar {key} carries a loop dependence")
            vt = _vtype_name(lx.cx, key)
            return (lambda ev, k=key: ev.temps[k]), vt, \
                frozenset(range(lx.depth)), False
        if lx.cx.arr_slot(key) >= 0:
            raise _Reject(f"whole-array reference {key}")
        vt = _vtype_name(lx.cx, key)
        if vt is None:
            raise _Reject(f"scalar {key} has non-numeric type")
        i = lx.add_inv(_comp_varref(lx.cx, key))
        return (lambda ev, k=i: ev.inv[k]), vt, frozenset(), True
    if t in (ast.ArrayRef, ast.NameRef):
        ref = _Ref(lx, e, write=False, pos=lx.cur_pos)
        i = lx.add_ref(ref)
        vt = _vtype_name(lx.cx, ref.key)
        safe = ref.key not in lx.written_arrays
        return (lambda ev, k=i: ev.views[k]), vt, \
            frozenset(ref.levels), safe
    if t is ast.UnOp:
        if e.op not in ("-", "+"):
            raise _Reject("logical operator in loop body")
        f, vt, varies, safe = _vexpr(lx, e.operand)
        if e.op == "+":
            return f, vt, varies, safe
        return (lambda ev: -f(ev)), vt, varies, safe
    if t is ast.BinOp:
        return _vbinop(lx, e)
    if t is ast.FuncRef:
        if not e.intrinsic:
            raise _Reject(f"call to {e.name} in loop body")
        return _vintrinsic(lx, e)
    raise _Reject(f"unsupported expression {t.__name__}")


def _precheck_operand(lx, e, fn, safe, check, what):
    """Register an entry-time domain check for a risky operand, or
    reject when the operand cannot be pre-evaluated."""
    c = None
    if isinstance(e, ast.IntConst) or isinstance(e, ast.RealConst):
        c = e.value
    elif isinstance(e, ast.UnOp) and e.op == "-" and \
            isinstance(e.operand, (ast.IntConst, ast.RealConst)):
        c = -e.operand.value
    if c is not None:
        if not check(np.asarray(c)):
            raise _Reject(f"{what} is a constant domain fault")
        return
    if not safe:
        raise _Reject(f"cannot prove {what} domain statically")
    lx.prechecks.append(((lambda ev, f=fn, ck=check: ck(
        np.asarray(f(ev)))), what))


def _vbinop(lx, e):
    op = e.op
    if op in (".EQ.", ".NE.", ".LT.", ".LE.", ".GT.", ".GE.", ".AND.",
              ".OR.", ".EQV.", ".NEQV."):
        raise _Reject("logical operator in loop body")
    if op == "**":
        raise _Reject("exponentiation (bignum semantics)")
    lf, lt_, lv, ls = _vexpr(lx, e.left)
    rf, rt_, rv, rs = _vexpr(lx, e.right)
    varies = lv | rv
    safe = ls and rs
    if op == "+":
        return (lambda ev: lf(ev) + rf(ev)), \
            _combine_arith(lt_, rt_), varies, safe
    if op == "-":
        return (lambda ev: lf(ev) - rf(ev)), \
            _combine_arith(lt_, rt_), varies, safe
    if op == "*":
        return (lambda ev: lf(ev) * rf(ev)), \
            _combine_arith(lt_, rt_), varies, safe
    if op == "/":
        if lt_ != _FLOAT and rt_ != _FLOAT:
            raise _Reject("INTEGER division (Fraction semantics)")
        _precheck_operand(lx, e.right, rf, rs,
                          lambda a: bool(np.all(a != 0)), "divisor")
        return (lambda ev: lf(ev) / rf(ev)), _FLOAT, varies, safe
    raise _Reject(f"operator {op} in loop body")


def _vintrinsic(lx, e):
    u = e.name.upper()
    args = [_vexpr(lx, a) for a in e.args]
    varies = frozenset().union(*[a[2] for a in args]) if args \
        else frozenset()
    safe = all(a[3] for a in args)
    fns = [a[0] for a in args]
    vts = [a[1] for a in args]
    n = len(args)
    if n == 1:
        f0, t0 = fns[0], vts[0]
        if t0 is None:
            raise _Reject(f"untyped argument to {u}")
        if u in ("ABS", "IABS", "DABS"):
            return (lambda ev: np.abs(f0(ev))), t0, varies, safe
        if u in ("SQRT", "DSQRT"):
            _precheck_operand(lx, e.args[0], f0, safe and True,
                              lambda a: bool(np.all(a >= 0)),
                              "SQRT argument")
            return (lambda ev: np.sqrt(f0(ev))), _FLOAT, varies, safe
        if u in ("INT", "IFIX", "IDINT"):
            if t0 == _INT:
                return f0, _INT, varies, safe
            return (lambda ev: _trunc_int(f0(ev))), _INT, varies, safe
        if u == "NINT":
            return (lambda ev: _round_int(f0(ev))), _INT, varies, safe
        if u in ("REAL", "FLOAT", "SNGL", "DBLE"):
            if t0 == _FLOAT:
                return f0, _FLOAT, varies, safe
            return (lambda ev: _to_float(f0(ev))), _FLOAT, varies, safe
        raise _Reject(f"intrinsic {u} (no exact numpy equivalent)")
    if n == 2:
        f0, f1 = fns
        t0, t1 = vts
        if u in ("MOD", "AMOD", "DMOD"):
            if t0 == _FLOAT:
                pass
            elif t0 == _INT and t1 == _INT:
                pass
            else:
                raise _Reject("MOD with mixed INTEGER/REAL arguments")
            _precheck_operand(lx, e.args[1], f1, safe,
                              lambda a: bool(np.all(a != 0)),
                              "MOD divisor")
            return (lambda ev: np.fmod(f0(ev), f1(ev))), t0, varies, safe
        if u in ("SIGN", "ISIGN", "DSIGN"):
            if t0 is None or t1 is None:
                raise _Reject(f"untyped argument to {u}")

            def f_sign(ev):
                a = np.abs(f0(ev))
                return np.where(f1(ev) >= 0, a, -a)
            return f_sign, t0, varies, safe
        if u in ("DIM", "IDIM"):
            if t0 != _INT or t1 != _INT:
                # Python max(a - b, 0) returns the int 0 on negative
                # REAL differences; numpy would keep float. INTEGER only.
                raise _Reject("DIM with REAL arguments")
            return (lambda ev: np.maximum(f0(ev) - f1(ev), 0)), _INT, \
                varies, safe
    if u in _MAXFNS or u in _MINFNS:
        if not (all(t == _INT for t in vts)
                or all(t == _FLOAT for t in vts)):
            raise _Reject("MAX/MIN with mixed argument types")
        red = np.maximum if u in _MAXFNS else np.minimum

        def f_mm(ev):
            v = fns[0](ev)
            for g in fns[1:]:
                v = red(v, g(ev))
            return v
        return f_mm, vts[0], varies, safe
    raise _Reject(f"intrinsic {u} (no exact numpy equivalent)")


def _trunc_int(v):
    """int(x): truncation toward zero, elementwise."""
    if isinstance(v, np.ndarray) and v.ndim:
        return np.trunc(v).astype(np.int64)
    return int(v)


def _round_int(v):
    """int(round(x)): banker's rounding, elementwise (np.rint matches
    Python round's half-even behavior)."""
    if isinstance(v, np.ndarray) and v.ndim:
        return np.rint(v).astype(np.int64)
    return int(round(v))


def _to_float(v):
    if isinstance(v, np.ndarray) and v.ndim:
        return v.astype(np.float64)
    return float(v)


def _reads_name(e, key):
    return any(isinstance(n, ast.VarRef) and n.name.upper() == key
               for n in ast.walk_expr(e))


# --------------------------------------------------------------------------
# Nest structure
# --------------------------------------------------------------------------

class _Level:
    __slots__ = ("stmt", "idx", "lidx", "vslot", "fs", "fe", "fstep",
                 "parallel", "cont_idxs", "line")

    def __init__(self, cx, lv):
        self.stmt = lv
        self.idx = cx.idx_of[id(lv)]
        self.lidx = cx.loop_idx_of[id(lv)]
        self.vslot = cx.slot(lv.var)
        self.fs = _comp_expr(cx, lv.start)
        self.fe = _comp_expr(cx, lv.end)
        self.fstep = _comp_expr(cx, lv.step) \
            if lv.step is not None else None
        self.parallel = lv.parallel
        self.cont_idxs = ()
        self.line = lv.line


def _check_bounds(lx, lv, outermost):
    """Bounds must be side-effect-free; collapsed inner bounds must
    additionally be nest-invariant (they are re-evaluated per entry in
    the serial schedule)."""
    exprs = [lv.start, lv.end]
    if lv.step is not None:
        exprs.append(lv.step)
    for e in exprs:
        inv = _invariance(lx, e)   # raises on calls
        if not outermost:
            if inv != "inv":
                raise _Reject(
                    f"inner loop bound varies inside the nest "
                    f"(line {lv.line})")
            if any(isinstance(n, ast.ArrayRef)
                   for n in ast.walk_expr(e)):
                raise _Reject(
                    f"inner loop bound reads an array (line {lv.line})")


# --------------------------------------------------------------------------
# The lowering driver
# --------------------------------------------------------------------------

def _lower(cx, s):
    """Lower the nest rooted at ``s``; returns a :class:`_Nest` or
    raises :class:`_Reject` with a user-facing reason."""
    # 1. structural collapse
    levels_ast = [s]
    cur = s
    while True:
        inner = [x for x in cur.body if isinstance(x, ast.DoLoop)]
        rest = [x for x in cur.body if not isinstance(x, ast.DoLoop)]
        if not inner:
            body = cur.body
            break
        if len(inner) > 1:
            raise _Reject("two loops at the same nest level")
        if any(not isinstance(x, ast.Continue) for x in rest):
            raise _Reject("imperfect nest (statements beside the "
                          "inner loop)")
        cur = inner[0]
        levels_ast.append(cur)

    nest_vars: dict[str, int] = {}
    for k, lv in enumerate(levels_ast):
        key = lv.var.upper()
        if key in nest_vars:
            raise _Reject(f"duplicate loop variable {key}")
        nest_vars[key] = k

    # 2. innermost body classification
    for x in body:
        if not isinstance(x, (ast.Assign, ast.Continue)):
            raise _Reject(f"{type(x).__name__} in loop body")
    assigns = [x for x in body if isinstance(x, ast.Assign)]

    written_arrays: set[str] = set()
    scalar_writes: dict[str, int] = {}
    for x in assigns:
        t = x.target
        if isinstance(t, (ast.ArrayRef, ast.NameRef)):
            key = t.name.upper()
            if cx.arr_slot(key) < 0:
                raise _Reject(f"assignment through unknown array {key}")
            written_arrays.add(key)
        elif isinstance(t, ast.VarRef):
            key = t.name.upper()
            if key in nest_vars:
                raise _Reject(f"assignment to loop variable {key}")
            if cx.arr_slot(key) >= 0:
                raise _Reject(f"scalar store shadowing array {key}")
            scalar_writes[key] = scalar_writes.get(key, 0) + 1
        else:
            raise _Reject("unsupported assignment target")

    lx = _Lx(cx, levels_ast, nest_vars, written_arrays,
             set(scalar_writes))

    # 3. bounds
    for k, lv in enumerate(levels_ast):
        _check_bounds(lx, lv, outermost=(k == 0))

    # 4. statement-by-statement lowering (order = serial order)
    recipes = []
    inner_cost = 0.0
    #: arrays with a write that drops a level its value varies along:
    #: the bulk store keeps only the last slice, which is sound only if
    #: no other reference to the array can observe the intermediates
    unsafe_drop: set[str] = set()
    for x in body:
        sidx = cx.idx_of[id(x)]
        lx.cur_pos = len(recipes)
        if isinstance(x, ast.Continue):
            inner_cost += COST_TERM
            recipes.append(("cont", sidx))
            continue
        cost = _expr_cost(x.value) + COST_MEMREF
        inner_cost += cost
        t = x.target
        if isinstance(t, (ast.ArrayRef, ast.NameRef)):
            wref = _Ref(lx, t, write=True, pos=lx.cur_pos)
            lx.add_ref(wref)
            fn, vt, varies, _safe = _vexpr(lx, x.value)
            # a write that drops a level the value varies along keeps
            # only the last iteration's store: slice instead of reject
            missing = [lvl for lvl in range(lx.depth)
                       if lvl not in wref.levels]
            last_sel = None
            if missing:
                last_sel = tuple(
                    slice(-1, None) if lvl in missing else slice(None)
                    for lvl in range(lx.depth))
                if varies & set(missing):
                    unsafe_drop.add(wref.key)
            recipes.append(("arr", sidx, wref, fn, last_sel))
        else:
            key = t.name.upper()
            red = None
            if key not in lx.assigned:
                red = _red_match(x.value, key)
                if red is not None and _reads_name(red[1], key):
                    red = None
            if red is not None and scalar_writes[key] == 1:
                kind, operand = red
                sign = -1 if kind == "sum" and x.value.op == "-" else 1
                svt = _vtype_name(cx, key)
                lx.reductions.add(key)
                fn, ovt, varies, _safe = _vexpr(lx, operand)
                if kind in ("sum", "prod"):
                    if svt != _INT or ovt != _INT:
                        raise _Reject(
                            f"REAL {kind} reduction on {key} is not "
                            f"exactly associative")
                else:
                    if svt is None or svt != ovt:
                        raise _Reject(
                            f"MAX/MIN reduction on {key} with mixed "
                            f"types")
                seed = _comp_varref(cx, key)
                store = _scalar_store(cx, key)
                recipes.append(("red", sidx, key, kind, sign, seed,
                                fn, store))
            else:
                if _reads_name(x.value, key) and key not in lx.assigned:
                    raise _Reject(
                        f"scalar {key} carries a loop dependence")
                if key in lx.reductions:
                    raise _Reject(
                        f"reduction variable {key} assigned twice")
                svt = _vtype_name(cx, key)
                if svt is None:
                    raise _Reject(f"scalar {key} has non-numeric type")
                fn, vt, varies, _safe = _vexpr(lx, x.value)
                store = _scalar_store(cx, key)
                recipes.append(("tmp", sidx, key, svt, fn, store))
                lx.assigned.add(key)

    # 5. level plans + per-level CONTINUE costs
    levels = []
    for k, lv in enumerate(levels_ast):
        L = _Level(cx, lv)
        if k < len(levels_ast) - 1:
            L.cont_idxs = tuple(cx.idx_of[id(x)] for x in lv.body
                                if isinstance(x, ast.Continue))
        levels.append(L)

    # 6. dependence pair plan (static structure; distances at runtime)
    pairs = []
    writes = [r for r in lx.refs if r.write]
    for w in writes:
        for r in lx.refs:
            if r is w or r.key != w.key:
                continue
            if r.write and r.pos <= w.pos:
                continue   # write-write pairs once, earlier first
            if w.key in unsafe_drop:
                raise _Reject(
                    f"{w.key} written per-iteration along a dropped "
                    f"loop level and referenced elsewhere")
            if len(w.dims) != len(r.dims):
                raise _Reject(
                    f"rank mismatch between references to {w.key}")
            for (dl, _, _), (rl, _, _) in zip(w.dims, r.dims):
                if dl != rl:
                    raise _Reject(
                        f"unanalyzable subscript pattern on {w.key}")
            if r.write:
                kind = "ww"
            elif r.pos > w.pos:
                kind = "after"
            else:
                kind = "before"
            pairs.append((w, r, kind))

    return _Nest(cx, levels, recipes, lx, pairs, inner_cost)


def _scalar_store(cx, key):
    """(slot, coercion-kind, common-name|None) for a scalar store --
    the vector path mirrors compile._comp_store at nest exit."""
    slot = cx.slot(key)
    sym = cx.st.get(key)
    tname = sym.type_name if sym is not None else None
    common = sym is not None and sym.storage == "common"
    return (slot, tname, key if common else None)


def _store_scalar(fr, store, v):
    """Apply one mirrored scalar store (declared-type coercion plus
    COMMON write-through, exactly like the compiled engine)."""
    slot, tname, common = store
    if isinstance(v, (np.ndarray, np.generic)):
        v = v.item()
    if tname == "INTEGER":
        if isinstance(v, float):
            v = int(v)
    elif tname in ("REAL", "DOUBLEPRECISION"):
        if isinstance(v, int):
            v = float(v)
    fr.regs[slot] = v
    if common is not None:
        fr.rt._globals[common] = v


# --------------------------------------------------------------------------
# The lowered nest: entry-time prechecks + bulk execution
# --------------------------------------------------------------------------

class _Nest:
    #: entry-plan memo bound: a nest is re-entered with a small cycling
    #: set of bounds/offset keys (slalom: 349 entries cycling over 19
    #: per-point subscript offsets), so the cap must exceed the cycle
    #: length or every plan is evicted before its reuse comes around
    _MEMO_CAP = 32

    def __init__(self, cx, levels, recipes, lx, pairs, inner_cost):
        self.levels = levels
        self.recipes = recipes
        self.refs = lx.refs
        self.inv = lx.inv
        self.prechecks = lx.prechecks
        self.pairs = pairs
        self.inner_cost = inner_cost
        self.depth = len(levels)
        self.n_parallel = sum(1 for L in levels if L.parallel)
        #: (starts, steps, trips, params) -> entry plan from a previous
        #: entry; hits are validated by storage/ndarray identity
        self._memo = {}
        #: equality-normalized key -> plan minus the views, for entries
        #: whose invariant subscript offsets sweep (a per-row plane
        #: index): totals, aliasing and dependence verdicts and index
        #: vectors carry over, only the view slices are rebuilt
        self._shape = {}

    # -- entry ------------------------------------------------------------

    def prepare(self, fr):
        """Evaluate bounds, build views, and run every safety check
        without touching interpreter state.  Returns the ready-to-commit
        environment, or None to fall back to the closure-compiled
        loop.

        Entry-invariant work -- trip arithmetic, subscript bounds
        checks, view slicing, aliasing and dependence-distance tests,
        index-vector construction -- is hoisted into a memoized plan
        keyed on (bounds, subscript parameters) and revalidated by
        storage identity, so a nest re-entered 349 times (slalom's
        integrator) pays for it once.  Work that reads live interpreter
        state -- the step-budget and clock-window guards, invariant
        scalars, reduction seeds, domain prechecks -- reruns on every
        entry."""
        floor = math.floor
        starts, steps, trips = [], [], []
        for L in self.levels:
            start = L.fs(fr)
            end = L.fe(fr)
            step = L.fstep(fr) if L.fstep is not None else 1
            if not (isinstance(start, int) and isinstance(end, int)
                    and isinstance(step, int)) or step == 0:
                return None
            t = int(floor((end - start + step) / step))
            if t < 1:
                return None
            starts.append(start)
            steps.append(step)
            trips.append(t)

        # per-ref runtime parameters: cheap closure evaluations that,
        # with the bounds, key the entry plan
        arrs = []
        params = []
        for ref in self.refs:
            a = fr.arrs[ref.j]
            if a is None:
                return None
            p = ref.eval_params(fr)
            if p is None:
                return None
            arrs.append(a)
            params.append(p)

        key = (tuple(starts), tuple(steps), tuple(trips), tuple(params))
        plan = self._memo.get(key)
        if plan is not None and not self._plan_valid(arrs, plan):
            # storage re-bound or re-allocated (fresh run, new frame):
            # the cached views alias dead memory
            self._memo.pop(key, None)
            plan = None
        if plan is not None:
            (_storages, _datas, views, ivecs, q, total, steps_total,
             serial_total) = plan
            perf_counters.bump("vec_entry_hits")
        else:
            got = self._shape_hit(key, arrs, params, starts, steps,
                                  trips)
            if got is None:
                return None
            views, ivecs, q, total, steps_total, serial_total = got

        # aggregate step count must not cross the limit mid-nest
        rt = fr.rt
        if rt.steps + steps_total > rt.max_steps:
            return None

        # virtual-clock exactness guard (dyadic accumulation window)
        ovh = parallel_overhead()
        if self.n_parallel:
            if not (abs(ovh) < 2 ** 45) or ovh * 8 != int(ovh * 8):
                return None
        if abs(rt.clock) + serial_total + self.n_parallel * abs(ovh) \
                >= _EXACT_CLOCK:
            return None

        ev = _Ev(fr, ivecs, views, None)

        # invariant scalars (a missing value falls back; the serial
        # replay then raises the exact "has no value" fault)
        inv = []
        for f in self.inv:
            try:
                inv.append(f(fr))
            except Exception:
                return None
        ev.inv = inv

        # reduction seeds
        seeds = {}
        for rec in self.recipes:
            if rec[0] == "red":
                try:
                    seeds[rec[2]] = rec[5](fr)
                except Exception:
                    return None

        # domain prechecks (divisors nonzero, SQRT arguments...)
        for f, _what in self.prechecks:
            try:
                if not f(ev):
                    return None
            except Exception:
                return None

        return (starts, steps, trips, q, total, steps_total,
                serial_total, ovh, ev, seeds)

    @staticmethod
    def _plan_valid(arrs, plan):
        """A cached plan is reusable only for the exact storages (and
        backing ndarrays) it was built against."""
        for a, st_, d in zip(arrs, plan[0], plan[1]):
            if a is not st_ or a.data is not d:
                return False
        return True

    @staticmethod
    def _fifo_put(memo, key, value, cap):
        if len(memo) >= cap:
            try:   # FIFO bound (defensive under concurrent entries)
                memo.pop(next(iter(memo)))
            except (StopIteration, KeyError, RuntimeError):
                memo.clear()
        memo[key] = value

    def _shape_key(self, starts, steps, trips, params):
        """Key under which the view-free part of a plan carries over.

        The dependence-distance test reads invariant subscript offsets
        only through *equality* comparisons (same plane or not), so two
        entries whose invariant offsets have the same equality pattern
        -- e.g. the row index swept 1, 2, 3... with everything else
        fixed -- share totals, aliasing and dependence verdicts, and
        index vectors.  Invariant offsets are therefore renumbered by
        first occurrence; level-dim coefficients and offsets stay
        verbatim (distances subtract them), and an invariant offset
        colliding with a verbatim level offset also stays verbatim so
        cross-kind equality is preserved."""
        level_offsets = {bc for p in params
                         for (lvl, _ac, bc) in p if lvl is not None}
        classes = {}
        norm = []
        for p in params:
            dims = []
            for (lvl, ac, bc) in p:
                if lvl is None and bc not in level_offsets:
                    dims.append((None, 0,
                                 classes.setdefault(bc, len(classes))))
                else:
                    dims.append((lvl, ac, bc))
            norm.append(tuple(dims))
        return (tuple(starts), tuple(steps), tuple(trips), tuple(norm))

    def _shape_hit(self, key, arrs, params, starts, steps, trips):
        """Full-key miss path: reuse a shape-equivalent plan (rebuilding
        only the view slices) or build from scratch.  Returns
        ``(views, ivecs, q, total, steps_total, serial_total)`` or None
        to fall back."""
        skey = self._shape_key(starts, steps, trips, params)
        splan = self._shape.get(skey)
        if splan is not None and not self._plan_valid(arrs, splan):
            self._shape.pop(skey, None)
            splan = None
        if splan is not None:
            (_storages, datas, ivecs, q, total, steps_total,
             serial_total) = splan
            views = []
            for ref, a, p, d in zip(self.refs, arrs, params, datas):
                view = ref.make_view(d, a.lowers, starts, steps, trips,
                                     p)
                if view is None:
                    return None
                views.append(view)
            perf_counters.bump("vec_entry_hits")
        else:
            plan = self._build_plan(arrs, params, starts, steps, trips)
            if plan is None:
                return None
            (storages, datas, views, ivecs, q, total, steps_total,
             serial_total) = plan
            self._fifo_put(self._memo, key, plan, self._MEMO_CAP)
            self._fifo_put(self._shape, skey,
                           (storages, datas, ivecs, q, total,
                            steps_total, serial_total), self._MEMO_CAP)
            perf_counters.bump("vec_entry_misses")
        return views, ivecs, q, total, steps_total, serial_total

    def _build_plan(self, arrs, params, starts, steps, trips):
        """The entry-invariant slice of :meth:`prepare`: trip-count
        arithmetic, oriented views, aliasing and dependence-distance
        checks, index vectors.  Returns the memoizable plan tuple, or
        None when any eligibility check fails (failures are never
        cached: the cheap closure work repeats, exactly as before)."""
        total = 1
        for t in trips:
            total *= t
        if total > MAX_ELEMENTS:
            return None

        n = self.depth
        q = []   # Q_l = T_0 * ... * T_l
        acc = 1
        for t in trips:
            acc *= t
            q.append(acc)
        steps_total = 0
        for k, L in enumerate(self.levels[:-1]):
            steps_total += q[k] * len(L.cont_idxs)
        n_inner = len(self.recipes)
        steps_total += q[-1] * n_inner

        serial_total = self.inner_cost * trips[-1]
        for k in range(n - 2, -1, -1):
            serial_total = trips[k] * (
                len(self.levels[k].cont_idxs) * COST_TERM + serial_total)

        # oriented zero-copy views
        views = []
        datas = []
        for ref, a, p in zip(self.refs, arrs, params):
            data = a.as_ndarray()
            view = ref.make_view(data, a.lowers, starts, steps, trips, p)
            if view is None:
                return None
            views.append(view)
            datas.append(data)

        # aliasing between distinct storages (same-name refs share one
        # ArrayStorage and are covered by the dependence test below)
        written = {}
        for ref, st_ in zip(self.refs, arrs):
            if ref.write:
                written[ref.j] = st_
        if written:
            seen = {}
            for ref, st_ in zip(self.refs, arrs):
                seen[ref.j] = st_
            for wj, wst in written.items():
                for j, st_ in seen.items():
                    if j != wj and np.may_share_memory(wst.data,
                                                       st_.data):
                        return None

        # actual dependence distances in trip space
        for w, r, kind in self.pairs:
            pw = params[w.vidx]
            pr = params[r.vidx]
            delta = [0] * n
            nodep = False
            for (wl, wa, wb), (rl, ra, rb) in zip(pw, pr):
                if wl is None:
                    if wb != rb:
                        nodep = True
                        break
                    continue
                if wa != ra:
                    return None
                A = wa * steps[wl]
                num = rb - wb
                if num % A != 0:
                    nodep = True
                    break
                delta[wl] = num // A
            if nodep:
                continue
            sgn = 0
            for d in delta:
                if d:
                    sgn = 1 if d > 0 else -1
                    break
            if kind == "after" and sgn > 0:
                return None
            if kind == "before" and sgn < 0:
                return None
            if kind == "ww" and sgn > 0:
                return None

        # index vectors, oriented into the full iteration space
        ivecs = []
        for k in range(n):
            iv = np.arange(trips[k], dtype=np.int64) * steps[k] \
                + starts[k]
            shape = [1] * n
            shape[k] = trips[k]
            ivecs.append(iv.reshape(shape))

        return (tuple(arrs), tuple(datas), views, ivecs, q, total,
                steps_total, serial_total)

    # -- commit -----------------------------------------------------------

    def commit(self, fr, env):
        (starts, steps, trips, q, total, steps_total, serial_total,
         ovh, ev, seeds) = env
        rt = fr.rt
        n = self.depth
        shape = tuple(trips)
        last_tmp = {}
        finals = []

        with np.errstate(all="ignore"):
            for rec in self.recipes:
                kind = rec[0]
                if kind == "cont":
                    continue
                if kind == "arr":
                    _k, _sidx, wref, fn, last_sel = rec
                    v = fn(ev)
                    dst = ev.views[wref.vidx]
                    if isinstance(v, np.ndarray) and v.ndim:
                        if last_sel is not None:
                            v = v[last_sel]
                        if np.may_share_memory(v, dst):
                            v = v.copy()
                    dst[...] = v
                elif kind == "tmp":
                    _k, _sidx, key, svt, fn, store = rec
                    v = fn(ev)
                    v = _coerce_vec(svt, v)
                    ev.temps[key] = v
                    last_tmp[key] = (store, v)
                else:  # red
                    _k, _sidx, key, rkind, sign, _seed, fn, store = rec
                    v = fn(ev)
                    if isinstance(v, np.ndarray) and v.ndim:
                        v = np.broadcast_to(v, shape)
                    else:
                        v = np.broadcast_to(np.asarray(v), shape)
                    seed = seeds[key]
                    if rkind == "sum":
                        # arbitrary-precision parity: int64 sums can
                        # wrap where the serial engine's Python ints
                        # cannot, so bound-check before trusting numpy
                        lo = int(v.min())
                        hi = int(v.max())
                        if max(abs(lo), abs(hi)) * v.size < 2 ** 62:
                            tot = int(v.sum())
                        else:
                            tot = sum(v.ravel().tolist())
                        out = seed + sign * tot
                    elif rkind == "prod":
                        out = seed * math.prod(v.ravel().tolist())
                    elif rkind == "max":
                        m = v.max().item()
                        out = seed if seed >= m else m
                    else:
                        m = v.min().item()
                        out = seed if seed <= m else m
                    finals.append((store, out))

        # last-iteration value of every temporary
        last_sel = (-1,) * n
        for key, (store, v) in last_tmp.items():
            if isinstance(v, np.ndarray) and v.ndim:
                v = np.broadcast_to(v, shape)[last_sel]
            finals.append((store, v))
        for store, v in finals:
            _store_scalar(fr, store, v)

        # profile + clock + steps, in aggregate
        cnt = fr.cnt
        li = fr.li
        lt = fr.lt
        entries = 1
        level_times = self._level_times(trips, ovh)
        for k, L in enumerate(self.levels):
            cnt[L.idx] += entries
            li[L.lidx] += q[k]
            lt[L.lidx] += entries * level_times[k]
            fr.lf[L.lidx] = 1
            fr.ltf[L.lidx] = 1
            for cidx in L.cont_idxs:
                cnt[cidx] += q[k]
            entries = q[k]
        for rec in self.recipes:
            cnt[rec[1]] += q[-1]
        # final loop-variable values (start + trips * step, like the
        # per-iteration engines' exit store)
        regs = fr.regs
        for k, L in enumerate(self.levels):
            regs[L.vslot] = starts[k] + trips[k] * steps[k]
        rt.steps += steps_total
        if self.levels[0].parallel:
            rt.clock = (rt.clock + (level_times[0] - ovh)) + ovh
        else:
            rt.clock = rt.clock + level_times[0]
        perf_counters.bump("vec_loops")
        perf_counters.bump("vec_elements", total)

    def _level_times(self, trips, ovh):
        """Per-entry virtual time of each level, innermost-out; all
        operands are dyadic rationals inside the guarded window, so
        these equal the per-iteration accumulation bit-for-bit."""
        n = self.depth
        times = [0.0] * n
        if self.levels[-1].parallel:
            # fork-join collapse: wall time = one (uniform) iteration
            # plus overhead; for level 0 commit re-splits the +ovh to
            # reproduce the engine's exact float expression
            t = self.inner_cost + ovh
        else:
            t = self.inner_cost * trips[-1]
        times[-1] = t
        for k in range(n - 2, -1, -1):
            per_iter = len(self.levels[k].cont_idxs) * COST_TERM + t
            if self.levels[k].parallel:
                t = per_iter + ovh
            else:
                t = trips[k] * per_iter
            times[k] = t
        return times


def _coerce_vec(tname, v):
    """Declared-type store coercion, elementwise (mirrors
    compile._comp_store for INTEGER/REAL scalars)."""
    if isinstance(v, np.ndarray) and v.ndim:
        if tname == "INTEGER":
            if v.dtype.kind == "f":
                return np.trunc(v).astype(np.int64)
            return v
        if v.dtype.kind in "iub":
            return v.astype(np.float64)
        return v
    if isinstance(v, (np.ndarray, np.generic)):
        v = v.item()
    if tname == "INTEGER":
        return int(v) if isinstance(v, float) else v
    return float(v) if isinstance(v, int) else v


# --------------------------------------------------------------------------
# Hook called by compile._comp_do (vector tier only)
# --------------------------------------------------------------------------

def maybe_vectorize(cx, s, idx, lidx, base_op):
    """Wrap the compiled DO op with the lowered nest when eligible;
    always records a :class:`LoopDecision` in ``cx.vec_info``."""
    try:
        nest = _lower(cx, s)
        reason = ""
    except _Reject as r:
        nest, reason = None, str(r)
    except Exception as e:   # defensive: lowering must never break compile
        nest, reason = None, f"lowering error: {type(e).__name__}: {e}"
    cx.vec_info[lidx] = LoopDecision(
        line=s.line, var=s.var.upper(), vectorized=nest is not None,
        reason=reason, depth=nest.depth if nest is not None else 1)
    if nest is None:
        return base_op
    outer_parallel = nest.levels[0].parallel

    def op(fr):
        # a PARALLEL DO with a real worker pool attached belongs to the
        # fork-join runtime (whose chunk bodies still run any *inner*
        # vectorized nests in bulk) -- delegation, not a fallback
        if outer_parallel and fr.rt._runtime is not None:
            return base_op(fr)
        try:
            env = nest.prepare(fr)
        except Exception:
            env = None
        if env is None:
            perf_counters.bump("vec_fallbacks")
            return base_op(fr)
        nest.commit(fr, env)
        return None
    return op


# --------------------------------------------------------------------------
# The vector interpreter: CompiledInterpreter linked in the vector tier
# --------------------------------------------------------------------------

class VectorInterpreter(CompiledInterpreter):
    """Third execution tier: identical surface and observables, but
    every unit is compiled with per-loop numpy lowering.  Loops that do
    not lower (or whose runtime prechecks fail) execute on the closure
    engine embedded in the same unit, so the fallback is per-loop, not
    per-program."""

    def _linked(self, name: str):
        lk = self._lk.get(name, _MISSING)
        if lk is _MISSING:
            uir = self.program.units.get(name)
            lk = linked_unit(uir, vector=True) if uir is not None \
                else None
            self._lk[name] = lk
        return lk


# --------------------------------------------------------------------------
# Introspection for health / navigation reports
# --------------------------------------------------------------------------

def lowering_decisions(program) -> dict:
    """``{(unit_name, loop_uid): LoopDecision}`` for every loop of the
    program, compiling (or reusing) the vector tier for each unit."""
    out = {}
    for name, uir in program.units.items():
        try:
            lk = linked_unit(uir, vector=True)
        except Exception:
            continue
        info = lk.code.vec_info
        for k, uid in enumerate(lk.loop_uids):
            dec = info.get(k)
            if dec is not None:
                out[(name, uid)] = dec
    return out
