"""Dependence-breaking transformations: privatization, scalar expansion,
array renaming, peeling, splitting, alignment, and the reduction
restructuring the paper lists as *needed* (Figure 2, Section 4.3)."""

from __future__ import annotations

from ..analysis.arraykills import privatizable_arrays
from ..analysis.kills import scalar_kills
from ..analysis.symbolic import trip_count
from ..fortran import ast
from ..interp.runtime import _red_match
from .base import Advice, TContext, TransformError, Transformation, \
    add_expr, declare_array, fresh_name, owner_or_raise, sub_expr, \
    substitute_in_stmt


class Privatization(Transformation):
    """Mark a variable private to the loop body (Section 3.1's variable
    classification, as a transformation)."""

    name = "privatization"
    category = "Dependence Breaking"

    def check(self, ctx: TContext) -> Advice:
        if ctx.loop is None:
            return Advice.no("select a loop")
        var = (ctx.param("var") or "").upper()
        if not var:
            return Advice.no("name the variable to privatize")
        st = ctx.uir.symtab
        sym = st.get(var)
        if sym is None:
            return Advice.no(f"{var} is not a symbol in this unit")
        if ctx.param("force"):
            return Advice.yes(True, "user asserts the variable is "
                                    "privatizable")
        if sym.is_array:
            env = ctx.analyzer._env_at(ctx.loop)
            facts = ctx.analyzer._facts_with_ranges(env)
            oracle = ctx.analyzer.oracle
            cb = oracle.call_sections_for(st) \
                if hasattr(oracle, "call_sections_for") else None
            ok = var in privatizable_arrays(
                ctx.loop.loop, st, oracle, env, call_sections=cb,
                facts=facts)
            if not ok:
                return Advice.unsafe(
                    f"array kill analysis cannot prove {var} is wholly "
                    "written before read each iteration")
        else:
            killed = {p.name for p in scalar_kills(
                ctx.loop.loop, st, ctx.analyzer.oracle)}
            if var not in killed:
                return Advice.unsafe(
                    f"{var} is not killed on every iteration")
        return Advice.yes(True, f"{var} carries no value between "
                                "iterations")

    def _do(self, ctx: TContext):
        var = ctx.param("var").upper()
        ctx.loop.loop.private_vars.add(var)
        return f"privatized {var} in loop at line {ctx.loop.line}", []


class ScalarExpansion(Transformation):
    """Expand a scalar into an array indexed by the loop variable.

    The most-used transformation at the workshop (Table 4): it removes
    the loop-carried anti/output dependences a shared temporary induces.
    """

    name = "scalar_expansion"
    category = "Dependence Breaking"

    def check(self, ctx: TContext) -> Advice:
        if ctx.loop is None:
            return Advice.no("select a loop")
        var = (ctx.param("var") or "").upper()
        if not var:
            return Advice.no("name the scalar to expand")
        st = ctx.uir.symtab
        sym = st.get(var)
        if sym is None or sym.is_array:
            return Advice.no(f"{var} is not a scalar in this unit")
        lp = ctx.loop.loop
        assigned = any(
            isinstance(s, ast.Assign) and isinstance(s.target, ast.VarRef)
            and s.target.name == var
            for s, _ in ast.walk_stmts(lp.body))
        if not assigned:
            return Advice.no(f"{var} is not assigned inside the loop")
        env = ctx.analyzer._env_at(ctx.loop)
        n = trip_count(lp, env)
        if n is None:
            lo = ctx.param("extent")
            if lo is None:
                return Advice.unsafe(
                    "loop trip count unknown; pass extent= to size the "
                    "expansion array")
        killed = {p.name for p in scalar_kills(lp, st, ctx.analyzer.oracle)}
        if var not in killed and not ctx.param("force"):
            return Advice.unsafe(
                f"{var} has an upward-exposed use: expansion would read "
                "an undefined element on the first iteration")
        return Advice.yes(True, f"expanding {var} removes its carried "
                                "anti/output dependences")

    def _do(self, ctx: TContext):
        var = ctx.param("var").upper()
        lp = ctx.loop.loop
        st = ctx.uir.symtab
        env = ctx.analyzer._env_at(ctx.loop)
        n = trip_count(lp, env) or ctx.param("extent")
        sym = st.get(var)
        new = fresh_name(var, set(st.symbols))
        declare_array(ctx.uir, new, sym.type_name,
                      (ast.DimSpec(ast.IntConst(1), ast.IntConst(int(n))),))
        # Replace scalar refs with array refs indexed by a normalized
        # iteration number.
        idx: ast.Expr = ast.VarRef(lp.var)
        start = lp.start
        if not (isinstance(start, ast.IntConst) and start.value == 1):
            idx = add_expr(sub_expr(ast.VarRef(lp.var), start),
                           ast.IntConst(1))
        env_subst = {var: ast.ArrayRef(new, (idx,))}
        for s in lp.body:
            substitute_in_stmt(s, env_subst)
        # Live-out safety: copy the last element back after the loop.
        owner, pos = owner_or_raise(ctx.uir, lp)
        last_idx: ast.Expr = lp.end
        if not (isinstance(lp.start, ast.IntConst)
                and lp.start.value == 1):
            last_idx = add_expr(sub_expr(lp.end, lp.start), ast.IntConst(1))
        owner.insert(pos + 1, ast.Assign(
            target=ast.VarRef(var),
            value=ast.ArrayRef(new, (last_idx,)), line=lp.line))
        return f"expanded scalar {var} into array {new}", []


class ArrayRenaming(Transformation):
    """Give a new name to an array over a statement range, breaking
    storage-related (output/anti) dependences."""

    name = "array_renaming"
    category = "Dependence Breaking"

    def check(self, ctx: TContext) -> Advice:
        var = (ctx.param("var") or "").upper()
        stmts = ctx.param("stmts")
        if not var or not stmts:
            return Advice.no("pass var= and stmts= (statement list)")
        sym = ctx.uir.symtab.get(var)
        if sym is None or not sym.is_array:
            return Advice.no(f"{var} is not an array")
        return Advice(True, bool(ctx.param("force")), True,
                      ["renaming changes which storage later reads see; "
                       "the user must confirm no renamed value flows to an "
                       "un-renamed use (pass force=True)"])

    def _do(self, ctx: TContext):
        from .base import rename_array_in_stmt
        var = ctx.param("var").upper()
        stmts = ctx.param("stmts")
        st = ctx.uir.symtab
        sym = st.get(var)
        new = fresh_name(var, set(st.symbols))
        declare_array(ctx.uir, new, sym.type_name, sym.dims)
        for s in stmts:
            rename_array_in_stmt(s, var, new)
        return f"renamed {var} to {new} in {len(stmts)} statement(s)", []


class LoopPeeling(Transformation):
    """Peel the first (or last) k iterations out of the loop."""

    name = "loop_peeling"
    category = "Dependence Breaking"

    def check(self, ctx: TContext) -> Advice:
        if ctx.loop is None:
            return Advice.no("select a loop")
        k = ctx.param("iterations", 1)
        if not isinstance(k, int) or k < 1:
            return Advice.no("iterations must be a positive integer")
        step = ctx.loop.loop.step
        if step is not None and not (isinstance(step, ast.IntConst)
                                     and step.value == 1):
            return Advice.no("peeling implemented for unit-step loops")
        from .reorder import _has_unstructured_flow
        if _has_unstructured_flow(ctx.loop.loop.body):
            return Advice.no("loop body contains unstructured control flow")
        return Advice.yes(False, "peeling preserves execution order")

    def _do(self, ctx: TContext):
        lp = ctx.loop.loop
        k = ctx.param("iterations", 1)
        where = ctx.param("where", "front")
        owner, pos = owner_or_raise(ctx.uir, lp)
        peeled: list[ast.Stmt] = []
        for j in range(k):
            body = [s.clone() for s in lp.body
                    if not (isinstance(s, ast.Continue)
                            and s.label == lp.term_label)]
            if where == "front":
                value = add_expr(lp.start, ast.IntConst(j))
            else:
                value = sub_expr(lp.end, ast.IntConst(k - 1 - j))
            for s in body:
                substitute_in_stmt(s, {lp.var: value})
            guard_cond = ast.BinOp(
                ".LE.", value if where == "front" else lp.start,
                lp.end if where == "front" else value)
            peeled.append(ast.IfBlock(cond=guard_cond, then_body=body,
                                      line=lp.line))
        if where == "front":
            lp.start = add_expr(lp.start, ast.IntConst(k))
            owner[pos:pos] = peeled
        else:
            lp.end = sub_expr(lp.end, ast.IntConst(k))
            owner[pos + 1:pos + 1] = peeled
        return f"peeled {k} iteration(s) off the {where} of the loop", []


class LoopSplitting(Transformation):
    """Index-set splitting: one loop becomes two over [lo,p] and [p+1,hi]."""

    name = "loop_splitting"
    category = "Dependence Breaking"

    def check(self, ctx: TContext) -> Advice:
        if ctx.loop is None:
            return Advice.no("select a loop")
        if ctx.param("at") is None:
            return Advice.no("pass at= (the split point expression)")
        step = ctx.loop.loop.step
        if step is not None and not (isinstance(step, ast.IntConst)
                                     and step.value == 1):
            return Advice.no("splitting implemented for unit-step loops")
        return Advice.yes(False, "splitting preserves execution order")

    def _do(self, ctx: TContext):
        lp = ctx.loop.loop
        at = ctx.param("at")
        if isinstance(at, int):
            at = ast.IntConst(at)
        from .reorder import _normalize_enddo
        if not _normalize_enddo(lp, ctx.uir.unit):
            raise TransformError("terminal label is a GOTO target")
        owner, pos = owner_or_raise(ctx.uir, lp)
        # Clamp so a split point outside [start, end] degenerates to a
        # zero-trip piece instead of changing the iteration set.
        first_end = ast.FuncRef("MIN", (at, lp.end), intrinsic=True)
        second_start = ast.FuncRef(
            "MAX", (add_expr(at, ast.IntConst(1)), lp.start),
            intrinsic=True)
        second = ast.DoLoop(
            var=lp.var, start=second_start, end=lp.end,
            step=None, body=[s.clone() for s in lp.body],
            private_vars=set(lp.private_vars), line=lp.line)
        lp.end = first_end
        owner.insert(pos + 1, second)
        return f"split loop at {at}", []


class LoopAlignment(Transformation):
    """Align a carried dependence by shifting one statement's iteration
    space, converting the carried dependence to loop-independent.

    Restricted form: the loop body is a sequence of assignments; the
    chosen statement is shifted by ``offset`` iterations with peel/guard
    compensation.
    """

    name = "loop_alignment"
    category = "Dependence Breaking"

    def check(self, ctx: TContext) -> Advice:
        if ctx.loop is None:
            return Advice.no("select a loop")
        target = ctx.param("stmt")
        offset = ctx.param("offset")
        if target is None or not isinstance(offset, int) or offset == 0:
            return Advice.no("pass stmt= and a non-zero integer offset=")
        lp = ctx.loop.loop
        if not all(isinstance(s, (ast.Assign, ast.Continue))
                   for s in lp.body):
            return Advice.no("alignment implemented for straight-line "
                             "assignment bodies")
        if target not in lp.body:
            return Advice.no("stmt must be a top-level statement of the "
                             "loop body")
        step = lp.step
        if step is not None and not (isinstance(step, ast.IntConst)
                                     and step.value == 1):
            return Advice.no("alignment implemented for unit-step loops")
        return Advice.yes(True, "aligned instances execute in the same "
                                "iteration")

    def _do(self, ctx: TContext):
        lp = ctx.loop.loop
        target: ast.Stmt = ctx.param("stmt")
        offset: int = ctx.param("offset")
        # Shift the statement: it now executes for iteration value
        # (I - offset); guards keep the shifted instances in range and
        # peel code covers the displaced boundary instances.
        shifted = target.clone()
        substitute_in_stmt(shifted, {
            lp.var: sub_expr(ast.VarRef(lp.var), ast.IntConst(offset))})
        lo_guard = ast.BinOp(
            ".GE.", sub_expr(ast.VarRef(lp.var), ast.IntConst(offset)),
            lp.start)
        hi_guard = ast.BinOp(
            ".LE.", sub_expr(ast.VarRef(lp.var), ast.IntConst(offset)),
            lp.end)
        guarded = ast.IfBlock(cond=ast.BinOp(".AND.", lo_guard, hi_guard),
                              then_body=[shifted], line=target.line)
        idx = lp.body.index(target)
        lp.body[idx] = guarded
        owner, pos = owner_or_raise(ctx.uir, lp)
        # Compensation code for the instances the shift pushed out of the
        # loop's range: offset > 0 leaves the last ``offset`` instances
        # unexecuted (run them after the loop); offset < 0 the first ones
        # (run them before).
        comp: list[ast.Stmt] = []
        for j in range(1, abs(offset) + 1):
            inst = target.clone()
            if offset > 0:
                value = sub_expr(lp.end, ast.IntConst(offset - j))
            else:
                value = add_expr(lp.start, ast.IntConst(j - 1))
            substitute_in_stmt(inst, {lp.var: value})
            comp.append(inst)
        if offset > 0:
            owner[pos + 1:pos + 1] = comp
        else:
            owner[pos:pos] = comp
        return (f"aligned statement at line {target.line} by "
                f"{offset} iteration(s)"), []


class ReductionRecognition(Transformation):
    """Restructure a recognized reduction so the loop can run in parallel.

    ``s = s + e(i)`` becomes ``SP(i) = e(i)`` inside the (now
    parallelizable) loop plus a sequential accumulation loop after it --
    the classic two-phase reduction (Section 4.3, "Reductions").
    """

    name = "reduction_recognition"
    category = "Dependence Breaking"

    def _find(self, ctx: TContext, var: str) -> ast.Assign | None:
        for s, _ in ast.walk_stmts(ctx.loop.loop.body):
            if isinstance(s, ast.Assign) and isinstance(s.target,
                                                        ast.VarRef) \
                    and s.target.name == var:
                return s
        return None

    def check(self, ctx: TContext) -> Advice:
        if ctx.loop is None:
            return Advice.no("select a loop")
        var = (ctx.param("var") or "").upper()
        cands = ctx.deps.reductions
        if not var:
            if len(cands) == 1:
                var = next(iter(cands))
            else:
                return Advice.no(
                    f"pass var=; reduction candidates here: "
                    f"{sorted(cands) or 'none'}")
        if var not in cands:
            return Advice.unsafe(
                f"{var} does not match a recognized reduction pattern")
        stmt = self._find(ctx, var)
        red = _red_match(stmt.value, var) if stmt is not None else None
        if red is None or red[0] != "sum":
            return Advice.no("only sum reductions are restructured "
                             "automatically")
        if stmt not in ctx.loop.loop.body:
            return Advice.unsafe(
                "reduction update is conditional; partial-sum elements "
                "would be undefined for skipped iterations")
        env = ctx.analyzer._env_at(ctx.loop)
        if trip_count(ctx.loop.loop, env) is None \
                and ctx.param("extent") is None:
            return Advice.unsafe("loop trip count unknown; pass extent=")
        return Advice.yes(True, "sum reductions reassociate; restructuring "
                                "exposes the parallel phase")

    def _do(self, ctx: TContext):
        var = (ctx.param("var") or "").upper()
        if not var:
            var = next(iter(ctx.deps.reductions))
        lp = ctx.loop.loop
        st = ctx.uir.symtab
        stmt = self._find(ctx, var)
        env = ctx.analyzer._env_at(ctx.loop)
        n = trip_count(lp, env) or ctx.param("extent")
        sym = st.get(var)
        part = fresh_name(var, set(st.symbols))
        declare_array(ctx.uir, part, sym.type_name,
                      (ast.DimSpec(ast.IntConst(1), ast.IntConst(int(n))),))
        idx: ast.Expr = ast.VarRef(lp.var)
        if not (isinstance(lp.start, ast.IntConst) and lp.start.value == 1):
            idx = add_expr(sub_expr(ast.VarRef(lp.var), lp.start),
                           ast.IntConst(1))
        _, contrib = _red_match(stmt.value, var)
        if stmt.value.op == "-":
            contrib = ast.UnOp("-", contrib)
        stmt.target = ast.ArrayRef(part, (idx,))
        stmt.value = contrib
        # Accumulation loop after the parallel phase.
        owner, pos = owner_or_raise(ctx.uir, lp)
        acc = ast.DoLoop(
            var=lp.var, start=ast.IntConst(1), end=ast.IntConst(int(n)),
            step=None,
            body=[ast.Assign(
                target=ast.VarRef(var),
                value=ast.BinOp("+", ast.VarRef(var),
                                ast.ArrayRef(part, (ast.VarRef(lp.var),))),
                line=lp.line)],
            line=lp.line)
        owner.insert(pos + 1, acc)
        return (f"restructured sum reduction on {var}: parallel phase "
                f"writes {part}, sequential phase accumulates"), []
