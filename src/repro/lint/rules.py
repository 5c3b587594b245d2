"""The lint rule registry.

Race rules (RACE001-RACE004) are thin views over one shared
:class:`~repro.lint.races.LoopRaceAnalysis` run per PARALLEL loop;
LINT001-LINT005 reuse the base analyses directly (def-use chains,
reaching definitions, COMMON composition, the runtime's fork verdict,
linear symbolic evaluation).  None of them consult ``repro.dependence``.
"""

from __future__ import annotations

from ..analysis.linear import linearize
from ..assertions.lang import Relational
from ..fortran import ast
from ..interp.runtime import fork_blocker, loop_facts, summary_lookup
from ..interproc.compose import check_common_blocks
from ..ir.cfg import ENTRY
from .core import Rule, register
from .races import LoopRaceAnalysis


class UnitRule(Rule):
    """A rule whose findings are derived unit-locally (incremental
    re-lint re-runs it only for dirty units)."""

    scope = "unit"

    def check(self, ctx):
        return self.check_units(ctx, None)

    def check_units(self, ctx, units):
        out = []
        for name, uir in ctx.units(units):
            out.extend(self.check_unit(ctx, name, uir))
        return out

    def check_unit(self, ctx, name, uir):  # pragma: no cover
        raise NotImplementedError


# --------------------------------------------------------------------------
# Shared race analysis (one run per PARALLEL loop, cached on the context)
# --------------------------------------------------------------------------

def _race_results(ctx, units):
    """[(unit, loop id, loop, [RaceFinding])] with per-unit caching."""
    cache = getattr(ctx, "_race_cache", None)
    if cache is None:
        cache = ctx._race_cache = {}
    out = []
    for name, uir in ctx.units(units):
        if name not in cache:
            res = []
            for li in uir.loops.all_loops():
                if li.loop.parallel:
                    res.append((name, li.id, li.loop,
                                LoopRaceAnalysis(ctx, uir,
                                                 li.loop).run()))
            cache[name] = res
        out.extend(cache[name])
    return out


class RaceRuleBase(UnitRule):
    """Selects one finding category out of the shared analysis."""

    categories: tuple = ()
    fix: str | None = None

    def check_unit(self, ctx, name, uir):
        out = []
        for uname, loop_id, loop, findings in _race_results(ctx, [name]):
            for f in findings:
                if f.category not in self.categories:
                    continue
                sev = self.severity if f.definite else "warning"
                out.append(self.diag(uname, f.line, f.detail,
                                     loop=loop_id, var=f.var,
                                     fix=self.fix, severity=sev))
        return out


@register
class SharedRaceRule(RaceRuleBase):
    """WRITE-WRITE / READ-WRITE races on shared variables."""

    rule_id = "RACE001"
    severity = "error"
    title = "data race on a shared variable in a PARALLEL loop"
    categories = ("race", "unknown-callee")
    fix = "keep the loop sequential, or make the variable private " \
          "or a reduction"


@register
class PrivatizationRule(RaceRuleBase):
    """Unsound privatization: upward-exposed reads or live-out values."""

    rule_id = "RACE002"
    severity = "error"
    title = "privatization violation"
    categories = ("privatization",)
    fix = "assign the scalar on every path before its first read, " \
          "and copy the last value out if it is needed after the loop"


@register
class ReductionRule(RaceRuleBase):
    """Floating-point sum/product reductions marked parallel."""

    rule_id = "RACE003"
    severity = "warning"
    title = "non-associative reduction in a PARALLEL loop"
    categories = ("reduction",)
    fix = "accumulate in INTEGER, tolerate reordered rounding " \
          "explicitly, or keep the loop sequential"


@register
class UnsoundAssertionRule(RaceRuleBase):
    """User assertions contradicted by recovered index-array values."""

    rule_id = "RACE004"
    severity = "error"
    title = "unsound user assertion"
    categories = ("assertion",)
    fix = "delete the assertion; the dependence it suppresses is real"


# --------------------------------------------------------------------------
# LINT001: dead stores
# --------------------------------------------------------------------------

def _call_observes(ctx, stmt: ast.CallStmt, var: str) -> bool:
    """Does this CALL consume *var*'s incoming value?

    The def-use layer conservatively records every call argument as a
    use.  A plain scalar actual bound to a formal the callee kills
    before reading (absent from its ``exposed_ref``) is an out
    -parameter: the incoming value is never observed."""
    summ = ctx.oracle().summaries.get(stmt.name.upper())
    if summ is None:
        return True                     # unknown callee: worst case
    for i, a in enumerate(stmt.args):
        if isinstance(a, ast.VarRef) and a.name == var:
            if i >= len(summ.formals) \
                    or summ.formals[i] in summ.exposed_ref:
                return True
        else:
            for node in ast.walk_expr(a):
                if isinstance(node, (ast.VarRef, ast.ArrayRef)) \
                        and node.name == var:
                    return True         # subscript / expression operand
    return False


@register
class DeadStoreRule(UnitRule):
    """A local scalar assignment whose value no statement ever reads.

    Uses the def-use chains: a definition with an empty chain is dead
    unless the variable's value can escape the unit (argument, COMMON,
    SAVE) or the store is a may-def (array element, READ target)."""

    rule_id = "LINT001"
    severity = "warning"
    title = "dead store"

    def check_unit(self, ctx, name, uir):
        du = ctx.defuse(name)
        st = uir.symtab
        out = []
        for uid, stmt in uir.cfg.stmts.items():
            if not isinstance(stmt, ast.Assign) \
                    or not isinstance(stmt.target, ast.VarRef):
                continue
            var = stmt.target.name.upper()
            sym = st.get(var)
            if sym is None or sym.is_array or sym.saved \
                    or sym.storage != "local":
                continue
            uses = du.du_chains.get((uid, var), ())
            if any(not isinstance(uir.cfg.stmts.get(u), ast.CallStmt)
                   or _call_observes(ctx, uir.cfg.stmts[u], var)
                   for u in uses):
                continue
            out.append(self.diag(
                name, stmt.line,
                f"value assigned to {var} is never used",
                var=var, fix="delete the assignment"))
        return out


# --------------------------------------------------------------------------
# LINT002: uses before any definition
# --------------------------------------------------------------------------

@register
class UninitializedUseRule(UnitRule):
    """A local scalar read reachable from unit entry with no definition
    on some path (the ENTRY pseudo-definition survives in its ud-chain).
    Arguments, COMMON and SAVE variables legitimately carry values in."""

    rule_id = "LINT002"
    severity = "warning"
    title = "use before definition"

    def check_unit(self, ctx, name, uir):
        du = ctx.defuse(name)
        st = uir.symtab
        out = []
        seen: set[str] = set()
        for uid in sorted(uir.cfg.stmts):
            stmt = uir.cfg.stmts[uid]
            for var in sorted(du.uses.get(uid, ())):
                if var in seen:
                    continue
                sym = st.get(var)
                if sym is None or sym.is_array or sym.saved \
                        or sym.storage != "local":
                    continue
                chain = du.ud_chains.get((uid, var), ())
                if ENTRY not in chain:
                    continue
                if isinstance(stmt, ast.CallStmt) \
                        and not _call_observes(ctx, stmt, var):
                    continue
                seen.add(var)
                out.append(self.diag(
                    name, stmt.line,
                    f"{var} may be used before it is assigned",
                    var=var,
                    fix=f"initialize {var} before this statement"))
        return out


# --------------------------------------------------------------------------
# LINT003: COMMON block composition
# --------------------------------------------------------------------------

@register
class CommonShapeRule(Rule):
    """COMMON block layout mismatches across units (a unit-pair
    property, so the rule is program-scoped)."""

    rule_id = "LINT003"
    severity = "error"
    title = "COMMON block shape mismatch"
    scope = "program"

    def check(self, ctx):
        out = []
        for d in check_common_blocks(ctx.program):
            out.append(self.diag(
                d.unit, d.line, d.message,
                fix="make the block's layout identical in every unit"))
        return out


# --------------------------------------------------------------------------
# LINT004: runtime rejection prediction
# --------------------------------------------------------------------------

@register
class RuntimeRejectionRule(UnitRule):
    """Predicts, from the fork-join runtime's own fork verdict, that a
    PARALLEL loop will always fall back to the serial simulation — so
    the PARALLEL marking buys nothing."""

    rule_id = "LINT004"
    severity = "info"
    title = "PARALLEL loop the runtime will not fork"

    def check_unit(self, ctx, name, uir):
        out = []
        for li in uir.loops.all_loops():
            loop = li.loop
            if not loop.parallel:
                continue
            reason = self._reject_reason(ctx, uir, loop)
            if reason is not None:
                out.append(self.diag(
                    name, loop.line,
                    f"the runtime will never fork this loop: {reason}",
                    loop=li.id, var=loop.var.upper(),
                    fix="remove the PARALLEL marking or fix the "
                        "blocking construct"))
        return out

    def _reject_reason(self, ctx, uir, loop) -> str | None:
        summary_of = getattr(ctx, "_summary_of", None)
        if summary_of is None:
            summary_of = ctx._summary_of = summary_lookup(
                ctx.program.units, {})
        b = fork_blocker(loop_facts(loop, uir.symtab),
                         frozenset(loop.private_vars), summary_of,
                         check_assertions=False)
        if b is None:
            return None
        if b.static is not None:
            return b.static
        if b.stray:
            return (f"scalar{'s' if len(b.stray) > 1 else ''} "
                    f"{', '.join(b.stray)} written but neither private "
                    f"nor a recognized reduction")
        if b.why is None:
            return f"calls {b.callee}, which has no unit summary"
        return f"calls {b.callee}, which {_gloss(b.why)}"


def _gloss(reason: str) -> str:
    if reason == "READ":
        return "contains a READ statement"
    if reason == "STOP":
        return "contains a STOP statement"
    if reason == "cross-unit jump":
        return "jumps to a label outside itself"
    return reason  # "writes COMMON scalar X" reads fine as-is


# --------------------------------------------------------------------------
# LINT005: statically-decided branches and contradictory assertions
# --------------------------------------------------------------------------

_NEG = {".EQ.": ".NE.", ".NE.": ".EQ.", ".LT.": ".GE.", ".GE.": ".LT.",
        ".GT.": ".LE.", ".LE.": ".GT."}


def _decide(op: str, diff) -> bool:
    """Truth of ``diff op 0`` for a constant linear difference."""
    return {".EQ.": diff == 0, ".NE.": diff != 0, ".LT.": diff < 0,
            ".LE.": diff <= 0, ".GT.": diff > 0, ".GE.": diff >= 0}[op]


@register
class DecidedBranchRule(UnitRule):
    """IF conditions decidable from PARAMETER constants and asserted
    equalities: an always-false guard is dead code, an always-true one
    is a vacuous test.  Relational assertions that those same facts
    refute are reported as contradictions."""

    rule_id = "LINT005"
    severity = "info"
    title = "statically decided branch"

    def check_unit(self, ctx, name, uir):
        env = ctx.subscript_env(uir)
        out = []
        for stmt, _ in ast.walk_stmts(uir.unit.body):
            conds = []
            if isinstance(stmt, ast.IfBlock):
                conds.append(stmt.cond)
                conds.extend(c for c, _ in stmt.elifs)
            elif isinstance(stmt, ast.LogicalIf):
                conds.append(stmt.cond)
            for cond in conds:
                verdict = self._evaluate(cond, env)
                if verdict is None:
                    continue
                word = "true" if verdict else "false"
                out.append(self.diag(
                    name, stmt.line,
                    f"condition {_cond_text(cond)} is always {word} "
                    f"given PARAMETER values and assertions",
                    fix="delete the dead branch" if not verdict
                    else "delete the vacuous test"))
        # assertion contradictions are program facts; anchor them once,
        # in the main unit
        if uir is ctx.program.main_unit:
            out.extend(self._contradictions(ctx, name))
        return out

    def _evaluate(self, cond, env) -> bool | None:
        if not isinstance(cond, ast.BinOp) or cond.op not in _NEG:
            return None
        diff = linearize(cond.left, env) - linearize(cond.right, env)
        if not diff.is_constant:
            return None
        return _decide(cond.op, diff.const)

    def _contradictions(self, ctx, name):
        out = []
        rels = [a for a in ctx.assertions.assertions
                if isinstance(a, Relational)]
        for i, a in enumerate(rels):
            # evaluate under the equalities contributed by the *other*
            # assertions (and PARAMETERs are unit-local, so skip them)
            env = {}
            for j, b in enumerate(rels):
                if j != i and b.op == ".EQ." \
                        and isinstance(b.left, ast.VarRef):
                    env[b.left.name.upper()] = linearize(b.right)
            diff = linearize(a.left, env) - linearize(a.right, env)
            if diff.is_constant and not _decide(a.op, diff.const):
                out.append(self.diag(
                    name, 1,
                    f"assertion {a.text} contradicts the other "
                    f"assertions in force",
                    fix="remove one of the conflicting assertions"))
        return out


def _cond_text(cond: ast.Expr) -> str:
    try:
        from ..fortran.printer import print_expr
        return print_expr(cond)
    except Exception:
        return "<condition>"
