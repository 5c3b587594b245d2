"""Relative-debugging divergence bisection.

When a fleet run observes that a program's parallel execution differs
from its serial execution, :func:`compare_runs` alone can only say
*that* final state differs ("common:V mismatch at (1,1)").  This module
answers *where it first went wrong*: a K-ary search over the aligned
sync points of :mod:`repro.interp.relative` finds a sync index at which
the two executions' observable states differ while they still agreed
one sync point earlier, i.e. the first divergent statement.  When that
statement is itself a PARALLEL DO join, the shadow access log refines
the report down to the racy statement and variable inside the loop
body.

Cost: every execution (the closure compiler's sync-numbering variant)
samples the observable state at up to ~K sync points instead of halting
at one.  The two full runs the final comparison needs already sample
the whole run (the serial one keeps a snapshot every ``stride``-th
sync, doubling the stride past ``2 * K`` samples; the adversarial one
compares at those points as it goes), so they narrow the search to a
window of ~n/K sync points.  Each halted (serial, adversarial) probe
pair then samples K evenly spaced points inside the window and shrinks
it by another factor of K.  Seeded slab2d (~20k sync points) takes 2
probe pairs, 6 sync runs of ~0.2 s in all on a 2-CPU host; the one
tree-walker shadow run that names the race (~0.7 s) is most of the
stage.  Every run is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fortran import ast
from ..interp.relative import SyncRecord, run_to_sync
from ..interp.runtime import resolve_schedule
from ..interp.shadow import dynamic_races, log_for, races_under, run_shadow
from ..interp.verify import RunDiff, compare_runs, compare_snapshots

__all__ = ["Divergence", "find_divergence"]

#: sync points one execution samples: each halted probe pair
#: narrows the search window by about this factor
K = 32


@dataclass
class Divergence:
    """The first point where parallel execution observably departs from
    serial execution."""

    unit: str
    #: source line of the first divergent statement
    line: int
    #: first observable key that differs there (e.g. ``common:V``)
    first_diff_key: str
    #: variable named by the diff key / race report
    variable: str
    #: 1-based sync index of the divergence
    sync_index: int
    #: "statement" (a plain statement after the racy loop consumed a
    #: stale value) or "parallel_do" (the loop join itself diverged)
    kind: str
    statement: str = ""
    #: enclosing/diverging PARALLEL DO, when one was identified
    loop_line: int | None = None
    loop_var: str = ""
    #: shadow-refined race description (kind + cells + iterations)
    race: str = ""
    race_kind: str = ""
    #: final-state differences of the two full runs
    diffs: list[str] = field(default_factory=list)
    #: halted (serial, adversarial) probe pairs run after the two full
    #: runs to narrow the sampled window down to one sync point
    probes: int = 0

    def describe(self) -> str:
        head = (f"first divergence at {self.unit} line {self.line} "
                f"(sync point {self.sync_index}): {self.statement}")
        parts = [head, f"  first differing observable: "
                       f"{self.first_diff_key} (variable {self.variable})"]
        if self.loop_line is not None:
            parts.append(f"  parallel loop: DO {self.loop_var} at "
                         f"{self.unit} line {self.loop_line}")
        if self.race:
            parts.append(f"  shadow: {self.race}")
        return "\n".join(parts)

    def to_json(self) -> dict:
        return {
            "unit": self.unit, "line": self.line,
            "first_diff_key": self.first_diff_key,
            "variable": self.variable, "sync_index": self.sync_index,
            "kind": self.kind, "statement": self.statement,
            "loop_line": self.loop_line, "loop_var": self.loop_var,
            "race": self.race, "race_kind": self.race_kind,
            "diffs": list(self.diffs), "probes": self.probes,
        }


def _var_of_key(key: str | None) -> str:
    if not key:
        return ""
    return key.split(":", 1)[1] if ":" in key else key


def _writer_line(program, unit: str, loop_line: int,
                 var: str) -> int | None:
    """Line of the first statement inside the PARALLEL DO at
    ``unit:loop_line`` that assigns ``var``."""
    uir = program.units.get(unit.upper())
    if uir is None:
        return None
    for s, _ in ast.walk_stmts(uir.unit.body):
        if isinstance(s, ast.DoLoop) and s.parallel and s.line == loop_line:
            for stmt, _ in ast.walk_stmts(s.body):
                if isinstance(stmt, ast.Assign) \
                        and stmt.target.name.upper() == var.upper():
                    return stmt.line
    return None


class _Reference:
    """Serial sampler: keeps ``sync index -> (record, snapshot)``.

    Given ``points`` it samples exactly those; otherwise every
    ``stride``-th sync point, doubling the stride (and dropping the
    samples off the coarser grid) whenever it holds more than ``2 * K``.
    """

    def __init__(self, points=None):
        self.samples: dict[int, tuple[SyncRecord, dict]] = {}
        self._points = None if points is None else iter(points)
        self.stride = 1
        self.next = 1 if points is None else next(self._points, None)

    def __call__(self, rec: SyncRecord, snap: dict) -> bool:
        self.samples[rec.index] = (rec, snap)
        if self._points is not None:
            self.next = next(self._points, None)
            return False
        if len(self.samples) > 2 * K:
            self.stride *= 2
            self.samples = {k: v for k, v in self.samples.items()
                            if k % self.stride == 0}
        self.next = (rec.index // self.stride + 1) * self.stride
        return False


class _Check:
    """Adversarial sampler: compares its state with the reference's at
    each of the reference's sync points, keeps the first mismatch and
    samples no further (halting there when ``halt``)."""

    def __init__(self, reference: dict, program, rtol: float,
                 atol: float, halt: bool):
        self.reference = reference
        self.program, self.rtol, self.atol = program, rtol, atol
        self.halt = halt
        self._points = iter(sorted(reference))
        self.next = next(self._points, None)
        #: (adversarial record, RunDiff) at the first mismatch
        self.mismatch: tuple[SyncRecord, RunDiff] | None = None
        #: adversarial record of the last sample that agreed
        self.agreed: SyncRecord | None = None

    def __call__(self, rec: SyncRecord, snap: dict) -> bool:
        d = compare_snapshots(self.reference[rec.index][1], snap,
                              self.program, rtol=self.rtol, atol=self.atol)
        if d:
            self.mismatch = (rec, d)
            self.next = None
            return self.halt
        self.agreed = rec
        self.next = next(self._points, None)
        return False


def _spread(lo: int, hi: int) -> list[int]:
    """At most K evenly spaced sync points strictly between lo and hi."""
    gap = hi - lo
    if gap - 1 <= K:
        return list(range(lo + 1, hi))
    return [lo + gap * j // (K + 1) for j in range(1, K + 1)]


def find_divergence(program, inputs=(), workers: int = 4,
                    schedule: str = "static", rtol: float = 1e-9,
                    atol: float = 1e-8,
                    force_reassociation: bool = False,
                    max_steps: int = 5_000_000) -> Divergence | None:
    """Search for the first statement where the adversarial parallel
    execution of ``program`` observably differs from serial execution.

    Returns None when the two executions agree (to ``rtol``) -- either
    the parallelization is sound or, as with spec77's fixed-point
    recurrence, the seeded values mask the race dynamically.  Raises
    ``ValueError`` for ``workers < 1`` or an unknown schedule.
    """
    schedule = resolve_schedule(schedule)

    def runs(halt_at=None, points=None):
        ref = _Reference(points)
        s = run_to_sync(program, inputs, adversarial=False,
                        halt_at=halt_at, sampler=ref, max_steps=max_steps)
        check = _Check(ref.samples, program, rtol, atol,
                       halt=halt_at is not None)
        a = run_to_sync(program, inputs, adversarial=True,
                        halt_at=halt_at, sampler=check, workers=workers,
                        schedule=schedule,
                        force_reassociation=force_reassociation,
                        max_steps=max_steps)
        return s, a, ref, check

    serial, adv, ref, check = runs()
    final = compare_runs(serial, adv, rtol=rtol, atol=atol)
    if not final:
        return None
    n = min(serial.sync_count, adv.sync_count)
    del serial, adv

    # window (lo, hi]: the states agree at lo (lo = 0: before any sync)
    # and, once ``hit`` holds the mismatch found there, differ at hi.
    # Until then hi = n is unknown: if even n agrees, the divergence
    # only materializes in the final COMMON flush at RETURN/STOP.
    lo, lo_rec, hi, hit = 0, None, n, None
    probes = 0
    while True:
        if check.mismatch is not None:
            hit = check.mismatch
            hi = hit[0].index
        elif hit is None and n in ref.samples:
            rec = check.agreed
            return Divergence(
                unit=rec.unit if rec else "?",
                line=rec.line if rec else 0,
                first_diff_key=final.first_key or "",
                variable=_var_of_key(final.first_key), sync_index=n,
                kind="final-flush",
                statement=rec.describe() if rec else "",
                diffs=list(final), probes=probes)
        agreed = [k for k in ref.samples if k < hi]
        if agreed:
            lo = max(agreed)
            lo_rec = ref.samples[lo][0]
        if hit is not None and hi - lo <= 1:
            break
        points = _spread(lo, hi) + ([] if hit is not None else [hi])
        probes += 1
        _, _, ref, check = runs(halt_at=hi, points=points)

    rec, diff = hit
    key = diff.first_key or final.first_key or ""
    variable = _var_of_key(key)
    div = Divergence(
        unit=rec.unit, line=rec.line, first_diff_key=key,
        variable=variable, sync_index=hi,
        kind="parallel_do" if rec.kind == "parallel_do" else "statement",
        statement=rec.describe(), diffs=list(final), probes=probes)

    if rec.kind == "parallel_do":
        div.loop_line, div.loop_var = rec.line, rec.var
        _refine_with_shadow(div, program, inputs, workers, schedule,
                            max_steps, rename_line=True)
    elif lo_rec is not None:
        # a clean plain statement often diverges because the join right
        # before it (sync hi - 1 = lo, a serial sample) lost a race; if
        # that was a PARALLEL DO, name it (slab2d: the post-loop read
        # of a privatized scalar; pueblo3d: the PRINT after the
        # reassociated reduction)
        if lo_rec.kind == "parallel_do" and lo_rec.unit == rec.unit:
            div.loop_line, div.loop_var = lo_rec.line, lo_rec.var
            _refine_with_shadow(div, program, inputs, workers, schedule,
                                max_steps, rename_line=False)
    return div


def _refine_with_shadow(div: Divergence, program, inputs, workers: int,
                        schedule: str, max_steps: int,
                        rename_line: bool = True) -> None:
    """Name the racy statement inside a diverging PARALLEL DO via the
    shadow access log."""
    try:
        shadow = run_shadow(program, list(inputs), max_steps=max_steps)
    except Exception:
        return
    log = log_for(shadow, div.unit, div.loop_line or div.line)
    if log is None:
        return
    races = races_under(log, workers, schedule, include_reductions=True) \
        or dynamic_races(log, include_reductions=True,
                         require_observed_ww=False)
    if not races:
        return
    # prefer the race on the variable the diff named
    race = next((r for r in races
                 if r.var.upper() == div.variable.upper()), races[0])
    div.race, div.race_kind = race.describe(), race.kind
    if not div.variable:
        div.variable = race.var
    if rename_line:
        line = _writer_line(program, div.unit,
                            div.loop_line or div.line, race.var)
        if line is not None:
            div.line = line
