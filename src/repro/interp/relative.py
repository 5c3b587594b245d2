"""Relative-debugging execution: aligned sync points + an adversarial
(but deterministic) parallel schedule.

Hood & Jost's relative debugger compares a serial and a parallel
execution of the same program at *sync points* and localizes the first
one where their states differ.  This module supplies both halves for
the fleet's divergence bisector (:mod:`repro.fleet.bisect`):

* :class:`SyncPointInterpreter` -- the reference tree walker plus a
  monotone sync counter.  A sync point is the completion of any
  statement executed *outside* every PARALLEL DO (inside one, statement
  order is exactly what the two executions disagree about, so a
  parallel loop collapses to a single sync point at its join).  Both
  executions of the same program produce the same sync numbering up to
  their first divergence, so "state at sync point k" is comparable
  across runs.  ``halt_at=k`` stops a run right after sync point ``k``
  (flushing the current frame's COMMON scalars so ``snapshot()`` is
  meaningful mid-run) and records which statement that was.

* :class:`AdversarialInterpreter` -- executes every PARALLEL DO under a
  deterministic adversarial schedule: iterations run in the
  chunk-interleaved order of
  :func:`repro.interp.runtime.interleaved_order`, private scalars are
  replicated per chunk and their worker-private last values are
  discarded at the join (the frame keeps its pre-loop value), and
  per-iteration WRITE output is merged back in iteration order exactly
  like the fork-join runtime's join.  For a loop the dependence engine
  really proved parallel this is observably identical to serial
  execution; for a racy loop it manifests the race on every run, which
  is what makes bisection possible (the real worker pool only
  *sometimes* loses the race).  Which loops are forked is not decided
  here: the emulator asks the runtime's
  :func:`~repro.interp.runtime.fork_blocker` over the runtime's
  :func:`~repro.interp.runtime.loop_facts` and runs every loop the
  runtime would refuse with serial semantics, so it cannot report a
  divergence the real execution cannot produce.
  ``force_reassociation=True`` is the verdict's ``allow_inexact``: it
  lets a REAL sum or product count as a reduction, to demonstrate what
  reassociating it would do.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fortran import ast
from .machine import Interpreter, _Jump, _norm_int, parallel_jump_fault, \
    parallel_overhead
from .runtime import fork_blocker, interleaved_order, loop_facts, \
    summary_lookup

__all__ = [
    "SyncHalt", "SyncRecord", "SyncPointInterpreter",
    "AdversarialInterpreter", "run_to_sync",
]


class SyncHalt(Exception):
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


def _record_of(index: int, s: ast.Stmt, unit: str) -> SyncRecord:
    if isinstance(s, ast.DoLoop):
        return SyncRecord(index, unit, s.line, s.uid,
                          "parallel_do" if s.parallel else "do",
                          s.var.upper())
    return SyncRecord(index, unit, s.line, s.uid, type(s).__name__)


class SyncPointInterpreter(Interpreter):
    """Reference interpreter + aligned sync-point counting/halting."""

    def __init__(self, program, inputs=None, halt_at: int | None = None,
                 **kw):
        super().__init__(program, inputs, **kw)
        #: 1-based count of completed depth-0 statements
        self.sync_count = 0
        #: halt right after this sync point (None = run to completion)
        self.halt_at = halt_at
        #: the statement at the halt (or the last sync point seen)
        self.halted: SyncRecord | None = None
        self._par_depth = 0

    def run(self, unit_name=None, args=None):
        try:
            return super().run(unit_name, args)
        except SyncHalt:
            return None

    def _exec_stmt(self, s: ast.Stmt, frame) -> None:
        super()._exec_stmt(s, frame)
        if self._par_depth == 0:
            self.sync_count += 1
            if self.halt_at is not None and self.sync_count >= self.halt_at:
                self.halted = _record_of(self.sync_count, s,
                                         frame.unit_name)
                self._flush_common(frame)
                raise SyncHalt()

    def _exec_parallel_do(self, s, frame, start, step, trips):
        self._par_depth += 1
        try:
            super()._exec_parallel_do(s, frame, start, step, trips)
        finally:
            self._par_depth -= 1


class AdversarialInterpreter(SyncPointInterpreter):
    """Deterministic worst-case parallel execution of PARALLEL DO loops.

    Observable state is byte-identical to serial execution for loops
    that are genuinely iteration-order independent; loops that are not
    diverge on *every* run, under the exact interleaving
    :func:`repro.interp.runtime.interleaved_order` describes.
    """

    def __init__(self, program, inputs=None, workers: int = 4,
                 schedule: str = "static",
                 force_reassociation: bool = False, **kw):
        super().__init__(program, inputs, **kw)
        self.rel_workers = max(1, int(workers))
        self.rel_schedule = schedule
        self.force_reassociation = force_reassociation
        #: (unit, line) -> reason, for loops kept serial
        self.serial_fallbacks: dict[tuple, str] = {}
        self._verdicts: dict = {}       # (unit, uid) -> reason | None
        self._summary_of = summary_lookup(program.units, {})

    def _verdict(self, s, frame) -> str | None:
        """Why the fork-join runtime would not fork this loop (None: it
        would), asked of the runtime's own :func:`fork_blocker`."""
        key = (frame.unit_name, s.uid)
        if key not in self._verdicts:
            b = fork_blocker(loop_facts(s, frame.symtab),
                             frozenset(s.private_vars), self._summary_of,
                             self.assertion_checker is not None,
                             allow_inexact=self.force_reassociation)
            if b is None:
                why = None
            elif b.static is not None:
                why = b.static
            elif b.stray:
                why = f"writes shared scalar {b.stray[0]}"
            else:
                why = f"callee {b.callee}: {b.why or 'no program unit'}"
            self._verdicts[key] = why
        return self._verdicts[key]

    def _exec_parallel_do(self, s, frame, start, step, trips):
        blocked = self._verdict(s, frame)
        if blocked is not None or trips <= 0 or self.rel_workers <= 1:
            if blocked is not None:
                self.serial_fallbacks[(frame.unit_name, s.line)] = blocked
            super()._exec_parallel_do(s, frame, start, step, trips)
            return

        self._par_depth += 1
        outer_outputs = self.outputs
        order = interleaved_order(trips, self.rel_workers,
                                  self.rel_schedule)
        privs = sorted({p.upper() for p in s.private_vars}
                       & set(frame.scalars))
        saved = {p: frame.scalars[p] for p in privs}
        chunk_priv: dict[int, dict] = {}
        per_iter_out: list[tuple[int, list]] = []
        t0 = self.clock
        max_iter = 0.0
        try:
            for ci, k in order:
                env = chunk_priv.setdefault(ci, dict(saved))
                for p in privs:
                    frame.scalars[p] = env[p]
                frame.scalars[s.var] = _norm_int(start + k * step)
                self.outputs = []
                it_start = self.clock
                try:
                    self._exec_block(s.body, frame)
                except _Jump as j:
                    if j.label != s.term_label:
                        raise parallel_jump_fault(s.line)
                finally:
                    if self.outputs:
                        per_iter_out.append((k, self.outputs))
                    self.outputs = outer_outputs
                max_iter = max(max_iter, self.clock - it_start)
                for p in privs:
                    env[p] = frame.scalars[p]
            # join: the loop variable takes its sequential exit value;
            # worker-private last values are discarded (the race the
            # shadow reports as a privatization violation)
            frame.scalars[s.var] = _norm_int(start + trips * step)
            for p in privs:
                frame.scalars[p] = saved[p]
            for _, items in sorted(per_iter_out, key=lambda kv: kv[0]):
                outer_outputs.extend(items)
            self.clock = t0 + max_iter + parallel_overhead()
        finally:
            self.outputs = outer_outputs
            self._par_depth -= 1


def run_to_sync(program, inputs, adversarial: bool,
                halt_at: int | None = None, workers: int = 4,
                schedule: str = "static",
                force_reassociation: bool = False,
                max_steps: int = 5_000_000):
    """One (possibly halted) execution for the bisector: serial
    reference or adversarial parallel, same sync numbering."""
    if adversarial:
        interp = AdversarialInterpreter(
            program, list(inputs or []), workers=workers,
            schedule=schedule, force_reassociation=force_reassociation,
            halt_at=halt_at, max_steps=max_steps)
    else:
        interp = SyncPointInterpreter(
            program, list(inputs or []), halt_at=halt_at,
            max_steps=max_steps)
    interp.run()
    return interp
