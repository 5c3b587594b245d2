"""Relative-debugging execution: aligned sync points and an adversarial
(but deterministic) parallel schedule, both on the closure compiler.

Hood & Jost's relative debugger compares a serial and a parallel
execution of the same program at *sync points* and localizes the first
one where their states differ.  This module supplies both halves for
the fleet's verify stage and its divergence bisector
(:mod:`repro.fleet.bisect`):

* sync numbering -- :func:`run_to_sync` runs the sync-numbering variant
  of the closure compiler (``CompiledInterpreter(sync=True)``).  A sync
  point is the completion of any statement executed *outside* every
  PARALLEL DO: a logical IF's inner statement, a declaration and every
  statement of a called unit count; GOTO, RETURN, STOP and a jump out
  of a called unit do not.  Inside a PARALLEL DO, statement order is
  exactly what the two executions disagree about, so the loop collapses
  to a single sync point at its join.  Both executions of the same
  program produce the same numbering up to their first divergence, so
  "state at sync point k" is comparable across runs.  ``halt_at=k``
  stops a run right after sync point ``k``; a ``sampler`` observes
  chosen sync points without stopping (see
  :class:`~repro.interp.compile.CompiledInterpreter`).

* :class:`AdversarialRuntime` -- executes every PARALLEL DO under a
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
  :func:`~repro.interp.runtime.fork_blocker` over the loop's
  :func:`~repro.interp.runtime.loop_facts` and runs every loop the
  runtime would refuse with serial semantics, so it cannot report a
  divergence the real execution cannot produce.
  ``force_reassociation=True`` is the verdict's ``allow_inexact``: it
  lets a REAL sum or product count as a reduction, to demonstrate what
  reassociating it would do.

The tree walker stays the serial oracle (``run_program(engine="tree")``)
and the shadow's engine; ``tests/golden/divergence.json`` pins the
numbering and the schedule.
"""

from __future__ import annotations

from .compile import _UNSET, CompiledInterpreter, SyncRecord
from .machine import parallel_jump_fault, parallel_overhead
from .runtime import fork_blocker, interleaved_order, resolve_schedule, \
    summary_lookup

__all__ = ["SyncRecord", "AdversarialRuntime", "run_to_sync"]


class AdversarialRuntime:
    """The adversarial schedule, attached to a
    :class:`~repro.interp.compile.CompiledInterpreter` in place of the
    fork-join runtime.

    It answers the same ``try_execute`` hook from ``compile._comp_do``.
    A loop the fork verdict admits runs on the calling thread, on the
    one shared register file, in
    :func:`~repro.interp.runtime.interleaved_order`: only the private
    slots are swapped per chunk (reductions and other shared scalars
    stay shared), WRITE output is merged by iteration index, and the
    privates get their pre-loop values back at the join.
    """

    def __init__(self, workers: int = 4, schedule: str = "static",
                 force_reassociation: bool = False):
        self.workers = workers
        self.schedule = schedule
        self.force_reassociation = force_reassociation
        #: (unit, line) -> reason, for loops kept serial
        self.serial_fallbacks: dict[tuple, str] = {}
        self._verdicts: dict = {}       # (unit, loop index) -> reason | None
        self._summaries: dict = {}

    def _verdict(self, rt, plan, lk, lidx) -> str | None:
        key = (lk.code.name, lidx)
        if key not in self._verdicts:
            b = fork_blocker(plan.facts, lk.loop_privates[lidx],
                             summary_lookup(rt.program.units,
                                            self._summaries),
                             rt.assertion_checker is not None,
                             allow_inexact=self.force_reassociation)
            self._verdicts[key] = None if b is None else b.reason()
        return self._verdicts[key]

    def try_execute(self, fr, plan, lidx, start, step, trips) -> bool:
        """Run the loop under the adversarial schedule; False = the
        caller runs the serial simulation."""
        rt = fr.rt
        lk = fr.lk
        blocked = self._verdict(rt, plan, lk, lidx)
        if blocked is not None:
            self.serial_fallbacks[(lk.code.name, plan.line)] = blocked
            return False
        if trips <= 0 or self.workers <= 1:
            return False
        regs = fr.regs
        reg_index = lk.code.reg_index
        # privatize only scalars that already hold a value; an unset
        # one stays shared across chunks
        privs = []
        for name in sorted({p.upper() for p in lk.loop_privates[lidx]}):
            i = reg_index.get(name)
            if i is not None and regs[i] is not _UNSET:
                privs.append(i)
        saved = [regs[i] for i in privs]
        chunk_priv: dict[int, list] = {}
        per_iter_out: list[tuple[int, list]] = []
        body, vslot, term = plan.body, plan.vslot, plan.term
        outer_outputs = rt.outputs
        t0 = rt.clock
        max_iter = 0.0
        try:
            for ci, k in interleaved_order(trips, self.workers,
                                           self.schedule):
                env = chunk_priv.get(ci)
                if env is None:
                    env = chunk_priv[ci] = list(saved)
                for i, v in zip(privs, env):
                    regs[i] = v
                regs[vslot] = start + k * step
                rt.outputs = out = []
                it_start = rt.clock
                sig = body(fr)
                if sig is not None and \
                        not (type(sig) is int and sig == term):
                    raise parallel_jump_fault(plan.line)
                if out:
                    per_iter_out.append((k, out))
                d = rt.clock - it_start
                if d > max_iter:
                    max_iter = d
                env[:] = [regs[i] for i in privs]
        finally:
            rt.outputs = outer_outputs
        # join: the loop variable takes its sequential exit value;
        # worker-private last values are discarded (the race the shadow
        # reports as a privatization violation)
        regs[vslot] = start + trips * step
        for i, v in zip(privs, saved):
            regs[i] = v
        for _, items in sorted(per_iter_out, key=lambda kv: kv[0]):
            outer_outputs.extend(items)
        rt.clock = t0 + max_iter + parallel_overhead()
        return True


def run_to_sync(program, inputs, adversarial: bool,
                halt_at: int | None = None, workers: int = 4,
                schedule: str = "static",
                force_reassociation: bool = False,
                max_steps: int = 5_000_000, sampler=None):
    """One (possibly halted, possibly sampled) sync-numbered execution:
    the serial reference, or the adversarial parallel run under an
    :class:`AdversarialRuntime` with ``workers`` and ``schedule``.

    Raises ``ValueError`` for ``workers < 1`` or an unknown schedule.
    """
    if int(workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    schedule = resolve_schedule(schedule)
    interp = CompiledInterpreter(program, list(inputs or []),
                                 max_steps=max_steps, sync=True,
                                 halt_at=halt_at, sampler=sampler)
    if adversarial:
        interp._runtime = AdversarialRuntime(int(workers), schedule,
                                             force_reassociation)
        interp.serial_fallbacks = interp._runtime.serial_fallbacks
    interp.run()
    return interp
