"""Fault-tolerant fleet queue: batches programs onto the analysis pool
with per-task timeouts, bounded exponential-backoff retry, poison-task
quarantine, execution-tier degradation, and checkpointed resume.

The control loop is deliberately simple -- rounds of "dispatch every
ready task, then settle each result":

* a task that returns a record **completes**: its record is made durable
  in the checkpoint journal before the fleet proceeds;
* a task that fails (crash or timeout) is **retried** after
  ``backoff_base * 2**(attempt-1)`` seconds (capped), up to
  ``max_attempts`` total attempts;
* a task whose attempts are exhausted is **quarantined**: it gets a
  terminal ``status="quarantined"`` record (also journaled) and stops
  poisoning the batch;
* repeated infrastructure failures walk two degradation ladders --
  the dispatch pool (process -> thread -> serial, on timeouts and
  worker deaths) and the failing program's execution tier
  (vector -> compiled -> tree, on its next attempt) -- trading speed
  for survival instead of aborting the fleet.

The sleeper and the pool entry point are injectable so the test suite
drives retry/backoff deterministically without real waiting.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from ..corpus import ORDER, PROGRAMS
from ..perf import counters
from ..perf.pool import TaskFailure, run_tasks
from ..testing import faults
from .checkpoint import CheckpointJournal, fingerprint_of
from .pipeline import PipelineOptions, run_program_pipeline
from .report import FleetReport

__all__ = ["FleetOptions", "FleetRunner", "run_fleet",
           "POOL_LADDER", "ENGINE_LADDER"]

#: dispatch-pool degradation ladder (left = fastest, right = safest)
POOL_LADDER = ("process", "thread", "serial")

#: execution-tier degradation ladder for a repeatedly failing program
ENGINE_LADDER = ("vector", "compiled", "tree")


def _is_synth_name(name: str) -> bool:
    """True for well-formed generative-corpus names (synth:<seed>:<i>)."""
    from ..corpus import synth
    try:
        synth.parse_name(name)
    except ValueError:
        return False
    return True


@dataclass
class FleetOptions:
    """Scheduling knobs (result-affecting ones live on the pipeline)."""

    #: concurrent pipeline tasks per batch
    fleet_workers: int = 2
    #: initial dispatch pool mode; degraded down :data:`POOL_LADDER`
    pool: str = "thread"
    #: per-task result-wait timeout in seconds (None = wait forever)
    timeout: float | None = 120.0
    #: total attempts per program before quarantine
    max_attempts: int = 3
    #: first retry delay; doubles per subsequent attempt
    backoff_base: float = 0.25
    #: longest single backoff sleep
    backoff_cap: float = 8.0


@dataclass
class _TaskState:
    name: str
    attempts: int = 0
    engine: str = "compiled"
    last_error: str = ""
    timed_out: bool = False
    failures: list = field(default_factory=list)


class FleetRunner:
    """One fleet run over a list of corpus programs."""

    def __init__(self, programs=None, pipeline: PipelineOptions | None = None,
                 options: FleetOptions | None = None,
                 checkpoint: str | None = None,
                 sleeper=time.sleep, log=None):
        names = list(programs) if programs else list(ORDER)
        unknown = [n for n in names
                   if n not in PROGRAMS and not _is_synth_name(n)]
        if unknown:
            raise ValueError(f"unknown corpus program(s): "
                             f"{', '.join(unknown)}")
        self.names = names
        self.pipeline = pipeline or PipelineOptions()
        self.options = options or FleetOptions()
        for knob in ("fleet_workers", "max_attempts"):
            value = getattr(self.options, knob)
            if value < 1:
                raise ValueError(f"{knob} must be >= 1, got {value}")
        self.checkpoint_path = checkpoint
        self.sleeper = sleeper
        self.log = log or (lambda msg: None)
        self._pool_level = max(0, POOL_LADDER.index(self.options.pool)) \
            if self.options.pool in POOL_LADDER else 1

    # -- degradation ladders ---------------------------------------------------

    def _degrade_pool(self, report: FleetReport, why: str) -> None:
        if self._pool_level + 1 < len(POOL_LADDER):
            frm = POOL_LADDER[self._pool_level]
            self._pool_level += 1
            to = POOL_LADDER[self._pool_level]
            counters.bump("fleet_degradations")
            report.degradations.append(
                {"kind": "pool", "from": frm, "to": to, "why": why})
            self.log(f"fleet: degrading dispatch pool {frm} -> {to} "
                     f"({why})")

    def _degrade_engine(self, st: _TaskState, report: FleetReport,
                        why: str) -> None:
        if st.engine in ENGINE_LADDER:
            i = ENGINE_LADDER.index(st.engine)
            if i + 1 < len(ENGINE_LADDER):
                counters.bump("fleet_degradations")
                report.degradations.append(
                    {"kind": "engine", "program": st.name,
                     "from": st.engine, "to": ENGINE_LADDER[i + 1],
                     "why": why})
                st.engine = ENGINE_LADDER[i + 1]

    # -- main loop -------------------------------------------------------------

    def run(self) -> FleetReport:
        t_start = time.perf_counter()
        opts, pipe = self.options, self.pipeline
        report = FleetReport(mode=pipe.mode, options=pipe.to_dict())
        completed: dict[str, dict] = {}

        journal = None
        if self.checkpoint_path:
            fp = fingerprint_of(self.names, pipe.to_dict())
            journal = CheckpointJournal(self.checkpoint_path)
            prior = journal.load(fp)
            for name in self.names:
                if name in prior:
                    completed[name] = prior[name]
                    report.resumed.append(name)
                    counters.bump("fleet_resumed")
            journal.start(fp, {n: completed[n] for n in self.names
                               if n in completed})
            if report.resumed:
                self.log(f"fleet: resuming, {len(report.resumed)} "
                         f"program(s) already complete")

        states = {name: _TaskState(name, engine=pipe.engine)
                  for name in self.names}
        pending = [n for n in self.names if n not in completed]
        batch_no = 0
        try:
            while pending:
                batch = pending[:opts.fleet_workers]
                batch_no += 1
                faults.check("fleet_dispatch", batch=batch_no)
                results = self._dispatch(batch, states, report)
                still = pending[len(batch):]
                retry_after = 0.0
                for name, result in zip(batch, results):
                    st = states[name]
                    st.attempts += 1
                    counters.bump("fleet_tasks")
                    if not isinstance(result, TaskFailure):
                        result["attempts"] = st.attempts
                        result["engine"] = st.engine
                        completed[name] = result
                        counters.bump("fleet_completed")
                        if result.get("diverged"):
                            counters.bump("fleet_divergences")
                        if journal is not None:
                            journal.append(result)
                        continue
                    # -- failure path -------------------------------------
                    st.last_error = repr(result)
                    st.timed_out = result.timed_out
                    st.failures.append(
                        f"attempt {st.attempts}: "
                        f"{type(result.error).__name__}: {result.error}")
                    if result.timed_out:
                        counters.bump("fleet_timeouts")
                        report.timeouts += 1
                        self._degrade_pool(report,
                                           f"{name} timed out")
                    else:
                        self._degrade_pool(
                            report, f"{name} crashed: "
                            f"{type(result.error).__name__}")
                    if st.attempts >= opts.max_attempts:
                        rec = self._quarantine_record(st)
                        completed[name] = rec
                        counters.bump("fleet_quarantined")
                        report.quarantined.append(name)
                        if journal is not None:
                            journal.append(rec)
                        self.log(f"fleet: quarantined {name} after "
                                 f"{st.attempts} attempt(s)")
                        continue
                    counters.bump("fleet_retries")
                    report.retries += 1
                    self._degrade_engine(st, report, "retry")
                    delay = min(opts.backoff_cap,
                                opts.backoff_base
                                * (2 ** (st.attempts - 1)))
                    retry_after = max(retry_after, delay)
                    still.append(name)
                if retry_after > 0:
                    self.sleeper(retry_after)
                pending = still
        finally:
            if journal is not None:
                journal.close()

        report.programs = [completed[n] for n in self.names
                           if n in completed]
        report.elapsed = time.perf_counter() - t_start
        return report

    # -- pieces ----------------------------------------------------------------

    def _dispatch(self, batch, states, report: FleetReport) -> list:
        mode = POOL_LADDER[self._pool_level]
        tasks = []
        for name in batch:
            d = self.pipeline.to_dict()
            d["engine"] = states[name].engine
            tasks.append(functools.partial(run_program_pipeline, name, d))
        # one worker per task: the result-wait timeout then bounds each
        # task's own run time, not its queueing delay (see run_tasks)
        return run_tasks(
            tasks, parallel=(mode != "serial" and len(tasks) > 1),
            mode=None if mode == "serial" else mode,
            max_workers=len(tasks), picklable=True, contexts=list(batch),
            on_error="return",
            timeout=self.options.timeout if mode != "serial" else None)

    def _quarantine_record(self, st: _TaskState) -> dict:
        return {
            "program": st.name, "mode": self.pipeline.mode,
            "status": "quarantined", "engine": st.engine,
            "attempts": st.attempts, "timed_out": st.timed_out,
            "failures": list(st.failures),
            "parallel_loops": [], "impediments": 0,
            "degraded_analyses": 0, "lint": [], "diverged": False,
            "divergence": None, "virtual_speedup": None,
        }


def run_fleet(programs=None, pipeline: PipelineOptions | None = None,
              options: FleetOptions | None = None,
              checkpoint: str | None = None, sleeper=time.sleep,
              log=None) -> FleetReport:
    """Run the batch auto-parallelization fleet; returns its report."""
    return FleetRunner(programs, pipeline, options, checkpoint,
                       sleeper=sleeper, log=log).run()
