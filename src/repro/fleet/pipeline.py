"""Per-program fleet pipeline: parse -> analyze -> auto-parallelize ->
lint -> verify -> measure -> (on divergence) bisect.

One :func:`run_program_pipeline` call is one fleet task.  It is a
module-level function over picklable arguments so the queue can dispatch
it through a process pool, and it returns a plain JSON-able dict so
results survive the trip back.  Every stage is fault-isolated: a stage
that raises is recorded (``ok=False`` with the error text) and only the
stages that depend on its product are skipped -- a program whose
dependence analysis dies still gets linted, one whose measurement dies
still reports its divergence.  The :mod:`repro.testing.faults` hook
``fleet_stage`` fires *outside* the isolation, so an injected fault
escalates to a task failure and exercises the queue's retry path.

Modes
-----
``seeded``   the lint-corpus seeded variant of the program (its PARALLEL
             marks and defects included) -- the relative-debugging
             showcase;
``auto``     the pristine corpus program, parallelized by
             :func:`repro.ped.autopar.auto_parallelize`;
``plain``    the pristine program, analysis and lint only.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from ..corpus import PROGRAMS
from ..interp.relative import run_to_sync
from ..interp.verify import compare_runs, run_program
from ..lint import lint_program
from ..testing import faults

__all__ = ["MODES", "STAGES", "PipelineOptions", "StageResult",
           "run_program_pipeline"]

MODES = ("seeded", "auto", "plain")

STAGES = ("parse", "analyze", "autopar", "explore", "lint", "verify",
          "measure", "bisect")


@dataclass
class PipelineOptions:
    """Picklable per-task knobs (one mode/tier choice per attempt)."""

    mode: str = "auto"
    #: emulated worker count / schedule for verify + bisect
    workers: int = 4
    schedule: str = "static"
    #: execution tier for the explore and measure stages (degraded by
    #: the queue); verify and bisect always run the closure compiler
    engine: str = "compiled"
    rtol: float = 1e-9
    atol: float = 1e-8
    force_reassociation: bool = False
    max_steps: int = 5_000_000
    #: skip the bisect stage (cheap smoke runs)
    bisect: bool = True
    #: replace the single autopar sweep with the parallel-worlds
    #: explorer (auto mode only): race candidate transform sequences
    #: and adopt the best byte-identical one
    explore: bool = False
    max_worlds: int = 8

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "workers": self.workers,
            "schedule": self.schedule, "engine": self.engine,
            "rtol": self.rtol, "atol": self.atol,
            "force_reassociation": self.force_reassociation,
            "max_steps": self.max_steps, "bisect": self.bisect,
            "explore": self.explore, "max_worlds": self.max_worlds,
        }


@dataclass
class StageResult:
    stage: str
    ok: bool = True
    skipped: bool = False
    error: str = ""
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {"stage": self.stage, "ok": self.ok,
                "skipped": self.skipped, "error": self.error,
                "elapsed": self.elapsed}


class _Pipeline:
    def __init__(self, name: str, opts: PipelineOptions):
        self.name = name
        self.opts = opts
        self.stages: list[StageResult] = []
        self.record: dict = {
            "program": name, "mode": opts.mode, "engine": opts.engine,
            "workers": opts.workers, "schedule": opts.schedule,
            "status": "ok", "parallel_loops": [], "impediments": 0,
            "degraded_analyses": 0, "lint": [], "diverged": False,
            "divergence": None, "virtual_speedup": None,
            "worlds": None,
        }
        # stage products
        self.source = None          # sequential reference source
        self.program = None         # program under test (with marks)
        self.assertions = None

    def stage(self, name: str, fn, needs=()) -> StageResult:
        """Run one stage with fault isolation; injected faults escalate."""
        faults.check("fleet_stage", program=self.name, stage=name)
        res = StageResult(name)
        self.stages.append(res)
        if any(not s.ok for s in self.stages if s.stage in needs):
            res.ok = False
            res.skipped = True
            res.error = "skipped: upstream stage failed"
            return res
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as e:       # noqa: BLE001 -- isolation boundary
            res.ok = False
            res.error = f"{type(e).__name__}: {e}"
            self.record["status"] = "error"
        finally:
            res.elapsed = time.perf_counter() - t0
        return res

    # -- stages ---------------------------------------------------------------

    def parse(self) -> None:
        if self.opts.mode == "seeded":
            from ..lint.seeds import SEEDS, seeded_program, seeded_source
            if self.name in SEEDS:
                self.program, self.assertions = seeded_program(self.name)
                par_source = seeded_source(self.name)
            else:
                par_source = _source_of(self.name)
                self.program = _parse(par_source)
            # serial reference: same statements, PARALLEL marks dropped
            self.source = re.sub(r"\bPARALLEL\s+DO\b", "DO", par_source)
        else:
            self.source = _source_of(self.name)
            self.program = _parse(self.source)

    def analyze(self) -> None:
        # seeded mode takes the marks as given (the whole point is to
        # debug what the user already did); auto/plain build a session
        if self.opts.mode == "seeded":
            self.record["parallel_loops"] = _marked_loops(self.program)
            return
        from ..ped.reporting import program_stats
        from ..ped.session import PedSession
        self.session = PedSession(self.source)
        health = self.session.health()
        self.record["degraded_analyses"] = \
            len(health.degraded_loops) + len(health.failed_units)
        self.record["stats"] = program_stats(self.session)

    def autopar(self) -> None:
        if self.opts.mode != "auto" or self.opts.explore:
            return   # the explore stage supersedes the single sweep
        from ..ped.autopar import auto_parallelize
        report = auto_parallelize(self.session)
        self.program = self.session.program
        health = self.session.health()
        self.record["parallel_loops"] = list(report.parallelized)
        self.record["impediments"] = len(report.impediments)
        self.record["degraded_analyses"] = \
            len(health.degraded_loops) + len(health.failed_units)
        self.record["autopar"] = report.to_json() \
            if hasattr(report, "to_json") else None

    def explore(self) -> None:
        if self.opts.mode != "auto" or not self.opts.explore:
            return
        from ..worlds import parallel_loop_ids
        o = self.opts
        rep = self.session.explore(
            inputs=_inputs(self.name), max_worlds=o.max_worlds,
            workers=o.workers, schedule=o.schedule,
            engines=(o.engine,), adopt=True)
        if rep.adopt_error:
            raise RuntimeError(f"winner adoption failed: "
                               f"{rep.adopt_error}")
        self.program = self.session.program
        health = self.session.health()
        self.record["parallel_loops"] = \
            parallel_loop_ids(self.session.program)
        self.record["impediments"] = rep.impediments
        self.record["degraded_analyses"] = \
            len(health.degraded_loops) + len(health.failed_units)
        # canonical (timing-free) form: checkpoint resume must replay
        # this record byte-identically
        self.record["worlds"] = rep.to_json()

    def lint(self) -> None:
        src = self.source if self.opts.mode != "seeded" else None
        diags = lint_program(self.program, self.assertions, source=src,
                             include_suppressed=False)
        self.record["lint"] = [
            f"{d.rule}:{d.unit}:{d.line}" for d in diags]

    def verify(self) -> None:
        if self.opts.mode == "plain" \
                or not self.record["parallel_loops"]:
            return
        o = self.opts
        serial = run_to_sync(self.program, _inputs(self.name),
                             adversarial=False, max_steps=o.max_steps)
        adv = run_to_sync(self.program, _inputs(self.name),
                          adversarial=True, workers=o.workers,
                          schedule=o.schedule,
                          force_reassociation=o.force_reassociation,
                          max_steps=o.max_steps)
        diff = compare_runs(serial, adv, rtol=o.rtol, atol=o.atol)
        self.record["diverged"] = bool(diff)
        if diff:
            self.record["verify_diffs"] = diff.to_json()

    def measure(self) -> None:
        if self.record["diverged"]:
            return   # a racy program's speedup is meaningless
        o = self.opts
        seq = run_program(self.source, inputs=_inputs(self.name),
                          engine=o.engine, max_steps=o.max_steps)
        par = run_program(self.program, inputs=_inputs(self.name),
                          engine=o.engine, max_steps=o.max_steps)
        if par.clock > 0:
            self.record["virtual_speedup"] = round(
                seq.clock / par.clock, 6)

    def bisect(self) -> None:
        if not self.record["diverged"] or not self.opts.bisect:
            return
        from .bisect import find_divergence
        o = self.opts
        div = find_divergence(
            self.program, _inputs(self.name), workers=o.workers,
            schedule=o.schedule, rtol=o.rtol, atol=o.atol,
            force_reassociation=o.force_reassociation,
            max_steps=o.max_steps)
        if div is not None:
            self.record["divergence"] = div.to_json()

    # -- driver ---------------------------------------------------------------

    def run(self) -> dict:
        t0 = time.perf_counter()
        self.stage("parse", self.parse)
        self.stage("analyze", self.analyze, needs=("parse",))
        self.stage("autopar", self.autopar, needs=("parse", "analyze"))
        self.stage("explore", self.explore, needs=("parse", "analyze"))
        self.stage("lint", self.lint, needs=("parse",))
        self.stage("verify", self.verify,
                   needs=("parse", "autopar", "explore"))
        self.stage("measure", self.measure,
                   needs=("parse", "autopar", "explore", "verify"))
        self.stage("bisect", self.bisect, needs=("verify",))
        self.record["stages"] = [s.to_dict() for s in self.stages]
        self.record["elapsed"] = time.perf_counter() - t0
        return self.record


def _parse(source: str):
    from ..ir.program import AnalyzedProgram
    return AnalyzedProgram.from_source(source)


def _source_of(name: str) -> str:
    """Program source by fleet name.

    ``synth:<seed>:<index>`` names are *regenerated* here, inside the
    worker -- the work item that crosses the process boundary is just
    the name, never a program object."""
    from ..corpus import synth
    if name.startswith(synth.NAME_PREFIX):
        return synth.source_for_name(name)
    return PROGRAMS[name].source


def _marked_loops(program) -> list[str]:
    from ..fortran import ast
    out = []
    for uname, uir in program.units.items():
        for s, _ in ast.walk_stmts(uir.unit.body):
            if isinstance(s, ast.DoLoop) and s.parallel:
                out.append(f"{uname}:line {s.line}")
    return out


def _inputs(name: str) -> list:
    cp = PROGRAMS.get(name)
    return list(cp.inputs) if cp is not None else []


def run_program_pipeline(name: str, options: dict | None = None) -> dict:
    """Run the full pipeline for one corpus program; returns its record.

    ``options`` is :meth:`PipelineOptions.to_dict` output (kept as a
    dict so the call crosses process boundaries untouched).
    """
    from ..corpus import synth
    if name not in PROGRAMS and not name.startswith(synth.NAME_PREFIX):
        raise ValueError(f"unknown corpus program {name!r}; "
                         f"known: {', '.join(PROGRAMS)} or "
                         f"synth:<seed>:<index>")
    opts = PipelineOptions(**(options or {}))
    if opts.mode not in MODES:
        raise ValueError(f"unknown mode {opts.mode!r}; known: "
                         f"{', '.join(MODES)}")
    return _Pipeline(name, opts).run()
