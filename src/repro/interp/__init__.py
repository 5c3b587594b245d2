"""Fortran interpreter: execution, profiling, parallel simulation,
transformation verification.

Three engines share one observable surface: the tree-walking
:class:`Interpreter` (reference oracle), the closure-compiled
:class:`CompiledInterpreter` (default for verification, speedup
simulation, and profiling -- see :mod:`repro.interp.compile`), and the
numpy bulk-lowering :class:`VectorInterpreter`
(:mod:`repro.interp.vectorize`), which executes eligible loop nests as
whole-nest array operations and falls back per-loop to the closure
engine.  The compiled engines can execute PARALLEL DO loops for real on
a persistent worker pool (:mod:`repro.interp.runtime`) while keeping
observable state byte-identical to serial execution.
"""

from .compile import CompiledInterpreter, clear_code_cache, \
    compile_cache_info
from .machine import ArrayStorage, AssertionViolated, Interpreter, Profile, \
    RuntimeFault, StepLimitExceeded, parallel_overhead, \
    set_parallel_overhead
from .runtime import SCHEDULES, ParallelRuntime, chunk_ranges, \
    resolve_schedule, resolve_workers
from .shadow import DynamicRace, ShadowInterpreter, ShadowLoopLog, \
    dynamic_races, races_under, run_shadow
from .vectorize import LoopDecision, VectorInterpreter, lowering_decisions
from .verify import ENGINES, ParallelTiming, RunDiff, compare_runs, \
    format_diffs, make_interpreter, resolve_engine, run_program, \
    simulate_speedup, verify_equivalence

__all__ = [
    "Interpreter", "CompiledInterpreter", "VectorInterpreter",
    "LoopDecision", "lowering_decisions", "Profile", "ArrayStorage",
    "RuntimeFault", "StepLimitExceeded", "AssertionViolated",
    "run_program", "compare_runs", "verify_equivalence",
    "simulate_speedup", "ParallelTiming", "format_diffs", "RunDiff",
    "ENGINES", "make_interpreter", "resolve_engine",
    "compile_cache_info", "clear_code_cache",
    "ParallelRuntime", "SCHEDULES", "chunk_ranges",
    "resolve_workers", "resolve_schedule",
    "parallel_overhead", "set_parallel_overhead",
    "ShadowInterpreter", "ShadowLoopLog", "DynamicRace",
    "dynamic_races", "races_under", "run_shadow",
]
