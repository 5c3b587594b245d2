"""A9: fork-join DOALL runtime payoff.

The compiled engine can now *execute* PARALLEL DO loops on a worker
pool instead of only simulating them.  This module measures that
runtime on the auto-parallelized corpus: per-program wall-clock with 1
vs. 4 workers under both schedules, dispatch overhead of the chunk
machinery itself, and the byte-identity invariant that makes real
execution safe to use anywhere the simulation was used.

Acceptance (ISSUE 4): >=2x wall-clock speedup with 4 workers on at
least 4 of 8 corpus programs -- **gated on hardware that can express
it**.  A thread pool cannot outrun the GIL on interpreter-bound chunk
bodies, so the speedup gate requires a multi-core host running a
free-threaded (PEP 703, GIL-disabled) build; elsewhere it skips and
the byte-identity acceptance (which is the correctness claim) still
runs everywhere.  EXPERIMENTS.md records the single-core numbers
honestly.
"""

import os
import sys
import time

import pytest

from repro.corpus import ORDER, PROGRAMS
from repro.interp import CompiledInterpreter, Interpreter, compare_runs
from repro.interp import compile as eng
from repro.ir import AnalyzedProgram
from repro.ped import PedSession
from repro.perf import counters as perf_counters

#: acceptance floor for the 4-worker wall-clock ratio
MIN_SPEEDUP = 2.0
#: ... on at least this many of the eight corpus programs
MIN_PROGRAMS = 4
WORKERS = 4


def _gil_disabled() -> bool:
    fn = getattr(sys, "_is_gil_enabled", None)
    return fn is not None and not fn()


#: threads only beat the GIL when there is no GIL (and >1 core to use)
CAN_SPEED_UP = (os.cpu_count() or 1) > 1 and _gil_disabled()

_PAR_PROGRAMS: dict[str, AnalyzedProgram] = {}


def _parallel_program(name: str) -> AnalyzedProgram:
    if name not in _PAR_PROGRAMS:
        session = PedSession(PROGRAMS[name].source)
        session.auto_parallelize()
        _PAR_PROGRAMS[name] = AnalyzedProgram.from_source(session.source())
    return _PAR_PROGRAMS[name]


def _warm(program):
    for uir in program.units.values():
        eng.linked_unit(uir)


def _best_of(fn, rounds=3):
    best = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


# ---------------------------------------------------------------------------
# steady-state execution through the DOALL runtime
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ORDER)
def test_bench_doall_1worker(benchmark, name):
    """Chunk/merge machinery inline (dispatch overhead floor)."""
    cp = PROGRAMS[name]
    program = _parallel_program(name)
    _warm(program)

    def run():
        interp = CompiledInterpreter(program, inputs=list(cp.inputs),
                                     workers=1)
        interp.run()
        return interp

    interp = benchmark.pedantic(run, rounds=3, iterations=1)
    assert interp.steps > 0


@pytest.mark.parametrize("name", ORDER)
@pytest.mark.parametrize("schedule", ("static", "dynamic"))
def test_bench_doall_4workers(benchmark, name, schedule):
    cp = PROGRAMS[name]
    program = _parallel_program(name)
    _warm(program)

    def run():
        interp = CompiledInterpreter(program, inputs=list(cp.inputs),
                                     workers=WORKERS, schedule=schedule)
        interp.run()
        return interp

    interp = benchmark.pedantic(run, rounds=3, iterations=1)
    assert interp.steps > 0


# ---------------------------------------------------------------------------
# acceptance: byte-identity everywhere; >=2x where hardware permits
# ---------------------------------------------------------------------------

def test_doall_identity_acceptance(reporter):
    """The correctness half of A9, unconditional: real parallel
    execution is byte-identical to the serial oracle on every corpus
    program, both schedules."""
    rows = []
    for name in ORDER:
        cp = PROGRAMS[name]
        program = _parallel_program(name)
        _warm(program)
        tree = Interpreter(program, inputs=list(cp.inputs))
        tree.run()
        for schedule in ("static", "dynamic"):
            before = perf_counters.snapshot()
            comp = CompiledInterpreter(program, inputs=list(cp.inputs),
                                       workers=WORKERS,
                                       schedule=schedule)
            comp.run()
            after = perf_counters.snapshot()
            assert compare_runs(tree, comp) == [], f"{name}/{schedule}"
            assert comp.clock == tree.clock, f"{name}/{schedule}"
            assert comp.steps == tree.steps, f"{name}/{schedule}"
        rows.append([name,
                     str(after["par_loops"] - before["par_loops"]),
                     str(after["par_chunks"] - before["par_chunks"])])
    reporter("A9: DOALL byte-identity (4 workers, both schedules)",
             ["program", "entries", "chunks"], rows)


@pytest.mark.skipif(
    not CAN_SPEED_UP,
    reason="wall-clock speedup needs >1 core and a free-threaded "
           "(GIL-disabled) build; this host cannot express it")
def test_doall_speedup_acceptance(reporter):
    rows = []
    over = 0
    for name in ORDER:
        cp = PROGRAMS[name]
        program = _parallel_program(name)
        _warm(program)
        t_1 = _best_of(lambda: CompiledInterpreter(
            program, inputs=list(cp.inputs), workers=1).run())
        t_n = _best_of(lambda: CompiledInterpreter(
            program, inputs=list(cp.inputs), workers=WORKERS).run())
        ratio = t_1 / t_n
        if ratio >= MIN_SPEEDUP:
            over += 1
        rows.append([name, f"{t_1 * 1e3:.1f}", f"{t_n * 1e3:.1f}",
                     f"{ratio:.2f}x"])
    reporter(f"A9: DOALL wall-clock, 1 vs {WORKERS} workers",
             ["program", "1 worker (ms)", f"{WORKERS} workers (ms)",
              "speedup"], rows)
    assert over >= MIN_PROGRAMS, \
        f"only {over}/8 programs reached {MIN_SPEEDUP:.0f}x: {rows}"
