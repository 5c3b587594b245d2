"""Determinism fuzz for the fork-join DOALL runtime.

The whole value of executing PARALLEL DO loops for real rests on one
invariant: observable state is **byte-identical** to the serial
simulation under every worker count and schedule.  These tests fuzz
that invariant from three directions --

* the eight corpus programs, auto-parallelized by the session layer,
  run under workers x schedules against the tree-walking oracle;
* the post-state of every registry transformation (the same scenario
  table the rollback/undo suites use);
* targeted reduction kinds (integer sum/product, max/min, and the
  float-sum case that must *fall back* rather than reassociate).

Plus fault parity (a crash inside a chunk surfaces the same message as
the serial run), environment resolution, overhead calibration, chunk
partitioning, counters and health reporting.
"""

import numpy as np
import pytest

from repro.corpus import ORDER, PROGRAMS
from repro.interp import (
    CompiledInterpreter, Interpreter, chunk_ranges, compare_runs,
    resolve_schedule, resolve_workers, run_program,
)
from repro.interp.machine import RuntimeFault, StepLimitExceeded
from repro.ir import AnalyzedProgram
from repro.ped import PedSession
from repro.perf import counters as perf_counters

from .test_compiled_engine import _assert_identical_observables, \
    _assert_profiles_match
from .test_faults import SCENARIOS, SCENARIO_IDS

WORKERS = (1, 2, 4)
SCHEDULES = ("static", "dynamic")
COMBOS = [(w, s) for w in WORKERS for s in SCHEDULES]
COMBO_IDS = [f"w{w}-{s}" for w, s in COMBOS]


def _oracle(program, inputs=None):
    tree = Interpreter(program, inputs=list(inputs or []))
    tree.run()
    return tree


def _parallel_run(program, workers, schedule, inputs=None):
    comp = CompiledInterpreter(program, inputs=list(inputs or []),
                               workers=workers, schedule=schedule)
    comp.run()
    return comp


def _assert_matches_oracle(tree, comp):
    assert compare_runs(tree, comp) == []
    _assert_identical_observables(tree, comp)
    _assert_profiles_match(tree.profile, comp.profile)


# ---------------------------------------------------------------------------
# corpus programs, auto-parallelized, under every worker/schedule combo
# ---------------------------------------------------------------------------

_PAR_SOURCE: dict[str, str] = {}


def _parallel_source(name: str) -> str:
    """Corpus program with every loop the analysis allows marked
    PARALLEL DO (memoized -- auto-parallelization is the slow part)."""
    if name not in _PAR_SOURCE:
        session = PedSession(PROGRAMS[name].source)
        session.auto_parallelize()
        _PAR_SOURCE[name] = session.source()
    return _PAR_SOURCE[name]


class TestCorpusDeterminism:
    @pytest.mark.parametrize("name", ORDER)
    def test_byte_identical_under_all_combos(self, name):
        cp = PROGRAMS[name]
        program = AnalyzedProgram.from_source(_parallel_source(name))
        tree = _oracle(program, cp.inputs)
        for workers, schedule in COMBOS:
            comp = _parallel_run(program, workers, schedule, cp.inputs)
            _assert_matches_oracle(tree, comp)


# ---------------------------------------------------------------------------
# every registry transformation's post-state
# ---------------------------------------------------------------------------

class TestTransformPostStates:
    @pytest.mark.parametrize("scn", SCENARIOS, ids=SCENARIO_IDS)
    def test_post_state_deterministic_under_workers(self, scn):
        session = PedSession(scn.source)
        res = session.apply(scn.name, loop=scn.loop,
                            **scn.kwargs(session))
        assert res.applied, res.error
        program = AnalyzedProgram.from_source(session.source())
        tree = _oracle(program)
        for workers, schedule in COMBOS:
            comp = _parallel_run(program, workers, schedule)
            _assert_matches_oracle(tree, comp)


# ---------------------------------------------------------------------------
# lint cross-validation over every registry transformation's post-state
# ---------------------------------------------------------------------------

class TestLintOverTransformPostStates:
    """Fuzz the lint against the transformation registry: every
    scenario's post-state is a proved-correct program, so the race
    detector must stay silent on it, lint-clean PARALLEL loops must run
    byte-identical to the sequential oracle, and an apply -> undo round
    trip must restore the exact pre-transform verdicts."""

    @pytest.mark.parametrize("scn", SCENARIOS, ids=SCENARIO_IDS)
    def test_lint_clean_and_undo_stable(self, scn):
        session = PedSession(scn.source)
        baseline = [d.to_json() for d in session.lint()]
        res = session.apply(scn.name, loop=scn.loop,
                            **scn.kwargs(session))
        assert res.applied, res.error
        post = session.lint()
        races = [d for d in post
                 if d.rule.startswith("RACE") and not d.suppressed]
        assert races == [], [d.format() for d in races]
        src = session.source()
        if "PARALLEL DO" in src:
            # lint-clean PARALLEL loops: byte-identical under the
            # fork-join runtime at every worker/schedule combination
            program = AnalyzedProgram.from_source(src)
            tree = _oracle(program)
            for workers, schedule in COMBOS:
                comp = _parallel_run(program, workers, schedule)
                _assert_matches_oracle(tree, comp)
        assert session.undo()
        assert [d.to_json() for d in session.lint()] == baseline


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _red_source(decl, init, stmt, n=200):
    return (f"      PROGRAM RED\n"
            f"      INTEGER I, N\n"
            f"{decl}"
            f"      REAL A(200)\n"
            f"      N = {n}\n"
            f"      DO 5 I = 1, N\n"
            f"      A(I) = I - 100.5\n"
            f"    5 CONTINUE\n"
            f"{init}"
            f"      PARALLEL DO 10 I = 1, N\n"
            f"{stmt}"
            f"   10 CONTINUE\n"
            f"      END\n")


REDUCTIONS = {
    "int-sum": _red_source("      INTEGER S\n", "      S = 0\n",
                           "      S = S + I * I\n"),
    "int-sum-commuted": _red_source("      INTEGER S\n", "      S = 7\n",
                                    "      S = I + S\n"),
    "int-minus": _red_source("      INTEGER S\n", "      S = 1000\n",
                             "      S = S - I\n"),
    "int-prod": _red_source("      INTEGER P\n", "      P = 1\n",
                            "      P = P * 2\n", n=30),
    "int-max": _red_source("      INTEGER M\n", "      M = -999\n",
                           "      M = MAX(M, MOD(I * 7, 113))\n"),
    "real-min": _red_source("      REAL R\n", "      R = 1E30\n",
                            "      R = MIN(R, A(I))\n"),
    "real-sum-fallback": _red_source("      REAL S\n", "      S = 0.0\n",
                                     "      S = S + A(I)\n"),
}


class TestReductions:
    @pytest.mark.parametrize("kind", sorted(REDUCTIONS))
    def test_reduction_byte_identical(self, kind):
        program = AnalyzedProgram.from_source(REDUCTIONS[kind])
        tree = _oracle(program)
        for workers, schedule in COMBOS:
            comp = _parallel_run(program, workers, schedule)
            _assert_matches_oracle(tree, comp)

    def test_float_sum_falls_back_to_serial(self):
        """A REAL sum must not be reassociated across chunks: the loop
        runs through the serial simulation and the fallback counter
        says so."""
        perf_counters.reset()
        program = AnalyzedProgram.from_source(
            REDUCTIONS["real-sum-fallback"])
        _parallel_run(program, 4, "static")
        snap = perf_counters.snapshot()
        assert snap["par_fallbacks"] >= 1
        assert snap["par_loops"] == 0

    def test_int_sum_actually_parallel(self):
        perf_counters.reset()
        program = AnalyzedProgram.from_source(REDUCTIONS["int-sum"])
        _parallel_run(program, 4, "static")
        snap = perf_counters.snapshot()
        assert snap["par_loops"] >= 1
        assert snap["par_chunks"] >= 2
        assert snap["par_fallbacks"] == 0


# ---------------------------------------------------------------------------
# fault parity under workers
# ---------------------------------------------------------------------------

class TestFaultParity:
    OOB = ("      PROGRAM T\n      REAL A(50)\n      INTEGER I, N\n"
           "      N = 80\n"
           "      PARALLEL DO 10 I = 1, N\n"
           "      A(I) = 1.0\n"
           "   10 CONTINUE\n      END\n")
    SPIN = ("      PROGRAM T\n      REAL A(100000)\n      INTEGER I\n"
            "      PARALLEL DO 10 I = 1, 100000\n"
            "      A(I) = I\n"
            "   10 CONTINUE\n      END\n")
    JUMP = ("      PROGRAM T\n      REAL A(10)\n      INTEGER I\n"
            "      PARALLEL DO 10 I = 1, 10\n"
            "      A(I) = I\n"
            "      IF (I .EQ. 5) GOTO 20\n"
            "   10 CONTINUE\n"
            "   20 CONTINUE\n      END\n")

    def _messages(self, source, exc, workers=4, **kw):
        msgs = []
        program = AnalyzedProgram.from_source(source)
        for make in (lambda: Interpreter(program, **kw),
                     lambda: CompiledInterpreter(
                         program, workers=workers, schedule="dynamic",
                         **kw)):
            with pytest.raises(exc) as ei:
                make().run()
            msgs.append(str(ei.value))
        return msgs

    def test_out_of_bounds_in_chunk_same_message(self):
        a, b = self._messages(self.OOB, RuntimeFault)
        assert a == b and "out of bounds" in a

    def test_step_limit_same_message(self):
        a, b = self._messages(self.SPIN, StepLimitExceeded,
                              max_steps=5000)
        assert a == b

    def test_jump_out_of_parallel_do_same_message(self):
        a, b = self._messages(self.JUMP, RuntimeFault)
        assert a == b and "jump out of a PARALLEL DO" in a


# ---------------------------------------------------------------------------
# resolution: workers, schedule, overhead
# ---------------------------------------------------------------------------

class TestResolution:
    def test_workers_default_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_WORKERS", raising=False)
        assert resolve_workers() is None

    def test_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        assert resolve_workers() == 3

    def test_workers_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_workers_invalid(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    @pytest.mark.parametrize("env", ["four", "0", "-2"])
    def test_workers_env_invalid(self, monkeypatch, env):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", env)
        with pytest.raises(ValueError, match="REPRO_EXEC_WORKERS"):
            resolve_workers()

    def test_workers_env_empty_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "")
        assert resolve_workers() is None

    def test_schedule_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_SCHEDULE", raising=False)
        assert resolve_schedule() == "static"
        monkeypatch.setenv("REPRO_EXEC_SCHEDULE", "dynamic")
        assert resolve_schedule() == "dynamic"
        assert resolve_schedule("static") == "static"
        with pytest.raises(ValueError):
            resolve_schedule("guided")

    def test_run_program_env_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        perf_counters.reset()
        run_program(REDUCTIONS["int-sum"])
        assert perf_counters.snapshot()["par_loops"] >= 1


class TestOverheadCalibration:
    SRC = ("      PROGRAM T\n      REAL A(100)\n      INTEGER I\n"
           "      PARALLEL DO 10 I = 1, 100\n"
           "      A(I) = I\n"
           "   10 CONTINUE\n      END\n")

    def test_session_calibration(self):
        from repro.interp import parallel_overhead
        base = parallel_overhead()
        t0 = run_program(self.SRC).clock
        session = PedSession(self.SRC)
        session.set_parallel_overhead(500.0)
        try:
            assert parallel_overhead() == 500.0
            assert run_program(self.SRC).clock == t0 + (500.0 - base)
        finally:
            session.set_parallel_overhead(None)
        assert parallel_overhead() == base


# ---------------------------------------------------------------------------
# chunk partitioning
# ---------------------------------------------------------------------------

class TestChunkRanges:
    @pytest.mark.parametrize("trips,workers", [
        (1, 4), (7, 2), (8, 4), (100, 3), (5, 8),
    ])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_cover_exactly_once(self, trips, workers, schedule):
        chunks = chunk_ranges(trips, workers, schedule)
        seen = []
        for ci, off, n in chunks:
            assert n >= 1
            seen.extend(range(off, off + n))
        assert seen == list(range(trips))
        assert [c[0] for c in chunks] == list(range(len(chunks)))

    def test_static_at_most_workers_chunks(self):
        assert len(chunk_ranges(100, 4, "static")) == 4
        assert len(chunk_ranges(3, 8, "static")) == 3

    def test_dynamic_more_chunks_than_workers(self):
        assert len(chunk_ranges(100, 4, "dynamic")) > 4


# ---------------------------------------------------------------------------
# counters + session health
# ---------------------------------------------------------------------------

class TestObservability:
    def test_health_reports_parallel_runtime(self):
        perf_counters.reset()
        session = PedSession(REDUCTIONS["int-sum"])
        run_program(session.program, workers=4)
        report = session.health()
        pr = report.parallel_runtime
        assert set(pr) == {"par_loops", "par_chunks", "par_fallbacks",
                           "pool_reuses"}
        assert pr["par_loops"] >= 1

    def test_counters_report_mentions_doall(self):
        assert "doall runtime" in perf_counters.report()

    def test_pool_reuse_across_loops(self):
        perf_counters.reset()
        src = ("      PROGRAM T\n      REAL A(100), B(100)\n"
               "      INTEGER I\n"
               "      PARALLEL DO 10 I = 1, 100\n"
               "      A(I) = I\n"
               "   10 CONTINUE\n"
               "      PARALLEL DO 20 I = 1, 100\n"
               "      B(I) = A(I) + 1.0\n"
               "   20 CONTINUE\n      END\n")
        run_program(src, workers=2)
        snap = perf_counters.snapshot()
        assert snap["par_loops"] == 2
        assert snap["pool_reuses"] >= 1  # second loop reused the pool
