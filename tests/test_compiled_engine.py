"""Differential and caching tests for the compiled engines.

The tree-walking interpreter is the semantic oracle: for every corpus
program and every registry transformation's post-state, the compiled
engine AND the vectorized engine must produce byte-identical
observables (``snapshot``), the same virtual clock and step count, and
the same uid-keyed profile.  The compile cache must carry PR 1's
incremental behavior: an unmodified unit never recompiles across a
transform -> verify cycle, and rollback/undo relinks cached code
instead of recompiling.
"""

import numpy as np
import pytest

from repro.corpus import ORDER, PROGRAMS
from repro.interp import (
    CompiledInterpreter, Interpreter, VectorInterpreter, compare_runs,
    compile_cache_info, make_interpreter, resolve_engine, run_program,
)
from repro.interp import compile as eng
from repro.interp.machine import ArrayStorage, RuntimeFault, \
    StepLimitExceeded
from repro.interp.verify import analyzed_program, clear_program_cache
from repro.ir import AnalyzedProgram
from repro.ped import PedSession

from .test_faults import SCENARIOS, SCENARIO_IDS


def _run_both(source, inputs=None, engine_cls=CompiledInterpreter):
    # one shared AnalyzedProgram: stmt uids are globally incremented,
    # so profiles are only comparable within one parse
    program = AnalyzedProgram.from_source(source)
    tree = Interpreter(program, inputs=list(inputs or []))
    tree.run()
    comp = engine_cls(program, inputs=list(inputs or []))
    comp.run()
    return tree, comp


def _assert_identical_observables(tree, comp):
    st, sc = tree.snapshot(), comp.snapshot()
    assert set(st) == set(sc)
    for k in st:
        a, b = st[k], sc[k]
        if isinstance(a, np.ndarray):
            assert isinstance(b, np.ndarray)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b), k
        else:
            assert type(a) is type(b) and a == b, k
    assert tree.clock == comp.clock
    assert tree.steps == comp.steps


def _assert_profiles_match(pt, pc, tol=1e-9):
    assert pt.stmt_counts == pc.stmt_counts
    assert pt.loop_iterations == pc.loop_iterations
    assert pt.unit_calls == pc.unit_calls
    assert set(pt.loop_time) == set(pc.loop_time)
    for uid in pt.loop_time:
        assert abs(pt.loop_time[uid] - pc.loop_time[uid]) <= tol
        assert abs(pt.loop_fraction(uid) - pc.loop_fraction(uid)) <= tol
    assert set(pt.unit_time) == set(pc.unit_time)
    for u in pt.unit_time:
        assert abs(pt.unit_time[u] - pc.unit_time[u]) <= tol
    assert abs(pt.total_time - pc.total_time) <= tol


# ---------------------------------------------------------------------------
# corpus differential fuzz
# ---------------------------------------------------------------------------

class TestCorpusDifferential:
    @pytest.mark.parametrize("name", ORDER)
    def test_identical_observables_and_profile(self, name):
        cp = PROGRAMS[name]
        tree, comp = _run_both(cp.source, cp.inputs)
        assert compare_runs(tree, comp) == []
        _assert_identical_observables(tree, comp)
        _assert_profiles_match(tree.profile, comp.profile)


# ---------------------------------------------------------------------------
# transformation post-states (every registry transformation)
# ---------------------------------------------------------------------------

class TestTransformPostStates:
    @pytest.mark.parametrize("scn", SCENARIOS, ids=SCENARIO_IDS)
    def test_post_state_runs_identically(self, scn):
        session = PedSession(scn.source)
        res = session.apply(scn.name, loop=scn.loop,
                            **scn.kwargs(session))
        assert res.applied, res.reason
        tree, comp = _run_both(session.source())
        assert compare_runs(tree, comp) == []
        _assert_identical_observables(tree, comp)
        _assert_profiles_match(tree.profile, comp.profile)


# ---------------------------------------------------------------------------
# vector engine differential fuzz: numpy bulk lowering vs the oracle
# ---------------------------------------------------------------------------

class TestVectorDifferential:
    @pytest.mark.parametrize("name", ORDER)
    def test_corpus_identical_observables_and_profile(self, name):
        from repro.perf import counters
        counters.reset()
        cp = PROGRAMS[name]
        tree, vec = _run_both(cp.source, cp.inputs,
                              engine_cls=VectorInterpreter)
        assert compare_runs(tree, vec) == []
        _assert_identical_observables(tree, vec)
        _assert_profiles_match(tree.profile, vec.profile)
        # every corpus program has at least one eligible nest; parity
        # alone would also pass if lowering silently never fired
        assert counters.snapshot()["vec_loops"] > 0, \
            f"{name}: no loop nest executed on the vector tier"

    @pytest.mark.parametrize("scn", SCENARIOS, ids=SCENARIO_IDS)
    def test_post_state_runs_identically(self, scn):
        session = PedSession(scn.source)
        res = session.apply(scn.name, loop=scn.loop,
                            **scn.kwargs(session))
        assert res.applied, res.reason
        tree, vec = _run_both(session.source(),
                              engine_cls=VectorInterpreter)
        assert compare_runs(tree, vec) == []
        _assert_identical_observables(tree, vec)
        _assert_profiles_match(tree.profile, vec.profile)

    def test_fallback_replays_serially(self):
        # B(I) = B(I-1): loop-carried flow dependence, must stay on
        # the closure engine and still match the oracle exactly
        src = ("      PROGRAM T\n"
               "      REAL B(6)\n"
               "      B(1) = 1.0\n"
               "      DO 10 I = 2, 6\n"
               "      B(I) = B(I-1) * 2.0\n"
               "   10 CONTINUE\n"
               "      PRINT *, B(6)\n"
               "      END\n")
        tree, vec = _run_both(src, engine_cls=VectorInterpreter)
        assert compare_runs(tree, vec) == []
        _assert_identical_observables(tree, vec)
        _assert_profiles_match(tree.profile, vec.profile)

    def test_lowering_decisions_cover_both_outcomes(self):
        # loop 10 lowers; loop 20 contains I/O and must be rejected
        # at compile time with a human-readable reason
        from repro.interp import lowering_decisions
        src = ("      PROGRAM T\n"
               "      REAL A(8)\n"
               "      DO 10 I = 1, 8\n"
               "      A(I) = 2.0\n"
               "   10 CONTINUE\n"
               "      DO 20 I = 1, 3\n"
               "      PRINT *, A(I)\n"
               "   20 CONTINUE\n"
               "      END\n")
        program = AnalyzedProgram.from_source(src)
        decs = lowering_decisions(program)
        outcomes = {d.vectorized for d in decs.values()}
        assert outcomes == {True, False}
        for d in decs.values():
            if not d.vectorized:
                assert d.reason


# ---------------------------------------------------------------------------
# fault parity: both engines fail the same way
# ---------------------------------------------------------------------------

class TestFaultParity:
    OOB = ("      PROGRAM T\n      REAL A(5)\n      I = 9\n"
           "      A(I) = 1.0\n      END\n")
    NOPROC = ("      PROGRAM T\n      CALL NOPE(1)\n      END\n")
    SPIN = ("      PROGRAM T\n      DO 10 I = 1, 1000000\n"
            "      X = X + 1.0\n   10 CONTINUE\n      END\n")

    ENGINES = (Interpreter, CompiledInterpreter, VectorInterpreter)

    def _messages(self, source, exc, **kw):
        msgs = []
        for engine_cls in self.ENGINES:
            program = AnalyzedProgram.from_source(source)
            interp = engine_cls(program, **kw)
            with pytest.raises(exc) as ei:
                interp.run()
            msgs.append(str(ei.value))
        return msgs

    def test_out_of_bounds_same_fault(self):
        a, b, c = self._messages(self.OOB, RuntimeFault)
        assert a == b == c and "out of bounds" in a

    def test_missing_procedure_same_fault(self):
        a, b, c = self._messages(self.NOPROC, RuntimeFault)
        assert a == b == c and "NOPE" in a

    def test_step_limit_same_fault(self):
        a, b, c = self._messages(self.SPIN, StepLimitExceeded,
                                 max_steps=500)
        assert a == b == c


# a FUNCTION that updates a COMMON scalar its caller reads afterwards
COMMON_VIA_FUNCTION = (
    "      PROGRAM P\n"
    "      COMMON /C/ X\n"
    "      REAL X, Y, F\n"
    "      X = 1.0\n"
    "      Y = F(2.0)\n"
    "      PRINT *, X, Y\n"
    "      END\n"
    "      REAL FUNCTION F(A)\n"
    "      COMMON /C/ X\n"
    "      REAL X, A\n"
    "      X = X + A\n"
    "      F = X\n"
    "      END\n")


@pytest.mark.parametrize("engine_cls", TestFaultParity.ENGINES,
                         ids=lambda c: c.__name__)
def test_common_scalar_reread_after_function_reference(engine_cls):
    """The caller sees the COMMON scalar its FUNCTION updated, as after
    a CALL."""
    interp = engine_cls(AnalyzedProgram.from_source(COMMON_VIA_FUNCTION))
    interp.run()
    assert interp.outputs == [3.0, 3.0]
    assert interp.snapshot()["common:X"] == 3.0


# ---------------------------------------------------------------------------
# engine selection
# ---------------------------------------------------------------------------

class TestEngineSelection:
    def test_default_is_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_ENGINE", raising=False)
        assert resolve_engine() == "compiled"
        interp = run_program(PROGRAMS["neoss"].source,
                             inputs=list(PROGRAMS["neoss"].inputs))
        assert isinstance(interp, CompiledInterpreter)

    def test_tree_engine_selectable(self):
        interp = run_program(PROGRAMS["neoss"].source,
                             inputs=list(PROGRAMS["neoss"].inputs),
                             engine="tree")
        assert isinstance(interp, Interpreter)

    def test_vector_engine_selectable(self):
        interp = run_program(PROGRAMS["neoss"].source,
                             inputs=list(PROGRAMS["neoss"].inputs),
                             engine="vector")
        assert isinstance(interp, VectorInterpreter)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_ENGINE", "tree")
        assert resolve_engine() == "tree"
        prog = analyzed_program(PROGRAMS["neoss"].source)
        assert isinstance(make_interpreter(prog), Interpreter)

    def test_env_override_vector(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_ENGINE", "vector")
        assert resolve_engine() == "vector"
        prog = analyzed_program(PROGRAMS["neoss"].source)
        assert isinstance(make_interpreter(prog), VectorInterpreter)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("bytecode")

    def test_program_cache_reuses_analysis(self):
        clear_program_cache()
        src = PROGRAMS["neoss"].source
        assert analyzed_program(src) is analyzed_program(src)


# ---------------------------------------------------------------------------
# compile cache: incremental behavior across transform/verify/undo
# ---------------------------------------------------------------------------

TWO_UNITS = (
    "      PROGRAM MAIN\n"
    "      REAL A(8)\n"
    "      DO 10 I = 1, 8\n"
    "      A(I) = HELPER(I)\n"
    "   10 CONTINUE\n"
    "      PRINT *, A(8)\n"
    "      END\n"
    "      REAL FUNCTION HELPER(K)\n"
    "      INTEGER K\n"
    "      HELPER = K * 2.0\n"
    "      RETURN\n"
    "      END\n")


def _stats():
    info = compile_cache_info()
    return info["hits"], info["relinks"], info["misses"]


class TestCompileCache:
    def test_unmodified_unit_survives_transform_verify_cycle(self):
        eng.clear_code_cache()
        session = PedSession(TWO_UNITS)
        CompiledInterpreter(session.program).run()
        h0, r0, m0 = _stats()
        assert m0 == 2  # both units compiled once

        res = session.apply("loop_reversal", loop="L1")
        assert res.applied
        CompiledInterpreter(session.program).run()
        h1, r1, m1 = _stats()
        # HELPER was untouched: generation fast path, never recompiled
        assert h1 == h0 + 1
        # MAIN changed structurally: exactly one fresh compile
        assert m1 == m0 + 1

    def test_undo_relinks_instead_of_recompiling(self):
        eng.clear_code_cache()
        session = PedSession(TWO_UNITS)
        CompiledInterpreter(session.program).run()
        assert session.apply("loop_reversal", loop="L1").applied
        CompiledInterpreter(session.program).run()
        _, r0, m0 = _stats()

        assert session.undo()
        CompiledInterpreter(session.program).run()
        h1, r1, m1 = _stats()
        # the restored MAIN matches its pre-transform fingerprint: the
        # cached code is relinked, not recompiled
        assert r1 == r0 + 1
        assert m1 == m0

    def test_rerun_hits_generation_fast_path(self):
        eng.clear_code_cache()
        program = AnalyzedProgram.from_source(TWO_UNITS)
        CompiledInterpreter(program).run()
        h0, _, m0 = _stats()
        CompiledInterpreter(program).run()
        h1, _, m1 = _stats()
        assert m1 == m0 and h1 == h0 + 2

    def test_cache_info_in_session_health(self):
        session = PedSession(TWO_UNITS)
        session.profile()
        health = session.health()
        assert set(health.compile_cache) >= {"size", "hits", "relinks",
                                             "misses", "hit_rate"}
        assert set(health.pair_cache) >= {"size", "hits", "misses"}

    def test_counters_exposed_in_perf_module(self):
        from repro.perf import counters
        snap = counters.snapshot()
        for key in ("compile_hits", "compile_relinks", "compile_misses",
                    "compile_reuse_rate"):
            assert key in snap
        assert "compile cache" in counters.report()


# ---------------------------------------------------------------------------
# ArrayStorage stride precomputation (shared by both engines)
# ---------------------------------------------------------------------------

class TestArrayStorageStrides:
    def test_column_major_strides_and_offset(self):
        data = np.zeros((3, 4, 5), dtype=np.float64, order="F")
        st = ArrayStorage("A", data, (1, 1, 1))
        assert st.strides == (1, 3, 12)
        assert st.size == 60
        assert st.flat is not None
        for subs in ((1, 1, 1), (3, 4, 5), (2, 3, 4)):
            expect = int(np.ravel_multi_index(
                tuple(s - 1 for s in subs), (3, 4, 5), order="F"))
            assert st.offset(subs) == expect

    def test_nonzero_lower_bounds(self):
        data = np.zeros((5,), dtype=np.float64, order="F")
        st = ArrayStorage("B", data, (-2,))
        st.set((-2,), 7.0)
        st.set((2,), 9.0)
        assert st.get((-2,)) == 7.0
        assert st.get((2,)) == 9.0
        assert data[0] == 7.0 and data[4] == 9.0

    def test_noncontiguous_falls_back(self):
        base = np.zeros((6, 6), dtype=np.float64, order="C")
        st = ArrayStorage("C", base, (1, 1))
        assert st.flat is None
        st.set((2, 3), 5.0)
        assert st.get((2, 3)) == 5.0
        assert base[1, 2] == 5.0

    def test_bounds_fault_messages_unchanged(self):
        st = ArrayStorage("D", np.zeros((4,), order="F"), (1,))
        with pytest.raises(RuntimeFault,
                           match=r"D: subscript 1 = 5 out of bounds"):
            st.get((5,))
        with pytest.raises(RuntimeFault, match="rank mismatch"):
            st.get((1, 2))

    def test_as_ndarray_is_zero_copy(self):
        # the vector tier mutates storage through as_ndarray() views;
        # element accessors and the view must stay coherent both ways
        data = np.zeros((3, 4), dtype=np.float64, order="F")
        st = ArrayStorage("E", data, (1, 1))
        nd = st.as_ndarray()
        assert nd is data
        nd[1:, 2] = 7.0                   # mutate through a slice view
        assert st.get((2, 3)) == 7.0
        assert st.get((3, 3)) == 7.0
        st.set((1, 3), 5.0)               # mutate through the accessor
        assert nd[0, 2] == 5.0

    def test_set_flat_coherent_with_views(self):
        data = np.zeros((3, 4), dtype=np.float64, order="F")
        st = ArrayStorage("F", data, (1, 1))
        nd = st.as_ndarray()
        for subs in ((1, 1), (3, 1), (2, 4)):
            st.set_flat(st.offset(subs), 9.0)
            assert st.get(subs) == 9.0
            assert nd[subs[0] - 1, subs[1] - 1] == 9.0
