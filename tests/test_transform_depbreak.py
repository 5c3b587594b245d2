"""Dependence-breaking transformations with interpreter verification."""

from repro.dependence import DependenceAnalyzer
from repro.fortran import print_program
from repro.interp import run_program, verify_equivalence
from repro.ir import AnalyzedProgram
from repro.transform import TContext, get


def make_ctx(src, unit="T", loop="L1", **params):
    program = AnalyzedProgram.from_source(src)
    uir = program.unit(unit)
    an = DependenceAnalyzer(uir)
    li = uir.loops.find(loop) if loop else None
    params.setdefault("program", program)
    return program, TContext(uir=uir, analyzer=an, loop=li, params=params)


def apply_and_verify(name, src, unit="T", loop="L1", **params):
    program, ctx = make_ctx(src, unit, loop, **params)
    res = get(name).apply(ctx)
    assert res.applied, res.advice.explain()
    out = print_program(program.ast)
    assert verify_equivalence(src, out) == [], out
    return program, out


class TestPrivatization:
    SRC = ("      PROGRAM T\n      REAL A(10), B(10)\n"
           "      DO 10 I = 1, 10\n      T1 = A(I) * 2.0\n"
           "      B(I) = T1 + 1.0\n   10 CONTINUE\n"
           "      PRINT *, B(5)\n      END\n")

    def test_killed_scalar_ok(self):
        apply_and_verify("privatization", self.SRC, var="T1")

    def test_exposed_scalar_refused(self):
        src = ("      PROGRAM T\n      REAL B(10)\n      S = 0.0\n"
               "      DO 10 I = 1, 10\n      S = S + 1.0\n"
               "      B(I) = S\n   10 CONTINUE\n      PRINT *, B(5)\n"
               "      END\n")
        _, ctx = make_ctx(src, var="S")
        adv = get("privatization").check(ctx)
        assert adv.applicable and not adv.safe

    def test_force_overrides(self):
        src = ("      PROGRAM T\n      REAL B(10)\n      S = 0.0\n"
               "      DO 10 I = 1, 10\n      B(I) = S\n"
               "   10 CONTINUE\n      END\n")
        _, ctx = make_ctx(src, var="S", force=True)
        assert get("privatization").check(ctx).ok

    def test_array_privatization_checked(self):
        src = ("      PROGRAM T\n      REAL W(8), B(4, 8)\n"
               "      DO 10 I = 1, 4\n"
               "      DO 11 J = 1, 8\n      W(J) = I * J\n"
               "   11 CONTINUE\n"
               "      DO 12 J = 1, 8\n      B(I, J) = W(J)\n"
               "   12 CONTINUE\n   10 CONTINUE\n      PRINT *, B(2, 3)\n"
               "      END\n")
        apply_and_verify("privatization", src, var="W")


class TestScalarExpansion:
    SRC = ("      PROGRAM T\n      REAL A(10), B(10)\n"
           "      DO 10 I = 1, 10\n      T1 = A(I) + 1.0\n"
           "      B(I) = T1 * 2.0\n   10 CONTINUE\n"
           "      PRINT *, B(5)\n      END\n")

    def test_expands_and_preserves(self):
        program, out = apply_and_verify("scalar_expansion", self.SRC,
                                        var="T1")
        assert "T1X1" in out           # the expansion array was declared
        # no loop-carried deps on the expanded scalar remain
        uir = program.unit("T")
        an = DependenceAnalyzer(uir, use_scalar_kills=False)
        ld = an.analyze_loop("L1")
        assert all(d.var != "T1" for d in ld.dependences)

    def test_nonunit_lower_bound(self):
        src = ("      PROGRAM T\n      REAL A(10), B(10)\n"
               "      DO 10 I = 3, 8\n      T1 = A(I) + 1.0\n"
               "      B(I) = T1\n   10 CONTINUE\n      PRINT *, B(5)\n"
               "      END\n")
        apply_and_verify("scalar_expansion", src, var="T1")

    def test_unknown_trip_needs_extent(self):
        src = ("      PROGRAM T\n      READ *, N\n      REAL A(10), B(10)\n"
               "      DO 10 I = 1, N\n      T1 = A(I)\n      B(I) = T1\n"
               "   10 CONTINUE\n      END\n")
        _, ctx = make_ctx(src, var="T1")
        adv = get("scalar_expansion").check(ctx)
        assert not adv.safe
        _, ctx2 = make_ctx(src, var="T1", extent=10)
        assert get("scalar_expansion").check(ctx2).ok

    def test_live_out_copy_back(self):
        src = ("      PROGRAM T\n      REAL A(10)\n"
               "      DO 10 I = 1, 10\n      T1 = A(I) + 1.0\n"
               "      A(I) = T1\n   10 CONTINUE\n"
               "      PRINT *, T1\n      END\n")
        apply_and_verify("scalar_expansion", src, var="T1")


class TestArrayRenaming:
    def test_renames_region(self):
        src = ("      PROGRAM T\n      REAL W(5), A(5), B(5)\n"
               "      DO 10 I = 1, 5\n      W(I) = A(I)\n"
               "      B(I) = W(I)\n   10 CONTINUE\n"
               "      DO 20 I = 1, 5\n      W(I) = B(I) * 2.0\n"
               "      A(I) = W(I)\n   20 CONTINUE\n"
               "      PRINT *, A(3), B(3)\n      END\n")
        program, ctx = make_ctx(src, loop=None)
        lp2 = program.unit("T").loops.find("L2").loop
        ctx.params.update({"var": "W", "stmts": lp2.body, "force": True})
        res = get("array_renaming").apply(ctx)
        assert res.applied
        out = print_program(program.ast)
        assert verify_equivalence(src, out) == []
        assert "WX1" in out


class TestPeeling:
    SRC = ("      PROGRAM T\n      REAL A(10)\n"
           "      DO 10 I = 1, 10\n      A(I) = I * 1.0\n"
           "   10 CONTINUE\n      PRINT *, A(1), A(10)\n      END\n")

    def test_peel_front(self):
        apply_and_verify("loop_peeling", self.SRC, iterations=2,
                         where="front")

    def test_peel_back(self):
        apply_and_verify("loop_peeling", self.SRC, iterations=2,
                         where="back")

    def test_peel_more_than_trip_count(self):
        src = ("      PROGRAM T\n      REAL A(4)\n"
               "      DO 10 I = 1, 3\n      A(I) = I\n   10 CONTINUE\n"
               "      PRINT *, A(3)\n      END\n")
        apply_and_verify("loop_peeling", src, iterations=5, where="front")


class TestSplitting:
    def test_split_preserves(self):
        src = ("      PROGRAM T\n      REAL A(10)\n"
               "      DO 10 I = 1, 10\n      A(I) = I * 1.0\n"
               "   10 CONTINUE\n      PRINT *, A(4), A(9)\n      END\n")
        program, out = apply_and_verify("loop_splitting", src, at=4)
        assert len(program.unit("T").loops.all_loops()) == 2


class TestAlignment:
    def test_align_breaks_carried_dep(self):
        src = ("      PROGRAM T\n      REAL A(12), B(12)\n"
               "      DO 5 I = 1, 12\n      A(I) = I\n    5 CONTINUE\n"
               "      DO 10 I = 2, 10\n      A(I) = I * 2.0\n"
               "      B(I) = A(I - 1)\n   10 CONTINUE\n"
               "      PRINT *, B(5), A(9)\n      END\n")
        program, ctx = make_ctx(src, loop="L2")
        lp = program.unit("T").loops.find("L2").loop
        ctx.params.update({"stmt": lp.body[1], "offset": 1})
        res = get("loop_alignment").apply(ctx)
        assert res.applied, res.advice.explain()
        out = print_program(program.ast)
        assert verify_equivalence(src, out) == [], out


class TestReductionRecognition:
    SRC = ("      PROGRAM T\n      REAL A(10), S\n      S = 1.0\n"
           "      DO 5 I = 1, 10\n      A(I) = I * 0.5\n    5 CONTINUE\n"
           "      DO 10 I = 1, 10\n      S = S + A(I)\n"
           "   10 CONTINUE\n      PRINT *, S\n      END\n")

    def test_restructures_and_preserves(self):
        program, out = apply_and_verify("reduction_recognition", self.SRC,
                                        loop="L2", var="S")
        # the original loop no longer carries a dependence on S
        uir = program.unit("T")
        an = DependenceAnalyzer(uir)
        first = [li for li in uir.loops.all_loops() if li.depth == 0][1]
        ld = an.analyze_loop(first)
        assert ld.parallelizable()

    def test_subtraction_reduction(self):
        src = self.SRC.replace("S = S + A(I)", "S = S - A(I)")
        apply_and_verify("reduction_recognition", src, loop="L2", var="S")

    # A(I) = I makes the printed result exact
    EXACT = SRC.replace("A(I) = I * 0.5", "A(I) = I")

    def test_mixed_updates_refused(self):
        src = self.EXACT.replace("S = S + A(I)\n",
                                 "S = S + A(I)\n      S = S * 2.0\n")
        program, ctx = make_ctx(src, loop="L2", var="S")
        assert not get("reduction_recognition").apply(ctx).applied
        assert run_program(program).outputs == [5096.0]

    def test_accumulator_on_the_right(self):
        src = self.EXACT.replace("S = S + A(I)", "S = A(I) + S")
        _, out = apply_and_verify("reduction_recognition", src,
                                  loop="L2", var="S")
        assert "SX1(I) = A(I)" in out
        assert run_program(out).outputs == [56.0]

    def test_conditional_update_refused(self):
        src = ("      PROGRAM T\n      REAL A(10), S\n      S = 0.0\n"
               "      DO 10 I = 1, 10\n"
               "      IF (A(I) .GT. 0.0) S = S + A(I)\n"
               "   10 CONTINUE\n      PRINT *, S\n      END\n")
        _, ctx = make_ctx(src, var="S")
        adv = get("reduction_recognition").check(ctx)
        assert not adv.safe
