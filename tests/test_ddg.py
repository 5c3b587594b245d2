"""Dependence graph construction: classification, levels, scalar deps,
reductions, copy propagation, auxiliary inductions."""

import pytest

from repro.dependence import DepType, DependenceAnalyzer, FactBase, Mark
from repro.ir import AnalyzedProgram
from repro.ped.session import PedSession


def deps_of(src: str, unit: str = "T", loop: str = "L1", **kw):
    u = AnalyzedProgram.from_source(src).unit(unit)
    an = DependenceAnalyzer(u, **kw)
    return an.analyze_loop(loop)


class TestClassification:
    def test_flow_dep(self):
        ld = deps_of("      SUBROUTINE T\n      REAL A(20)\n"
                     "      DO 10 I = 2, 10\n      A(I) = A(I - 1) + 1.0\n"
                     "   10 CONTINUE\n      END\n")
        (d,) = ld.dependences
        assert d.dtype is DepType.TRUE and d.level == 1
        assert d.vector == ("<",) and d.distances == (1,)
        assert d.mark is Mark.PROVEN

    def test_anti_dep(self):
        ld = deps_of("      SUBROUTINE T\n      REAL A(20)\n"
                     "      DO 10 I = 1, 9\n      A(I) = A(I + 1) + 1.0\n"
                     "   10 CONTINUE\n      END\n")
        (d,) = ld.dependences
        assert d.dtype is DepType.ANTI and d.vector == ("<",)

    def test_output_dep(self):
        ld = deps_of("      SUBROUTINE T\n      REAL A(20)\n"
                     "      DO 10 I = 1, 9\n      A(I) = 1.0\n"
                     "      A(I + 1) = 2.0\n   10 CONTINUE\n      END\n")
        outs = [d for d in ld.dependences if d.dtype is DepType.OUTPUT]
        assert outs and all(d.level == 1 for d in outs)

    def test_loop_independent(self):
        ld = deps_of("      SUBROUTINE T\n      REAL A(20), B(20)\n"
                     "      DO 10 I = 1, 10\n      A(I) = B(I)\n"
                     "      B(I) = A(I) * 2.0\n   10 CONTINUE\n      END\n")
        indep = [d for d in ld.dependences if not d.loop_carried]
        assert indep
        assert all(d.vector == ("=",) for d in indep)

    def test_no_dep_between_disjoint_columns(self):
        ld = deps_of("      SUBROUTINE T\n      REAL A(10, 2)\n"
                     "      DO 10 I = 1, 10\n      A(I, 1) = A(I, 2)\n"
                     "   10 CONTINUE\n      END\n")
        assert ld.dependences == []
        assert ld.parallelizable()

    def test_nested_level_two(self):
        ld = deps_of("      SUBROUTINE T\n      REAL A(10, 10)\n"
                     "      DO 10 I = 1, 10\n      DO 10 J = 2, 10\n"
                     "      A(I, J) = A(I, J - 1)\n"
                     "   10 CONTINUE\n      END\n")
        (d,) = ld.dependences
        assert d.vector == ("=", "<") and d.level == 2
        # outer loop is parallelizable (carrier is level 2)
        assert ld.parallelizable()


class TestScalarDeps:
    def test_shared_scalar_carried(self):
        ld = deps_of("      SUBROUTINE T(S)\n      REAL A(10), S\n"
                     "      DO 10 I = 1, 10\n      S = S + A(I)\n"
                     "   10 CONTINUE\n      END\n")
        svars = {d.var for d in ld.dependences}
        assert "S" in svars
        assert not ld.parallelizable()

    def test_private_scalar_no_carried_deps(self):
        ld = deps_of("      SUBROUTINE T\n      REAL A(10), B(10)\n"
                     "      DO 10 I = 1, 10\n      T1 = A(I)\n"
                     "      B(I) = T1\n   10 CONTINUE\n      END\n")
        assert "T1" in ld.privatizable
        # privatization removes the *carried* dependences; the
        # same-iteration def->use flow remains (it orders statements)
        t1 = [d for d in ld.dependences if d.var == "T1"]
        assert t1 and all(not d.loop_carried for d in t1)
        assert ld.parallelizable()

    def test_kills_disabled_restores_deps(self):
        src = ("      SUBROUTINE T\n      REAL A(10), B(10)\n"
               "      DO 10 I = 1, 10\n      T1 = A(I)\n"
               "      B(I) = T1\n   10 CONTINUE\n      END\n")
        ld = deps_of(src, use_scalar_kills=False)
        assert any(d.var == "T1" for d in ld.dependences)
        assert not ld.parallelizable()

    def test_user_private_var_respected(self):
        src = ("      SUBROUTINE T\n      REAL A(10), B(10)\n"
               "      DO 10 I = 1, 10\n"
               "      IF (A(I) .GT. 0.0) T1 = A(I)\n"
               "      B(I) = T1\n   10 CONTINUE\n      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        an = DependenceAnalyzer(u)
        assert not an.analyze_loop("L1").parallelizable()
        u.loops.find("L1").loop.private_vars.add("T1")
        an2 = DependenceAnalyzer(u)
        assert an2.analyze_loop("L1").parallelizable()


def _reduction_loop(*body, head="T(S)", decls="", callee=""):
    return (f"      SUBROUTINE {head}\n      REAL A(10), S\n" + decls
            + "      DO 10 I = 1, 10\n"
            + "".join(f"      {line}\n" for line in body)
            + "   10 CONTINUE\n      END\n" + callee)


class TestReductions:
    @pytest.mark.parametrize("src", [
        _reduction_loop("S = S + A(I)"),
        _reduction_loop("S = MAX(S, A(I))"),
        _reduction_loop("S = A(I) * S"),
    ], ids=["sum", "max", "product-on-the-right"])
    def test_reduction_detected(self, src):
        assert "S" in deps_of(src).reductions

    @pytest.mark.parametrize("src", [
        _reduction_loop("S = S + A(I)", "A(I) = S"),
        _reduction_loop("S = 0.5 * S + A(I)"),
        _reduction_loop("S = S + A(I)", "S = S * 2.0"),
        _reduction_loop("S = MAX(S, A(I))", "S = S + A(I)"),
        _reduction_loop("S = S + A(I)", "READ *, S"),
    ], ids=["other-use", "non-associative", "mixed-sum-product",
            "mixed-max-sum", "read-defines"])
    def test_not_a_reduction(self, src):
        assert "S" not in deps_of(src).reductions

    @pytest.mark.parametrize("stored, reduction", [("S", False),
                                                   ("T", True)])
    def test_callee_common_store(self, stored, reduction):
        # the interprocedural oracle says which COMMON scalar F stores
        src = _reduction_loop(
            "S = S + A(I)", "CALL F", head="T",
            decls="      COMMON /C/ S, T\n",
            callee=f"      SUBROUTINE F\n      COMMON /C/ S, T\n"
                   f"      {stored} = 1.0\n      END\n")
        ld = PedSession(src).analyzer("T").analyze_loop("L1")
        assert ("S" in ld.reductions) is reduction


class TestCopyPropagation:
    def test_index_array_copy(self):
        src = ("      SUBROUTINE T\n      INTEGER IX(10)\n"
               "      REAL F(100)\n"
               "      DO 10 N = 1, 10\n      K = IX(N)\n"
               "      F(K) = F(K) + 1.0\n   10 CONTINUE\n      END\n")
        fb = FactBase()
        fb.assert_permutation("IX")
        ld = deps_of(src, facts=fb)
        # permutation assertion reaches through the K = IX(N) copy
        assert all(not d.loop_carried for d in ld.dependences
                   if d.var == "F")

    def test_copy_after_redefinition_not_propagated(self):
        src = ("      SUBROUTINE T\n      INTEGER IX(10)\n"
               "      REAL F(100)\n"
               "      DO 10 N = 1, 10\n      K = IX(N)\n"
               "      F(K) = 0.0\n      K = K + 1\n"
               "      F(K) = 1.0\n   10 CONTINUE\n      END\n")
        fb = FactBase()
        fb.assert_permutation("IX")
        ld = deps_of(src, facts=fb)
        # K defined twice: no propagation, deps remain
        assert any(d.loop_carried for d in ld.dependences)


class TestAuxiliaryInductionDeps:
    def test_aux_var_rewritten(self):
        src = ("      SUBROUTINE T\n      REAL A(40)\n      K = 0\n"
               "      DO 10 I = 1, 10\n      K = K + 2\n"
               "      A(K) = A(K) + 1.0\n   10 CONTINUE\n      END\n")
        ld = deps_of(src)
        # A(K) with K = 2i: self-distance 0 only; no carried array dep
        assert all(not d.loop_carried for d in ld.dependences
                   if d.var == "A")


class TestEnvIntegration:
    def test_symbolic_relation_disproves(self):
        src = ("      SUBROUTINE T\n      REAL A(40)\n"
               "      JM = JMAX - 1\n"
               "      DO 10 I = 1, 10\n"
               "      A(I + JM) = A(I + JMAX)\n"
               "   10 CONTINUE\n      END\n")
        ld = deps_of(src)
        # with JM = JMAX - 1 the two references differ by exactly 1
        for d in ld.dependences:
            if d.var == "A":
                assert d.mark is Mark.PROVEN
                assert d.distances == (1,)

    def test_constants_feed_bounds(self):
        src = ("      SUBROUTINE T\n      REAL A(100)\n      N = 10\n"
               "      DO 10 I = 1, N\n      A(I) = A(I + 50)\n"
               "   10 CONTINUE\n      END\n")
        ld = deps_of(src)
        # distance 50 exceeds the (known) trip range: independent
        assert ld.dependences == []
