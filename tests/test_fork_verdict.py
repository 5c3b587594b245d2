"""One fork verdict, checked at every place that consumes it.

``repro.interp.runtime.fork_blocker`` alone decides whether the fork-join
runtime forks a PARALLEL DO.  Each row below is a tiny loop; for it the
test asks the verdict directly and then checks that the three consumers
agree with it: the compiled runtime (a ``par_fallbacks`` bump with four
workers), the relative debugger's adversarial emulator (its
``serial_fallbacks`` name the loop with the verdict's reason) and lint
(a LINT004 finding).
"""

import pytest

from repro.interp.compile import CompiledInterpreter
from repro.interp.relative import run_to_sync
from repro.interp.runtime import fork_blocker, loop_facts, summary_lookup
from repro.ir import AnalyzedProgram
from repro.lint import lint_program
from repro.perf import counters as perf_counters

TEMPLATE = """\
      PROGRAM P
      REAL A(10), B(10)
      INTEGER I
      DO 5 I = 1, 10
         A(I) = I
         B(I) = 0.0
 5    CONTINUE
      CALL WORK(A, B, 10)
      PRINT *, B(1), B(10)
      END
      SUBROUTINE WORK(A, B, N)
      INTEGER N, I, K
      REAL A(N), B(N), S, T, CS
      COMMON /C/ CS
      K = 0
      S = 0.0
      T = 0.0
      CS = 0.0
      PARALLEL DO 10 I = 1, N
{body}
 10   CONTINUE
 20   PRINT *, K, S, T, CS
      END
      SUBROUTINE HALT
      REAL CS
      COMMON /C/ CS
      IF (CS .GT. 1.0E6) STOP
      END
"""

#: name -> (loop body, blocker kind, blocker kind with allow_inexact);
#: a kind is the ForkBlocker field that is set, None when the loop forks
CASES = {
    "read": ("         READ *, B(I)", "static", "static"),
    "stop": ("         IF (A(I) .GT. 1.0E6) STOP", "static", "static"),
    "return": ("         IF (A(I) .GT. 1.0E6) RETURN", "static",
               "static"),
    "jump-out": ("         IF (A(I) .GT. 1.0E6) GOTO 20", "static",
                 "static"),
    "common-scalar": ("         CS = A(I)", "static", "static"),
    "stray-scalar": ("         T = A(I) * 2.0\n         B(I) = T",
                     "stray", "stray"),
    "missing-callee": ("         IF (N .LT. 0) CALL EXTRN(A)\n"
                       "         B(I) = A(I)", "callee", "callee"),
    "blocked-callee": ("         CALL HALT\n         B(I) = A(I)",
                       "callee", "callee"),
    "integer-sum": ("         K = K + I", None, None),
    "real-sum": ("         S = S + A(I)", "stray", None),
}

INPUTS = [float(k) for k in range(1, 11)]


def _kind(blocker):
    if blocker is None:
        return None
    return next(f for f in blocker._fields[:3] if getattr(blocker, f))


@pytest.mark.parametrize("allow_inexact", [False, True],
                         ids=["exact", "allow-inexact"])
@pytest.mark.parametrize("case", list(CASES))
def test_fork_verdict_agrees_everywhere(case, allow_inexact):
    body, kind, inexact_kind = CASES[case]
    src = TEMPLATE.format(body=body)
    program = AnalyzedProgram.from_source(src)
    uir = program.units["WORK"]
    loop = next(li.loop for li in uir.loops.all_loops()
                if li.loop.parallel)
    facts = loop_facts(loop, uir.symtab)
    summary_of = summary_lookup(program.units, {})
    privates = frozenset(loop.private_vars)
    exact = fork_blocker(facts, privates, summary_of, False)
    verdict = fork_blocker(facts, privates, summary_of, False,
                           allow_inexact=allow_inexact)
    assert _kind(exact) == kind
    assert _kind(verdict) == (inexact_kind if allow_inexact else kind)

    # the compiled runtime never reassociates
    perf_counters.reset()
    CompiledInterpreter(program, list(INPUTS), workers=4).run()
    assert (perf_counters.snapshot()["par_fallbacks"] > 0) \
        == (exact is not None)

    # the emulator's force_reassociation is the verdict's allow_inexact;
    # it keeps the loop serial for the verdict's reason
    adv = run_to_sync(program, list(INPUTS), adversarial=True, workers=4,
                      force_reassociation=allow_inexact)
    assert adv.serial_fallbacks == (
        {} if verdict is None else {("WORK", loop.line): verdict.reason()})

    # lint predicts the runtime, so it never reassociates either
    lint004 = [d for d in lint_program(src)
               if d.rule == "LINT004" and d.unit == "WORK"]
    assert bool(lint004) == (exact is not None)
