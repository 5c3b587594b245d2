"""The relative debugger's adversarial runs and sync numbering on the
closure compiler.

``run_to_sync`` runs the sync-numbering variant of the closure compiler,
with ``relative.AdversarialRuntime`` in place of the fork-join runtime
for the adversarial run.  The tree walker stays the serial oracle: an
auto-parallelized program's adversarial run must equal it exactly, and a
seeded program's exact ``RunDiff`` against it must be the one
``tests/golden/divergence.json`` recorded from the tree walker's
emulator (which also pins ``serial_fallbacks`` and step counts).
"""

import pytest

from repro.corpus import PROGRAMS
from repro.interp.relative import run_to_sync
from repro.interp.verify import compare_runs, compare_snapshots, \
    run_program
from repro.ir import AnalyzedProgram
from repro.lint.seeds import seeded_program
from repro.ped.autopar import auto_parallelize
from repro.ped.session import PedSession

from .test_divergence_golden import corpus_program, golden

TASKS = [(name, mode) for name in PROGRAMS for mode in ("auto", "seeded")]


def _against_oracle(program, inputs, **kw):
    """(exact RunDiff against the tree serial oracle, adversarial run)."""
    oracle = run_program(program, inputs=inputs, engine="tree")
    adv = run_to_sync(program, inputs, adversarial=True, **kw)
    return compare_runs(oracle, adv, rtol=0, atol=0), adv, oracle


@pytest.mark.parametrize("name,mode", TASKS,
                         ids=[f"{n}-{m}" for n, m in TASKS])
def test_compiled_emulator_matches_tree_on_corpus(name, mode):
    diff, adv, oracle = _against_oracle(
        corpus_program(name, mode), list(PROGRAMS[name].inputs), workers=4)
    assert diff.to_json() \
        == golden()[f"verify/{name}/{mode}/w4-static"]["diff"]
    if mode == "auto":
        assert diff == []
        assert adv.steps == oracle.steps


def test_compiled_emulator_matches_tree_under_reassociation():
    """Seeded pueblo3d's REAL checksum, reassociated: a 1-ulp drift that
    only an exact comparison sees (at 2 workers; the 4-worker split
    happens to round identically)."""
    diff, _, _ = _against_oracle(seeded_program("pueblo3d")[0],
                                 list(PROGRAMS["pueblo3d"].inputs),
                                 workers=2, force_reassociation=True)
    assert diff, "the reassociated sum must drift"
    recorded = golden()["divergence/pueblo3d/seeded/w2-reassoc-exact"]
    assert list(diff) == recorded["diffs"]


SINGLE_TRIP = """\
      PROGRAM P
      INTEGER I, N
      REAL T, A(4)
      N = 1
      T = 5.0
      PARALLEL DO 10 I = 1, N PRIVATE(T)
         T = I * 2.0
         A(I) = T
 10   CONTINUE
      PRINT *, T, A(1)
      END
"""


def test_single_trip_loop_is_forked():
    """A one-trip PARALLEL DO still forks: its private gets the pre-loop
    value back at the join, so the post-loop read differs from serial."""
    diff, adv, oracle = _against_oracle(
        AnalyzedProgram.from_source(SINGLE_TRIP), [], workers=4)
    assert oracle.outputs == [2.0, 2.0]
    assert adv.outputs == [5.0, 2.0]
    assert diff.first_key == "outputs"


# every kind of statement the numbering contract names: declarations, a
# logical IF and its inner statement, a CALL and a user FUNCTION whose
# statements count, RETURN/GOTO/STOP that do not, and a PARALLEL DO
# that counts once, at its join
NUMBERING = """\
      PROGRAM P
      COMMON /C/ S
      REAL S, A(4), F
      INTEGER I
      S = 0.0
      IF (S .EQ. 0.0) S = 1.0
      CALL ADD(2.0)
      IF (S .GT. 0.0) GOTO 20
      S = -1.0
 20   CONTINUE
      PARALLEL DO 30 I = 1, 4
         A(I) = S + I
 30   CONTINUE
      S = S + F(S)
      STOP
      END
      SUBROUTINE ADD(X)
      REAL X, S
      COMMON /C/ S
      S = S + X
      RETURN
      END
      REAL FUNCTION F(Y)
      REAL Y
      F = Y * 2.0
      END
"""

#: (unit, line, kind) of every sync point of NUMBERING, in order
EXPECTED_SYNC = [
    ("P", 2, "CommonStmt"), ("P", 3, "TypeDecl"), ("P", 4, "TypeDecl"),
    ("P", 5, "Assign"), ("P", 6, "Assign"), ("P", 6, "LogicalIf"),
    ("ADD", 18, "TypeDecl"), ("ADD", 19, "CommonStmt"),
    ("ADD", 20, "Assign"), ("P", 7, "CallStmt"),
    ("P", 10, "Continue"), ("P", 11, "parallel_do"),
    ("F", 24, "TypeDecl"), ("F", 25, "Assign"), ("P", 14, "Assign"),
]


class _Every:
    """Sampler that keeps every sync point."""

    next = 1

    def __init__(self):
        self.samples = {}

    def __call__(self, rec, snap):
        self.samples[rec.index] = (rec, snap)
        self.next = rec.index + 1
        return False


@pytest.mark.parametrize("adversarial", (False, True),
                         ids=("serial", "adversarial"))
def test_compiled_engine_halts_where_it_samples(adversarial):
    """The numbering contract, statement by statement, and a halt at
    each sync point leaves exactly what the sample there saw."""
    program = AnalyzedProgram.from_source(NUMBERING)
    kw = dict(workers=4) if adversarial else {}
    every = _Every()
    run = run_to_sync(program, [], adversarial=adversarial, sampler=every,
                      **kw)
    recs = [every.samples[k][0] for k in sorted(every.samples)]
    assert [(r.unit, r.line, r.kind) for r in recs] == EXPECTED_SYNC
    assert [r.index for r in recs] == list(range(1, run.sync_count + 1))
    assert recs[11].var == "I" and recs[11].describe() \
        == "P line 11: PARALLEL DO I"
    for k, (rec, snap) in every.samples.items():
        halted = run_to_sync(program, [], adversarial=adversarial,
                             halt_at=k, **kw)
        assert halted.halted == rec
        assert halted.sync_count == k
        assert compare_snapshots(halted.snapshot(), snap, program,
                                 rtol=0, atol=0) == []
    # inside ADD, before its RETURN, the sample sees S = 1 + 2
    assert every.samples[9][1]["common:S"] == 3.0
    assert run.snapshot()["common:S"] == 3.0 + 2.0 * 3.0


def test_session_verify_parallel():
    """PedSession.verify_parallel is the fleet's verify check: seeded
    slab2d diverges from the tree serial oracle as the emulator says, an
    autoparallelized program does not."""
    program, _ = seeded_program("slab2d")
    inputs = list(PROGRAMS["slab2d"].inputs)
    diff = PedSession(program).verify_parallel(inputs=inputs)
    oracle = run_program(program, inputs=inputs, engine="tree")
    adv = run_to_sync(program, inputs, adversarial=True, workers=4)
    expected = compare_runs(oracle, adv)
    assert diff
    assert diff.to_json() == expected.to_json()

    session = PedSession(PROGRAMS["dpmin"].source)
    assert auto_parallelize(session).parallelized
    assert session.verify_parallel(
        inputs=list(PROGRAMS["dpmin"].inputs)) == []
