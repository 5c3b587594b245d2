"""The compiled adversarial runtime against the tree emulator.

``run_to_sync(..., engine="compiled")`` runs the closure compiler with
``relative.AdversarialRuntime`` in place of the fork-join runtime; the
tree walker's ``AdversarialInterpreter`` stays the reference.  For every
program both must produce the same observables, hence the same
``RunDiff`` against the serial run (compared at ``rtol=atol=0``), and
keep the same loops serial.
"""

import json

import pytest

from repro.corpus import PROGRAMS
from repro.interp.relative import run_to_sync
from repro.interp.verify import compare_runs
from repro.ir import AnalyzedProgram
from repro.lint.seeds import seeded_program
from repro.ped.autopar import auto_parallelize
from repro.ped.session import PedSession

TASKS = [(name, mode) for name in PROGRAMS for mode in ("auto", "seeded")]


def _program(name, mode):
    if mode == "seeded":
        return seeded_program(name)[0]
    session = PedSession(PROGRAMS[name].source)
    auto_parallelize(session)
    return session.program


def _adversarial_diffs(program, inputs, **kw):
    """engine -> (RunDiff against the serial run, adversarial run)."""
    serial = run_to_sync(program, inputs, adversarial=False,
                         engine="compiled")
    out = {}
    for engine in ("tree", "compiled"):
        adv = run_to_sync(program, inputs, adversarial=True,
                          engine=engine, **kw)
        out[engine] = (compare_runs(serial, adv, rtol=0, atol=0), adv)
    return out


def _assert_same(out):
    (tdiff, tree), (cdiff, comp) = out["tree"], out["compiled"]
    assert json.dumps(cdiff.to_json()) == json.dumps(tdiff.to_json())
    assert comp.serial_fallbacks == tree.serial_fallbacks
    assert compare_runs(tree, comp, rtol=0, atol=0) == []
    assert comp.steps == tree.steps


@pytest.mark.parametrize("name,mode", TASKS,
                         ids=[f"{n}-{m}" for n, m in TASKS])
def test_compiled_emulator_matches_tree_on_corpus(name, mode):
    out = _adversarial_diffs(_program(name, mode),
                             list(PROGRAMS[name].inputs), workers=4)
    _assert_same(out)
    if mode == "auto":
        assert out["compiled"][0] == []


def test_compiled_emulator_matches_tree_under_reassociation():
    """Seeded pueblo3d's REAL checksum, reassociated: a 1-ulp drift that
    only an exact comparison sees (at 2 workers; the 4-worker split
    happens to round identically)."""
    out = _adversarial_diffs(seeded_program("pueblo3d")[0],
                             list(PROGRAMS["pueblo3d"].inputs), workers=2,
                             force_reassociation=True)
    _assert_same(out)
    assert out["compiled"][0], "the reassociated sum must drift"


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


def test_single_trip_loop_is_forked_by_both_emulators():
    """A one-trip PARALLEL DO still forks: its private gets the pre-loop
    value back at the join, so the post-loop read differs from serial."""
    out = _adversarial_diffs(AnalyzedProgram.from_source(SINGLE_TRIP), [],
                             workers=4)
    _assert_same(out)
    assert out["compiled"][1].outputs == [5.0, 2.0]
    assert out["compiled"][0].first_key == "outputs"


def test_compiled_engine_refuses_halt_at():
    program = AnalyzedProgram.from_source(SINGLE_TRIP)
    with pytest.raises(ValueError, match="halt_at"):
        run_to_sync(program, [], adversarial=True, halt_at=1,
                    engine="compiled")


def test_session_verify_parallel():
    """PedSession.verify_parallel runs the compiled check: seeded slab2d
    diverges exactly as the tree emulator says, an autoparallelized
    program does not."""
    program, _ = seeded_program("slab2d")
    inputs = list(PROGRAMS["slab2d"].inputs)
    diff = PedSession(program).verify_parallel(inputs=inputs)
    serial = run_to_sync(program, inputs, adversarial=False)
    tree = run_to_sync(program, inputs, adversarial=True, workers=4)
    expected = compare_runs(serial, tree)
    assert diff
    assert diff.to_json() == expected.to_json()

    session = PedSession(PROGRAMS["dpmin"].source)
    assert auto_parallelize(session).parallelized
    assert session.verify_parallel(
        inputs=list(PROGRAMS["dpmin"].inputs)) == []
