"""The dependence analyzer's reduction and scalar verdicts, pinned by a
golden file.

``tests/golden/reductions.json`` records, for every loop of the 8 corpus
programs and of ``synth.generate_batch(1993, 200)``, as the interactive
session's analyzer (interprocedural oracle) reports them:

* ``reductions`` and ``privatizable``;
* ``parallelizable()``;
* ``(var, dtype, reason)`` of every level-1 scalar dependence.

A change to how reductions are recognized must leave every one of these
verdicts where it was, or move it on purpose.  Regenerate the file only
for such a change::

    PYTHONPATH=src python -m tests.test_reductions_golden
"""

import functools
import json
import pathlib

from repro.corpus import PROGRAMS
from repro.corpus.synth import generate_batch
from repro.ped.session import PedSession

GOLDEN = pathlib.Path(__file__).parent / "golden" / "reductions.json"

SYNTH_SEED, SYNTH_COUNT = 1993, 200


def _sources():
    out = {name: p.source for name, p in PROGRAMS.items()}
    for sp in generate_batch(SYNTH_SEED, SYNTH_COUNT):
        out[sp.name] = sp.source
    return out


def _verdicts(source):
    """loop key -> verdict record for every loop of one program."""
    session = PedSession(source)
    out = {}
    for uname, uir in sorted(session.program.units.items()):
        an = session.analyzer(uname)
        st = uir.symtab
        for li in uir.loops.all_loops():
            ld = an.analyze_loop(li)
            scalar = sorted(
                [d.var, d.dtype.name, d.reason] for d in ld.dependences
                if d.level == 1 and st.get(d.var) is not None
                and not st.get(d.var).is_array)
            out[f"{uname}/{li.id}"] = {
                "reductions": sorted(ld.reductions),
                "privatizable": sorted(ld.privatizable),
                "parallelizable": ld.parallelizable(),
                "scalar_deps": scalar,
            }
    return out


@functools.lru_cache(maxsize=None)
def current():
    return {name: _verdicts(src) for name, src in _sources().items()}


@functools.lru_cache(maxsize=None)
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_program():
    assert sorted(golden()) == sorted(_sources())


def test_matches_golden():
    got, want = current(), golden()
    moved = [f"{prog}/{loop}" for prog in sorted(want)
             for loop in sorted(set(want[prog]) | set(got.get(prog, {})))
             if got.get(prog, {}).get(loop) != want[prog].get(loop)]
    assert not moved, f"{len(moved)} loop verdicts moved: {moved[:10]}"


def test_golden_pins_reductions():
    # the sweep is only a pin if it holds reductions to move
    loops = [v for prog in golden().values() for v in prog.values()]
    assert len(loops) >= 500
    assert sum(1 for v in loops if v["reductions"]) >= 20


if __name__ == "__main__":
    data = current()
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN} ({sum(map(len, data.values()))} loops)")
