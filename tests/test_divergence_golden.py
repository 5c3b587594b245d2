"""The relative debugger's numbering contract, pinned by a golden file.

Hood & Jost's relative debugger compares a serial and a parallel run at
matching sync points, so the numbering of those points *is* the
contract: every ``Divergence`` field (``sync_index``, ``probes``, the
shadow's race text) follows from it and from the adversarial schedule.
``tests/golden/divergence.json`` records, field for field:

* :func:`find_divergence` for the 16 corpus tasks (8 programs, auto and
  seeded) at 4 workers, static schedule;
* the seeded tasks again at 2 workers, dynamic schedule;
* seeded pueblo3d at 2 workers with ``force_reassociation`` and
  ``rtol=atol=0`` (the 1-ulp drift);
* the small COMMON-DO-index, racy-join and final-flush programs of
  ``tests/test_fleet.py``;
* the serial ``sync_count`` of every seeded program;
* for every corpus task, the adversarial run's exact ``RunDiff``
  against the serial run, its ``serial_fallbacks`` and its step count.

The file was recorded with the tree walker's sync numbering and
adversarial emulator; the closure compiler reproduces it exactly.
Regenerate it only for a change that is meant to move a localization::

    PYTHONPATH=src python -m tests.test_divergence_golden
"""

import functools
import json
import pathlib

import pytest

from repro.corpus import PROGRAMS
from repro.fleet import find_divergence
from repro.interp.relative import run_to_sync
from repro.interp.verify import compare_runs
from repro.ir import AnalyzedProgram
from repro.lint.seeds import seeded_program
from repro.ped.autopar import auto_parallelize
from repro.ped.session import PedSession

from .test_fleet import COMMON_DO_INDEX, FINAL_ONLY, RACY_JOIN

GOLDEN = pathlib.Path(__file__).parent / "golden" / "divergence.json"

MODES = ("auto", "seeded")


@functools.lru_cache(maxsize=None)
def corpus_program(name, mode):
    if mode == "seeded":
        return seeded_program(name)[0]
    session = PedSession(PROGRAMS[name].source)
    auto_parallelize(session)
    return session.program


def _inputs(name):
    return list(PROGRAMS[name].inputs)


def _divergence(program, inputs, **kw):
    div = find_divergence(program, inputs, **kw)
    return None if div is None else div.to_json()


def _verify(program, inputs):
    """The exact whole-run comparison the fleet's verify stage makes."""
    serial = run_to_sync(program, inputs, adversarial=False)
    adv = run_to_sync(program, inputs, adversarial=True, workers=4)
    return {"diff": compare_runs(serial, adv, rtol=0, atol=0).to_json(),
            "serial_fallbacks": sorted(
                [u, line, why]
                for (u, line), why in adv.serial_fallbacks.items()),
            "steps": adv.steps}


SMALL = {
    "common_do_index": COMMON_DO_INDEX,
    "racy_join": RACY_JOIN,
    "final_flush/pre=1": FINAL_ONLY.format(pre=1),
    "final_flush/pre=300": FINAL_ONLY.format(pre=300),
}


def _cases():
    """case id -> thunk computing its JSON value."""
    out = {}
    for name in PROGRAMS:
        for mode in MODES:
            out[f"divergence/{name}/{mode}/w4-static"] = functools.partial(
                lambda n, m: _divergence(corpus_program(n, m), _inputs(n),
                                         workers=4), name, mode)
            out[f"verify/{name}/{mode}/w4-static"] = functools.partial(
                lambda n, m: _verify(corpus_program(n, m), _inputs(n)),
                name, mode)
        out[f"divergence/{name}/seeded/w2-dynamic"] = functools.partial(
            lambda n: _divergence(corpus_program(n, "seeded"), _inputs(n),
                                  workers=2, schedule="dynamic"), name)
        out[f"sync_count/{name}/seeded"] = functools.partial(
            lambda n: run_to_sync(corpus_program(n, "seeded"), _inputs(n),
                                  adversarial=False).sync_count, name)
    out["divergence/pueblo3d/seeded/w2-reassoc-exact"] = lambda: \
        _divergence(corpus_program("pueblo3d", "seeded"),
                    _inputs("pueblo3d"), workers=2,
                    force_reassociation=True, rtol=0.0, atol=0.0)
    for key, src in SMALL.items():
        out[f"divergence/{key}/w4-static"] = functools.partial(
            lambda s: _divergence(AnalyzedProgram.from_source(s), [],
                                  workers=4), src)
    return out


CASES = _cases()


def _normalized(value):
    return json.loads(json.dumps(value))


@functools.lru_cache(maxsize=None)
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case):
    assert _normalized(CASES[case]()) == golden()[case]


def test_golden_pins_the_known_localizations():
    g = golden()
    slab = g["divergence/slab2d/seeded/w4-static"]
    assert (slab["unit"], slab["line"], slab["variable"],
            slab["loop_line"]) == ("STEP", 59, "V", 53)
    assert slab["probes"] <= 3
    drift = g["divergence/pueblo3d/seeded/w2-reassoc-exact"]
    assert drift is not None and drift["unit"] == "PUEBLO"
    assert g["divergence/spec77/seeded/w4-static"] is None
    for name in PROGRAMS:
        assert g[f"divergence/{name}/auto/w4-static"] is None
        assert g[f"verify/{name}/auto/w4-static"]["diff"]["count"] == 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {case: _normalized(CASES[case]()) for case in sorted(CASES)},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(CASES)} cases)")
