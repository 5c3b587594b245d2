"""The benchmark's own tests.

    python3 -m pytest perfbench -q

* the entry-point patch reaches every module binding and is undone;
* self time is a span's duration minus its children's coverage;
* the layer-coverage tripwire passes on a traced run and names the layer
  that records zero calls;
* an injected 2x slowdown of one layer's public entry point fails the
  end-to-end bound of the workload that exercises it, and leaves the
  other workloads inside theirs (about five minutes: every workload
  runs interleaved baseline and injected passes).
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.pin_environment()
sys.path.insert(0, run.SRC)

import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BOUNDS = {m["name"]: m["bound"] for m in json.load(_fh)["end_to_end"]}


class Slowdown:
    """Patch hook: the patched calls take ``factor`` times as long."""

    def __init__(self, factor: float = 2.0):
        self.factor = factor

    def __call__(self, name, fn, args, kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            time.sleep((time.perf_counter() - t0) * (self.factor - 1.0))


# --------------------------------------------------------------------------
# patching and spans
# --------------------------------------------------------------------------

def test_patch_reaches_every_binding_and_is_undone():
    import repro.fleet.bisect as fb
    import repro.fleet.pipeline as fp
    import repro.interp.relative as rel
    import repro.serve.manager as sm
    import repro.serve.state as st

    originals = (rel.run_to_sync, st.rehydrate)
    with layers.Patch(Slowdown(1.0),
                      names={"interp.relative", "serve.rehydrate"}):
        for mod in (rel, fp, fb):
            assert mod.run_to_sync is not originals[0]
            assert mod.run_to_sync.__wrapped__ is originals[0]
        for mod in (st, sm):
            assert mod.rehydrate.__wrapped__ is originals[1]
    assert (rel.run_to_sync, fp.run_to_sync, fb.run_to_sync) \
        == (originals[0],) * 3
    assert st.rehydrate is sm.rehydrate is originals[1]


def test_patch_rejects_unknown_and_renamed_entry_points(monkeypatch):
    with pytest.raises(ValueError):
        layers.Patch(Slowdown(), names={"no.such.layer"}).__enter__()
    renamed = layers.ENTRY_POINTS + (
        ("fortran.parse", "repro.fortran.parser", "parse_programme"),)
    monkeypatch.setattr(layers, "ENTRY_POINTS", renamed)
    import repro.fortran.parser as parser
    original = parser.parse_program
    with pytest.raises(AttributeError):
        with layers.Patch(Slowdown(), names={"fortran.parse"}):
            pass
    assert parser.parse_program is original     # rolled back


def test_self_time_subtracts_child_coverage():
    tr = layers.Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        tr("child", leaf, (), {})
        tr("child", leaf, (), {})
        time.sleep(0.02)

    tr.operation(0, lambda: tr("parent", outer, (), {}))
    rows = tr.layer_times()
    assert rows["child"]["calls"] == 2
    assert rows["parent"]["calls"] == 1
    assert rows["parent"]["ms"] >= 60
    assert 15 <= rows["parent"]["self_ms"] <= rows["parent"]["ms"] - 38
    assert rows[layers.OP_SPAN]["self_ms"] < 5


# --------------------------------------------------------------------------
# layer-coverage tripwire
# --------------------------------------------------------------------------

def _small(name: str):
    wl = workloads.WORKLOADS[name](1993)
    if name == "synth":
        wl.batch = wl.batch[:2 * len(workloads.synth.TEMPLATES)]
    elif name == "fleet":
        wl.tasks = [("auto", "slab2d"), ("seeded", "slab2d")]
    wl.prepare()
    return wl


@pytest.mark.parametrize("name", ["synth", "workshop", "fleet"])
def test_coverage_tripwire_passes_on_a_traced_run(name):
    wl = _small(name)
    passes = run.run_passes(wl, 0, trace=True)
    assert [p.traced for p in passes] == [False, True]
    assert sum(p.failed for p in passes) == 0
    metrics = run.per_layer(passes)
    assert run.coverage_gaps(name, metrics) == []
    layer = run.COVERAGE[name][0]
    assert run.coverage_gaps(name, {**metrics, layer: 0}) == [layer]


# --------------------------------------------------------------------------
# injected 2x slowdowns
# --------------------------------------------------------------------------

#: injected layer -> the one workload whose end-to-end bound must fail
INJECTIONS = {"interp.relative": "fleet", "serve.rehydrate": "workshop"}
TIMING = ("throughput_per_s", "latency_p50_ms")


def _worse(metric: str, base: float, new: float) -> float:
    """Relative worsening of ``new`` against ``base``."""
    if metric == "throughput_per_s":
        return base / new - 1.0
    return new / base - 1.0


#: interleaved rounds of (baseline, each injection) passes per workload;
#: a second round runs in reverse order, so a drift of host speed during
#: the test favours neither side
ROUNDS = {"workshop": 2, "synth": 2, "fleet": 1}


@pytest.fixture(scope="module")
def slowdown_runs():
    """Baseline and injected passes of every workload, interleaved."""
    out = {}
    for name, rounds in ROUNDS.items():
        wl = workloads.WORKLOADS[name](1993)
        wl.prepare()
        # the baseline sits next to the injections this workload never
        # calls; the one it does call runs last
        sides = [None, *sorted(INJECTIONS,
                               key=lambda layer: INJECTIONS[layer] == name)]
        passes: dict = {side: [] for side in sides}
        for r in range(rounds):
            for side in (sides if r % 2 == 0 else sides[::-1]):
                if side is None:
                    passes[side].append(run.Pass(wl))
                    continue
                with layers.Patch(Slowdown(2.0), names={side}):
                    passes[side].append(run.Pass(wl))
        assert all(p.failed == 0 for ps in passes.values() for p in ps)
        out[name] = {side: run.timing(ps) for side, ps in passes.items()}
    return out


@pytest.mark.parametrize("layer", sorted(INJECTIONS))
def test_injected_slowdown_flags_only_its_workload(layer, slowdown_runs):
    for name, runs in slowdown_runs.items():
        worse = {m: _worse(m, runs[None][m], runs[layer][m])
                 for m in TIMING}
        flagged = {m for m, w in worse.items() if w > BOUNDS[m]}
        if name == INJECTIONS[layer]:
            assert "throughput_per_s" in flagged, (name, worse)
        else:
            assert not flagged, (name, worse)
