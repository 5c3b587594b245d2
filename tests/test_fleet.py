"""Fleet suite: fault-tolerant batch auto-parallelization with
checkpoint/resume and relative-debugging divergence bisection.

The acceptance bars (ISSUE robustness tentpole):

* a fleet killed mid-run (``KeyboardInterrupt`` injected between a task
  finishing and its completion being journaled) resumes from its
  checkpoint with ZERO re-executions of durably completed programs, and
  the resumed report serializes byte-identically to the same run
  uninterrupted;
* on the seeded slab2d parallelization defect the relative debugger
  names the exact first divergent statement (line and variable) that
  ``compare_runs`` alone only reports as a final-state mismatch.
"""

import json
import time

import pytest

from repro.corpus import ORDER, PROGRAMS
from repro.fleet import (CheckpointJournal, FleetOptions, FleetRunner,
                         PipelineOptions, fingerprint_of, find_divergence,
                         run_fleet, run_program_pipeline)
from repro.fleet import queue as fleet_queue
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.pipeline import STAGES
from repro.interp.relative import run_to_sync
from repro.interp.verify import compare_runs
from repro.lint.seeds import seeded_program
from repro.perf import counters, pool
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_harness():
    faults.reset()
    yield
    faults.reset()


def _sleepless():
    """A recording fake sleeper, so retry tests never wait for real."""
    delays = []
    return delays, delays.append


FAST = ("spec77", "neoss", "dpmin", "slab2d")


# ---------------------------------------------------------------------------
# per-program pipeline
# ---------------------------------------------------------------------------

def test_pipeline_record_structure():
    rec = run_program_pipeline("dpmin", {"mode": "plain"})
    assert rec["program"] == "dpmin"
    assert rec["status"] == "ok"
    assert [s["stage"] for s in rec["stages"]] == list(STAGES)
    assert all(s["ok"] for s in rec["stages"])
    # plain mode analyzes and lints but never parallelizes
    assert rec["parallel_loops"] == []
    assert rec["diverged"] is False
    assert rec["stats"]["units"] >= 1
    assert rec["stats"]["loops"] >= 1
    # the record must survive a process-pool trip
    json.dumps(rec)


def test_pipeline_rejects_unknown_program_and_mode():
    with pytest.raises(ValueError, match="unknown corpus program"):
        run_program_pipeline("nosuch", {})
    with pytest.raises(ValueError, match="unknown mode"):
        run_program_pipeline("dpmin", {"mode": "wat"})


def test_pipeline_stage_isolation(monkeypatch):
    """A dying stage is recorded and only its dependents are skipped."""
    from repro.fleet import pipeline as P

    def boom(*a, **kw):
        raise RuntimeError("measure died")

    monkeypatch.setattr(P, "run_program", boom)
    rec = run_program_pipeline("dpmin", {"mode": "auto"})
    by = {s["stage"]: s for s in rec["stages"]}
    assert not by["measure"]["ok"] and "measure died" in by["measure"]["error"]
    assert by["lint"]["ok"] and by["verify"]["ok"]
    assert rec["status"] == "error"


@pytest.mark.parametrize("name", ("nxsns", "dpmin"))
def test_auto_parallelization_never_diverges(name):
    """Emulator/runtime parity: the adversarial interleaving emulator
    forks exactly the loops the runtime forks, so auto-parallelized
    programs show no observable divergence."""
    rec = run_program_pipeline(name, {"mode": "auto"})
    assert rec["status"] == "ok"
    assert rec["parallel_loops"], "auto mode should parallelize something"
    assert rec["diverged"] is False
    assert rec["virtual_speedup"] and rec["virtual_speedup"] > 1.0
    assert rec["autopar"]["parallelized"] == rec["parallel_loops"]


# ---------------------------------------------------------------------------
# relative debugging (acceptance criterion)
# ---------------------------------------------------------------------------

def test_relative_debugger_names_first_divergent_statement():
    """Seeded slab2d: compare_runs says only 'final state differs';
    the bisector names the statement (STEP line 59, variable V), its
    PARALLEL DO (line 53), and the underlying privatization race."""
    program, _ = seeded_program("slab2d")
    inputs = list(PROGRAMS["slab2d"].inputs)
    serial = run_to_sync(program, inputs, adversarial=False)
    adv = run_to_sync(program, inputs, adversarial=True, workers=4)
    diff = compare_runs(serial, adv)
    assert diff, "the seeded defect must be observable"
    # the whole-run diff names state, not source: no statement lines
    assert diff.first_key is not None
    assert all("line" not in entry for entry in diff)

    div = find_divergence(program, inputs, workers=4)
    assert div is not None
    assert div.unit == "STEP"
    assert div.line == 59
    assert div.variable == "V"
    assert div.loop_line == 53
    assert div.race is not None and "privat" in div.race_kind
    assert "line 59" in div.describe()
    json.dumps(div.to_json())


def test_relative_debugger_binary_search_is_logarithmic():
    program, _ = seeded_program("slab2d")
    inputs = list(PROGRAMS["slab2d"].inputs)
    div = find_divergence(program, inputs, workers=4)
    n = run_to_sync(program, inputs, adversarial=False).sync_count
    assert div.probes <= 2 * (n.bit_length() + 3)


def test_sync_interpreter_is_deterministic():
    src = PROGRAMS["dpmin"]
    a = run_to_sync_program("dpmin", adversarial=False)
    b = run_to_sync_program("dpmin", adversarial=False)
    assert a.sync_count == b.sync_count > 0
    assert compare_runs(a, b, rtol=0, atol=0) == []
    assert src is PROGRAMS["dpmin"]


def run_to_sync_program(name, **kw):
    from repro.ir import AnalyzedProgram
    prog = AnalyzedProgram.from_source(PROGRAMS[name].source)
    return run_to_sync(prog, list(PROGRAMS[name].inputs), **kw)


def test_rundiff_structure():
    program, _ = seeded_program("slab2d")
    inputs = list(PROGRAMS["slab2d"].inputs)
    serial = run_to_sync(program, inputs, adversarial=False)
    adv = run_to_sync(program, inputs, adversarial=True, workers=4)
    diff = compare_runs(serial, adv)
    assert len(diff.keys) == len(diff)
    assert diff.first_key == diff.keys[0]
    assert diff.truncated(limit=0) == len(diff)
    j = diff.to_json(limit=1)
    assert j["count"] == len(diff) and len(j["entries"]) == 1
    assert j["truncated"] == len(diff) - 1
    clean = compare_runs(serial, serial)
    assert clean == [] and clean.first_key is None


RACY_WITH_MISSING_CALLEE = """\
      PROGRAM P
      INTEGER I, N
      REAL A(40)
      N = 40
      DO 5 I = 1, N
         A(I) = 0.0
 5    CONTINUE
      PARALLEL DO 10 I = 2, N
         IF (N .LT. 0) CALL EXTRN(A)
         A(I) = A(I-1) + 1.0
 10   CONTINUE
      PRINT *, A(N)
      END
"""


def test_emulator_keeps_serial_what_the_runtime_will_not_fork():
    """A racy loop that names a unit the program lacks (in a call that is
    never taken) is refused by the fork-join runtime, so the emulator
    must run it serially too: a divergence here would be one the real
    execution cannot produce."""
    from repro.ir import AnalyzedProgram
    program = AnalyzedProgram.from_source(RACY_WITH_MISSING_CALLEE)
    serial = run_to_sync(program, [], adversarial=False)
    adv = run_to_sync(program, [], adversarial=True, workers=4)
    assert serial.outputs == [39.0]
    assert ("P", 8) in adv.serial_fallbacks
    assert compare_runs(serial, adv) == []


# ---------------------------------------------------------------------------
# queue: retry, backoff, quarantine, degradation
# ---------------------------------------------------------------------------

def _flaky(fail_times: dict, record: list):
    """A run_program_pipeline stand-in failing N times per program."""
    def fake(name, options=None):
        record.append(name)
        if fail_times.get(name, 0) > 0:
            fail_times[name] -= 1
            raise RuntimeError(f"{name} transient")
        return run_program_pipeline(name, options)
    return fake


def test_retry_with_exponential_backoff(monkeypatch):
    ran = []
    monkeypatch.setattr(fleet_queue, "run_program_pipeline",
                        _flaky({"neoss": 2}, ran))
    delays, sleeper = _sleepless()
    report = run_fleet(
        ["neoss"], PipelineOptions(mode="plain"),
        FleetOptions(fleet_workers=1, pool="serial", max_attempts=4,
                     backoff_base=0.25), sleeper=sleeper)
    assert ran == ["neoss"] * 3
    assert delays == [0.25, 0.5]
    assert report.retries == 2
    assert report.programs[0]["status"] == "ok"
    assert report.programs[0]["attempts"] == 3
    assert report.ok()


def test_backoff_is_capped(monkeypatch):
    ran = []
    monkeypatch.setattr(fleet_queue, "run_program_pipeline",
                        _flaky({"neoss": 5}, ran))
    delays, sleeper = _sleepless()
    run_fleet(["neoss"], PipelineOptions(mode="plain"),
              FleetOptions(fleet_workers=1, pool="serial", max_attempts=6,
                           backoff_base=1.0, backoff_cap=3.0),
              sleeper=sleeper)
    assert delays == [1.0, 2.0, 3.0, 3.0, 3.0]


def test_quarantine_and_degradation_ladders(monkeypatch):
    ran = []
    monkeypatch.setattr(fleet_queue, "run_program_pipeline",
                        _flaky({"dpmin": 99}, ran))
    delays, sleeper = _sleepless()
    before = counters.snapshot()
    report = run_fleet(
        ["dpmin", "spec77"],
        PipelineOptions(mode="plain", engine="vector"),
        FleetOptions(fleet_workers=1, pool="thread", max_attempts=3),
        sleeper=sleeper)
    after = counters.snapshot()
    # the poison task is quarantined; the healthy one still completes
    assert report.quarantined == ["dpmin"]
    assert not report.ok()
    rec = {r["program"]: r for r in report.programs}
    assert rec["dpmin"]["status"] == "quarantined"
    assert rec["dpmin"]["attempts"] == 3
    assert len(rec["dpmin"]["failures"]) == 3
    assert rec["spec77"]["status"] == "ok"
    # engine ladder walked vector -> compiled -> tree across retries
    assert rec["dpmin"]["engine"] == "tree"
    engine_steps = [(d["from"], d["to"]) for d in report.degradations
                    if d["kind"] == "engine"]
    assert engine_steps == [("vector", "compiled"), ("compiled", "tree")]
    # pool ladder stepped thread -> serial on the first failure
    assert {(d["from"], d["to"]) for d in report.degradations
            if d["kind"] == "pool"} == {("thread", "serial")}
    assert after["fleet_quarantined"] - before["fleet_quarantined"] == 1
    assert after["fleet_retries"] - before["fleet_retries"] == 2
    # quarantine records are part of the canonical report
    assert json.loads(report.dumps())["totals"]["quarantined"] == 1


def test_per_task_timeout(monkeypatch):
    def slow(name, options=None):
        if name == "neoss":
            time.sleep(2.0)
        return run_program_pipeline(name, options)

    monkeypatch.setattr(fleet_queue, "run_program_pipeline", slow)
    delays, sleeper = _sleepless()
    report = run_fleet(
        ["neoss", "dpmin"], PipelineOptions(mode="plain"),
        FleetOptions(fleet_workers=2, pool="thread", timeout=0.2,
                     max_attempts=1), sleeper=sleeper)
    rec = {r["program"]: r for r in report.programs}
    assert report.timeouts >= 1
    assert rec["neoss"]["status"] == "quarantined"
    assert rec["neoss"]["timed_out"] is True
    assert rec["dpmin"]["status"] == "ok"


def test_injected_stage_fault_escalates_to_retry():
    delays, sleeper = _sleepless()
    with faults.inject("fleet_stage", program="dpmin", stage="lint"):
        report = run_fleet(
            ["dpmin"], PipelineOptions(mode="plain"),
            FleetOptions(fleet_workers=1, pool="serial"),
            sleeper=sleeper)
    assert report.retries == 1
    assert report.programs[0]["status"] == "ok"
    assert report.programs[0]["attempts"] == 2


def test_unknown_program_rejected_up_front():
    with pytest.raises(ValueError, match="unknown corpus program"):
        FleetRunner(["nosuch"])


# ---------------------------------------------------------------------------
# checkpoint journal
# ---------------------------------------------------------------------------

def test_fingerprint_depends_on_options_not_scheduling():
    a = fingerprint_of(["x", "y"], {"mode": "auto"})
    assert fingerprint_of(["y", "x"], {"mode": "auto"}) == a
    assert fingerprint_of(["x", "y"], {"mode": "plain"}) != a


def test_journal_roundtrip_and_torn_tail(tmp_path):
    path = tmp_path / "fleet.jsonl"
    fp = fingerprint_of(["a"], {"mode": "plain"})
    with CheckpointJournal(path) as j:
        j.start(fp, {})
        j.append({"program": "a", "status": "ok"})
        j.append({"program": "b", "status": "ok"})
    # simulate a crash mid-write: torn trailing record
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"program": "c", "stat')
    loaded = CheckpointJournal(path).load(fp)
    assert set(loaded) == {"a", "b"}
    # wrong fingerprint (changed options): journal is stale, ignored
    assert CheckpointJournal(path).load("0" * 16) == {}


def test_journal_missing_file_is_empty(tmp_path):
    assert CheckpointJournal(tmp_path / "none.jsonl").load("x" * 16) == {}


# ---------------------------------------------------------------------------
# checkpoint/resume kill test (acceptance criterion)
# ---------------------------------------------------------------------------

def test_killed_fleet_resumes_with_zero_reexecution(tmp_path, monkeypatch):
    ran: list[str] = []

    def counting(name, options=None):
        ran.append(name)
        return run_program_pipeline(name, options)

    monkeypatch.setattr(fleet_queue, "run_program_pipeline", counting)
    delays, sleeper = _sleepless()
    pipe = PipelineOptions(mode="plain")
    opts = FleetOptions(fleet_workers=1, pool="serial")
    ckpt = str(tmp_path / "fleet.jsonl")

    # reference: the same fleet, uninterrupted
    reference = run_fleet(list(FAST), pipe, opts,
                          checkpoint=str(tmp_path / "ref.jsonl"),
                          sleeper=sleeper)
    ran.clear()

    # kill between the 3rd task finishing and its record being durable
    with faults.inject("fleet_checkpoint", at=3, exc=KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            run_fleet(list(FAST), pipe, opts, checkpoint=ckpt,
                      sleeper=sleeper)
    assert ran == list(FAST)[:3]
    ran.clear()

    before = counters.snapshot()
    resumed = run_fleet(list(FAST), pipe, opts, checkpoint=ckpt,
                        sleeper=sleeper)
    after = counters.snapshot()
    # durably completed programs are NOT re-executed; the program whose
    # completion was lost to the kill is (exactly-once is impossible
    # without the journal write, at-least-once with it)
    assert ran == list(FAST)[2:]
    assert resumed.resumed == list(FAST)[:2]
    assert after["fleet_resumed"] - before["fleet_resumed"] == 2
    # and the resumed report is byte-identical to the uninterrupted one
    assert resumed.dumps() == reference.dumps()
    assert json.loads(resumed.dumps())["totals"]["completed"] == len(FAST)


def test_completed_fleet_resume_runs_nothing(tmp_path, monkeypatch):
    ran: list[str] = []

    def counting(name, options=None):
        ran.append(name)
        return run_program_pipeline(name, options)

    monkeypatch.setattr(fleet_queue, "run_program_pipeline", counting)
    delays, sleeper = _sleepless()
    pipe = PipelineOptions(mode="plain")
    opts = FleetOptions(fleet_workers=2, pool="serial")
    ckpt = str(tmp_path / "fleet.jsonl")
    first = run_fleet(list(FAST), pipe, opts, checkpoint=ckpt,
                      sleeper=sleeper)
    ran.clear()
    second = run_fleet(list(FAST), pipe, opts, checkpoint=ckpt,
                       sleeper=sleeper)
    assert ran == []
    assert second.resumed == list(FAST)
    assert second.dumps() == first.dumps()


def test_changed_options_invalidate_checkpoint(tmp_path, monkeypatch):
    ran: list[str] = []

    def counting(name, options=None):
        ran.append(name)
        return run_program_pipeline(name, options)

    monkeypatch.setattr(fleet_queue, "run_program_pipeline", counting)
    delays, sleeper = _sleepless()
    opts = FleetOptions(fleet_workers=1, pool="serial")
    ckpt = str(tmp_path / "fleet.jsonl")
    run_fleet(["dpmin"], PipelineOptions(mode="plain"), opts,
              checkpoint=ckpt, sleeper=sleeper)
    ran.clear()
    # result-affecting option changed: the journal is stale, re-run
    report = run_fleet(["dpmin"], PipelineOptions(mode="auto"), opts,
                       checkpoint=ckpt, sleeper=sleeper)
    assert ran == ["dpmin"]
    assert report.resumed == []


# ---------------------------------------------------------------------------
# whole-fleet integration + CLI
# ---------------------------------------------------------------------------

def test_seeded_fleet_localizes_the_slab2d_defect():
    delays, sleeper = _sleepless()
    report = run_fleet(
        ["spec77", "slab2d"], PipelineOptions(mode="seeded"),
        FleetOptions(fleet_workers=2, pool="serial"), sleeper=sleeper)
    rec = {r["program"]: r for r in report.programs}
    # spec77's seeded race is value-masked at these inputs: statically
    # lint-flagged, dynamically clean -- honestly reported as such
    assert rec["spec77"]["lint"]
    assert rec["spec77"]["diverged"] is False
    div = rec["slab2d"]["divergence"]
    assert rec["slab2d"]["diverged"] is True
    assert (div["unit"], div["line"], div["variable"]) == ("STEP", 59, "V")
    assert div["loop_line"] == 53
    assert "fleet report" in report.describe()
    assert "line 59" in report.describe()


def test_fleet_cli_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = fleet_main(["dpmin", "--mode", "plain", "--pool", "serial",
                     "--fleet-workers", "1", "--format", "json",
                     "--report", str(out_path), "--strict"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fleet"] == "repro-fleet-report-v1"
    assert data["programs"][0]["program"] == "dpmin"
    assert "elapsed" not in data  # canonical form is timing-free
    assert json.loads(out_path.read_text()) == data


def test_fleet_cli_strict_fails_on_divergence():
    rc = fleet_main(["slab2d", "--mode", "seeded", "--pool", "serial",
                     "--fleet-workers", "1", "--strict"])
    assert rc == 1


def test_fleet_defaults_cover_whole_corpus():
    assert FleetRunner().names == list(ORDER)


# ---------------------------------------------------------------------------
# pool timeout satellite
# ---------------------------------------------------------------------------

def test_run_tasks_timeout_marks_task_failure():
    t0 = time.perf_counter()
    results = pool.run_tasks(
        [lambda: time.sleep(2.0) or "slow", lambda: "fast"],
        parallel=True, mode="thread", max_workers=2,
        contexts=["slow", "fast"], on_error="return", timeout=0.2)
    assert time.perf_counter() - t0 < 1.5
    failure, ok = results
    assert isinstance(failure, pool.TaskFailure)
    assert failure.timed_out is True
    assert failure.context == "slow"
    assert failure.elapsed > 0
    assert failure.attempts == 1
    assert "timed out" in repr(failure)
    assert ok == "fast"


def test_run_tasks_timeout_raise_mode():
    with pytest.raises(TimeoutError, match="task context"):
        pool.run_tasks([lambda: time.sleep(2.0), lambda: "fast"],
                       parallel=True, mode="thread", max_workers=2,
                       contexts=["slow", "fast"],
                       on_error="raise", timeout=0.2)
