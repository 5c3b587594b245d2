"""The benchmark's three workloads, driven through public entry points.

A workload is built from the seed (its *set-up*), prepares -- computes
its references and finishes lazy set-up under a store of its own, so
nothing it does warms a timed pass -- and then yields one pass of
operations at a time.  Every operation comes with a check of its output
against the reference, so a fast wrong answer counts as a failed
operation.  The README says why each workload exists and what it
predicts.
"""

from __future__ import annotations

import math
import random
import re

from repro.corpus import ORDER, PROGRAMS, synth
from repro.fleet import FleetOptions, PipelineOptions, run_fleet
from repro.interp.verify import run_program
from repro.ped.scripts import program_source
from repro.serve import SCRIPTS, SessionManager, canonical_json, \
    oracle_transcript
from repro.store import ArtifactStore, scoped_store

#: clients per workshop program: 8 scripts x 4 = 32 tenants, four times
#: the manager's default live table
CLIENTS = 4
#: SessionManager's default live-session bound
MAX_LIVE = 8
#: programs per synth batch (one pass checks the whole batch)
SYNTH_BATCH = 400


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _speedup(serial_source: str, parallel_source: str, inputs=()) -> float:
    """Virtual-clock speed-up of a parallel program over its serial form."""
    seq = run_program(serial_source, inputs=list(inputs))
    par = run_program(parallel_source, inputs=list(inputs))
    return seq.clock / par.clock


def _serial_form(source: str) -> str:
    return re.sub(r"\bPARALLEL\s+DO\b", "DO", source)


class Workshop:
    """32 tenants replaying the 8 workshop scripts on one SessionManager,
    round-robin, one request outstanding at a time."""

    name = "workshop"

    def __init__(self, seed: int):
        self.tenants = [(f"{name}-{c}", name)
                        for name in SCRIPTS for c in range(CLIENTS)]
        random.Random(seed).shuffle(self.tenants)
        self.sources = {name: program_source(name) for name in SCRIPTS}
        self.manager: SessionManager | None = None
        self.oracle: dict[str, list[str]] = {}

    def prepare(self) -> None:
        with scoped_store(ArtifactStore(from_env=False)):
            self.oracle = {name: oracle_transcript(name)
                           for name in SCRIPTS}

    def operations(self):
        """One pass: every tenant opens, then the tenants' ops run
        round-robin.  Yields ``(call, check)`` pairs."""
        m = self.manager = SessionManager(max_live=MAX_LIVE)
        for sid, name in self.tenants:
            yield (lambda sid=sid, name=name:
                   m.open(sid, self.sources[name])), _is_none
        longest = max(len(s) for s in SCRIPTS.values())
        for i in range(longest):
            for sid, name in self.tenants:
                if i < len(SCRIPTS[name]):
                    op, params = SCRIPTS[name][i]["op"], \
                        SCRIPTS[name][i].get("params") or {}
                    yield (lambda sid=sid, op=op, params=params:
                           m.run(sid, op, params)), \
                        (lambda out, want=self.oracle[name][i]:
                         canonical_json(out) == want)

    def stats(self) -> dict:
        s = self.manager.stats()
        return {"serve.evictions": s["evictions"],
                "serve.rehydrations": s["rehydrations"]}

    def generated_speedup(self) -> float:
        """The scripted users' final programs against the originals."""
        finals = {}
        for sid, name in self.tenants:
            if name not in finals:
                out = self.manager.run(sid, "source")
                finals[name] = out["result"]["text"]
        return geomean(_speedup(self.sources[name], finals[name],
                                PROGRAMS[name].inputs)
                       for name in SCRIPTS)


class Fleet:
    """run_fleet per corpus program: auto mode on the vector engine, then
    seeded mode on the default engine, on the serial pool."""

    name = "fleet"
    PIPELINES = {"auto": PipelineOptions(mode="auto", engine="vector"),
                 "seeded": PipelineOptions(mode="seeded")}
    OPTIONS = FleetOptions(fleet_workers=1, pool="serial")

    def __init__(self, seed: int):
        order = list(ORDER)
        random.Random(seed).shuffle(order)
        self.tasks = [(mode, name) for mode in ("auto", "seeded")
                      for name in order]
        self.reports: list = []
        self.first_reports: dict = {}

    def _run(self, mode: str, name: str):
        return run_fleet([name], self.PIPELINES[mode], self.OPTIONS)

    def prepare(self) -> None:
        # the reference is the expected outcome in _check; this only
        # finishes lazy set-up (imports, first calls) outside the timing
        with scoped_store(ArtifactStore(from_env=False)):
            for mode in self.PIPELINES:
                self._run(mode, "neoss")

    def operations(self):
        self.reports = []
        for mode, name in self.tasks:
            yield (lambda mode=mode, name=name: self._run(mode, name)), \
                (lambda report, mode=mode, name=name:
                 self._check(mode, name, report))

    def _check(self, mode: str, name: str, report) -> bool:
        """The expected outcome, and the same canonical report (timing
        stripped) in every pass of the run."""
        self.reports.append((mode, report))
        canonical = report.dumps()
        if self.first_reports.setdefault((mode, name), canonical) \
                != canonical:
            return False
        rec = report.programs[0]
        if rec.get("status") != "ok":
            return False
        if mode == "auto":
            return not rec["diverged"] and bool(rec["virtual_speedup"])
        if name == "slab2d":
            div = rec.get("divergence") or {}
            return (div.get("unit"), div.get("line"),
                    div.get("variable")) == ("STEP", 59, "V")
        return not rec["diverged"]

    def stats(self) -> dict:
        out: dict = {}
        for _, report in self.reports:
            for st in report.programs[0].get("stages", ()):
                key = f"fleet.stage.{st['stage']}.s"
                out[key] = out.get(key, 0.0) + st["elapsed"]
        return out

    def generated_speedup(self) -> float:
        """Geometric mean of the auto records' virtual speed-up."""
        return geomean(report.programs[0]["virtual_speedup"]
                       for mode, report in self.reports if mode == "auto")


class Synth:
    """check_program over a seeded synthesized batch, one at a time."""

    name = "synth"

    def __init__(self, seed: int):
        self.batch = synth.generate_batch(seed, SYNTH_BATCH)

    def prepare(self) -> None:
        # the reference is each program's planted truth; this only
        # finishes lazy set-up (imports, first calls) outside the timing,
        # one program per template, gallery included
        with scoped_store(ArtifactStore(from_env=False)):
            for sp in self.batch[:len(synth.TEMPLATES)]:
                synth.check_program(sp)

    def operations(self):
        for sp in self.batch:
            yield (lambda sp=sp: synth.check_program(sp)), _is_empty

    def stats(self) -> dict:
        return {}

    def generated_speedup(self) -> float:
        """The batch's parallel-safe PARALLEL DO programs against their
        serial form."""
        return geomean(_speedup(_serial_form(sp.source), sp.source)
                       for sp in self.batch
                       if sp.truth.parallel and not sp.truth.raced)


def _is_none(out) -> bool:
    return out is None


def _is_empty(out) -> bool:
    return not out


WORKLOADS = {w.name: w for w in (Workshop, Fleet, Synth)}
