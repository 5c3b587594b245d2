"""CLI: ``python -m repro.fleet [programs...] [options]``.

Examples::

    python -m repro.fleet                         # all 8, auto mode
    python -m repro.fleet slab2d --mode seeded    # debug a seeded race
    python -m repro.fleet --checkpoint fleet.jsonl --report out.json
"""

from __future__ import annotations

import argparse
import sys

from ..corpus import ORDER
from ..perf import counters
from .pipeline import MODES, PipelineOptions
from .queue import POOL_LADDER, FleetOptions, run_fleet


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Batch auto-parallelization fleet over the workshop "
                    "corpus, with checkpoint/resume and divergence "
                    "bisection.")
    p.add_argument("programs", nargs="*", metavar="PROGRAM",
                   help=f"corpus programs (default: all -- "
                        f"{', '.join(ORDER)}), or synth:<seed>:<index>")
    p.add_argument("--synth", type=int, metavar="N", default=0,
                   help="append N generated programs from the "
                        "property-based synthesizer (repro.corpus.synth)")
    p.add_argument("--synth-seed", type=int, default=1993,
                   help="generation seed for --synth (default: 1993)")
    p.add_argument("--mode", choices=MODES, default="auto",
                   help="seeded defects, auto-parallelize, or "
                        "analysis-only (default: auto)")
    p.add_argument("--workers", type=_positive_int, default=4,
                   help="emulated PARALLEL DO worker count for "
                        "verification/bisection (default: 4)")
    p.add_argument("--schedule", choices=("static", "dynamic"),
                   default="static")
    p.add_argument("--engine", default="compiled",
                   help="execution tier for measurement "
                        "(vector|compiled|tree; default: compiled)")
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--atol", type=float, default=1e-8)
    p.add_argument("--force-reassociation", action="store_true",
                   help="parallelize inexact REAL reductions in the "
                        "divergence emulator")
    p.add_argument("--no-bisect", action="store_true",
                   help="skip divergence bisection (report only that "
                        "runs diverged)")
    p.add_argument("--explore", action="store_true",
                   help="auto mode: race parallel-worlds transform "
                        "candidates per program and adopt the best "
                        "byte-identical one (repro.worlds)")
    p.add_argument("--max-worlds", type=int, default=8,
                   help="candidate worlds raced per program with "
                        "--explore (default: 8)")
    p.add_argument("--fleet-workers", type=_positive_int, default=2,
                   help="concurrent program pipelines (default: 2)")
    p.add_argument("--pool", choices=POOL_LADDER, default="thread",
                   help="initial dispatch pool mode (default: thread)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-program result timeout in seconds "
                        "(default: 120; 0 = no timeout)")
    p.add_argument("--max-attempts", type=_positive_int, default=3)
    p.add_argument("--backoff", type=float, default=0.25,
                   help="first retry delay in seconds (doubles per "
                        "attempt; default: 0.25)")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="checkpoint journal; an interrupted run resumes "
                        "from it without re-running completed programs")
    p.add_argument("--report", metavar="PATH",
                   help="write the JSON report here")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="stdout format (default: text)")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing in JSON output "
                        "(non-canonical)")
    p.add_argument("--counters", action="store_true",
                   help="print engine counters afterwards")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on any quarantine, pipeline error, or "
                        "divergence")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pipeline = PipelineOptions(
        mode=args.mode, workers=args.workers, schedule=args.schedule,
        engine=args.engine, rtol=args.rtol, atol=args.atol,
        force_reassociation=args.force_reassociation,
        bisect=not args.no_bisect,
        explore=args.explore, max_worlds=args.max_worlds)
    options = FleetOptions(
        fleet_workers=args.fleet_workers, pool=args.pool,
        timeout=args.timeout or None, max_attempts=args.max_attempts,
        backoff_base=args.backoff)
    programs = list(args.programs)
    if args.synth > 0:
        from ..corpus.synth import program_name
        programs = (programs or list(ORDER)) + [
            program_name(args.synth_seed, i) for i in range(args.synth)]
    report = run_fleet(programs or None, pipeline, options,
                       checkpoint=args.checkpoint,
                       log=lambda m: print(m, file=sys.stderr))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.dumps(include_timing=args.timing) + "\n")
    if args.format == "json":
        print(report.dumps(include_timing=args.timing))
    else:
        print(report.describe())
    if args.counters:
        print(counters.report())
    if args.strict and not (report.ok() and not report.diverged):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
