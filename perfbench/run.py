"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload workshop|fleet|synth \\
        --seed 1993 --seconds 25 --trace 0|1

Runs whole passes of the workload until ``--seconds`` have elapsed, each
pass on a fresh artifact store, checks every operation's output against
its reference, and prints one JSON object as the last line of standard
output.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics; both lists, with units, are in BENCHMARK.json at
the repository root.  See perfbench/README.md for why each workload and
metric exists.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402 -- the set-up clock starts before imports
import datetime  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: set-up is sampled this many times per run (this process + children)
SETUP_SAMPLES = 5


def pin_environment() -> list[str]:
    """Drop every ``REPRO_*`` variable so the caller's shell cannot change
    the program under test; children inherit the pinned environment."""
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for k in dropped:
        del os.environ[k]
    return dropped


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------

class Pass:
    """One pass of a workload's operations on a fresh store."""

    def __init__(self, wl, tracer=None):
        from repro.perf import counters
        from repro.store import ArtifactStore, set_default_store

        self.traced = tracer is not None
        self.tracer = tracer
        store = ArtifactStore(from_env=False)
        set_default_store(store)
        counters.reset()
        self.latencies: list[float] = []
        results = []
        call = tracer.operation if tracer is not None else None
        t_start = time.perf_counter()
        for op_id, (fn, check) in enumerate(wl.operations()):
            t0 = time.perf_counter()
            try:
                out = call(op_id, fn) if call else fn()
                err = None
            except Exception as e:       # noqa: BLE001 -- counted as failed
                out, err = None, e
            self.latencies.append(time.perf_counter() - t0)
            results.append((check, out, err))
        self.wall = time.perf_counter() - t_start
        self.counters = counters.snapshot()
        self.store = store.stats()["memory"]
        self.failed = 0
        for check, out, err in results:
            if err is None:
                try:
                    if check(out):
                        continue
                except Exception as e:   # noqa: BLE001 -- counted as failed
                    err = e
            if self.failed == 0:
                print(f"{wl.name}: operation failed: "
                      f"{repr(err) if err is not None else 'wrong output'}",
                      file=sys.stderr)
            self.failed += 1
        self.stats = wl.stats()

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_passes(wl, seconds: float, trace: bool = False):
    """Whole passes until ``seconds`` have elapsed.  With ``trace``,
    untraced and traced passes alternate (at least one of each), so the
    tracing overhead is measured in the same run."""
    from layers import Patch, Tracer

    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        if trace and len(passes) % 2 == 1:
            tracer = Tracer()
            with Patch(tracer):
                passes.append(Pass(wl, tracer))
        else:
            passes.append(Pass(wl))
        if time.perf_counter() - t0 >= seconds \
                and (not trace or len(passes) >= 2):
            return passes


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    xs = sorted(values)
    k = max(0, min(len(xs) - 1, -(-len(xs) * q // 100) - 1))
    return xs[int(k)]


def timing(passes) -> dict:
    lat = [x for p in passes for x in p.latencies]
    return {"throughput_per_s": len(lat) / sum(p.wall for p in passes),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p99_ms": percentile(lat, 99) * 1e3}


def end_to_end(wl, passes, setup_samples) -> dict:
    m = timing(passes)
    m["generated_speedup"] = wl.generated_speedup()
    m["setup_s"] = statistics.median(setup_samples)
    m["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(passes) -> dict:
    """Per-layer metrics, per traced pass."""
    from layers import SERVED_OPS, TIMED

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced)
    m: dict = {}

    times: dict = {}
    spans = 0
    snapshot_bytes = 0
    for p in traced:
        spans += len(p.tracer.spans)
        snapshot_bytes += p.tracer.snapshot_bytes
        for name, row in p.tracer.layer_times().items():
            acc = times.setdefault(name, {"calls": 0, "ms": 0.0,
                                          "self_ms": 0.0})
            for k in acc:
                acc[k] += row[k]
    zero = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
    for name in TIMED:
        row = times.get(name, zero)
        m[f"{name}.calls"] = row["calls"] / n
        m[f"{name}.ms"] = row["ms"] / n
        m[f"{name}.self_ms"] = row["self_ms"] / n
    for op in SERVED_OPS:
        row = times.get(f"serve.op.{op}", zero)
        m[f"serve.op.{op}.ms"] = row["ms"] / n
        m[f"serve.op.{op}.self_ms"] = row["self_ms"] / n
    m["serve.snapshot.bytes"] = _ratio(
        snapshot_bytes, times.get("serve.serialize", zero)["calls"])

    c: dict = {}
    for p in traced:
        for k, v in p.counters.items():
            if isinstance(v, int) and not isinstance(v, bool):
                c[k] = c.get(k, 0) + v
    m["dependence.pair.hit_ratio"] = _ratio(
        c["pair_hits"], c["pair_hits"] + c["pair_misses"])
    m["ped.invalidations"] = c["invalidations"] / n
    m["ped.deps_retained_ratio"] = _ratio(
        c["deps_retained"], c["deps_retained"] + c["deps_evicted"])
    m["interp.compile.misses"] = c["compile_misses"] / n
    m["interp.compile.relinks"] = c["compile_relinks"] / n
    reused = c["compile_hits"] + c["compile_relinks"]
    m["interp.compile.reuse_ratio"] = _ratio(
        reused, reused + c["compile_misses"])
    m["interp.vector.loops"] = c["vec_loops"] / n
    m["interp.vector.fallback_ratio"] = _ratio(
        c["vec_fallbacks"], c["vec_loops"] + c["vec_fallbacks"])
    m["interp.par.loops"] = c["par_loops"] / n
    m["interp.par.fallbacks"] = c["par_fallbacks"] / n
    m["fleet.retries"] = c["fleet_retries"] / n
    m["fleet.quarantined"] = c["fleet_quarantined"] / n
    m["pool.tasks"] = c["pool_tasks"] / n
    m["pool.parallel_share"] = _ratio(c["pool_parallel_tasks"],
                                      c["pool_tasks"])

    for key in ("fleet.stage.parse.s", "fleet.stage.analyze.s",
                "fleet.stage.autopar.s", "fleet.stage.lint.s",
                "fleet.stage.verify.s", "fleet.stage.measure.s",
                "fleet.stage.bisect.s", "serve.evictions",
                "serve.rehydrations"):
        m[key] = sum(p.stats.get(key, 0) for p in traced) / n

    ns_totals: dict = {}
    for p in traced:
        for ns, d in p.store.items():
            acc = ns_totals.setdefault(ns, {"hits": 0, "misses": 0,
                                            "evictions": 0})
            for k in acc:
                acc[k] += d[k]
    hits = sum(d["hits"] for d in ns_totals.values())
    misses = sum(d["misses"] for d in ns_totals.values())
    m["store.hit_ratio"] = _ratio(hits, hits + misses)
    for ns in ("loopdeps", "pair", "summary", "compile", "lint", "seed"):
        d = ns_totals.get(ns, {"hits": 0, "misses": 0})
        m[f"store.{ns}.hit_ratio"] = _ratio(d["hits"],
                                            d["hits"] + d["misses"])
    m["store.evictions"] = sum(
        d["evictions"] for d in ns_totals.values()) / n

    t_traced, t_plain = timing(traced), timing(untraced)
    m["trace.throughput_per_s"] = t_traced["throughput_per_s"]
    m["trace.untraced_throughput_per_s"] = t_plain["throughput_per_s"]
    m["trace.latency_p50_ms"] = t_traced["latency_p50_ms"]
    m["trace.untraced_latency_p50_ms"] = t_plain["latency_p50_ms"]
    m["trace.overhead_pct"] = (_ratio(t_plain["throughput_per_s"],
                                      t_traced["throughput_per_s"])
                               - 1.0) * 100
    m["trace.spans"] = spans / n
    return m


#: Layer-coverage tripwire: per workload, the per-layer metrics that must
#: be non-zero in a traced run, because the README says the workload
#: exercises that layer.  A public function that is renamed or bypassed
#: fails the traced run instead of silently leaving the table.
COVERAGE = {
    "workshop": (
        "serve.op.select_loop.ms", "serve.op.apply.ms",
        "serve.op.assert_fact.ms", "serve.op.health.ms",
        "serve.op.dependences.ms", "serve.serialize.calls",
        "serve.rehydrate.calls", "serve.evictions", "serve.rehydrations",
        "transform.apply.calls", "ped.health.calls",
        "dependence.loop.calls", "dependence.pair.calls",
        "interproc.summary.calls", "lint.calls", "ped.invalidations",
        "store.get.calls", "store.put.calls", "pool.tasks",
    ),
    "fleet": (
        "fortran.parse.calls", "ir.build.calls", "dependence.loop.calls",
        "dependence.pair.calls", "lint.calls", "ped.autopar.calls",
        "interp.tree.calls", "interp.relative.calls", "interp.exec.calls",
        "interp.vector.loops", "fleet.bisect.calls",
        "fleet.stage.verify.s", "fleet.stage.bisect.s",
        "store.get.calls", "store.put.calls", "pool.tasks",
    ),
    "synth": (
        "synth.check.calls", "fortran.parse.calls",
        "fortran.semantics.calls", "ir.build.calls",
        "interproc.summary.calls", "dependence.loop.calls",
        "dependence.pair.calls", "lint.calls", "interp.shadow.calls",
        "interp.tree.calls",
        "store.get.calls", "store.put.calls", "pool.tasks",
    ),
}


def coverage_gaps(workload: str, metrics: dict) -> list[str]:
    return [k for k in COVERAGE[workload] if not metrics.get(k)]


# --------------------------------------------------------------------------
# The environment record
# --------------------------------------------------------------------------

def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read directly,
    never from a repository above the checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over src/ -- identifies the code under test without git."""
    h = hashlib.sha256()
    for d, dirs, files in os.walk(SRC):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(wl_name: str, dropped: list[str]) -> dict:
    from repro.perf import pool

    import workloads
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "config": {
            "workload": wl_name,
            "dropped_env": dropped,
            "analysis_pool": pool.pool_mode(),
            "store": "fresh in-memory ArtifactStore(from_env=False) "
                     "per pass; references and warm-up under a separate store",
            "workshop": {"clients": workloads.CLIENTS,
                         "max_live": workloads.MAX_LIVE},
            "fleet": {k: v.to_dict() for k, v
                      in workloads.Fleet.PIPELINES.items()},
            "fleet_options": vars(workloads.Fleet.OPTIONS),
            "synth_batch": workloads.SYNTH_BATCH,
            "setup_samples": SETUP_SAMPLES,
        },
    }


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _setup_sample_children(args) -> list[float]:
    """Set-up seconds of child processes that stop after set-up."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1993)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    dropped = pin_environment()
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup = time.perf_counter() - _T_START
    if args.setup_only:
        print(setup)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wl.prepare()
    passes = run_passes(wl, args.seconds, trace=bool(args.trace))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    env = environment(wl.name, dropped)

    if args.trace:
        values = per_layer(passes)
        gaps = coverage_gaps(wl.name, values)
        if gaps:
            print(f"perfbench: layer-coverage tripwire: {wl.name} "
                  f"recorded zero for {', '.join(gaps)}", file=sys.stderr)
            return 3
        wanted = spec["per_layer"]
    else:
        values = end_to_end(wl, passes,
                            [setup] + _setup_sample_children(args))
        wanted = spec["end_to_end"]
    missing = [w["name"] for w in wanted if w["name"] not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}",
              file=sys.stderr)
        return 2
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]}
               for w in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    os.makedirs(RESULTS, exist_ok=True)
    if args.trace:
        first = next(p for p in passes if p.traced)
        name = f"trace-{wl.name}-seed{args.seed}.json"
        first.tracer.write_chrome(os.path.join(RESULTS, name))
        env["chrome_trace"] = os.path.join("perfbench", "results", name)
    with open(os.path.join(RESULTS, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps({"env": env, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "pass_walls": [p.wall for p in passes],
                             "result": result})
                 + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
