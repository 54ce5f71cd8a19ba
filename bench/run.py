"""herzkit benchmark: time to a certified bracket, per workload.

Run from the repository root:

    python3 bench/run.py --workload endpoint-certify --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json): endpoint-certify,
interior-ladder, predual-algebra, cli-verify.  Each is a closed loop with
one client, pinned to one CPU.  Within --seconds the run first times
set-up in seven fresh processes (import herzkit, generate the seeded
inputs, one warm-up request), then runs the workload's fixed request list
round robin while the next request still fits (each request at least
twice, unless that would take more than 1.5 times --seconds).  Successive
rounds cycle through four seeded presentations of the same symbols (one
for cli-verify); the first gives converged_frac and rel_width_gmean.

Times are scaled to a fixed machine speed, because the shared machines
this runs on change speed by up to a factor of two within seconds: a fixed
reference kernel runs before and after every request and every 0.1 s
during it, and the request's time is scaled by the nominal over the
measured kernel time (see reference.py).  A request's time is its median
over its runs; wall_s sums them and request_ms_p50 is their Harrell-Davis
median.  Every output is checked against oracles and must repeat
bit-for-bit across runs.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes (at least one pair) and
carries the per-layer metrics.  Lines before it give each metric with its
sample count and a stamp of the software and machine.  The run writes only under
bench/.state (bytecode cache and a temporary directory it removes).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = BENCH / ".state"
SETUP_PROBES = 7
PRESENTATIONS = 4
MIN_RUNS = 2
WIDTH_FLOOR = 1e-12
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> dict:
    """One BLAS thread, no thread pool, one CPU, and bytecode cached under
    bench/.state, as an installed package would keep it, whatever the
    caller's PYTHONDONTWRITEBYTECODE says.

    The process and its children run on the last CPU they may use, so the
    reference kernel measures the speed of the core that runs herzkit:
    the cores of a shared VM run at different speeds (see reference.py).
    Runs before numpy is imported; returns the environment for children.
    """
    cpus = os.sched_getaffinity(0)
    os.environ.setdefault("BENCH_NPROC", str(len(cpus)))
    os.sched_setaffinity(0, {max(cpus)})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("HERZKIT_THREADS", None)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    cache = STATE / "pycache"
    cache.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPYCACHEPREFIX"] = str(cache)
    sys.pycache_prefix = str(cache)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    return dict(os.environ)


def stamp(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # stamp is informational; record why it is missing
        blas = {"error": repr(exc)}
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine; the stamp says null
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": int(os.environ["BENCH_NPROC"]),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
    }


def run_request(req, before: float, sampler=None) -> tuple[dict, float]:
    """Run one request; an exception fails it.

    ``before`` is the reference kernel's time just before the request; the
    kernel runs again after it, and that time is returned for the next
    request.  A ``reference.Sampler`` also runs the kernel during the
    request, and its time is taken off the request's.  The record holds the
    raw wall time, the time scaled to the nominal speed, the CPU time
    (children and samples included) and the result.
    """
    import reference
    from workloads import Result

    cpu0 = os.times()
    if sampler is not None:
        sampler.start()
    t0 = time.perf_counter()
    try:
        res = req.run()
    except Exception as exc:  # a raising request is a failed request
        res = Result(errors=[f"{req.label}: raised {type(exc).__name__}: {exc}"])
    finally:
        if sampler is not None:
            sampler.stop()
    elapsed = time.perf_counter() - t0
    cpu1 = os.times()
    during = []
    if sampler is not None:
        elapsed -= sampler.spent
        during = sampler.samples
    after = reference.kernel()
    return {"time": elapsed, "scaled": reference.scale(elapsed, [before, *during, after]),
            "cpu": sum(cpu1[k] - cpu0[k] for k in range(4)), "result": res}, after


def run_pass(wl, tracer=None) -> dict:
    """One pass over the request list.

    ``times`` and ``scaled`` hold each request's raw and scaled time;
    ``wall`` and ``cpu`` cover the requests, not the reference kernel.
    """
    import reference

    before = reference.kernel()
    records = []
    for i, req in enumerate(wl.requests):
        if tracer is not None:
            tracer.request = i
        rec, before = run_request(req, before)
        records.append(rec)
    return {"wall": sum(r["time"] for r in records),
            "times": [r["time"] for r in records],
            "scaled": [r["scaled"] for r in records],
            "results": [r["result"] for r in records],
            "cpu": sum(r["cpu"] for r in records)}


def round_robin(wls: list, budget: float, hard: float) -> list:
    """Run the requests in turn until the next would end past ``budget``.

    Round k runs the request list of ``wls[k % len(wls)]``, the same
    requests on another presentation of their inputs.  Every request runs
    at least MIN_RUNS times, unless that would end past ``hard``; at least
    once in any case.  Returns each request's records; outputs must repeat
    those of the first run on the same presentation bit-for-bit.
    """
    import reference

    runs = [[] for _ in wls[0].requests]
    first = {}
    sampler = reference.Sampler()
    before = reference.kernel()
    i = 0
    while True:
        j = len(runs[i]) % len(wls)
        req = wls[j].requests[i]
        rec, before = run_request(req, before, sampler)
        if (j, i) in first:
            check_repeat(first[j, i], rec["result"], req.label, "repeat run")
        else:
            first[j, i] = rec["result"]
        runs[i].append(rec)
        i = (i + 1) % len(runs)
        rounds = min(len(r) for r in runs)
        end = time.perf_counter() + (runs[i][-1]["time"] if runs[i] else 0.0)
        if rounds >= 1 and (end > hard or (rounds >= MIN_RUNS and end > budget)):
            return runs


def check_repeat(first, res, label: str, why: str) -> None:
    """Outputs must repeat bit-for-bit; a mismatch fails the request."""
    if res.key != first.key or res.brackets != first.brackets:
        res.errors.append(f"{label}: output differs from the first run ({why})")


def bracket_metrics(results: list) -> tuple[float, float, int]:
    brackets = [b for r in results for b in r.brackets]
    if not brackets:
        return 0.0, 0.0, 0
    conv = sum(1 for b in brackets if b[2]) / len(brackets)
    logs = [math.log(max((up - lo) / abs(up) if up else 0.0, WIDTH_FLOOR))
            for lo, up, _ in brackets]
    return conv, math.exp(sum(logs) / len(logs)), len(brackets)


def hd_median(values: list) -> float:
    """Harrell-Davis estimate of the median.

    A mean of the order statistics weighted by the Beta((n+1)/2, (n+1)/2)
    distribution.  The sample median of a workload's request times can sit
    in a gap between two groups of requests, where a request whose time
    moves with the seed's presentation of its input (herz_norm takes its
    own path for each) makes it jump by a quarter; this estimate moves with
    the requests near the middle instead of switching between them.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a = (n + 1) / 2
    steps = 64    # trapezoid steps per order statistic

    def density(x: float) -> float:
        return math.exp((a - 1) * (math.log(x) + math.log1p(-x))) if 0 < x < 1 else 0.0

    grid = [density(k / (steps * n)) for k in range(steps * n + 1)]
    weights = [sum(grid[i * steps + k] + grid[i * steps + k + 1] for k in range(steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def per_request(passes: list, key: str = "scaled") -> list:
    """Each request's median time over the passes of one run."""
    return [statistics.median(p[key][i] for p in passes)
            for i in range(len(passes[0][key]))]


def time_setup(args) -> tuple[list, list, int]:
    """Raw and scaled wall times of SETUP_PROBES fresh processes that each
    do the set-up, each bracketed by the reference kernel."""
    import reference

    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    raw, scaled, failed = [], [], 0
    before = reference.kernel()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              cwd=ROOT, text=True)
        elapsed = time.perf_counter() - t0
        after = reference.kernel()
        raw.append(elapsed)
        scaled.append(reference.scale(elapsed, [before, after]))
        before = after
        if proc.returncode != 0:
            failed += 1
            print(f"setup probe failed: {proc.stderr.strip()[-500:]}", file=sys.stderr)
    return raw, scaled, failed


def setup(args, env: dict, workdir: str):
    import herzkit
    import workloads

    where = Path(herzkit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"herzkit imported from {where}, not from {SRC}")
    wl = workloads.build(args.workload, args.seed, ROOT, workdir, env, args.small)
    wl.warmup()
    return [wl, *presentations(args, env, workdir, wl)]


def presentations(args, env: dict, workdir: str, wl) -> list:
    """PRESENTATIONS - 1 more seeded presentations of the workload's symbols.

    herz_norm and the ascent take their own path from each presentation,
    so a small request's time moves with the seed by up to a third, and
    the median request with it; the rounds of a timed run cycle through
    the presentations, so each request's median spans several.
    cli-verify keeps one: its inputs are files under fixed names.
    """
    import numpy as np
    import workloads

    if wl.cli is not None:
        return []
    seeds = [int(np.random.SeedSequence([args.seed, j]).generate_state(1)[0])
             for j in range(1, PRESENTATIONS)]
    return [workloads.build(args.workload, seed, ROOT, workdir, env, args.small)
            for seed in seeds]


def traced_pass(wl) -> tuple[dict, dict]:
    """One pass with the trace wrappers on; returns the pass and its summary.

    The summary holds span totals and counters, the CLI import and process
    times (zero outside cli-verify) and the milliseconds covered by named
    spans (for cli-verify: by the CLI processes).
    """
    import tracing

    if wl.cli is None:
        with tracing.Tracer() as tracer:
            res = run_pass(wl, tracer)
        summary = tracer.summary()
        summary.update(import_ms=0.0, process_ms=0.0,
                       attributed_ms=tracing.attributed_ms(summary))
        return res, summary
    procs = wl.cli.procs
    procs.clear()
    wl.cli.mode = "boot"
    try:
        res = run_pass(wl)
    finally:
        wl.cli.mode = "cold"
    summary = tracing.merge([p["trace"] for p in procs])
    import_ms = sum(p["trace"]["import_ms"] for p in procs)
    wall_ms = sum(p["wall_ms"] for p in procs)
    main_ms = summary["spans"]["cli.main"]["total_ms"]
    summary.update(import_ms=import_ms, process_ms=wall_ms - import_ms - main_ms,
                   attributed_ms=wall_ms)
    return res, summary


def traced_run(wl, labels: list, budget: float) -> tuple[list, list, list]:
    """Untraced and traced passes alternate, at least one pair, while
    another pair fits before ``budget``; returns both kinds of pass and the
    traced passes' summaries."""
    if wl.cli is not None:
        # traced and untraced passes both start cold processes
        wl.cli.mode = "cold"
    untraced, traced, summaries = [], [], []
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(wl))
        res, summary = traced_pass(wl)
        traced.append(res)
        summaries.append(summary)
        for label, first, a, b in zip(labels, untraced[0]["results"],
                                      untraced[-1]["results"], res["results"]):
            if a is not first:
                check_repeat(first, a, label, "repeat pass")
            check_repeat(first, b, label, "traced vs untraced")
        if time.perf_counter() + (time.perf_counter() - t0) > budget:
            return untraced, traced, summaries


def layer_rows(untraced: list, traced: list, summaries: list) -> list:
    """Per-layer metrics, averaged over the traced passes of the run."""
    import tracing

    k = len(summaries)
    merged = tracing.merge(summaries)
    for row in merged["spans"].values():
        for key in row:
            row[key] /= k
    for key in merged["counts"]:
        merged["counts"][key] /= k
    metrics = tracing.layer_metrics(merged)
    metrics["cli.import_ms"] = (sum(s["import_ms"] for s in summaries) / k, "ms")
    metrics["cli.process_ms"] = (sum(s["process_ms"] for s in summaries) / k, "ms")
    plain, with_trace = sum(per_request(untraced)), sum(per_request(traced))
    traced_wall = sum(p["wall"] for p in traced)
    metrics["run.trace_overhead_frac"] = (with_trace / plain - 1.0, "ratio")
    metrics["run.unattributed_frac"] = (
        1.0 - sum(s["attributed_ms"] for s in summaries) / (1e3 * traced_wall), "ratio")
    metrics["run.cpu_over_wall"] = (sum(p["cpu"] for p in traced) / traced_wall, "ratio")
    over = f"mean of {k} traced passes" if k > 1 else "1 traced pass"
    return [(name, value, unit, over)
            for name, (value, unit) in metrics.items()]


def measure(args, env: dict) -> dict:
    """Run one workload; returns the result object printed last."""
    import reference  # binds numpy.linalg before any trace wrapper is installed

    STATE.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE)
    budget = time.perf_counter() + args.seconds
    try:
        if not args.trace:
            setup_raw, setup_scaled, setup_failed = time_setup(args)
        wls = setup(args, env, workdir)
        wl = wls[0]
        labels = [r.label for r in wl.requests]
        if args.trace:
            untraced, traced, summaries = traced_run(wl, labels, budget)
        else:
            # a slow machine may stretch the run to half again --seconds
            runs = round_robin(wls, budget, budget + 0.5 * args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        results = [r for p in untraced + traced for r in p["results"]]
        rows = layer_rows(untraced, traced, summaries)
    else:
        results = [rec["result"] for r in runs for rec in r]
        conv, gmean, n_brackets = bracket_metrics([r[0]["result"] for r in runs])
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        scaled = [statistics.median(rec["scaled"] for rec in r) for r in runs]
        raw = [statistics.median(rec["time"] for rec in r) for r in runs]
        lo, hi = min(len(r) for r in runs), max(len(r) for r in runs)
        k = f"median of {lo} runs" if lo == hi else f"median of {lo}-{hi} runs"
        rows = [
            ("setup_s", statistics.median(setup_scaled), "s",
             f"median of {len(setup_scaled)} set-ups, scaled"),
            ("wall_s", sum(scaled), "s", f"{len(runs)} requests, each the {k}, scaled"),
            ("request_ms_p50", 1e3 * hd_median(scaled), "ms",
             f"Harrell-Davis median of {len(runs)} requests, each the {k}, scaled"),
            ("converged_frac", conv, "ratio", f"{n_brackets} brackets"),
            ("rel_width_gmean", gmean, "ratio", f"{n_brackets} brackets"),
            ("peak_rss_mb", rss_kb / 1024.0, "MiB", "1 process"),
        ]
    failures = [e for r in results for e in r.errors]
    attempted = len(results)
    failed = sum(1 for r in results if r.errors)
    if not args.trace:
        attempted += SETUP_PROBES
        failed += setup_failed
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, value, unit, samples in rows:
        print(f"{name:45s} {value:14.6g} {unit:14s} ({samples})")
    if not args.trace:
        print(f"unscaled: setup_s {statistics.median(setup_raw):.6g} s, "
              f"wall_s {sum(raw):.6g} s, "
              f"request_ms_p50 {1e3 * hd_median(raw):.6g} ms; "
              f"scaled times are at the speed where the reference kernel "
              f"takes {1e3 * reference.NOMINAL_S:g} ms")
    print(f"{'fail_frac':45s} {failed / attempted:14.6g} {'ratio':14s} "
          f"({failed} of {attempted} requests)")
    print("stamp " + json.dumps(stamp(args.seed), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, value, unit, _ in rows},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced request lists, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "herzkit" / "__init__.py").is_file():
        print(f"herzkit sources not found under {SRC}", file=sys.stderr)
        return 2
    env = pin_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        STATE.mkdir(parents=True, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="setup-", dir=STATE)
        try:
            setup(args, env, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result = measure(args, env)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
