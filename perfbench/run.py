"""recalib benchmark: four workloads, end-to-end metrics, traced per-layer metrics.

One run of one workload (what the command in BENCHMARK.json runs):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, one after the other, each in a fresh process:

    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Steadiness: repeat each workload with seeds N, N+1, ... and print the
median and quartiles of every end-to-end metric beside its bound:

    python3 perfbench/run.py --steady K [--workload NAME] [--seed N] [--seconds S]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and sample count. Records of each run
(versions, load averages, sample counts, spans) go to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cli_pipeline", "library")

# Set-up is measured this many times per untraced run: once in the run's
# own process, the rest in fresh set-up probe processes; setup_s is the
# median. Every repetition is cold, as a user's process start is.
SETUP_REPEATS = 3

# A run must end within 180 s; a child process that takes this long is broken.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def import_recalib() -> float:
    """Import the package from this checkout's ``src``; returns seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "recalib", "__init__.py")):
        sys.exit(f"error: no recalib package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    start = perf_counter()
    import recalib
    import recalib.experiments  # noqa: F401
    elapsed = perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(recalib.__file__))) != SRC:
        sys.exit(f"error: imported recalib from {recalib.__file__}, not from {SRC}")
    sys.path.insert(0, HERE)
    return elapsed


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it,
    and that percentile. A run with fewer than ten ops beyond its median has
    no such percentile above the median, and reports the median (p50)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value: float, unit: str, n: int, note: str = "") -> dict:
    return {"value": value, "unit": unit, "n": n, "note": note}


def probe_setup(name: str, seed: int, index: int) -> float:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", str(index),
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, probe: int | None) -> dict:
    """One run: set-up, timed ops, checks. Returns the run record."""
    load_start = os.getloadavg()
    import_s = import_recalib()

    import workloads
    from recalib import oracle
    from tracer import Tracer, summarize

    t = perf_counter()
    k_hat = oracle.estimate_K(oracle.GaussianMixtureTask(0.5), 100_000)
    k_s = perf_counter() - t

    work_dir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    wl = workloads.WORKLOADS[name](workloads.Context(seed, k_hat, work_dir))
    problems: list[str] = []
    try:
        t = perf_counter()
        tag = workloads.WARMUP if probe is None else workloads.PROBE + probe
        inp = wl.inputs(tag, 0)
        gen_s = perf_counter() - t
        t = perf_counter()
        out = wl.op(inp, None, -1)
        warmup_s = perf_counter() - t
        setup_own = import_s + k_s + warmup_s
        if probe is not None:
            return {"setup_s": setup_own}
        problems += [f"warm-up: {p}" for p in wl.check(inp, out, -1, 0)]
        wl.cleanup(inp)
        setups = [setup_own]
        if not trace:
            setups += [probe_setup(name, seed, j) for j in range(SETUP_REPEATS - 1)]

        n_ops = wl.op_count(seconds)
        # A traced run alternates untraced and traced ops, n_ops of each, so
        # the difference of their sums is the tracing overhead.
        schedule = [trace and i % 2 == 1 for i in range(2 * n_ops if trace else n_ops)]
        tracer = Tracer()
        untraced: list[float] = []
        traced_lat: dict[int, float] = {}
        cpu = 0.0
        failed = 0
        per_command: dict[str, list[float]] = {}
        for i, traced in enumerate(schedule):
            t = perf_counter()
            inp = wl.inputs(workloads.TIMED, i)
            gen_s += perf_counter() - t
            tracer.op = i
            if traced:
                tracer.install()
            c0 = cpu_seconds()
            t0 = perf_counter()
            try:
                out = wl.op(inp, tracer if traced else None, i)
                op_problems = []
            except Exception as e:  # an op that raises is a failed op, the run goes on
                out = None
                op_problems = [f"op {i} raised {type(e).__name__}: {e}"]
            t1 = perf_counter()
            c1 = cpu_seconds()
            tracer.uninstall()
            if traced:
                traced_lat[i] = t1 - t0
            else:
                untraced.append(t1 - t0)
                cpu += c1 - c0
            if out is not None:
                try:
                    op_problems += wl.check(inp, out, i, n_ops)
                except Exception as e:  # output too broken to check
                    op_problems.append(f"check raised {type(e).__name__}: {e}")
                if traced:
                    wl.after_traced(inp, out, tracer)
                elif not wl.in_process:
                    for r in out:
                        per_command.setdefault(r.label, []).append(r.end - r.start)
            wl.cleanup(inp)
            if op_problems:
                failed += 1
                problems += [f"op {i}: {p}" for p in op_problems]
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    value, pct = tail(untraced)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups),
                          "median of cold set-ups: import, K_hat, warm-up op"),
        "wall_s": metric(sum(untraced), "s", len(untraced), "sum of op latencies"),
        "cpu_s": metric(cpu, "s", len(untraced), "user+sys, self and children, over ops"),
        "latency_p50_s": metric(statistics.median(untraced), "s", len(untraced)),
        "latency_tail_s": metric(value, "s", len(untraced), f"p{pct:.2f}"),
        "peak_rss_mb": metric(peak_rss_mb, "MB", 1,
                              "ru_maxrss of " + ("this process" if wl.in_process
                                                 else "the largest child")),
        "failed_frac": metric(failed / len(schedule), "ratio", len(schedule),
                              f"{failed} failed of {len(schedule)} attempted"),
    }
    for label, times in sorted(per_command.items()):
        metrics[f"cli_{label}_s"] = metric(statistics.median(times), "s", len(times))
    if trace:
        stats, covered = summarize(tracer)
        metrics.update(layer_metrics(stats, tracer.counters, covered, untraced, traced_lat,
                                     per_command))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": n_ops,
        "attempted": len(schedule),
        "failed": failed,
        "correct": not problems,
        "problems": problems[:50],
        "setup": {"runs_s": setups, "import_s": import_s, "k_hat_s": k_s, "warmup_s": warmup_s},
        "input_generation_s": gen_s,
        "latencies_s": {"untraced": untraced, "traced": list(traced_lat.values())},
        "load_average": {"start": load_start, "end": os.getloadavg()},
        "environment": environment(),
        "metrics": metrics,
        "_tracer": tracer if trace else None,
    }


def layer_metrics(stats: dict, counters: dict, covered: dict, untraced: list,
                  traced_lat: dict, per_command: dict) -> dict:
    """The per-layer metrics of a traced run, from its spans and counters."""

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def per_point(name: str) -> float:
        points = get(name, "points")
        return 1e9 * get(name, "s") / points if points else 0.0

    def failed(module: str) -> int:
        return sum(v["failed"] for k, v in stats.items() if k.startswith(module + "."))

    traced_ops = len(traced_lat)
    m = {}

    def put(name: str, value: float, unit: str, n: int | None = None) -> None:
        m[name] = metric(value, unit, traced_ops if n is None else n)

    def calls(name):
        put(f"{name}.calls", get(name, "calls"), "count")

    def incl(name):
        put(f"{name}.s", get(name, "s"), "s", get(name, "calls"))

    for name in ("core.fit_recalibrator", "core.umb_fit", "core.apply", "core.apply_batch",
                 "core.estimate_weights", "core.flatten", "core.LabeledSample",
                 "bounds.optimal_bins", "bounds.risk_bound_report", "oracle.sample",
                 "oracle.population_risk", "oracle.quad", "oracle.estimate_K",
                 "oracle.empirical_risk_plugin", "fileio.write_text_atomic"):
        calls(name)
    for name in ("core.umb_fit", "core.apply", "core.apply_batch", "core.estimate_weights",
                 "core.flatten", "core.LabeledSample", "bounds.optimal_bins",
                 "bounds.risk_bound_report", "oracle.sample", "oracle.quad",
                 "oracle.estimate_K", "oracle.empirical_risk_plugin",
                 "fileio.write_text_atomic"):
        incl(name)
    for name in ("core.fit_recalibrator", "oracle.population_risk",
                 "experiments.run_optimal_B", "experiments.run_label_shift",
                 "cli.fit", "cli.apply", "cli.shift", "cli.optbins", "cli.simulate"):
        put(f"{name}.self_s", get(name, "self_s"), "s", get(name, "calls"))
    for name in ("core.fit_recalibrator", "core.apply_batch", "oracle.sample"):
        put(f"{name}.ns_per_point", per_point(name), "ns", int(get(name, "points")))
    put("bounds.optimal_bins.scan_len", get("bounds.optimal_bins", "points"), "count")
    put("oracle.population_risk.bins", get("oracle.population_risk", "points"), "count")
    put("fileio.write_text_atomic.bytes", get("fileio.write_text_atomic", "points"), "bytes")
    for module in ("core", "bounds", "oracle"):
        put(f"{module}.failed", failed(module), "count")
    put("experiments.replacements", counters.get("experiments.replacements", 0), "count",
        int(counters.get("experiments.draws", 0)))
    put("experiments.draws", counters.get("experiments.draws", 0), "count")
    put("cli.boot_s", get("cli.boot", "s"), "s", get("cli.boot", "calls"))
    put("cli.import_s", get("cli.import", "s"), "s", get("cli.import", "calls"))
    put("cli.rows_in", counters.get("cli.rows_in", 0), "count")
    put("cli.failed", counters.get("cli.nonzero_exits", 0) + failed("cli"), "count")
    put("trace.overhead_s", sum(traced_lat.values()) - sum(untraced), "s")
    put("trace.latency_p50_s", statistics.median(untraced), "s", len(untraced))
    covered_s = [covered.get(op, 0.0) for op in traced_lat]
    put("trace.covered_s", statistics.median(covered_s), "s", len(covered_s))
    uncovered_s = [traced_lat[op] - c for op, c in zip(traced_lat, covered_s)]
    put("trace.uncovered_s", statistics.median(uncovered_s), "s", len(uncovered_s))
    for label in ("fit", "apply", "shift", "optbins", "simulate"):
        times = per_command.get(label, [])
        put(f"cli.{label}.wall_s", statistics.median(times) if times else 0.0, "s", len(times))
    return m


def result_line(record: dict, names: list[str]) -> dict:
    """The result line: the named metrics, value and unit only."""
    metrics = record["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in names},
    }


def print_table(record: dict) -> None:
    print(f"# {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"ops {record['attempted']}  failed {record['failed']}  correct {record['correct']}")
    for name, m in record["metrics"].items():
        note = f"  ({m['note']})" if m["note"] else ""
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:6s} n={m['n']}{note}")
    print(f"  input generation (not in setup_s): {record['input_generation_s']:.3f} s; "
          f"load average {record['load_average']['start'][0]:.2f} -> "
          f"{record['load_average']['end'][0]:.2f}")
    for p in record["problems"]:
        print(f"  PROBLEM: {p}")


def write_record(record: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    tracer = record.pop("_tracer", None)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, stem + "-spans.npz"))
    with open(os.path.join(OUT, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)


def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    """One run in a fresh process; returns its output lines and result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return lines[:-1], json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: int) -> None:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        lines, result = run_child(name, seed, seconds, trace)
        print("\n".join(lines), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))


def steady(names: list[str], repeats: int, seed: int, seconds: float, spec: dict) -> None:
    """Repeat each workload with seeds seed .. seed+repeats-1; report quartiles."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": seconds, "repeats": repeats, "first_seed": seed, "workloads": {}}
    all_ok = True
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        started = time.time()
        for r in range(repeats):
            _, result = run_child(name, seed + r, seconds, 0)
            all_ok &= result["correct"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"# {name}: {repeats} runs, {time.time() - started:.0f} s "
              f"(load average now {os.getloadavg()[0]:.2f})")
        print(f"  {'metric':16s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} "
              f"{'bound':>6s}  spread/bound")
        rows = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[m] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds[m]}
            flag = "" if m == "setup_s" or spread <= bounds[m] / 3 else "  <-- above bound/3"
            print(f"  {m:16s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:8.4f} "
                  f"{bounds[m]:6.3f}  {spread / bounds[m]:.3f}{flag}")
        record["workloads"][name] = rows
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"# record written to {path}; all outputs correct: {all_ok}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="repeat each workload K times and report quartiles")
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.setup_probe is not None:
        record = run_workload(args.workload, args.seed, 0, False, args.setup_probe)
        print(json.dumps(record))
        return 0
    if args.steady:
        names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
        steady(names, args.steady, args.seed, seconds, spec)
        return 0
    if args.workload == "all":
        run_all(args.seed, seconds, args.trace)
        return 0
    record = run_workload(args.workload, args.seed, seconds, bool(args.trace), None)
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    line = result_line(record, listed)
    print_table(record)
    write_record(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
