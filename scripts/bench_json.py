"""Summarize perfbench run records into one BENCH_<label>.json.

    python3 scripts/bench_json.py [--uncommitted] LABEL RECORD.json [RECORD.json ...]

Each record is a file that ``perfbench/run.py --trace 0`` wrote to
``perfbench/out/``. The summary holds, per workload, the median and
quartiles of every end-to-end metric that BENCHMARK.json names, with the
quartiles taken as ``perfbench/run.py --steady`` takes them, plus the seeds,
the number of runs and the environment (git commit, versions, nproc). Each
workload needs at least two records, all sharing that environment.
``--uncommitted`` says the runs were made on a working tree with changes
not yet committed on top of that git commit; the summary records it as
``"uncommitted": true``. The file is written to the repository root, and
only once every workload is summarized.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(records: list[dict], metrics: list[str]) -> dict:
    workloads = {}
    for name in sorted({r["workload"] for r in records}):
        runs = sorted((r for r in records if r["workload"] == name), key=lambda r: r["seed"])
        if len(runs) < 2:
            sys.exit(f"error: the {name} workload has one record; quartiles need at least two")
        envs = {json.dumps(r["environment"], sort_keys=True) for r in runs}
        if len(envs) != 1:
            sys.exit(f"error: the {name} records come from {len(envs)} environments")
        summary = {}
        for m in metrics:
            values = [r["metrics"][m]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[m] = {"median": median, "q1": q1, "q3": q3,
                          "unit": runs[0]["metrics"][m]["unit"], "values": values}
        workloads[name] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "seconds": runs[0]["seconds"],
            "all_correct": all(r["correct"] for r in runs),
            "environment": runs[0]["environment"],
            "metrics": summary,
        }
    return workloads


def main() -> int:
    args = sys.argv[1:]
    uncommitted = args[:1] == ["--uncommitted"]
    if uncommitted:
        args = args[1:]
    if len(args) < 2:
        sys.exit(__doc__)
    label, paths = args[0], args[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = [m["name"] for m in json.load(f)["end_to_end"]]
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    if any(r["trace"] for r in records):
        sys.exit("error: traced runs carry tracer overhead; summarize untraced runs only")
    workloads = summarize(records, metrics)
    out = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(out, "w") as f:
        json.dump({"label": label, "uncommitted": uncommitted, "workloads": workloads}, f, indent=1)
        f.write("\n")
    print(f"written {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
