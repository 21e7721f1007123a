"""Record one commit's benchmark results as BENCH_<pr>.json.

Runs ``perfbench/run.py`` (the command in ``BENCHMARK.json``) inside a
checkout of the repository: for every workload, seeds 1..--seeds with
``--trace 0`` and one ``--trace 1`` run at seed 1.  The file holds, per
workload, the median and interquartile range over the untraced runs of
every metric that perfbench records for them (the gated end-to-end
metrics and the ungated reports, such as ``pruned_s`` or ``oracle_s``),
the share of failed operations over all runs, and the exact work
counters of the traced run.  Each gated metric also carries its
``bound`` from ``BENCHMARK.json`` and is marked ``"unresolved": true``
when its interquartile range exceeds bound × median: its runs then
spread wider than the change it is gated on, so one such pass cannot
tell a regression from noise.  Unresolved metrics are also printed to
stderr.  Two such files, one per commit, can be diffed to check a
performance claim.

    python3 scripts/bench_record.py --pr 11
    python3 scripts/bench_record.py --pr 10 --checkout ../parent --out BENCH_10.json

Exits 1, after writing the file, unless every workload reports every
end-to-end metric of ``BENCHMARK.json`` and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path


def run_bench(checkout: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one perfbench run."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def perfbench_record(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The full record that one perfbench run leaves in ``.perfbench_out/``."""
    return json.loads((checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summary(values: list[float]) -> dict:
    """Median and interquartile range of one metric over the seeds."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def commit_of(checkout: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="label of the recorded change; names the default output file")
    ap.add_argument("--checkout", type=Path, default=Path.cwd(), help="repository root to benchmark (default: here)")
    ap.add_argument("--out", type=Path, help="output file (default: BENCH_<pr>.json here)")
    ap.add_argument("--seeds", type=int, default=5, help="untraced runs per workload, seeds 1..SEEDS")
    ap.add_argument("--seconds", type=float, help="seconds per run (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    tally = {w: [0, 0] for w in workloads}  # failed, attempted
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            result = run_bench(checkout, spec["command"], workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)
            for name, metric in perfbench_record(checkout, workload, seed, 0)["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            tally[workload][0] += result["failed"]
            tally[workload][1] += result["attempted"]

    record: dict = {
        "pr": args.pr,
        "commit": commit_of(checkout),
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine(), "python": platform.python_version()},
        "seconds": seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    complete = True
    for workload in workloads:
        traced = run_bench(checkout, spec["command"], workload, 1, seconds, 1)
        tally[workload][0] += traced["failed"]
        tally[workload][1] += traced["attempted"]
        failed, attempted = tally[workload]
        # each run's own fail_share gives way to the share over all runs
        entry = {name: summary(runs) for name, runs in values[workload].items() if name != "fail_share"}
        for name, bound in bounds.items():
            if name in entry:
                metric = entry[name]
                metric["bound"] = bound
                if metric["iqr"] > bound * metric["median"]:
                    metric["unresolved"] = True
                    print(
                        f"{workload}: {name} unresolved, IQR {metric['iqr']:g} over bound {bound:g} × median {metric['median']:g}",
                        file=sys.stderr,
                    )
        entry["fail_share"] = failed / attempted if attempted else 1.0
        entry["counter_totals"] = perfbench_record(checkout, workload, 1, 1)["counter_totals"]
        record["workloads"][workload] = entry
        missing = [name for name in bounds if len(values[workload].get(name, [])) != args.seeds]
        if missing or entry["fail_share"] != 0:
            complete = False
            print(f"{workload}: missing {missing}, fail_share {entry['fail_share']}", file=sys.stderr)

    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
