"""Compare two checkouts on one benchmark workload in alternating pairs.

Runs ``perfbench/run.py --trace 0`` (the command in each checkout's
``BENCHMARK.json``) on a base and a changed checkout of the repository.
Pair p runs both sides at seed p, so what a seed alone decides cancels
within the pair; the base runs first in odd pairs and the change first in
even ones, so neither side always gets the warmer or the quieter slot.
Prints one JSON object: for every metric that perfbench records, each
side's median and interquartile range (with the runs), the number of
pairs the change won (ties count for neither side) and ``gain``, true
when at least ten pairs ran, the change won at least nine tenths of them
and its median beats the base's by more than the base's interquartile
range.  Every metric of an untraced run is a cost (seconds, megabytes,
the failed share), so lower is better for all of them.

Each gated metric (``end_to_end`` in the base's ``BENCHMARK.json``) also
carries its ``bound``; ``worse``, true when the change's median exceeds
the base's by more than bound × the base's median; and ``unresolved``,
true when either side's interquartile range exceeds bound × that side's
median, so its runs spread too wide to tell a regression from noise.
Flagged metrics are named on stderr.

After the pairs, one ``--trace 1`` run per side at seed 1 records that
side's exact work counters (perfbench's ``counter_totals``); the report
holds both and ``equal``, true when they match.  Memory peaks (names
ending in ``_mb``, which perfbench measures under tracemalloc) are
reported but left out of ``equal``: a change may lower them without
changing the work done.  ``--out`` also writes the JSON to a file, so a
claim can be committed as the command's own output.  Checkouts are
recorded as given, next to their ``git rev-parse HEAD`` where they have
one.

    python3 scripts/bench_pair.py --base ../parent --change . --workload lab-structure --pairs 10 --out PAIRS.json

Exits 2 before running anything if either checkout lacks
``BENCHMARK.json`` or ``perfbench/run.py`` or declares no such workload;
1 if a perfbench run exits non-zero (with its last stderr line), and 1,
after printing, if any run failed an operation or a gated metric is
missing from either side's runs.  ``worse`` and ``unresolved`` leave the
exit code alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one perfbench run."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        last = done.stderr.strip().rpartition("\n")[2]
        raise SystemExit(f"bench_pair: {' '.join(args)} in {checkout} exited {done.returncode}: {last}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def perfbench_record(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The full record that one perfbench run leaves in ``.perfbench_out/``."""
    return json.loads((checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summary(values: list[float]) -> dict:
    """Median and interquartile range of one metric over the runs."""
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
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True, help="workload name from BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs, seeds 1..PAIRS (default 10)")
    ap.add_argument("--seconds", type=float, help="seconds per run (default: run_seconds of the base's BENCHMARK.json)")
    ap.add_argument("--out", type=Path, help="also write the JSON report to this file")
    args = ap.parse_args(argv)

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        missing = [f for f in ("BENCHMARK.json", "perfbench/run.py") if not (checkout / f).is_file()]
        if missing:
            print(f"bench_pair: {side} checkout {checkout} lacks {', '.join(missing)}", file=sys.stderr)
            return 2
    specs = {side: json.loads((checkout / "BENCHMARK.json").read_text()) for side, checkout in sides.items()}
    for side, spec in specs.items():
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            print(f"bench_pair: {side} checkout declares no workload {args.workload!r}", file=sys.stderr)
            return 2
    seconds = specs["base"]["run_seconds"] if args.seconds is None else args.seconds
    bounds = {m["name"]: m["bound"] for m in specs["base"]["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    tally = {side: {"failed": 0, "attempted": 0} for side in sides}
    for seed in range(1, args.pairs + 1):
        order = ("base", "change") if seed % 2 else ("change", "base")
        for side in order:
            checkout = sides[side]
            result = run_bench(checkout, specs[side]["command"], args.workload, seed, seconds, 0)
            print(f"pair {seed} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
            for name, metric in perfbench_record(checkout, args.workload, seed, 0)["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
            tally[side]["failed"] += result["failed"]
            tally[side]["attempted"] += result["attempted"]

    counters = {}
    for side, checkout in sides.items():
        traced = run_bench(checkout, specs[side]["command"], args.workload, 1, seconds, 1)
        tally[side]["failed"] += traced["failed"]
        tally[side]["attempted"] += traced["attempted"]
        counters[side] = perfbench_record(checkout, args.workload, 1, 1)["counter_totals"]
    work = {side: {k: v for k, v in c.items() if not k.endswith("_mb")} for side, c in counters.items()}

    metrics = {}
    for name in sorted(values["base"].keys() & values["change"].keys()):
        base, change = values["base"][name], values["change"][name]
        won = sum(c < b for b, c in zip(base, change))
        entry = {"base": summary(base), "change": summary(change), "change_won": won}
        margin = entry["base"]["median"] - entry["change"]["median"]
        entry["gain"] = args.pairs >= 10 and 10 * won >= 9 * args.pairs and margin > entry["base"]["iqr"]
        if name in bounds:
            bound = entry["bound"] = bounds[name]
            entry["worse"] = -margin > bound * entry["base"]["median"]
            entry["unresolved"] = any(entry[s]["iqr"] > bound * entry[s]["median"] for s in sides)
            for flag in ("worse", "unresolved"):
                if entry[flag]:
                    print(f"bench_pair: {name} {flag} at bound {bound:g}", file=sys.stderr)
        metrics[name] = entry

    report = {
        "workload": args.workload,
        "seconds": seconds,
        "pairs": args.pairs,
        "base": {"checkout": str(args.base), "commit": commit_of(sides["base"]), **tally["base"]},
        "change": {"checkout": str(args.change), "commit": commit_of(sides["change"]), **tally["change"]},
        "metrics": metrics,
        "counters": {**counters, "equal": work["base"] == work["change"]},
    }
    text = json.dumps(report, indent=1, sort_keys=True)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    incomplete = [f"{side} {name}" for side in sides for name in bounds if len(values[side].get(name, [])) != args.pairs]
    if incomplete:
        print(f"bench_pair: gated metrics missing from runs: {', '.join(incomplete)}", file=sys.stderr)
    return 1 if tally["base"]["failed"] or tally["change"]["failed"] or incomplete else 0


if __name__ == "__main__":
    sys.exit(main())
