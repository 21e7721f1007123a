"""twocst benchmark: one workload per run, one thread, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload {exact-grid,verify-small,lab-structure}
        --seed N --seconds S --trace {0,1}

The workload's inputs come from ``--seed``; the library sees only the
generated instances.  Every result is checked and a failed check
counts the operation as failed instead of stopping the run.

``--trace 0`` measures end-to-end metrics: the workload's operations
run round-robin for ``--seconds`` (at least one full pass), and each
timing is the sum over operations of the median over that operation's
executions.  ``setup_s`` is the median over several fresh interpreters
of the time from start to instances ready.

``--trace 1`` runs one untraced pass and one traced pass over the same
inputs, requires their exact work counters to be equal, and reports
the per-module metrics, the per-module self times and the tracing
overhead.

Human-readable lines come first; the last line of standard output is
the JSON result.  The full record (every metric, counters per
operation, spans) goes to ``.perfbench_out/`` under the current
directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from recorder import LAYERS, Recorder, self_times, span_totals

SETUP_PROBES = 5
OUT_DIR = ".perfbench_out"
MEM_LIMIT_ENV = "TWOCST_MEM_LIMIT_MB"


class Tally:
    """Attempted and failed operations plus each operation's counters."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.counters: dict[str, dict] = {}

    def record(self, label: str, counters: dict | None, fails: list[str]) -> None:
        self.attempted += 1
        if counters is not None:
            seen = self.counters.setdefault(label, counters)
            if seen != counters:
                fails = fails + [f"work counters changed between executions: {seen} != {counters}"]
        if fails:
            self.failed += 1
            self.messages.extend(f"{label}: {msg}" for msg in fails[:3])


def run_op(rec, op, tally: Tally) -> dict[str, float]:
    gc.collect()
    rec.begin_op(op.family)
    start = perf_counter()
    try:
        counters, fails = rec.call("bench.op", op.fn, rec)
    except Exception as exc:  # one bad result must not abort the run
        counters, fails = None, [f"{type(exc).__name__}: {exc}"]
    sample = dict(rec.elapsed)
    sample["wall"] = perf_counter() - start
    tally.record(op.label, counters, fails)
    return sample


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ops, rec, seconds: float, tally: Tally) -> tuple[list[list[dict[str, float]]], float]:
    """One full pass, then round-robin until ``seconds`` have passed,
    skipping an operation whose last duration would overrun.

    Returns the samples and the peak RSS after the first pass.  Later
    passes run a timing-dependent subset of the operations, and the
    allocator's fragmentation makes the peak depend on that order, so
    the fixed first pass defines ``peak_rss_mb``."""
    deadline = perf_counter() + seconds
    samples = [[run_op(rec, op, tally)] for op in ops]
    peak = peak_rss_mb()
    while True:
        ran = False
        for k, op in enumerate(ops):
            if perf_counter() + samples[k][-1]["wall"] <= deadline:
                samples[k].append(run_op(rec, op, tally))
                ran = True
        if not ran:
            return samples, peak


def per_op_medians(samples) -> list[dict[str, float]]:
    out = []
    for runs in samples:
        names = set().union(*runs)
        out.append({name: statistics.median(r.get(name, 0.0) for r in runs) for name in names})
    return out


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Start-to-instances-ready time of fresh interpreters."""
    probe = [sys.executable, os.path.join("perfbench", "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def end_to_end(workload, medians, tally, setup, peak) -> dict[str, tuple[float, str, str]]:
    """Every end-to-end metric the workload produces: name -> (value,
    unit, note)."""
    total: defaultdict[str, float] = defaultdict(float)
    for op in medians:
        for name, secs in op.items():
            total[name] += secs
    walls_ms = sorted(op["wall"] * 1e3 for op in medians)
    values = {
        "wall_s": total["wall"],
        "full_s": total["dp_core.solve_full"],
        "pruned_s": total["pruned.solve_pruned"],
        "bounded_log_s": total["pruned.solve_bounded_log"],
        "oracle_s": total["oracle.brute_force_optimal"],
        "lab_s": sum(v for k, v in total.items() if k.startswith("structure.")),
        "query_s": sum(v for k, v in total.items() if k.endswith("@sweep")),
        "verify_ms_p50": statistics.median(walls_ms),
        "verify_ms_p90": statistics.quantiles(walls_ms, n=10, method="inclusive")[8],
    }
    out = {}
    for name in workload.reports:
        unit = "ms" if name.endswith(("_p50", "_p90")) else "s"
        note = f"{len(walls_ms)} instances" if unit == "ms" else ""
        out[name] = (values[name], unit, note)
    out["peak_rss_mb"] = (peak, "MB", "ru_maxrss after set-up and the first pass")
    out["setup_s"] = (statistics.median(setup), "s", f"median of {len(setup)} interpreters")
    out["fail_share"] = (
        tally.failed / tally.attempted,
        "ratio",
        f"{tally.failed} failed / {tally.attempted} attempted",
    )
    return out


def aggregate(counter_dicts) -> dict[str, float]:
    """Counters summed over operations; maxima (``max_*``) and peaks
    (``*_mb``) take the largest value instead."""
    out: dict[str, float] = {}
    for counters in counter_dicts:
        for name, value in counters.items():
            if "max_" in name or name.endswith("_mb"):
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    return out


def layer_metrics(spans, counters, ops=None) -> dict[str, tuple[float, str, str]]:
    """Per-module metrics of one traced pass, optionally only over the
    operation ids in ``ops``: name -> (value, unit, note)."""
    secs, calls = span_totals(spans, ops)

    def ms(base: str) -> float:
        return 1e3 * sum(v for k, v in secs.items() if k.split("@")[0] == base)

    def us_per_call(base: str) -> tuple[float, int]:
        n = sum(c for k, c in calls.items() if k.split("@")[0] == base)
        return (ms(base) * 1e3 / n if n else 0.0), n

    def count(name: str) -> float:
        return counters.get(name, 0)

    def per(numer_ms: float, base: float, scale: float = 1e6) -> float:
        return numer_ms * scale / base if base else 0.0

    m: dict[str, tuple[float, str, str]] = {}
    full_ms = ms("dp_core.solve_full")
    fill_ms = full_ms - 1e3 * secs.get("dp_core.reconstruct@root", 0.0)
    cuts = count("dp_core.cuts")
    m["dp_core.full_ms"] = (full_ms, "ms", "")
    m["dp_core.fill_ms"] = (fill_ms, "ms", "solve_full minus root reconstruct, _prefix prebuilt")
    m["dp_core.cells"] = (count("dp_core.cells"), "count", "")
    m["dp_core.cuts"] = (cuts, "count", "")
    m["dp_core.ns_per_cut"] = (per(fill_ms, cuts), "ns", f"over {cuts:.0f} cuts")
    for name, base in (
        ("reconstruct_us", "dp_core.reconstruct"),
        ("minimizers_us", "dp_core.minimizers_at"),
        ("choice_us", "dp_core.choice_at"),
    ):
        value, n = us_per_call(base)
        m["dp_core." + name] = (value, "us", f"per call over {n} calls")

    pruned_ms = ms("pruned.solve_pruned")
    sub = count("pruned.subproblems")
    pcuts = count("pruned.cuts")
    prunes = count("pruned.eq_prunes") + count("pruned.lt_prunes")
    m["pruned.pruned_ms"] = (pruned_ms, "ms", "")
    m["pruned.subproblems"] = (sub, "count", "")
    m["pruned.cuts"] = (pcuts, "count", "")
    for name in ("eq_prunes", "lt_prunes", "both", "max_hole_depth"):
        m["pruned." + name] = (count("pruned." + name), "count", "")
    m["pruned.prune_ratio"] = (prunes / sub if sub else 0.0, "ratio", f"(eq+lt) over {sub:.0f} subproblems")
    m["pruned.ns_per_cut"] = (per(pruned_ms, pcuts), "ns", f"over {pcuts:.0f} cuts")
    m["pruned.bounded_log_ms"] = (ms("pruned.solve_bounded_log"), "ms", "")
    m["pruned.bounded_log_cuts"] = (count("pruned.bounded_log_cuts"), "count", "")
    m["pruned.bounded_log_max_hole_depth"] = (count("pruned.bounded_log_max_hole_depth"), "count", "")
    m["pruned.bounded_const_ms"] = (ms("pruned.solve_bounded_const"), "ms", "")
    m["pruned.bounded_const_cuts"] = (count("pruned.bounded_const_cuts"), "count", "")
    nref = count("pruned.refined_intervals")
    m["pruned.refined_interval_us"] = (per(ms("pruned.refined_interval"), nref, 1e3), "us", f"per query over {nref:.0f} queries")

    oracle_ms = ms("oracle.brute_force_optimal")
    subsets = count("oracle.subsets")
    m["oracle.ms"] = (oracle_ms, "ms", "")
    m["oracle.subsets"] = (subsets, "count", "computed as sum of 2^m-1")
    m["oracle.ns_per_subset"] = (per(oracle_ms, subsets), "ns", f"over {subsets:.0f} subsets")

    m["threeway.cubic_ms"] = (ms("threeway.solve_3wcst_cubic"), "ms", "")
    m["threeway.ky_ms"] = (ms("threeway.solve_3wcst_knuth_yao"), "ms", "")
    m["threeway.ky_root_scans"] = (count("threeway.ky_root_scans"), "count", "")
    m["tree.validate_ms"] = (ms("tree.validate"), "ms", "")
    m["tree.cost_ms"] = (ms("tree.cost"), "ms", "")

    queries = count("instance.queries")
    query_ms = sum(ms("instance." + k) for k in ("sub_weight", "sub_count", "first_member", "last_member"))
    m["instance.construct_ms"] = (ms("instance.WeightedInstance"), "ms", "set-up and per-operation copies")
    m["instance.prefix_ms"] = (ms("instance.prefix"), "ms", "")
    m["instance.prefix_peak_mb"] = (count("instance.prefix_peak_mb"), "MB", "tracemalloc, largest build")
    m["instance.query_ns"] = (per(query_ms, queries), "ns", f"per query over {queries:.0f} queries")

    generators = sum(v for k, v in secs.items() if k.startswith("structure.") and k.endswith("_instance"))
    m["structure.generate_ms"] = (1e3 * generators, "ms", "")
    m["structure.qi_ms"] = (ms("structure.qi_table"), "ms", "")
    m["structure.side_weight_ms"] = (ms("structure.check_side_weight_theorem"), "ms", "")
    m["structure.monotonicity_ms"] = (ms("structure.check_minimizer_monotonicity"), "ms", "")
    m["structure.thresholds_ms"] = (ms("structure.check_thresholds"), "ms", "")

    own = self_times(spans, ops)
    for module in LAYERS + ("bench", "probe"):
        m[module + ".self_ms"] = (1e3 * own.get(module, 0.0), "ms", "span time minus child spans")
    probe_ms = sum(v for k, v in secs.items() if k.startswith("probe.") or "@root" in k or "@lab" in k)
    m["probe.calls_ms"] = (1e3 * probe_ms, "ms", "calls made only by the traced run")
    m["bench.wall_ms"] = (ms("bench.op") - 1e3 * probe_ms, "ms", "traced operations without probe calls")
    m["query_ms"] = (1e3 * sum(v for k, v in secs.items() if k.endswith("@sweep")), "ms", "sweep with its _prefix build")
    return m


FAMILY_KEYS = (
    "dp_core.full_ms", "dp_core.fill_ms", "dp_core.cuts", "dp_core.ns_per_cut",
    "pruned.pruned_ms", "pruned.subproblems", "pruned.cuts", "pruned.eq_prunes",
    "pruned.lt_prunes", "pruned.both", "pruned.prune_ratio", "pruned.ns_per_cut",
    "pruned.bounded_log_ms", "pruned.bounded_log_cuts", "tree.validate_ms", "bench.wall_ms",
)


def shares(workload: str, m, fam) -> dict[str, tuple[float, str, str]]:
    """Measured share of the traced wall time that goes to the layer
    each workload was designed around."""
    wall = m["bench.wall_ms"][0]

    def v(metrics, name):
        return metrics[name][0]

    if workload == "exact-grid":
        hard_full = v(fam["hard"], "dp_core.full_ms")
        hard_pruned = v(fam["hard"], "pruned.pruned_ms")
        return {
            "share.fill_random_rows": (v(fam["random"], "dp_core.fill_ms") / wall, "ratio", "of wall"),
            "share.recursion_hard_rows": (hard_pruned / wall, "ratio", "of wall"),
            "share.full_non_hard_rows": (1 - hard_full / v(m, "dp_core.full_ms"), "ratio", "of solve_full time"),
            "share.pruned_hard_rows": (hard_pruned / v(m, "pruned.pruned_ms"), "ratio", "of solve_pruned time"),
        }
    if workload == "verify-small":
        return {"share.oracle": (v(m, "oracle.ms") / wall, "ratio", "of wall")}
    return {"share.prefix_and_queries": (v(m, "query_ms") / wall, "ratio", "of wall")}


def print_metrics(metrics) -> None:
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {unit:<6} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "twocst" / "__init__.py").is_file():
        print(f"perfbench: {src / 'twocst'} not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ.pop(MEM_LIMIT_ENV, None)
    sys.path.insert(0, str(src))
    import twocst

    if Path(twocst.__file__).resolve().parent != (src / "twocst").resolve():
        print(f"perfbench: imported twocst from {twocst.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload_cls = WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    if not args.trace:
        setup = setup_seconds(args.workload, args.seed)
        rec = Recorder(trace=False)
        ops = workload_cls(rec, args.seed).ops()
        tally = Tally()
        samples, peak = measure(ops, rec, args.seconds, tally)
        metrics = end_to_end(workload_cls, per_op_medians(samples), tally, setup, peak)
        record["samples"] = {op.label: runs for op, runs in zip(ops, samples)}
        record["setup_runs_s"] = setup
    else:
        rec = Recorder(trace=True)
        ops = workload_cls(rec, args.seed).ops()
        plain = Tally()
        start = perf_counter()
        measure(ops, Recorder(trace=False), 0, plain)
        plain_wall = perf_counter() - start
        tally = Tally()
        start = perf_counter()
        measure(ops, rec, 0, tally)
        traced_wall = perf_counter() - start
        for label, counters in plain.counters.items():
            traced = tally.counters.get(label, {})
            if {k: traced.get(k) for k in counters} != counters:
                tally.failed += 1
                tally.messages.append(f"{label}: counters differ, untraced {counters} traced {traced}")
        tally.attempted += plain.attempted
        tally.failed += plain.failed
        tally.messages = plain.messages + tally.messages
        metrics = layer_metrics(rec.spans, aggregate(tally.counters.values()))
        probes = metrics["probe.calls_ms"][0] / 1e3
        metrics["trace.overhead_s"] = (
            traced_wall - probes - plain_wall,
            "s",
            f"traced pass {traced_wall:.3f} s minus {probes:.3f} s of probes, untraced {plain_wall:.3f} s",
        )
        fam = {}
        if args.workload == "exact-grid":
            family_of = {op.label: op.family for op in ops}
            for family in sorted(set(family_of.values())):
                op_ids = {k for k, f in rec.op_family.items() if f == family}
                counters = aggregate(c for label, c in tally.counters.items() if family_of[label] == family)
                fam[family] = layer_metrics(rec.spans, counters, op_ids)
        metrics.update(shares(args.workload, metrics, fam))
        for family, sub in fam.items():
            metrics.update({f"{family}.{k}": sub[k] for k in FAMILY_KEYS})
        record["spans"] = rec.spans

    print_metrics(metrics)
    for msg in tally.messages[:20]:
        print(f"  FAILED {msg}")
    record["metrics"] = {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()}
    record["counters"] = tally.counters
    record["counter_totals"] = aggregate(tally.counters.values())
    record["failures"] = tally.messages
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
