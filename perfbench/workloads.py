"""The benchmark's three workloads, built from a seed.

A workload's set-up runs the ``structure`` generators; its operations
are the unit of the closed loop.  Each operation builds a fresh
``WeightedInstance`` from the generated weights, so every execution
pays the instance's lazy tables, then calls the library through the
recorder and checks every result.  An operation returns its exact work
counters and the list of checks that failed.

With tracing on, operations add calls that exist only to split time
by layer: the ``_prefix`` build before ``solve_full`` (through
``sub_count``), the root ``reconstruct``/``minimizers_at``/
``choice_at`` of every full table, a tracemalloc measurement of
``_prefix`` and, on lab-structure, the ``DpTable`` helpers over a
sample of the subproblems the lab checks visit.
"""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from twocst import (
    WeightedInstance,
    brute_force_optimal,
    check_minimizer_monotonicity,
    check_side_weight_theorem,
    check_thresholds,
    cost,
    geometric_instance,
    hard_instance,
    pattern_instance,
    qi_table,
    random_instance,
    refined_interval,
    solve_3wcst_cubic,
    solve_3wcst_knuth_yao,
    solve_bounded_const,
    solve_bounded_log,
    solve_full,
    solve_pruned,
    validate,
)

from recorder import Recorder

# Sample sizes of the traced run's probes and of the lab's checks.
PROBE_SAMPLE = 300
CHECK_SAMPLE = 40


@dataclass
class Op:
    label: str
    family: str
    fn: Callable[[Recorder], tuple[dict[str, int], list[str]]]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _fresh(rec: Recorder, inst: WeightedInstance) -> WeightedInstance:
    return rec.call("instance.WeightedInstance", WeightedInstance, inst.weights, inst.scale)


def _prefix_peak_mb(inst: WeightedInstance) -> float:
    """tracemalloc peak of building ``_prefix`` on a fresh copy."""
    copy = WeightedInstance(inst.weights, inst.scale)
    tracemalloc.start()
    try:
        copy.sub_count(1, 1, 1)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _check_tree(rec, inst, tree, reported, expected, what, fails) -> None:
    report = rec.call("tree.validate", validate, tree, inst)
    if not report.ok:
        fails.append(f"{what}: invalid tree: {report.defects[:2]}")
    actual = rec.call("tree.cost", cost, tree, inst)
    if actual != reported:
        fails.append(f"{what}: cost(tree) {actual} != reported {reported}")
    if expected is not None and reported != expected:
        fails.append(f"{what}: cost {reported} != reference {expected}")


def _full(rec, inst, expected, fails, counters):
    """solve_full plus its checks; returns (table, cost)."""
    n = inst.n
    if rec.trace:
        rec.call("instance.prefix", inst.sub_count, 1, 1, 1)
        counters["instance.prefix_peak_mb"] = rec.call("probe.prefix_peak", _prefix_peak_mb, inst)
    table, best, tree = rec.call("dp_core.solve_full", solve_full, inst)
    if rec.trace:
        root = (1, n, n)
        rec.call("dp_core.reconstruct@root", table.reconstruct, root)
        rec.call("dp_core.minimizers_at@root", table.minimizers_at, root)
        rec.call("dp_core.choice_at@root", table.choice_at, root)
    _check_tree(rec, inst, tree, best, expected, "solve_full", fails)
    counters["dp_core.cells"] = counters.get("dp_core.cells", 0) + table.cells_computed
    counters["dp_core.cuts"] = counters.get("dp_core.cuts", 0) + table.cuts_scanned
    return table, best


def _pruned(rec, inst, expected, fails, counters) -> None:
    best, tree, st = rec.call(
        "pruned.solve_pruned", solve_pruned, inst, record_branches=rec.trace
    )
    _check_tree(rec, inst, tree, best, expected, "solve_pruned", fails)
    counters["pruned.subproblems"] = st.subproblems_evaluated
    counters["pruned.cuts"] = st.cutpoints_scanned
    counters["pruned.eq_prunes"] = st.eq_prunes
    counters["pruned.lt_prunes"] = st.lt_prunes
    counters["pruned.max_hole_depth"] = st.max_hole_depth
    if rec.trace:
        counters["pruned.both"] = sum(1 for b in st.branches.values() if b == "both")


def _bounded_log(rec, inst, expected, fails, counters) -> None:
    best, tree, st = rec.call("pruned.solve_bounded_log", solve_bounded_log, inst)
    _check_tree(rec, inst, tree, best, expected, "solve_bounded_log", fails)
    counters["pruned.bounded_log_cuts"] = st.cutpoints_scanned
    counters["pruned.bounded_log_max_hole_depth"] = st.max_hole_depth


class ExactGrid:
    """The ROADMAP grid through the exact engines, solve_full as the
    reference.  Only the random rows depend on the seed."""

    name = "exact-grid"
    reports = ("wall_s", "full_s", "pruned_s", "bounded_log_s")

    def __init__(self, rec: Recorder, seed: int):
        rng = _rng(self.name, seed)
        g = "structure."
        self.rows = [
            ("random", "random-n100", rec.call(g + "random_instance", random_instance, rng.randrange(2**31), 1, 100, 100)),
            ("random", "random-n150", rec.call(g + "random_instance", random_instance, rng.randrange(2**31), 1, 100, 150)),
            ("hard", "hard-n56", rec.call(g + "hard_instance", hard_instance, 56)),
            ("hard", "hard-n112", rec.call(g + "hard_instance", hard_instance, 112)),
            ("geometric", "geometric-3_5-n150", rec.call(g + "geometric_instance", geometric_instance, Fraction(3, 5), 150)),
            ("pattern", "pattern-1_3-n150", rec.call(g + "pattern_instance", pattern_instance, (1, 3), 150)),
        ]
        self.reference: dict[str, int] = {}

    def ops(self) -> list[Op]:
        out = []
        for family, label, inst in self.rows:
            out.append(Op(label + "/full", family, self._full_op(label, inst)))
            out.append(Op(label + "/pruned", family, self._solver_op(label, inst, _pruned)))
            # geometric 3/5 is outside bounded-log's [1, R] domain
            if family in ("random", "pattern"):
                out.append(Op(label + "/bounded_log", family, self._solver_op(label, inst, _bounded_log)))
        return out

    def _full_op(self, label, base):
        def op(rec):
            fails: list[str] = []
            counters: dict[str, int] = {}
            inst = _fresh(rec, base)
            _, best = _full(rec, inst, self.reference.get(label), fails, counters)
            self.reference.setdefault(label, best)
            return counters, fails

        return op

    def _solver_op(self, label, base, solver):
        def op(rec):
            fails: list[str] = []
            counters: dict[str, int] = {}
            inst = _fresh(rec, base)
            expected = self.reference.get(label)
            if expected is None:
                fails.append(f"{label}: no solve_full reference")
            solver(rec, inst, expected, fails, counters)
            return counters, fails

        return op


class VerifySmall:
    """A seeded stream of small instances through every solver, the
    oracle as the reference."""

    name = "verify-small"
    reports = ("wall_s", "full_s", "pruned_s", "bounded_log_s", "oracle_s", "verify_ms_p50", "verify_ms_p90")
    sizes = range(4, 15)
    per_size = 12

    def __init__(self, rec: Recorder, seed: int):
        rng = _rng(self.name, seed)
        g = "structure."
        # Every size appears equally often, a third of each kind: the
        # oracle's cost doubles per key, so drawing n at random would
        # make the total work swing with the seed.
        plan = [(n, t % 3) for n in self.sizes for t in range(self.per_size)]
        rng.shuffle(plan)
        self.instances: list[tuple[str, WeightedInstance]] = []
        for n, kind in plan:
            if kind == 0:
                inst = rec.call(g + "random_instance", random_instance, rng.randrange(2**31), 0, 9, n)
                family = "random0_9"
            elif kind == 1:
                inst = rec.call(g + "random_instance", random_instance, rng.randrange(2**31), 1, 3, n)
                family = "random1_3"
            else:
                geo = rec.call(g + "geometric_instance", geometric_instance, Fraction(1, 2), n)
                weights = list(geo.weights)
                rng.shuffle(weights)
                inst = rec.call("instance.WeightedInstance", WeightedInstance, weights, geo.scale)
                family = "geometric1_2"
            self.instances.append((family, inst))

    def ops(self) -> list[Op]:
        return [
            Op(f"{k:03d}-{family}-n{inst.n}", family, self._op(inst))
            for k, (family, inst) in enumerate(self.instances)
        ]

    @staticmethod
    def _op(base):
        def op(rec):
            fails: list[str] = []
            counters: dict[str, int] = {}
            inst = _fresh(rec, base)
            ref, tree = rec.call("oracle.brute_force_optimal", brute_force_optimal, inst)
            _check_tree(rec, inst, tree, ref, None, "oracle", fails)
            counters["oracle.subsets"] = 2**inst.n - 1
            _full(rec, inst, ref, fails, counters)
            _pruned(rec, inst, ref, fails, counters)
            weights = inst.weights
            if min(weights) >= 1:
                _bounded_log(rec, inst, ref, fails, counters)
            if min(weights) >= 1 and max(weights) <= 3:
                best, tree, st = rec.call("pruned.solve_bounded_const", solve_bounded_const, inst, 3)
                _check_tree(rec, inst, tree, best, ref, "solve_bounded_const", fails)
                counters["pruned.bounded_const_cuts"] = st.cutpoints_scanned
            cubic = rec.call("threeway.solve_3wcst_cubic", solve_3wcst_cubic, inst)
            ky = rec.call("threeway.solve_3wcst_knuth_yao", solve_3wcst_knuth_yao, inst)
            if cubic != ky.cost:
                fails.append(f"3wcst cubic {cubic} != knuth-yao {ky.cost}")
            counters["threeway.ky_root_scans"] = ky.root_scans
            return counters, fails

        return op


def _members(rank, i, j, h):
    return [k for k in range(i, j + 1) if rank[k] <= h]


class LabStructure:
    """The structure lab's checks plus a seeded point-query sweep."""

    name = "lab-structure"
    reports = ("wall_s", "full_s", "lab_s", "query_s")
    sweep_n = 2000
    queries_per_kind = 10000
    refined_queries = 4000
    batch = 500

    def __init__(self, rec: Recorder, seed: int):
        rng = _rng(self.name, seed)
        self.seed = seed
        g = "structure."
        self.qi_pattern = rec.call(g + "pattern_instance", pattern_instance, (1, 3), 192)
        self.qi_random = rec.call(g + "random_instance", random_instance, rng.randrange(2**31), 1, 3, 192)
        self.side = rec.call(g + "random_instance", random_instance, rng.randrange(2**31), 0, 9, 48)
        self.shared = rec.call(g + "random_instance", random_instance, rng.randrange(2**31), 1, 100, 80)
        self.sweep = rec.call(g + "random_instance", random_instance, rng.randrange(2**31), 1, 100, self.sweep_n)
        n = self.sweep_n
        # the benchmark's own ranks (ascending weight, ties by key), so
        # the checks do not rest on the library's bookkeeping
        order = sorted(range(1, n + 1), key=lambda k: (self.sweep.weights[k - 1], k))
        self.rank = [0] * (n + 1)
        for r, k in enumerate(order, start=1):
            self.rank[k] = r

        def point():
            i = rng.randint(1, n)
            return i, rng.randint(i, n), rng.randint(1, n)

        self.points = [[point() for _ in range(self.queries_per_kind)] for _ in range(4)]
        self.refined = []
        for _ in range(self.refined_queries):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            # keys i and j are both members, so a cut exists
            low = max(self.rank[i], self.rank[j])
            self.refined.append((i, j, rng.randint(low, n)))
        self.checked_points = [rng.randrange(self.queries_per_kind) for _ in range(CHECK_SAMPLE)]
        self.checked_refined = [rng.randrange(self.refined_queries) for _ in range(CHECK_SAMPLE)]

    def ops(self) -> list[Op]:
        return [
            Op("qi-pattern-1_3-n192", "qi", self._qi_op(self.qi_pattern)),
            Op("qi-random-1_3-n192", "qi", self._qi_op(self.qi_random)),
            Op("side-weight-n48", "side_weight", self._side_op),
            Op("monotonicity-thresholds-n80", "thresholds", self._thresholds_op),
            Op(f"query-sweep-n{self.sweep_n}", "sweep", self._sweep_op),
        ]

    @staticmethod
    def _qi_op(base):
        def op(rec):
            inst = _fresh(rec, base)
            table = rec.call("structure.qi_table", qi_table, inst)
            return {"structure.qi_red_cells": table.red_count}, []

        return op

    def _side_op(self, rec):
        inst = _fresh(rec, self.side)
        violations = rec.call("structure.check_side_weight_theorem", check_side_weight_theorem, inst)
        fails = [f"side-weight violation {v}" for v in violations[:3]]
        if rec.trace:
            table, sample = rec.call("probe.side_weight_sample", self._side_sample, inst)
            for sid in sample:
                rec.call("dp_core.reconstruct@lab", table.reconstruct, sid)
                rec.call("dp_core.choice_at@lab", table.choice_at, sid)
        return {"structure.side_weight_violations": len(violations)}, fails

    def _side_sample(self, inst):
        """The side-weight check's table and a sample of the
        subproblems it reconstructs."""
        table, _, _ = solve_full(WeightedInstance(inst.weights))
        n = inst.n
        asc = inst.asc_perm
        visited = [
            (i, j, h)
            for h in range(1, n + 1)
            for i in range(1, asc[h - 1] + 1)
            for j in range(asc[h - 1], n + 1)
            if inst.sub_count(i, j, h) >= 3
        ]
        return table, random.Random(self.seed).sample(visited, min(PROBE_SAMPLE, len(visited)))

    def _thresholds_op(self, rec):
        fails: list[str] = []
        counters: dict[str, int] = {}
        inst = _fresh(rec, self.shared)
        table, best = _full(rec, inst, None, fails, counters)
        for mode in ("sandwich", "diagonal"):
            found = rec.call(
                "structure.check_minimizer_monotonicity",
                check_minimizer_monotonicity, inst, mode, table=table,
            )
            counters[f"structure.{mode}_violations"] = len(found)
        report = rec.call("structure.check_thresholds", check_thresholds, inst, table)
        if not report.ok:
            fails.append(f"threshold checks failed: {report.checks}")
        if report.opt != best:
            fails.append(f"threshold report optimum {report.opt} != solve_full {best}")
        if rec.trace:
            n = inst.n
            rng = random.Random(self.seed)
            for _ in range(PROBE_SAMPLE):
                i = rng.randint(1, n - 1)
                rec.call("dp_core.minimizers_at@lab", table.minimizers_at, (i, rng.randint(i + 1, n), n))
        return counters, fails

    def _sweep_op(self, rec):
        inst = _fresh(rec, self.sweep)
        if rec.trace:
            rec.call("instance.prefix@sweep", inst.sub_count, 1, 1, 1)
            peak = rec.call("probe.prefix_peak", _prefix_peak_mb, inst)
        methods = (
            ("sub_weight", inst.sub_weight),
            ("sub_count", inst.sub_count),
            ("first_member", inst.first_member),
            ("last_member", inst.last_member),
        )
        step = self.batch
        answers = []
        for (kind, method), queries in zip(methods, self.points):
            got: list = []
            for s in range(0, len(queries), step):
                got.extend(rec.call(f"instance.{kind}@sweep", _point_batch, method, queries[s : s + step]))
            answers.append(got)
        intervals: list = []
        for s in range(0, len(self.refined), step):
            intervals.extend(
                rec.call("pruned.refined_interval@sweep", _refined_batch, inst, self.refined[s : s + step])
            )
        fails = self._check_sweep(answers, intervals)
        counters = {
            "instance.queries": sum(len(q) for q in self.points),
            "pruned.refined_intervals": len(self.refined),
        }
        if rec.trace:
            counters["instance.prefix_peak_mb"] = peak
        return counters, fails

    def _check_sweep(self, answers, intervals) -> list[str]:
        weights = (0,) + self.sweep.weights
        fails = []
        for t in self.checked_points:
            for kind, (i, j, h) in enumerate(q[t] for q in self.points):
                keys = _members(self.rank, i, j, h)
                want = (
                    sum(weights[k] for k in keys),
                    len(keys),
                    keys[0] if keys else None,
                    keys[-1] if keys else None,
                )[kind]
                if answers[kind][t] != want:
                    fails.append(f"point query {kind} at {(i, j, h)}: {answers[kind][t]} != {want}")
        for t in self.checked_refined:
            i, j, h = self.refined[t]
            keys = _members(self.rank, i, j, h)
            total = sum(weights[k] for k in keys)
            left = 0
            balanced = []
            for a, b in zip(keys, keys[1:]):
                left += weights[a]
                if 4 * left >= total and 4 * (total - left) >= total:
                    balanced.extend(range(a, b))
            got = list(intervals[t].positions())
            if got != balanced:
                fails.append(f"refined interval at {(i, j, h)}: {got[:1]}..{got[-1:]} != quarter cuts")
        return fails


def _point_batch(method, queries):
    return [method(i, j, h) for i, j, h in queries]


def _refined_batch(inst, queries):
    return [refined_interval(inst, sid) for sid in queries]


WORKLOADS = {w.name: w for w in (ExactGrid, VerifySmall, LabStructure)}
