"""Command line for solving, verifying, and benchmarking.

Subcommands: ``solve`` (one instance, one algorithm), ``verify`` (a
named check suite, JSON report), ``qi`` (quadrangle-inequality map as
CSV and PGM), ``bench`` (CSV timing/counter rows over a grid of
instances), and ``generate`` (write a generated instance file).

All numeric output is exact: integer costs of the scaled instance
plus the scale factor, never floats (wall times excepted).

Exit codes: 0 success, 1 verification failures, 2 malformed input or
usage, 3 violated precondition (including the memory budget) or any
other solver error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

from .dp_core import solve_full
from .errors import ParseError, PreconditionError, TwocstError
from .instance import WeightedInstance, load_instance, new_instance
from .oracle import MAX_ORACLE_KEYS, brute_force_optimal
from .pruned import SolveStats, solve_bounded_const, solve_bounded_log, solve_pruned
from .structure import (
    GeneratorSpec,
    qi_table,
    suite_counterexamples,
    suite_geometric,
    suite_oracle,
    suite_pattern_claims,
    suite_thresholds,
)
from .threeway import solve_3wcst_cubic, solve_3wcst_knuth_yao
from .tree import EqNode, Leaf, Node, to_dot, to_json


def _full(inst: WeightedInstance, _limit: int | None) -> tuple[int, Node, SolveStats]:
    table, best, tree = solve_full(inst)
    stats = SolveStats(table.cells_computed, table.cuts_scanned, table.eq_prunes, table.lt_prunes)
    return best, tree, stats


def _knuth_yao(inst: WeightedInstance, _limit: int | None) -> tuple[int, None, SolveStats]:
    best, scans = solve_3wcst_knuth_yao(inst)
    return best, None, SolveStats(cutpoints_scanned=scans)


# each algorithm as (instance, weight bound) -> (cost, tree or None, stats)
SOLVERS = {
    "full": _full,
    "pruned": lambda inst, _limit: solve_pruned(inst),
    "bounded-const": solve_bounded_const,
    "bounded-log": lambda inst, _limit: solve_bounded_log(inst),
    "oracle": lambda inst, _limit: (*brute_force_optimal(inst), SolveStats()),
    "3wcst": lambda inst, _limit: (solve_3wcst_cubic(inst), None, SolveStats()),
    "3wcst-ky": _knuth_yao,
}

# the counter columns of ``solve`` and ``bench``, in output order, and
# the SolveStats field each one reads
COUNTERS = {
    "subproblems": "subproblems_evaluated",
    "cutpoints": "cutpoints_scanned",
    "eq_prunes": "eq_prunes",
    "lt_prunes": "lt_prunes",
    "max_hole_depth": "max_hole_depth",
}


def _root_type(tree: Node | None) -> str:
    if tree is None:
        return "none"
    if isinstance(tree, Leaf):
        return "leaf"
    return "equal-to" if isinstance(tree, EqNode) else "less-than"


def _run_algorithm(
    inst: WeightedInstance, algorithm: str, limit: int | None
) -> tuple[int, Node | None, SolveStats, float]:
    if algorithm not in SOLVERS:
        raise PreconditionError(f"unknown algorithm {algorithm!r}")
    start = time.perf_counter()
    best, tree, stats = SOLVERS[algorithm](inst, limit)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return best, tree, stats, wall_ms


def _check_limit(limit: int | None, algorithms: list[str]) -> None:
    if limit is not None and "bounded-const" not in algorithms:
        raise ParseError(f"--limit is the weight bound of bounded-const; {','.join(algorithms)} takes none")


def cmd_solve(args: argparse.Namespace) -> int:
    _check_limit(args.limit, [args.algorithm])
    inst = load_instance(args.file)
    best, tree, stats, wall_ms = _run_algorithm(inst, args.algorithm, args.limit)
    if (args.tree or args.dot) and tree is None:
        raise PreconditionError(f"algorithm {args.algorithm} does not produce a test tree")
    if args.tree:
        Path(args.tree).write_text(json.dumps(to_json(tree), indent=2) + "\n")
    if args.dot:
        Path(args.dot).write_text(to_dot(tree) + "\n")
    print(f"n={inst.n}")
    print(f"scale={inst.scale}")
    print(f"cost={best}")
    if inst.scale > 1:
        print(f"cost_exact={Fraction(best, inst.scale)}")
    print(f"root={_root_type(tree)}")
    for column, field in COUNTERS.items():
        print(f"{column}={getattr(stats, field)}")
    print(f"wall_ms={wall_ms:.3f}")
    return 0


# each verify suite: its function, and the flags it reads, each with the
# suite keyword it sets and the least and greatest value it takes (None:
# no bound). A run of zero cases checks nothing and no suite draws zero
# keys; geometric starts at 5 keys, where a cut root first wins strictly
# at ratio 7/10 (below that the two root types tie)
VERIFY_SUITES = {
    "counterexamples": (suite_counterexamples, {}),
    "thresholds": (
        suite_thresholds,
        {"cases": ("cases", 1, None), "n": ("max_n", 1, None), "seed": ("seed", None, None)},
    ),
    "oracle": (
        suite_oracle,
        {"cases": ("cases", 1, None), "n": ("max_n", 1, MAX_ORACLE_KEYS), "seed": ("seed", None, None)},
    ),
    "pattern-claims": (suite_pattern_claims, {"p": ("p", 1, None)}),
    "geometric": (suite_geometric, {"n": ("n", 5, None)}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    run, reads = VERIFY_SUITES[suite]
    # flags left out keep the suite's own defaults; a flag the suite does
    # not read, or a value outside its domain, is refused before any work
    kwargs = {}
    for flag in ("cases", "n", "seed", "p"):
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in reads:
            raise ParseError(f"verify {suite} takes no --{flag}")
        keyword, least, greatest = reads[flag]
        if least is not None and value < least:
            raise ParseError(f"--{flag} must be at least {least}, got {value}")
        # only key counts carry a greatest value
        if greatest is not None and value > greatest:
            raise ParseError(f"--{flag} {value} exceeds verify {suite}'s cap of {greatest} keys")
        kwargs[keyword] = value
    results = run(**kwargs)
    ok = all(r.ok for r in results)
    print(
        json.dumps(
            {"suite": suite, "results": [asdict(r) for r in results], "ok": ok},
            indent=2,
            sort_keys=True,
        )
    )
    return 0 if ok else 1


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_ratio(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"expected a ratio such as 3/5 or 0.6, got {text!r}") from exc


def _parse_fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_ratio(part) for part in text.split(","))


def _instance_grid(args: argparse.Namespace) -> list[tuple[str, WeightedInstance]]:
    """Expand bench/qi instance flags into labeled instances."""
    out: list[tuple[str, WeightedInstance]] = []
    for path in args.files:
        out.append((path, load_instance(path)))
    if args.weights:
        label = "weights-" + args.weights.replace(",", "_")
        try:
            out.append((label, new_instance(list(_parse_ints(args.weights)))))
        except PreconditionError as exc:
            raise ParseError(f"--weights: {exc}") from exc
    specs = [GeneratorSpec("hard", n=n) for n in _parse_ints(args.hard)] if args.hard else []
    # generators that take their sizes from --n, each named by its flag
    sized: list[GeneratorSpec] = []
    if args.pattern:
        sized.append(GeneratorSpec("pattern", cycle=_parse_ints(args.pattern)))
    if args.geometric:
        sized += [GeneratorSpec("geometric", gamma=g) for g in _parse_fractions(args.geometric)]
    if args.random:
        if args.seed is None:
            raise ParseError("--random requires --seed")
        bounds = _parse_ints(args.range)
        if len(bounds) != 2:
            raise ParseError(f"--range takes LO,HI, got {args.range!r}")
        sized.append(GeneratorSpec("random", seed=args.seed, lo=bounds[0], hi=bounds[1]))
    sizes = _parse_ints(args.n) if args.n else ()
    for spec in sized:
        if not sizes:
            raise ParseError(f"--{spec.kind} needs --n")
        specs += [replace(spec, n=n) for n in sizes]
    out += [(spec.label(), spec.generate()) for spec in specs]
    if not out:
        raise ParseError("no instances given; pass files or generator flags")
    return out


def cmd_qi(args: argparse.Namespace) -> int:
    grid = _instance_grid(args)
    if len(grid) != 1:
        raise ParseError("qi takes exactly one instance")
    label, inst = grid[0]
    table = qi_table(inst)
    prefix = Path(args.out)
    csv_path = prefix.with_suffix(".csv")
    pgm_path = prefix.with_suffix(".pgm")
    csv_path.write_text(table.to_csv())
    pgm_path.write_text(table.to_pgm())
    print(f"instance={label}")
    print(f"n={table.n}")
    print(f"red_cells={table.red_count}")
    print(f"csv={csv_path}")
    print(f"pgm={pgm_path}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    algorithms = args.alg.split(",")
    for algorithm in algorithms:
        if algorithm not in SOLVERS:
            raise ParseError(f"unknown algorithm {algorithm!r}; pick from {tuple(SOLVERS)}")
    _check_limit(args.limit, algorithms)
    grid = _instance_grid(args)
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(
            ("instance", "algorithm", "n", "scale", "cost", "root_type", *COUNTERS, "wall_ms", "error")
        )
        for label, inst in grid:
            for algorithm in algorithms:
                head = (label, algorithm, inst.n, inst.scale)
                try:
                    best, tree, stats, wall_ms = _run_algorithm(inst, algorithm, args.limit)
                except TwocstError as exc:
                    writer.writerow((*head, "", "", *[""] * len(COUNTERS), "", str(exc)))
                    continue
                counters = [getattr(stats, field) for field in COUNTERS.values()]
                writer.writerow((*head, best, _root_type(tree), *counters, f"{wall_ms:.3f}", ""))
    finally:
        if args.out:
            sink.close()
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        n=args.size,
        seed=args.seed,
        lo=args.lo,
        hi=args.hi,
        gamma=_parse_ratio(args.gamma) if args.gamma else None,
        cycle=_parse_ints(args.cycle) if args.cycle else (1, 3),
        heavy=args.heavy,
        halves=args.halves,
        alpha=_parse_ratio(args.alpha) if args.alpha else None,
        beta=_parse_ratio(args.beta) if args.beta else None,
        eps=_parse_ratio(args.eps) if args.eps else None,
    )
    inst = spec.generate()
    lines = [f"# {spec.label()}"]
    if inst.scale > 1:
        lines.append(f"# integer weights at scale {inst.scale}")
    lines.append(" ".join(str(w) for w in inst.weights))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} (n={inst.n}, scale={inst.scale})")
    else:
        sys.stdout.write(text)
    return 0


def _add_grid_flags(parser: argparse.ArgumentParser, files: bool) -> None:
    if files:
        parser.add_argument("files", nargs="*", default=[], help="instance files")
    parser.add_argument("--weights", default=None, help="inline weights W1,W2,...")
    parser.add_argument("--hard", default=None, help="hard-family sizes N1,N2,... (multiples of 7)")
    parser.add_argument("--pattern", default=None, help="repeating weight cycle C1,C2,...")
    parser.add_argument("--geometric", default=None, help="ratio list, e.g. 0.55 or 4/7,7/10")
    parser.add_argument("--random", action="store_true", help="seeded random weights")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--range", default="1,3", help="weight range LO,HI for --random")
    parser.add_argument("--n", default=None, help="key counts N1,N2,... for generators")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twocst",
        description="Exact solvers and a verification lab for optimal "
        "two-way comparison search trees.",
        epilog="Exit codes: 0 ok, 1 verification failures, 2 bad input, "
        "3 violated precondition or other solver error, 141 output pipe "
        "closed by its reader. Set "
        "TWOCST_MEM_LIMIT_MB to cap the full table's memory estimate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("file")
    p_solve.add_argument("algorithm", choices=SOLVERS)
    p_solve.add_argument("--limit", type=int, default=None, help="weight bound for bounded-const; an error with any other algorithm")
    p_solve.add_argument("--tree", default=None, help="write the optimal tree as JSON")
    p_solve.add_argument("--dot", default=None, help="write the optimal tree as Graphviz dot")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run a named check suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--cases", type=int, default=None, help="random cases (thresholds, oracle)")
    p_verify.add_argument("--n", type=int, default=None, help="largest key count (thresholds, oracle) or key count (geometric)")
    p_verify.add_argument("--seed", type=int, default=None, help="random seed (thresholds, oracle)")
    p_verify.add_argument("--p", type=int, default=None, help="pattern size exponent (pattern-claims)")
    p_verify.set_defaults(func=cmd_verify)

    p_qi = sub.add_parser("qi", help="write quadrangle-inequality maps (.csv and .pgm)")
    _add_grid_flags(p_qi, files=True)
    p_qi.add_argument("--out", required=True, help="output path prefix")
    p_qi.set_defaults(func=cmd_qi)

    p_bench = sub.add_parser("bench", help="CSV of costs, counters, wall times")
    _add_grid_flags(p_bench, files=True)
    p_bench.add_argument("--alg", "--algorithms", default="full,pruned", help="comma-separated algorithms")
    p_bench.add_argument("--limit", type=int, default=None, help="weight bound for bounded-const; an error unless --alg includes it")
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("generate", help="write a generated instance file")
    p_gen.add_argument(
        "kind",
        choices=("pattern", "geometric", "random", "tight4", "tight8", "hard", "heavy-mid"),
    )
    p_gen.add_argument("--n", type=int, default=None, dest="size")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--lo", type=int, default=0)
    p_gen.add_argument("--hi", type=int, default=10)
    p_gen.add_argument("--gamma", default=None, help="ratio P/Q or decimal")
    p_gen.add_argument("--cycle", default=None, help="comma-separated weights")
    p_gen.add_argument("--heavy", type=int, default=None)
    p_gen.add_argument("--halves", type=int, default=None)
    p_gen.add_argument("--alpha", default=None)
    p_gen.add_argument("--beta", default=None)
    p_gen.add_argument("--eps", default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: route the unflushed rest to devnull so
        # the flush at exit stays quiet, and exit as if killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TwocstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
