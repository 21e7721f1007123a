"""Pruned and bounded-weight exact solvers with work instrumentation.

Three solvers, all returning the same optimal cost as the full level DP
on their admissible inputs:

* ``solve_pruned``: the threshold-pruned recurrence over member runs.
  A state whose heaviest member holds at least 3/7 of the member weight
  resolves by equality alone; below a strict quarter it resolves by
  cuts alone; in between both branches are explored.
* ``solve_bounded_log``: the same recurrence over positional states,
  with equality explored only while the removed key keeps a quarter of
  the remaining weight, capping hole depth logarithmically.  Needs
  positive weights.
* ``solve_bounded_const``: for weights in [0, R]; a window starts at
  the first key of every 4R of prefix weight and runs while it weighs
  under 8R.  One full DP per window, cached by weight pattern, prices
  the intervals inside a window; any other interval weighs over 4R, so
  it is cut-rooted, and only its quarter-balanced cuts are scanned.

The first two share one memoized body, ``_top_down``, whose docstring
describes their states; every solver scans only the quarter-refined
cuts, which any optimal cut must lie in.  Each solver keeps only costs
and answers ``cost(i, j, h)`` from them; its tree is rebuilt from that
function with ``tree.build_tree`` through ``dp_core._step``, the one
rule for what an optimal tree does first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import ceil, log
from operator import add

from .dp_core import DpTable, _fill, _level, _quarter, _step, _thresholds
from .errors import PreconditionError, TwocstError
from .instance import WeightedInstance
from .tree import Node, build_tree


@dataclass
class SolveStats:
    """Exact work counters for one solve.

    ``subproblems_evaluated`` counts states solved (memo misses or
    table cells); ``cutpoints_scanned`` counts (state, cut) pairs
    examined; ``eq_prunes`` and ``lt_prunes`` count states resolved by
    equality alone or by cuts alone; ``max_hole_depth`` is the most
    removed keys of any state.  ``_top_down`` says what a state, a cut
    and a hole are for the two top-down solvers, and ``branches`` is
    ``solve_pruned``'s optional map of each member run to its branch.
    """

    subproblems_evaluated: int = 0
    cutpoints_scanned: int = 0
    eq_prunes: int = 0
    lt_prunes: int = 0
    max_hole_depth: int = 0
    branches: dict[tuple[int, int, int], str] | None = None


@dataclass(frozen=True)
class RefinedInterval:
    """Contiguous run of cut positions lo..hi whose lighter side weighs
    at least a quarter of the member weight; empty when lo > hi."""

    lo: int
    hi: int

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def __contains__(self, cut: int) -> bool:
        return self.lo <= cut <= self.hi

    def positions(self) -> range:
        return range(self.lo, self.hi + 1)

    def width(self) -> int:
        return len(self.positions())


def refined_interval(inst: WeightedInstance, sid: tuple[int, int, int]) -> RefinedInterval:
    """Quarter-balanced cut positions for a subproblem: two bisections
    of the level's monotone prefix-weight row, clamped to the cuts
    between member keys (the clamp binds only when the member weight is
    0).  ``solve_full`` and ``solve_pruned`` scan the member gaps of
    this range, one cut each."""
    i, j, h = sid
    if inst.sub_count(i, j, h) < 2:
        raise PreconditionError(f"refined interval needs at least two keys in {sid}")
    lo, hi = _quarter(inst._prefix[0][h], i, j)
    lo = max(lo, inst.first_member(i, j, h))
    hi = min(hi, inst.last_member(i, j, h)) - 1
    return RefinedInterval(lo, hi)


def _evaluate(root, expand, memo: dict):
    """Value of ``root`` under a memoized recurrence, on an explicit
    stack instead of the interpreter's.

    ``expand(state)`` is a generator: it yields each child state it
    needs, is sent that child's value, and returns the state's value,
    which is stored in ``memo`` once.  ``root`` is expanded; a child
    already in ``memo`` is sent straight back, not expanded again.
    """
    value = None
    stack = [(root, expand(root))]
    while stack:
        state, gen = stack[-1]
        try:
            child = gen.send(value)
        except StopIteration as done:
            stack.pop()
            value = memo[state] = done.value
            continue
        value = memo.get(child)
        if value is None:
            stack.append((child, expand(child)))
    return value


def _cost_tree(inst: WeightedInstance, cost) -> Node:
    """Optimal tree for all keys, rebuilt through ``_step`` from the
    solver's ``cost(i, j, h)``."""
    return build_tree((1, inst.n, inst.n), lambda sid: _step(inst, cost, sid))


def _top_down(inst: WeightedInstance, runs: bool, stats: SolveStats):
    """Optimal cost of all keys by the memoized top-down recurrence, and
    ``cost(i, j, h)`` read from its memo.

    A state is the m lightest keys of [i, j], stored as the int
    (i·base + j)·base + m.  It finds its level h, the rank of its
    heaviest member, with one bisection over the instance's level prefix
    rows and reads its weight w and its quarter range from row h, never
    from a scan of the state's interval: a state costs O(log n) plus its
    cuts, and the rows take O(n²) memory, as in ``solve_full``.  Below a
    strict quarter (4·wmax < w) a state takes cuts alone, and the
    equality branch wins ties with the best cut.

    With ``runs`` (``solve_pruned``) states are member runs (a, b, m),
    whose first and last keys are members, so each member set is solved
    once, as in ``solve_full``.  With p_k the k-th member, the one cut
    scanned in each member gap k that meets the quarter range leaves
    (a, p_k, k) and (p_{k+1}, b, m − k), and equality leaves (a, b, m − 1),
    shrunk to the next member only when the heaviest member is a or b.
    At or above 3/7 of the member weight (7·wmax ≥ 3·w) equality alone
    resolves the state.  Below it the quarter range is never empty, as
    only a member above half of the member weight empties it, so an empty
    range raises ``TwocstError``.  Holes count the non-members between a
    run's ends, and ``stats.branches``, when a dict, maps each run's
    (a, b, h) to the branch it took.

    Without ``runs`` (``solve_bounded_log``) states stay positional, since
    the hole-depth bound counts every removed key of [i, j]: a cut at
    every position l of the quarter range leaves (i, l, m_l) and
    (l+1, j, m − m_l), with m_l the members up to l, equality leaves
    (i, j, m − 1), and a two-member state takes equality on its heavier
    key.  Equality is explored whenever the heaviest member holds a
    quarter of the weight, which bounds hole depth by log_{4/3}(nR); only
    a member above half of the weight empties the quarter range, and its
    equality is explored.

    ``stats`` counts memo misses as ``subproblems_evaluated``, cuts
    scanned, states resolved by equality alone (``eq_prunes``) or by cuts
    alone (``lt_prunes``), and the most holes of any state.  Memo hits
    touch no counter.
    """
    n = inst.n
    w_arr = inst._w
    asc = (0,) + inst.asc_perm
    pw, pc = inst._prefix
    memo: dict[int, int] = {}
    base = n + 2

    def solve(key: int):
        ab, m = divmod(key, base)
        a, b = divmod(ab, base)
        stats.subproblems_evaluated += 1
        holes = (b - a + 1) - m
        if holes > stats.max_hole_depth:
            stats.max_hole_depth = holes
        if m <= 1:
            return 0
        h = _level(pc, a, b, m, n)
        pc_h = pc[h]
        pw_h = pw[h]
        w = pw_h[b] - pw_h[a - 1]
        if m == 2 and not runs:
            return w  # equality on the heavier key; the rest is a leaf
        top = asc[h]
        eq_max, cut_min = _thresholds(w_arr[top])
        split = None
        if runs and w <= eq_max:
            stats.eq_prunes += 1
            branch = "eq-only"
        else:
            lo, hi = _quarter(pw_h, a, b)
            if not runs:
                pc_a = pc_h[a - 1]
                for l in range(lo, hi):
                    m_l = pc_h[l] - pc_a
                    v = (yield (a * base + l) * base + m_l) + (yield ((l + 1) * base + b) * base + m - m_l)
                    if split is None or v < split:
                        split = v
                stats.cutpoints_scanned += hi - lo
            elif lo >= hi:
                raise TwocstError(f"empty quarter range below the 3/7 threshold at {(a, b, h)}")
            else:
                # one cut per member gap that meets [lo, hi): the gap from
                # member p, the last one at or before lo, to the next member
                # l leaves k members on its left; the scan runs on to the
                # first member at or after hi, which closes the last gap
                c = pc_h[lo]
                p = bisect_left(pc_h, c, a, lo)
                k = c - pc_h[a - 1]
                k0 = k
                left = a * base
                for l in range(lo + 1, bisect_left(pc_h, pc_h[hi - 1] + 1, hi, b) + 1):
                    if pc_h[l] != c:
                        v = (yield (left + p) * base + k) + (yield (l * base + b) * base + m - k)
                        if split is None or v < split:
                            split = v
                        p = l
                        k += 1
                        c += 1
                stats.cutpoints_scanned += k - k0
            if w > cut_min:
                stats.lt_prunes += 1
                branch = "lt-only"
            else:
                branch = "both"
        eq_rest = None
        if branch != "lt-only":
            # a run's rest keeps the run unless the heaviest member ends it
            if runs and top == a:
                eq_key = (bisect_left(pc_h, pc_h[a] + 1, a + 1, b) * base + b) * base + m - 1
            elif runs and top == b:
                eq_key = (a * base + bisect_left(pc_h, pc_h[b] - 1, a, b)) * base + m - 1
            else:
                eq_key = key - 1
            eq_rest = yield eq_key
        if stats.branches is not None:
            stats.branches[(a, b, h)] = branch
        if eq_rest is not None and (split is None or eq_rest <= split):
            return w + eq_rest
        return w + split

    def cost(i: int, j: int, h: int) -> int:
        row = pc[h]
        m = row[j] - row[i - 1]
        if runs:
            # the member run holding the same keys
            i = bisect_left(row, row[i - 1] + 1, i, j)
            j = bisect_left(row, row[j], i, j)
        return memo[(i * base + j) * base + m]

    return _evaluate((base + n) * base + n, solve, memo), cost


def solve_pruned(
    inst: WeightedInstance, record_branches: bool = False
) -> tuple[int, Node, SolveStats]:
    """Threshold-pruned exact solve over member runs: equality alone at
    3/7 of the member weight, cuts alone below a strict quarter, both in
    between, with cuts from the quarter range.  Any weights; with
    ``record_branches`` the stats map each run to its branch."""
    stats = SolveStats(branches={} if record_branches else None)
    best, cost = _top_down(inst, True, stats)
    return best, _cost_tree(inst, cost), stats


def solve_bounded_log(inst: WeightedInstance) -> tuple[int, Node, SolveStats]:
    """Exact solve over positional (interval, hole count) states: cuts
    from the quarter range, equality explored while the heaviest member
    holds a quarter of the weight.  Positive weights only; the hole
    depth, at most log_{4/3}(nR), is checked after solving."""
    if 0 in inst.weights:
        raise PreconditionError("zero weights present; rescale or use another solver")
    stats = SolveStats()
    best, cost = _top_down(inst, False, stats)
    big_r = max(inst.weights)
    n = inst.n
    cap = ceil(log(n * big_r) / log(4 / 3)) + 1 if n * big_r > 1 else 1
    if stats.max_hole_depth > cap:
        raise TwocstError(f"hole depth {stats.max_hole_depth} exceeded the log bound {cap}")
    return best, _cost_tree(inst, cost), stats


def _interval_costs(
    inst: WeightedInstance, q: int
) -> tuple[list[list[int]], SolveStats, list[tuple[int, DpTable] | None]]:
    """Hole-free interval costs costs[i][j], for 1 <= i <= j <= n, the
    work done, and ``windows[i]``, the (start, table) of key i's window.

    Key k lies in block pre[k-1] // q of the prefix weights.  Each
    block's first key starts a window that runs while it weighs under
    2q and serves its block; the first window to reach key n serves
    every key after it.  A full-DP table, cached by weight pattern,
    prices every interval inside its left end's window.  Windows only
    grow to the right, so each sub-interval lies in its own left end's
    window too.  An interval past that window weighs over q (2q from the
    window's start, less than q before i in its block), so when q is at
    least four times every weight, zeros included, a cut in its quarter
    range heads its optimal tree; it is priced over those cuts alone.
    """
    n = inst.n
    weights = inst.weights
    # the all-keys prefix weights alone, not the instance's O(n²) level rows
    pre = list(accumulate(weights, initial=0))
    stats = SolveStats()
    cache: dict[tuple[int, ...], DpTable] = {}
    windows: list[tuple[int, DpTable] | None] = [None]  # by key, from 1
    costs = [[0] * (n + 1) for _ in range(n + 2)]
    # the column mirror: cols[j][l] == costs[l][j], written next to it
    cols = [[0] * (n + 2) for _ in range(n + 1)]
    s = 1
    while s <= n:
        e = bisect_left(pre, pre[s - 1] + 2 * q, s, n + 1) - 1
        pattern = weights[s - 1 : e]
        table = cache.get(pattern)
        if table is None:
            table = cache[pattern] = _fill(inst.restrict(s, e))
            stats.subproblems_evaluated += table.cells_computed
            stats.cutpoints_scanned += table.cuts_scanned
        # the next block's first key, or past n once this window reaches it
        t = n + 1 if e == n else bisect_left(pre, (pre[s - 1] // q + 1) * q, s, e) + 1
        top = table.levels[e - s + 1]
        for r in range(s, t):
            row = costs[r]
            row[r : e + 1] = top[r - s + 1][r - s + 1 :]
            for j in range(r, e + 1):
                cols[j][r] = row[j]
        windows += [(s, table)] * (t - s)
        s = t
    for i in range(n, 0, -1):
        s, table = windows[i]
        row = costs[i]
        for j in range(s + table.inst.n, n + 1):
            lo, hi = _quarter(pre, i, j)
            best = min(map(add, row[lo:hi], cols[j][lo + 1 : hi + 1]))
            row[j] = cols[j][i] = pre[j] - pre[i - 1] + best
            stats.subproblems_evaluated += 1
            stats.cutpoints_scanned += hi - lo
    return costs, stats, windows


def hole_free_costs(inst: WeightedInstance) -> list[list[int]]:
    """Interval cost matrix over all keys: costs[i][j] for 1 <= i <= j
    <= n, zero when i >= j, from ``_interval_costs`` with q the cut
    threshold of ``_thresholds`` at the heaviest weight, and at least 4."""
    return _interval_costs(inst, _thresholds(max(1, *inst.weights))[1])[0]


def solve_bounded_const(
    inst: WeightedInstance, limit: int | None = None
) -> tuple[int, Node, SolveStats]:
    """Exact solve for integer weights in [0, limit]: full-DP work is
    confined to ``_interval_costs``'s windows with q = 4·limit, the cut
    threshold of ``_thresholds``, and the intervals past them take
    quarter-balanced cuts only.  The counters add the window tables'
    cells and cuts to the outside intervals and their cuts.  Hole depth
    is not tracked here (windows hide it), so ``max_hole_depth`` stays 0.
    """
    n = inst.n
    if limit is None:
        limit = max(1, *inst.weights)
    if type(limit) is not int or limit < 1:
        raise PreconditionError(f"weight bound must be a positive int, got {limit!r}")
    for k, w in enumerate(inst.weights, start=1):
        if not 0 <= w <= limit:
            raise PreconditionError(f"weight {w} of key {k} outside [0, {limit}]")
    costs, stats, windows = _interval_costs(inst, _thresholds(limit)[1])
    pc = inst._prefix[1]

    def cost(i: int, j: int, h: int) -> int:
        """C[h][i][j].  A hole-free subproblem reads the interval costs;
        any other reads the window of its left end, at the level of that
        window's table holding the same members.

        Every subproblem ``_step`` asks for lies in that window: holes
        appear only below an equality test, and an interval past its
        left end's window weighs over 4·limit, so its heaviest key holds
        under a quarter of the weight and ``_step`` never tries equality
        there; and every sub-interval of a window interval also lies in
        the window of its own left end.
        """
        row = pc[h]
        if row[j] - row[i - 1] == j - i + 1:
            return costs[i][j]
        s, table = windows[i]
        e = s + table.inst.n - 1
        return table.levels[row[e] - row[s - 1]][i - s + 1][j - s + 1]

    return costs[1][n], _cost_tree(inst, cost), stats
