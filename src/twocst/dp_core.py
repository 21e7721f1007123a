"""Exact level-indexed dynamic program over all comparison trees.

State C[h][i][j] is the optimal cost of a tree for the keys of [i, j]
that rank among the h lightest overall.  With p the key of rank h:

* p outside [i, j]: C[h][i][j] = C[h-1][i][j]
* fewer than two member keys: cost 0
* otherwise C = w + min(C[h-1][i][j], S) where w is the member weight,
  the first term tests equality on p (the heaviest member), and
  S = min over cuts l of C[h][i][l] + C[h][l+1][j] ranges over the cuts
  leaving member keys on both sides.

C[h][i][j] depends only on which keys of [i, j] are members at level h,
so the fill numbers the h members 1..h in key order and computes one
cell per member run a..b (a < b) that holds p, and one cut per member
gap: every cut inside a gap leaves the same members on each side.  Most
cells are settled without a full cut scan by the threshold rules of
Anderson, Kannan, Karloff & Ladner:

* equality rule: if p holds at least 3/7 of the member weight
  (7·w_p >= 3·w), an equality test on p heads an optimal tree, so
  C = w + C[h-1][i][j] and no cut is scanned;
* quarter range: every optimal cut leaves at least a quarter of w on
  each side, so S is taken over those gaps only, found by two bisections
  of the members' prefix weights; if p holds under a quarter
  (4·w_p < w) a cut heads an optimal tree and C = w + S.

Two member mirrors hold the level being filled, R[a][b] by rows and
K[b][a] by columns.  Inserting p's member index into both repeats a
neighbour entry, so each run holding p starts out with its level h-1
cost without p, the equality rest.  Each level is then expanded into
positional rows: the rows of all keys between two consecutive members
are one list, and rows of keys after p are shared with the level below.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import add
from typing import Sequence

from .errors import MemoryBudgetError, PreconditionError, TwocstError
from .instance import WeightedInstance
from .tree import Node, build_tree

MEM_LIMIT_ENV = "TWOCST_MEM_LIMIT_MB"


@dataclass
class MinimizerReport:
    """All optimal cut positions for one subproblem's split term."""

    minimizers: tuple[int, ...]
    split_cost: int

    @property
    def canonical(self) -> int:
        return self.minimizers[0]


def _level(pc: Sequence[Sequence[int]], i: int, j: int, count: int, hi: int) -> int:
    """Least level h <= hi at which [i, j] holds ``count`` members, given
    that it holds at least that many at level hi: the largest rank among
    the ``count`` lightest keys of [i, j], or 0 for none.  One bisection
    over h, since member counts only grow with h, and no level below
    ``count`` holds ``count`` keys."""
    lo = count
    while lo < hi:
        mid = (lo + hi) >> 1
        row = pc[mid]
        if row[j] - row[i - 1] < count:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _quarter(row: Sequence[int], i: int, j: int) -> tuple[int, int]:
    """Cuts l in [lo, hi) of keys i..j that leave at least a quarter of
    their weight on each side, by two bisections of the monotone
    prefix-weight ``row``.  Every optimal cut lies in this range."""
    q = (row[j] - row[i - 1] + 3) // 4
    return bisect_left(row, row[i - 1] + q, i, j), bisect_right(row, row[j] - q, i, j)


def _best_cuts(rows: list[list[int]], i: int, j: int, lo: int, hi: int) -> tuple[int, tuple[int, ...]]:
    """Least split cost rows[i][l] + rows[l+1][j] over the cuts l in
    [lo, hi), and every cut that attains it, in key order."""
    vals = list(map(add, rows[i][lo:hi], [rows[l + 1][j] for l in range(lo, hi)]))
    best = min(vals)
    return best, tuple(l for l, v in enumerate(vals, lo) if v == best)


def _step(inst: WeightedInstance, cost, sid: tuple[int, int, int]) -> tuple:
    """What an optimal tree for (i, j, h) does first, as a ``build_tree``
    step: ('leaf', key), ('eq', key, rest) or ('split', cut, left,
    right), given ``cost(i, j, h)`` for the quarter-range cuts and, when
    no threshold rule settles it, the equality rest.  Equality wins ties
    and cannot win under a quarter; among cuts the leftmost wins."""
    i, j, h = sid
    pw, pc = inst._prefix
    m = pc[h][j] - pc[h][i - 1]
    if m <= 0:
        return ("leaf", None)
    h = _level(pc, i, j, m, h)
    key = inst.asc_perm[h - 1]
    if m == 1:
        return ("leaf", key)
    pw_h = pw[h]
    w = pw_h[j] - pw_h[i - 1]
    wp = inst.weight_of(key)
    if 7 * wp < 3 * w:
        lo, hi = _quarter(pw_h, i, j)
        split = None
        for l in range(lo, hi):
            v = cost(i, l, h) + cost(l + 1, j, h)
            if split is None or v < split:
                split = v
                cut = l
        if 4 * wp < w or cost(i, j, h - 1) > split:
            return ("split", cut, (i, cut, h), (cut + 1, j, h))
    return ("eq", key, (i, j, h - 1))


class DpTable:
    """Per-level positional cost tables plus reconstruction helpers:
    ``levels[h][i][j]`` is C[h][i][j], 0 when j < i.

    Fill counters: ``cells_computed`` distinct member runs a..b of two or
    more members holding each level's new key, ``cuts_scanned`` member
    gaps examined in their quarter ranges, ``eq_prunes`` runs settled by
    the 3/7 equality rule, ``lt_prunes`` runs whose new key under 1/4 of
    the member weight took the cut term outright.
    """

    def __init__(self, inst: WeightedInstance):
        self.inst = inst
        self.levels: list[list[list[int]]] = []
        self.cells_computed = 0
        self.cuts_scanned = 0
        self.eq_prunes = 0
        self.lt_prunes = 0

    def _check(self, sid: tuple[int, int, int]) -> None:
        i, j, h = sid
        n = self.inst.n
        if not (1 <= i <= n and 1 <= j <= n and 0 <= h <= n):
            raise PreconditionError(f"subproblem {sid} out of range for n={n}")

    def _cost(self, i: int, j: int, h: int) -> int:
        return self.levels[h][i][j]

    def cost_at(self, sid: tuple[int, int, int]) -> int:
        self._check(sid)
        return self._cost(*sid)

    def minimizers_at(self, sid: tuple[int, int, int], inner: bool = False) -> MinimizerReport:
        """Optimal cuts for the split term of a subproblem, over every
        positional cut from the first to the last member.

        With ``inner=True`` the scan is restricted to cuts strictly
        inside the interval, l in [i+1, j-2]; cuts that slice off a
        single boundary position are excluded.
        """
        self._check(sid)
        i, j, h = sid
        inst = self.inst
        mn = inst.first_member(i, j, h)
        mx = inst.last_member(i, j, h)
        if mn is None or mn == mx:
            raise PreconditionError(f"no valid cut: fewer than two keys in {(i, j, h)}")
        if inner:
            mn, mx = max(mn, i + 1), min(mx, j - 1)
            if mn >= mx:
                raise PreconditionError(f"no valid cut in inner range for {(i, j, h)}")
        best, mins = _best_cuts(self.levels[h], i, j, mn, mx)
        return MinimizerReport(mins, best)

    def step(self, sid: tuple[int, int, int]) -> tuple:
        """What an optimal tree does first here, as a ``build_tree``
        step; see ``_step``."""
        self._check(sid)
        return _step(self.inst, self._cost, sid)

    def choice_at(self, sid: tuple[int, int, int]) -> tuple[str, int | None]:
        """('leaf', key), ('eq', key) or ('split', cut): the head of
        ``step``."""
        return self.step(sid)[:2]

    def reconstruct(self, sid: tuple[int, int, int]) -> Node:
        """Optimal tree for a subproblem, with ``step``'s tie-breaks."""
        return build_tree(sid, self.step)


def _check_budget(n: int) -> None:
    raw = os.environ.get(MEM_LIMIT_ENV)
    if not raw:
        return
    try:
        limit_mb = int(raw)
    except ValueError:
        raise PreconditionError(f"{MEM_LIMIT_ENV} must be an integer, got {raw!r}")
    # at most one fresh row per (level, row-touched) pair, shared rows
    # only lower it, plus the two member mirrors of at most (n+1)^2 entries
    fresh_rows = n * (n + 1) // 2 + n + 1
    est = fresh_rows * ((n + 1) * 8 + 64) + 2 * (n + 1) * ((n + 1) * 8 + 64)
    if est > limit_mb * (1 << 20):
        raise MemoryBudgetError(
            f"n={n} needs about {est // (1 << 20) + 1} MB of tables, over the "
            f"{limit_mb} MB budget ({MEM_LIMIT_ENV})"
        )


def _fill(inst: WeightedInstance) -> DpTable:
    """The all-levels table, without a tree."""
    n = inst.n
    _check_budget(n)
    table = DpTable(inst)
    asc = inst.asc_perm
    pw, pc = inst._prefix
    prev = [[0] * (n + 1)] * (n + 1)
    table.levels.append(prev)
    # members are numbered 1..h in key order at level h, 0 is a dummy:
    # R[a][b] == K[b][a] is the cost of members a..b (0 when b <= a),
    # pos[a] the key of member a
    R = [[0]]
    K = [[0]]
    pos = [0]
    cells = cuts = eq_prunes = lt_prunes = 0
    for h in range(1, n + 1):
        p = asc[h - 1]
        pc_h = pc[h]
        t = pc_h[p]
        wp = inst.weight_of(p)
        wp7 = 7 * wp
        wp4 = 4 * wp
        # member t is new: every entry for a..b with a <= t <= b moves to
        # the slot of the same members at level h, so before it is
        # overwritten it holds the level h-1 cost of a..b without t
        for r in R:
            r.insert(t, r[t - 1])
        R.insert(t, R[t][:] if t < h else [0] * (h + 1))
        for r in K[t:]:
            r.insert(t, r[t])
        K.insert(t, K[t - 1] + [0])
        pos.insert(t, p)
        pw_h = pw[h]
        mw = [pw_h[k] for k in pos]
        for a in range(t, 0, -1):
            ra = R[a]
            mw_a = mw[a - 1]
            for b in range(max(t, a + 1), h + 1):
                cells += 1
                mw_b = mw[b]
                w = mw_b - mw_a
                if wp7 >= 3 * w:
                    eq_prunes += 1
                    v = w + ra[b]
                else:
                    # _quarter(mw, a, b), inlined for the hot loop
                    q = (w + 3) // 4
                    lo = bisect_left(mw, mw_a + q, a, b)
                    hi = bisect_right(mw, mw_b - q, a, b)
                    if lo >= hi:
                        # only a member above half of w empties the range,
                        # and such a member meets the 3/7 rule
                        raise TwocstError(
                            f"empty quarter range below the 3/7 threshold at {(pos[a], pos[b], h)}"
                        )
                    cuts += hi - lo
                    split = min(map(add, ra[lo:hi], K[b][lo + 1 : hi + 1]))
                    if wp4 < w:
                        lt_prunes += 1
                        v = w + split
                    else:
                        eq_rest = ra[b]
                        v = w + (eq_rest if eq_rest <= split else split)
                ra[b] = K[b][a] = v
        # positional rows: keys i..j hold members a..pc_h[j] for every i
        # after member a - 1 up to member a, so those rows are one list
        cur = list(prev)
        tail = pc_h[p:]
        for a in range(1, t + 1):
            row = prev[pos[a]][:p]
            row += map(R[a].__getitem__, tail)
            cur[pos[a - 1] + 1 : pos[a] + 1] = [row] * (pos[a] - pos[a - 1])
        table.levels.append(cur)
        prev = cur
    table.cells_computed = cells
    table.cuts_scanned = cuts
    table.eq_prunes = eq_prunes
    table.lt_prunes = lt_prunes
    return table


def solve_full(inst: WeightedInstance) -> tuple[DpTable, int, Node]:
    """All-levels exact solve: returns the table, the optimal cost and
    one optimal tree (deterministic tie-breaking)."""
    table = _fill(inst)
    n = inst.n
    return table, table.levels[n][1][n], table.reconstruct((1, n, n))


def root_split_costs(inst: WeightedInstance, table: DpTable | None = None) -> tuple[int, int]:
    """(best equality-rooted cost, best cut-rooted cost) for the whole
    instance; their minimum is the optimum."""
    if inst.n < 2:
        raise PreconditionError("root comparison needs at least two keys")
    if table is None:
        table = _fill(inst)
    n = inst.n
    eq_cost = inst.total + table.cost_at((1, n, n - 1))
    lt_cost = inst.total + table.minimizers_at((1, n, n)).split_cost
    return eq_cost, lt_cost
