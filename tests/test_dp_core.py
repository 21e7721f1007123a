"""The full cubic-ish dynamic program over rank-layered subproblems."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twocst import (
    MemoryBudgetError,
    cost,
    hard_instance,
    new_instance,
    root_split_costs,
    solve_full,
    validate,
)
from twocst.dp_core import MEM_LIMIT_ENV, _thresholds
from twocst.errors import PreconditionError
from twocst.pruned import refined_interval

WEIGHTS = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=11)


class TestFrozenValues:
    def test_heavy_mid_three_keys(self):
        inst = new_instance([1, 10, 1])
        table, best, tree = solve_full(inst)
        n = 3
        assert table.cost_at((1, 2, n)) == 11
        assert table.cost_at((2, 3, n)) == 11
        assert table.cost_at((1, 3, n)) == 14
        assert table.cost_at((2, 2, n)) == 0
        assert best == 14
        assert validate(tree, inst).ok

    def test_single_key_costs_nothing(self):
        _table, best, tree = solve_full(new_instance([5]))
        assert best == 0
        assert tree == __import__("twocst").Leaf(1)

    def test_equal_weight_powers_of_two(self):
        # 2**s equal keys admit a perfectly balanced cut tree: cost s * 2**s
        for s in (1, 2, 3, 4):
            n = 2**s
            _t, best, _tree = solve_full(new_instance([1] * n))
            assert best == s * n

    def test_figure_instance_optimum(self):
        _t, best, _tree = solve_full(new_instance([10, 1, 2, 3, 1, 3, 1, 11]))
        assert best == 80


class TestLayering:
    def test_skipped_rank_reuses_previous_level(self):
        inst = new_instance([10, 1, 2, 3, 1, 3, 1, 11])
        table, _best, _tree = solve_full(inst)
        n = inst.n
        for h in range(1, n + 1):
            a_h = inst.key_of_rank(h)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    if not (i <= a_h <= j):
                        assert table.cost_at((i, j, h)) == table.cost_at((i, j, h - 1))

    def test_zero_member_and_singleton_cells_cost_zero(self):
        inst = new_instance([3, 1, 2])
        table, _b, _t = solve_full(inst)
        assert table.cost_at((2, 2, 3)) == 0
        assert table.cost_at((1, 1, 0)) == 0
        # [1,3] at h=1 holds only the lightest key
        assert table.cost_at((1, 3, 1)) == 0


@given(WEIGHTS)
@settings(max_examples=60)
def test_reconstruction_matches_table_cost(ws):
    inst = new_instance(ws)
    table, best, tree = solve_full(inst)
    assert cost(tree, inst) == best
    assert validate(tree, inst).ok


@given(WEIGHTS)
@settings(max_examples=60)
def test_subtree_reconstruction_any_cell(ws):
    inst = new_instance(ws)
    table, _best, _tree = solve_full(inst)
    n = inst.n
    i, j = 1, n
    sid = (i, j, max(1, n - 1))
    keys = inst.sub_keys(*sid)
    if not keys:
        return
    sub = table.reconstruct(sid)
    assert validate(sub, inst, keys=keys).ok
    assert cost(sub, inst) == table.cost_at(sid)


class TestMinimizers:
    def test_standard_and_inner_ranges(self):
        inst = new_instance([0, 2, 2, 0, 1, 1])
        table, _b, _t = solve_full(inst)
        std = table.minimizers_at((1, 6, 6))
        assert std.minimizers == (4,)
        assert std.canonical == 4
        inner = table.minimizers_at((2, 6, 6), inner=True)
        assert inner.minimizers == (3,)
        std2 = table.minimizers_at((2, 6, 6))
        assert std2.minimizers == (2, 3)

    def test_minimizer_needs_two_members(self):
        inst = new_instance([1, 2, 3])
        table, _b, _t = solve_full(inst)
        with pytest.raises(PreconditionError):
            table.minimizers_at((1, 3, 1))

    def test_split_cost_matches_scan(self):
        inst = new_instance([4, 1, 3, 2, 5])
        table, _b, _t = solve_full(inst)
        rep = table.minimizers_at((1, 5, 5))
        by_hand = min(
            table.cost_at((1, l, 5)) + table.cost_at((l + 1, 5, 5)) for l in range(1, 5)
        )
        assert rep.split_cost == by_hand


@pytest.mark.parametrize("sid", [(0, 3, 3), (1, 4, 3), (1, 3, 4), (1, 3, -1), (4, 3, 3)])
def test_out_of_range_sid_is_rejected(sid):
    table, _b, _t = solve_full(new_instance([1, 2, 3]))
    for query in (table.cost_at, table.step, table.choice_at, table.reconstruct, table.minimizers_at):
        with pytest.raises(PreconditionError, match="out of range"):
            query(sid)


def test_thresholds_match_the_literal_inequalities():
    # every member weight w in 0..7α+1 around both thresholds, α in 0..60
    for alpha in range(61):
        eq_max, cut_min = _thresholds(alpha)
        for w in range(7 * alpha + 2):
            assert (w <= eq_max) == (7 * alpha >= 3 * w), (alpha, w)
            assert (w > cut_min) == (4 * alpha < w), (alpha, w)


def test_root_split_costs_identity():
    inst = new_instance([10, 1, 2, 3, 1, 3, 1, 11])
    eq_cost, lt_cost = root_split_costs(inst)
    _t, best, _tree = solve_full(inst)
    assert min(eq_cost, lt_cost) == best


def test_root_split_costs_single_key():
    with pytest.raises(PreconditionError):
        root_split_costs(new_instance([7]))


def test_memory_budget_env(monkeypatch):
    monkeypatch.setenv(MEM_LIMIT_ENV, "0")
    with pytest.raises(MemoryBudgetError):
        solve_full(new_instance([1] * 8))
    monkeypatch.setenv(MEM_LIMIT_ENV, "512")
    _t, best, _tree = solve_full(new_instance([1] * 8))
    assert best == 24


def test_counters_monotone_in_n():
    table_small, _, _ = solve_full(new_instance([1] * 6))
    table_big, _, _ = solve_full(new_instance([1] * 12))
    assert table_big.cells_computed > table_small.cells_computed
    assert table_big.cuts_scanned > table_small.cuts_scanned


def reference_levels(inst):
    """Unpruned fill: every cell scans every cut leaving member keys on
    both sides, and takes min(equality, best cut) with no threshold rule."""
    n = inst.n
    levels = [[[0] * (n + 1) for _ in range(n + 1)]]
    for h in range(1, n + 1):
        p = inst.key_of_rank(h)
        prev = levels[-1]
        cur = [row[:] for row in prev]
        for i in range(p, 0, -1):
            for j in range(max(p, i + 1), n + 1):
                if inst.sub_count(i, j, h) < 2:
                    continue
                mn = inst.first_member(i, j, h)
                mx = inst.last_member(i, j, h)
                split = min(cur[i][l] + cur[l + 1][j] for l in range(mn, mx))
                cur[i][j] = inst.sub_weight(i, j, h) + min(prev[i][j], split)
        levels.append(cur)
    return levels


def _seeded_weights():
    rng = random.Random(20021)
    out = []
    for n in (12, 25, 40):
        out.append([rng.randint(0, 9) for _ in range(n)])
        out.append([rng.randint(1, 3) for _ in range(n)])
        geo = [2**e for e in range(n)]
        rng.shuffle(geo)
        out.append(geo)
    out.append(list(hard_instance(28).weights))
    return out


class TestPrunedFill:
    @given(WEIGHTS)
    @settings(max_examples=200)
    def test_levels_equal_unpruned_fill(self, ws):
        inst = new_instance(ws)
        table, _best, _tree = solve_full(inst)
        assert table.levels == reference_levels(inst)

    @pytest.mark.parametrize("ws", _seeded_weights())
    def test_levels_equal_unpruned_fill_seeded(self, ws):
        inst = new_instance(ws)
        table, best, _tree = solve_full(inst)
        ref = reference_levels(inst)
        assert table.levels == ref
        assert best == ref[inst.n][1][inst.n]

    def test_hard_counters_match_quarter_ranges(self):
        # one cell per distinct member set a..b holding the new key, and
        # one cut per member gap of its quarter range: each such gap has
        # exactly one member, its left end, among the quarter positions
        inst = hard_instance(56)
        table, _best, _tree = solve_full(inst)
        assert table.cells_computed == 8300
        assert table.cuts_scanned == 51342
        n = inst.n
        cells = heavy = gaps = 0
        for h in range(1, n + 1):
            p = inst.key_of_rank(h)
            wp = inst.weight_of(p)
            members = inst.sub_keys(1, n, h)
            for a in members:
                for b in members:
                    if not a <= p <= b or a == b:
                        continue
                    cells += 1
                    w = inst.sub_weight(a, b, h)
                    if 7 * wp >= 3 * w:
                        heavy += 1
                    else:
                        cuts = refined_interval(inst, (a, b, h)).positions()
                        gaps += sum(1 for l in cuts if inst.rank_of_key(l) <= h)
        assert cells == table.cells_computed
        assert gaps == table.cuts_scanned
        assert heavy == table.eq_prunes == 5355
