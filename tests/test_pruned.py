"""Threshold-pruned solver, refined intervals, and the two bounded-weight
speedups."""

import hashlib
import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twocst import (
    cost,
    geometric_chain_closed_form,
    geometric_instance,
    hard_instance,
    hole_free_costs,
    new_instance,
    pattern_instance,
    random_instance,
    refined_interval,
    solve_bounded_const,
    solve_bounded_log,
    solve_full,
    solve_pruned,
    validate,
)
from twocst.dp_core import DpTable, _level
from twocst.errors import PreconditionError, TwocstError

WEIGHTS = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=11)
POSITIVE = st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=11)


@given(WEIGHTS)
@settings(max_examples=120, deadline=None)
def test_pruned_matches_full(ws):
    inst = new_instance(ws)
    _t, best_full, _tree = solve_full(inst)
    best, tree, _stats = solve_pruned(inst)
    assert best == best_full
    assert validate(tree, inst).ok
    assert cost(tree, inst) == best


class TestRefinedInterval:
    def test_needs_two_members(self):
        inst = new_instance([1, 2, 3])
        with pytest.raises(PreconditionError):
            refined_interval(inst, (1, 3, 1))

    @pytest.mark.parametrize("sid", [(1, 3, -1), (1, 4, 3), (0, 3, 3)])
    def test_out_of_range_subproblem_is_refused(self, sid):
        # h = -1 and i = 0 would read a wrapped row[-1], j = n + 1 past the row
        with pytest.raises(PreconditionError, match="outside n=3"):
            refined_interval(new_instance([1, 2, 3]), sid)

    def test_known_values(self):
        # equal weights: every middle-half cut is quarter-balanced
        inst = new_instance([1] * 8)
        iv = refined_interval(inst, (1, 8, 8))
        assert (iv.lo, iv.hi, iv.empty) == (2, 6, False)
        assert list(iv.positions()) == list(range(2, 7))
        assert 4 in iv and 1 not in iv and 7 not in iv

    def test_heavy_end_is_empty(self):
        # one end holds 10 of 12 units: no cut keeps a quarter on each side
        inst = new_instance([10, 1, 1])
        iv = refined_interval(inst, (1, 3, 3))
        assert iv.empty
        assert iv.width() == 0
        assert list(iv.positions()) == []

    @given(WEIGHTS, st.data())
    @settings(max_examples=150)
    def test_matches_linear_scan(self, ws, data):
        inst = new_instance(ws)
        n = inst.n
        i = data.draw(st.integers(1, n))
        j = data.draw(st.integers(i, n))
        h = data.draw(st.integers(0, n))
        if inst.sub_count(i, j, h) < 2:
            return
        w = inst.sub_weight(i, j, h)
        mn = inst.first_member(i, j, h)
        mx = inst.last_member(i, j, h)
        by_scan = [
            l
            for l in range(mn, mx)
            if 4 * inst.sub_weight(i, l, h) >= w and 4 * (w - inst.sub_weight(i, l, h)) >= w
        ]
        iv = refined_interval(inst, (i, j, h))
        assert list(iv.positions()) == by_scan
        # contiguity comes with the construction, but assert it anyway
        if by_scan:
            assert by_scan == list(range(by_scan[0], by_scan[-1] + 1))


class TestCounters:
    def test_single_key_counts_one_state(self):
        _best, _tree, stats = solve_pruned(new_instance([5]))
        assert stats.subproblems_evaluated == 1
        assert stats.cutpoints_scanned == 0

    def test_heavy_top_prunes_cuts(self):
        # 7*wmax >= 3*W everywhere: every multi-key state resolves equality-only
        best, _tree, stats = solve_pruned(new_instance([1, 100, 1]))
        assert best == 104
        assert stats.cutpoints_scanned == 0
        assert stats.eq_prunes > 0
        assert stats.lt_prunes == 0

    def test_hard_family_frozen_counters(self):
        _best, _tree, stats = solve_pruned(hard_instance(28))
        assert stats.subproblems_evaluated == 969
        assert stats.cutpoints_scanned == 2063
        assert stats.eq_prunes == 708
        assert stats.lt_prunes == 0

    # (subproblems_evaluated, cutpoints_scanned, eq_prunes, lt_prunes,
    # max_hole_depth); solve_pruned's rows count member runs and member
    # gaps, solve_bounded_log's positional states and cuts, and a change
    # in how much work one state does must not move them
    FROZEN = [
        (solve_pruned, "random", (1388, 7360, 281, 762, 5)),
        (solve_pruned, "pattern", (1299, 7616, 224, 799, 2)),
        (solve_pruned, "geometric", (111, 70, 39, 0, 0)),
        (solve_bounded_log, "random", (2024, 8458, 0, 762, 8)),
        (solve_bounded_log, "pattern", (1771, 8235, 0, 799, 4)),
    ]

    FAMILIES = {
        "random": lambda: random_instance(1, 1, 100, 60),
        "pattern": lambda: pattern_instance((1, 3), 60),
        "geometric": lambda: geometric_instance(Fraction(3, 5), 40),
        "hard": lambda: hard_instance(28),
    }

    @pytest.mark.parametrize("solve,family,expected", FROZEN)
    def test_frozen_counters(self, solve, family, expected):
        _best, _tree, s = solve(self.FAMILIES[family]())
        got = (s.subproblems_evaluated, s.cutpoints_scanned, s.eq_prunes, s.lt_prunes, s.max_hole_depth)
        assert got == expected

    # (states recorded, sha256 of "(a, b, h) branch" lines in insertion
    # order), one line per member run; the order is the order in which
    # states finish
    FROZEN_BRANCHES = {
        "random": (1331, "4629f5e6305cc1f36b6fcf53830c1190de97ce101a30d6ff174d680c1c4ce8db"),
        "pattern": (1240, "b2ec9e8c4fa0294c3d200868ee31ff6d907e5dcf1c60e684f9ebbbd1169767d1"),
        "geometric": (74, "a8851a5dc3c52348547a385cf25cc1aec66931d7f22278cede3dab25e7ac8f2e"),
        "hard": (944, "c546c41c72c254ab420ef6f04fb0561f5d6324a42e178403e6f3fd307a455745"),
    }

    @pytest.mark.parametrize("family", sorted(FROZEN_BRANCHES))
    def test_frozen_branches(self, family):
        s = solve_pruned(self.FAMILIES[family](), record_branches=True)[2]
        lines = [f"{sid} {branch}" for sid, branch in s.branches.items()]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == self.FROZEN_BRANCHES[family]

    @pytest.mark.parametrize("family", ["hard", "random"])
    def test_states_are_member_runs(self, family):
        # every state starts and ends on a member, so no two states
        # hold the same keys at different positions, and holds the key
        # of its level h
        inst = self.FAMILIES[family]()
        s = solve_pruned(inst, record_branches=True)[2]
        assert s.branches
        holed = [
            (i, j, h)
            for i, j, h in s.branches
            if (inst.first_member(i, j, h), inst.last_member(i, j, h)) != (i, j)
            or not i <= inst.asc_perm[h - 1] <= j
        ]
        assert holed == []

    def test_branch_recording(self):
        _best, _tree, stats = solve_pruned(new_instance([2, 1, 2, 1]), record_branches=True)
        assert stats.branches
        assert set(stats.branches.values()) <= {"eq-only", "lt-only", "both", "leaf"}


class TestBoundedLog:
    def test_rejects_zero_weights(self):
        with pytest.raises(PreconditionError):
            solve_bounded_log(new_instance([1, 0, 2]))

    @given(POSITIVE)
    @settings(max_examples=80, deadline=None)
    def test_matches_full(self, ws):
        inst = new_instance(ws)
        _t, best_full, _tree = solve_full(inst)
        best, tree, _stats = solve_bounded_log(inst)
        assert best == best_full
        assert validate(tree, inst).ok

    def test_equal_weights_stay_shallow(self):
        # all-equal weights never exclude more than a couple of keys
        best, _tree, stats = solve_bounded_log(new_instance([1] * 16))
        assert best == 64
        assert stats.max_hole_depth == 2

    def test_geometric_ramp_goes_deep(self):
        best, _tree, stats = solve_bounded_log(new_instance([2**i for i in range(13)]))
        assert best == 16368
        assert stats.max_hole_depth == 11

    @pytest.mark.parametrize(
        "solve", [solve_bounded_log, solve_pruned], ids=["bounded_log", "pruned"]
    )
    def test_trees_match_full(self, solve):
        # weights 1..3, 1..100, powers of two up to 2^30 and ties, at
        # every n from 11 to 30, where quarter ranges are much narrower
        # than the member span; solve_pruned, which takes zero weights,
        # also draws mostly zeros
        rng = random.Random(15)
        draws = [
            lambda: rng.randint(1, 3),
            lambda: rng.randint(1, 100),
            lambda: 2 ** rng.randint(0, 30),
            lambda: rng.choice((2, 2, 7)),
        ]
        if solve is solve_pruned:
            draws.append(lambda: rng.choice((0, 0, 1, 5)))
        for n in range(11, 31):
            for draw in draws:
                inst = new_instance([draw() for _ in range(n)])
                _t, best_full, tree_full = solve_full(inst)
                best, tree, _stats = solve(inst)
                assert (best, tree) == (best_full, tree_full), inst.weights

    def test_geometric_chain_counts(self):
        # in a geometric 1/2 chain each state's heaviest member holds over
        # half of its weight, so its quarter range is at most the one cut
        # just after that member, and work grows as n² rather than n³
        _best, _tree, s = solve_bounded_log(geometric_instance(Fraction(1, 2), 60))
        assert (s.subproblems_evaluated, s.cutpoints_scanned, s.max_hole_depth) == (3481, 1711, 58)


class TestBoundedConst:
    def test_validates_weight_range(self):
        # zero weights lie in [0, limit], also all zeros with the default bound
        for ws, limit in (([1, 0, 2], 3), ([0, 0, 0], None)):
            inst = new_instance(ws)
            _t, best_full, tree_full = solve_full(inst)
            assert solve_bounded_const(inst, limit)[:2] == (best_full, tree_full)
        with pytest.raises(PreconditionError, match=r"^weight 9 of key 2 outside \[0, 3\]$"):
            solve_bounded_const(new_instance([1, 9]), 3)
        with pytest.raises(PreconditionError, match="positive int"):
            solve_bounded_const(new_instance([1, 1]), 0)

    def test_rejects_bool_limit(self):
        # True is an int subclass; as a bound it must not pass for 1
        with pytest.raises(PreconditionError):
            solve_bounded_const(new_instance([1, 1]), True)

    def test_default_limit_is_max_weight(self):
        best, tree, _stats = solve_bounded_const(new_instance([2, 3, 1, 3]))
        _t, best_full, _tree = solve_full(new_instance([2, 3, 1, 3]))
        assert best == best_full

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_matches_full_small_weights(self, ws):
        inst = new_instance(ws)
        _t, best_full, tree_full = solve_full(inst)
        best, tree, _stats = solve_bounded_const(inst, 3)
        assert best == best_full
        assert validate(tree, inst).ok
        assert cost(tree, inst) == best
        assert tree == tree_full

    def test_long_uniform_instance(self):
        # window size 4*limit = 4 stays far below n = 40
        inst = new_instance([1] * 40)
        best, tree, _stats = solve_bounded_const(inst, 1)
        _t, best_full, _ = solve_full(inst)
        assert best == best_full
        assert validate(tree, inst).ok

    # windows start at every multiple of 4R in the prefix weights and hold
    # under 8R of weight, so a total weight of at least 8R gives several
    # windows and intervals past them; the examples are such draws with and
    # without zeros
    @given(
        st.sampled_from([(2, 17, 40), (3, 25, 60)]).flatmap(
            lambda c: st.lists(st.integers(min_value=0, max_value=c[0]), min_size=c[1], max_size=c[2])
        )
    )
    @example(list(random_instance(4, 1, 3, 60).weights))
    @example(list(random_instance(1, 0, 3, 60).weights))
    @settings(max_examples=25, deadline=None)
    def test_several_windows_match_full(self, ws):
        inst = new_instance(ws)
        n = inst.n
        table, best_full, tree_full = solve_full(inst)
        costs = hole_free_costs(inst)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert costs[i][j] == table.cost_at((i, j, n))
        best, tree, _stats = solve_bounded_const(inst)
        assert best == best_full
        assert validate(tree, inst).ok
        assert cost(tree, inst) == best
        # the same tie-breaks across window seams and outer intervals
        assert tree == tree_full

    def test_window_tables_build_no_tree(self, monkeypatch):
        # weights 1..2 give windows of at most 16 keys every 8 or fewer;
        # costs alone must not rebuild a tree in any window table
        inst = random_instance(1, 1, 2, 40)
        want = solve_full(inst)[0]
        calls = []
        real = DpTable.reconstruct

        def counting(self, sid):
            calls.append(sid)
            return real(self, sid)

        monkeypatch.setattr(DpTable, "reconstruct", counting)
        costs = hole_free_costs(inst)
        assert costs[1][inst.n] == want.cost_at((1, inst.n, inst.n))
        assert calls == []

    # (subproblems_evaluated, cutpoints_scanned): window-table cells and
    # cuts plus the intervals outside every window and their
    # quarter-range cuts
    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda: random_instance(1, 1, 3, 60), (2447, 20347)),
            (lambda: pattern_instance((1, 3), 60), (1480, 18329)),
            (lambda: random_instance(1, 0, 3, 60), (2900, 21610)),
        ],
        ids=["random", "pattern", "random-zeros"],
    )
    def test_frozen_counters(self, make, expected):
        _best, _tree, s = solve_bounded_const(make())
        assert (s.subproblems_evaluated, s.cutpoints_scanned) == expected

    def test_zero_weights_keep_windows_small(self):
        # windows measured in weight: zeros do not grow them to a full fill
        inst = random_instance(1, 0, 3, 120)
        _best, _tree, s = solve_bounded_const(inst)
        assert 4 * s.subproblems_evaluated < solve_full(inst)[0].cells_computed


def test_zero_heavy_weights_agree_with_full():
    # zero-weight keys produce ties everywhere; the pruned solver must not drift
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 10)
        ws = [rng.choice((0, 0, 1, 2, 9)) for _ in range(n)]
        inst = new_instance(ws)
        _t, best_full, _tree = solve_full(inst)
        best, tree, _stats = solve_pruned(inst)
        assert best == best_full
        assert validate(tree, inst).ok


def test_deep_chains_leave_the_recursion_limit_alone():
    # geometric 1/2 weights make every optimal tree an equality chain:
    # solve_pruned recurses through 1,499 nested states at n = 1500 and
    # solve_bounded_log through hole depth 58 at n = 60, both far past a
    # limit only 50 frames above the caller
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        limit = sys.getrecursionlimit()
        for solve, n in ((solve_pruned, 1500), (solve_bounded_log, 60)):
            inst = geometric_instance(Fraction(1, 2), n)
            best, _tree, stats = solve(inst)
            assert best == geometric_chain_closed_form(Fraction(1, 2), n) * inst.scale
            assert sys.getrecursionlimit() == limit
        assert stats.max_hole_depth == 58
    finally:
        sys.setrecursionlimit(before)


@given(WEIGHTS, st.data())
@settings(max_examples=150)
def test_level_matches_direct_scan(ws, data):
    inst = new_instance(ws)
    n = inst.n
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(i, n))
    h = data.draw(st.integers(0, n))
    count = data.draw(st.integers(0, inst.sub_count(i, j, h)))
    lightest = sorted(inst.rank_of_key(k) for k in range(i, j + 1))[:count]
    expected = lightest[-1] if count else 0
    assert _level(inst._prefix[1], i, j, count, h) == expected
