"""Exhaustive-search reference solver."""

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twocst import brute_force_optimal, cost, new_instance, solve_full, validate
from twocst.errors import PreconditionError
from twocst.tree import EqNode, Leaf, LtNode


def test_hand_checked_values():
    assert brute_force_optimal(new_instance([7]))[0] == 0
    assert brute_force_optimal(new_instance([1, 1]))[0] == 2
    assert brute_force_optimal(new_instance([1, 10, 1]))[0] == 14
    # heavy key first via equality, the rest one deeper
    assert brute_force_optimal(new_instance([1, 1, 100]))[0] == 104


def test_oracle_tree_is_valid_and_priced_right():
    inst = new_instance([3, 0, 2, 5, 1])
    best, tree = brute_force_optimal(inst)
    assert validate(tree, inst).ok
    assert cost(tree, inst) == best


def test_key_subset_search():
    inst = new_instance([3, 0, 2, 5, 1])
    best, tree = brute_force_optimal(inst, keys=[2, 4, 5])
    assert validate(tree, inst, keys=[2, 4, 5]).ok
    assert cost(tree, inst) == best


def test_subset_preconditions():
    inst = new_instance([1, 2, 3])
    with pytest.raises(PreconditionError):
        brute_force_optimal(inst, keys=[])
    with pytest.raises(PreconditionError):
        brute_force_optimal(inst, keys=[1, 1])
    with pytest.raises(PreconditionError):
        brute_force_optimal(inst, keys=[0, 1])


@pytest.mark.parametrize(
    "ws, best, tree",
    [
        # all-zero weights: equality tests in ascending key order
        ([0, 0, 0], 0, EqNode(1, Leaf(1), EqNode(2, Leaf(2), Leaf(3)))),
        # no equality test attains the optimum, so the leftmost best cut does
        (
            [1, 1, 1, 1],
            8,
            LtNode(3, EqNode(1, Leaf(1), Leaf(2)), EqNode(3, Leaf(3), Leaf(4))),
        ),
        # keys 1 and 4 tie; the lower key is tested first
        (
            [2, 1, 1, 2],
            12,
            EqNode(1, Leaf(1), EqNode(4, Leaf(4), EqNode(2, Leaf(2), Leaf(3)))),
        ),
    ],
)
def test_tie_break_trees(ws, best, tree):
    assert brute_force_optimal(new_instance(ws)) == (best, tree)


def test_size_cap():
    # each refusal comes before the 2^23-entry cost lists are allocated
    for ws, keys in (([1] * 23, None), ([1] * 30, list(range(4, 27)))):
        inst = new_instance(ws)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(PreconditionError, match="23 keys exceeds"):
                brute_force_optimal(inst, keys)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=7))
@settings(max_examples=80, deadline=None)
def test_oracle_agrees_with_full_dp(ws):
    inst = new_instance(ws)
    best_oracle, _ = brute_force_optimal(inst)
    _t, best_dp, _tree = solve_full(inst)
    assert best_oracle == best_dp


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=8), st.data())
@settings(max_examples=80, deadline=None)
def test_key_subset_matches_full_dp_on_the_subset(ws, data):
    inst = new_instance(ws)
    keys = data.draw(
        st.lists(st.integers(1, inst.n), min_size=1, max_size=inst.n, unique=True)
    )
    best, tree = brute_force_optimal(inst, keys)
    assert best == solve_full(new_instance([inst.weight_of(k) for k in sorted(keys)]))[1]
    assert validate(tree, inst, keys=keys).ok
    assert cost(tree, inst) == best
