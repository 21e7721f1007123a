"""Tree cost, structure checks, validation, serialization."""

import hashlib
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twocst import (
    EqNode,
    Leaf,
    LtNode,
    ParseError,
    TwocstError,
    brute_force_optimal,
    cost,
    depth_map,
    from_json,
    hard_instance,
    new_instance,
    pattern_instance,
    solve_bounded_const,
    solve_bounded_log,
    solve_full,
    solve_pruned,
    to_dot,
    to_json,
    validate,
)
from twocst.errors import PreconditionError
from twocst.tree import (
    build_tree,
    check_side_weight_all_edges,
    main_branch,
    side_weight,
    subtree_weight,
)

WEIGHTS = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=10)


def fig_tree():
    # depth profile {1:2, 2:4, 3:4, 4:5, 5:5, 6:4, 7:2, 8:2} over keys 1..8
    return LtNode(
        7,
        EqNode(
            1,
            Leaf(1),
            LtNode(
                4,
                EqNode(2, Leaf(2), Leaf(3)),
                EqNode(6, Leaf(6), EqNode(4, Leaf(4), Leaf(5))),
            ),
        ),
        EqNode(7, Leaf(7), Leaf(8)),
    )


FIG_WEIGHTS = [10, 1, 2, 3, 1, 3, 1, 11]


def test_cost_by_depth_profile():
    inst = new_instance(FIG_WEIGHTS)
    depths = depth_map(fig_tree())
    assert depths == {1: 2, 2: 4, 3: 4, 4: 5, 5: 5, 6: 4, 7: 2, 8: 2}
    by_hand = sum(inst.weight_of(k) * d for k, d in depths.items())
    assert by_hand == 88
    assert cost(fig_tree(), inst) == 88


def test_validate_accepts_figure_tree():
    inst = new_instance(FIG_WEIGHTS)
    report = validate(fig_tree(), inst)
    assert report.ok, report.defects


def test_validate_rejects_misrouted_tree():
    inst = new_instance([1, 2, 3])
    # keys 1 and 3 both land on the yes side of <2, so 3 is misrouted
    bad = LtNode(2, EqNode(1, Leaf(1), Leaf(3)), Leaf(2))
    report = validate(bad, inst)
    assert not report.ok


def test_validate_rejects_wrong_leaf_multiset():
    inst = new_instance([1, 2, 3])
    bad = LtNode(3, EqNode(1, Leaf(1), Leaf(2)), Leaf(2))
    assert not validate(bad, inst).ok


def test_subtree_and_side_weight():
    inst = new_instance(FIG_WEIGHTS)
    t = fig_tree()
    assert subtree_weight(t, inst) == 32
    # less-than root: side weight is the lighter child's subtree weight
    assert side_weight(t, inst) == min(
        subtree_weight(t.yes, inst), subtree_weight(t.no, inst)
    )
    eq = EqNode(2, Leaf(2), Leaf(1))
    assert side_weight(eq, new_instance([5, 7])) == 7
    assert side_weight(Leaf(1), inst) == 0


def test_main_branch_follows_heavier_child():
    inst = new_instance([1, 9])
    t = LtNode(2, Leaf(1), Leaf(2))
    branch = main_branch(t, inst)
    assert isinstance(branch[0], LtNode)
    assert branch[1] == Leaf(2)


@given(WEIGHTS)
def test_cost_equals_weighted_depth_sum(ws):
    # the internal-subtree-weight identity must agree with the depth sum
    inst = new_instance(ws)
    _table, best, tree = solve_full(inst)
    depths = depth_map(tree)
    assert cost(tree, inst) == sum(inst.weight_of(k) * d for k, d in depths.items())
    assert cost(tree, inst) == best


@given(WEIGHTS)
def test_optimal_trees_validate(ws):
    inst = new_instance(ws)
    _table, _best, tree = solve_full(inst)
    report = validate(tree, inst)
    assert report.ok, report.defects


def test_json_round_trip():
    t = fig_tree()
    assert from_json(to_json(t)) == t


def test_json_rejects_junk():
    for junk in (
        {"kind": "mystery"},
        {"kind": "mystery", "key": 1},
        {"kind": "lt", "key": 2, "yes": {"kind": "leaf", "key": 1}},
        [],
    ):
        with pytest.raises(ParseError):
            from_json(junk)


def leaf(key):
    return {"kind": "leaf", "key": key}


@pytest.mark.parametrize(
    "obj",
    [
        leaf(1.7),
        leaf(True),
        leaf("x"),
        leaf(None),
        {"kind": "eq", "key": 2.9, "yes": leaf(2), "no": leaf(1)},
        {"kind": "lt", "key": 2.0, "yes": leaf(1), "no": leaf(2)},
        {"kind": "lt", "key": 2, "yes": leaf(1), "no": leaf(2.0)},
    ],
    ids=["float-leaf", "bool-leaf", "str-leaf", "none-leaf", "float-eq", "float-lt", "float-under-lt"],
)
def test_json_refuses_keys_that_are_not_ints(obj):
    with pytest.raises(ParseError, match="is not an int"):
        from_json(obj)


@pytest.mark.parametrize(
    "yes",
    [leaf(1), leaf(2.0), {"kind": "eq", "key": 2, "yes": leaf(2), "no": leaf(2)}, {"key": 2}],
    ids=["other-key", "float-key", "eq-node", "no-kind"],
)
def test_json_refuses_eq_yes_sides_other_than_their_own_leaf(yes):
    with pytest.raises(ParseError):
        from_json({"kind": "eq", "key": 2, "yes": yes, "no": leaf(1)})


def test_dot_output_mentions_every_key():
    dot = to_dot(fig_tree())
    assert dot.startswith("digraph")
    for k in range(1, 9):
        assert str(k) in dot


def test_side_weight_monotone_flags_planted_violation():
    # root side weight 1, child side weight 5: the root's no-edge breaks monotonicity
    inst = new_instance([5, 5, 1, 6])
    t = EqNode(3, Leaf(3), EqNode(1, Leaf(1), LtNode(3, Leaf(2), Leaf(4))))
    assert check_side_weight_all_edges(t, inst)


@given(
    st.one_of(
        WEIGHTS,
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=12),
        st.lists(st.integers(min_value=2**30, max_value=2**30 + 9), min_size=1, max_size=12),
    )
)
def test_optimal_trees_have_side_weights_monotone_on_every_edge(ws):
    inst = new_instance(ws)
    _table, _best, tree = solve_full(inst)
    assert check_side_weight_all_edges(tree, inst) == []


def test_cost_refuses_keys_outside_the_instance():
    inst = new_instance([1, 2, 30])
    # key -1 must not read key 3's weight through a wrapped index
    with pytest.raises(PreconditionError):
        cost(LtNode(2, Leaf(1), EqNode(-1, Leaf(-1), Leaf(3))), inst)
    for k in (0, 4, -1):
        with pytest.raises(PreconditionError):
            inst.weight_of(k)
    assert [inst.weight_of(k) for k in (1, 2, 3)] == [1, 2, 30]


def test_tree_readers_are_iterative_on_deep_chains():
    # an equality chain far deeper than the recursion limit, with side
    # weights falling along it
    n = 5000
    inst = new_instance(list(range(n, 0, -1)))
    tree = build_tree(1, lambda k: ("leaf", k) if k == n else ("eq", k, k + 1))
    depths = depth_map(tree)
    assert depths[1] == 1 and depths[n] == n - 1
    assert cost(tree, inst) == sum(inst.weight_of(k) * d for k, d in depths.items())
    assert subtree_weight(tree, inst) == inst.total
    assert check_side_weight_all_edges(tree, inst) == []
    assert validate(tree, inst, keys=[1]).defects == [f"leaf keys {list(range(1, n + 1))} != expected [1]"]
    dot = to_dot(tree)
    assert to_dot(from_json(to_json(tree))) == dot
    assert dot.count("->") == 2 * (n - 1)


def test_build_tree_is_iterative_on_deep_chains():
    depth = 100_000

    def step(k):
        return ("leaf", k) if k == depth else ("eq", k, k + 1)

    node = build_tree(1, step)
    for k in range(1, depth):
        assert isinstance(node, EqNode) and node.key == k and node.yes == Leaf(k)
        node = node.no
    assert node == Leaf(depth)


def test_build_tree_split_encodes_cut_after_l():
    steps = {"root": ("split", 2, "a", "b"), "a": ("eq", 1, "c"), "b": ("leaf", 3), "c": ("leaf", 2)}
    tree = build_tree("root", steps.__getitem__)
    assert tree == LtNode(3, EqNode(1, Leaf(1), Leaf(2)), Leaf(3))
    assert validate(tree, new_instance([1, 1, 1])).ok


def test_build_tree_rejects_empty_subproblem():
    steps = {"root": ("eq", 1, "rest"), "rest": ("leaf", None)}
    with pytest.raises(PreconditionError):
        build_tree("root", steps.__getitem__)


def _pin_weights() -> list[list[int]]:
    """Seeded instances with zeros, ties, 2**30-scale weights and
    shuffled powers of two, plus a hard and two pattern instances."""
    out: list[list[int]] = []
    for seed in range(8):
        rng = random.Random(seed)
        n = 4 + seed
        out.append([rng.randint(0, 9) for _ in range(n)])
        out.append([rng.randint(1, 3) for _ in range(n + 6)])
        out.append([rng.randint(1, 4) * 2**30 + rng.randint(0, 3) for _ in range(n)])
        geo = [2**k for k in range(n)]
        rng.shuffle(geo)
        out.append(geo)
    for seed in (40, 41, 42):
        rng = random.Random(seed)
        out.append([rng.randint(1, 3) for _ in range(30)])
        out.append([rng.randint(1, 100) for _ in range(18)])
    out.append(list(hard_instance(28).weights))
    out.append(list(pattern_instance((1, 3), 24).weights))
    out.append(list(pattern_instance((1, 2, 5), 30).weights))
    return out


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _tree_line(tree) -> str:
    return json.dumps(to_json(tree), sort_keys=True)


# sha256 over the JSON of each solver's tree on every admissible pin
# instance; the constants date from before the solvers shared one tree
# builder and must not move: a changed tie-break that keeps the cost
# still changes the tree
PINNED_TREES = {
    "full": "140927fcb803eca477d8ab65d145a643b4f3dac8ef58e33b76ef9bf2eb7478b3",
    "pruned": "140927fcb803eca477d8ab65d145a643b4f3dac8ef58e33b76ef9bf2eb7478b3",
    "bounded-log": "50b0c5ef460b40f438a1035ec790cc7de69e53c22b76b33327ac0d97723ffe02",
    "bounded-const": "8a6bf30044636cde287379e0bbb7acc57dbf03482029028d4d2f931acc6e1d69",
}
PINNED_CHOICES = "f47b10b1b69e5c02cdb3f413baaf549115bf3fa155e85a2b634662120da8e750"
# the same digest over the oracle's trees on the pin instances with
# n <= 12, recorded before any rewrite of the oracle
PINNED_ORACLE = "5e83218b2694480f1a13a0fc70dbcf5beb128d7eeaa615a2ca1f506f28f07ef8"


# sha256 over the bytes ``twocst solve --tree/--dot`` writes for the full
# solver's tree on every pin instance: the JSON with indent=2 in the key
# order ``to_json`` builds, and the dot text; the constants date from
# before the tree traversals shared one walk and one fold
PINNED_TREE_FILES = {
    "json": "89883fbc9aae69f19f1cf50b04d5db197eeede3bc9ecb2a2eac1addd2969f679",
    "dot": "0099b7041924da3079a8c7a57d699f1fc681b1ef16e8c4857be01a85ce428686",
}


def test_tree_file_bytes_are_pinned():
    trees = [solve_full(new_instance(ws))[2] for ws in _pin_weights()]
    assert len(trees) == 41
    got = {
        "json": _digest(json.dumps(to_json(t), indent=2) for t in trees),
        "dot": _digest(to_dot(t) for t in trees),
    }
    assert got == PINNED_TREE_FILES


def test_solver_trees_are_pinned():
    lines: dict[str, list[str]] = {name: [] for name in PINNED_TREES}
    for ws in _pin_weights():
        inst = new_instance(ws)
        lines["full"].append(_tree_line(solve_full(inst)[2]))
        lines["pruned"].append(_tree_line(solve_pruned(inst)[1]))
        if min(ws) >= 1:
            lines["bounded-log"].append(_tree_line(solve_bounded_log(inst)[1]))
        if max(ws) <= 3 and min(ws) >= 1:
            lines["bounded-const"].append(_tree_line(solve_bounded_const(inst)[1]))
    assert {name: len(got) for name, got in lines.items()} == {
        "full": 41,
        "pruned": 41,
        "bounded-log": 35,
        "bounded-const": 12,
    }
    assert {name: _digest(got) for name, got in lines.items()} == PINNED_TREES


def test_choices_and_subtrees_are_pinned():
    lines: list[str] = []
    for ws in _pin_weights():
        if len(ws) > 10:
            continue
        inst = new_instance(ws)
        table = solve_full(inst)[0]
        n = inst.n
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                for h in range(n + 1):
                    try:
                        sub = _tree_line(table.reconstruct((i, j, h)))
                    except TwocstError as exc:
                        sub = type(exc).__name__
                    lines.append(f"{ws} {(i, j, h)} {table.choice_at((i, j, h))} {sub}")
    assert len(lines) == 6275
    assert _digest(lines) == PINNED_CHOICES


def test_oracle_trees_are_pinned():
    lines = [
        _tree_line(brute_force_optimal(new_instance(ws))[1])
        for ws in _pin_weights()
        if len(ws) <= 12
    ]
    assert len(lines) == 27
    assert _digest(lines) == PINNED_ORACLE
