"""Comparison trees built from equality and less-than tests.

A tree classifies queries drawn from the key set: internal nodes test
either ``query == key`` or ``query < key`` and leaves name the key a
successful search ends at.  The cost of a tree is the weighted number
of tests performed, which equals both the weighted leaf depth sum and
the sum of subtree weights over internal nodes; ``cost`` computes the
two independently and insists they agree.

Every solver that produces a tree rebuilds it
with ``build_tree(root, step)``, where ``step(state)`` names the test
heading the subtree for ``state``:

* ``("leaf", key)``: a leaf; a key of None marks an empty subproblem,
  which has no tree and raises ``PreconditionError``;
* ``("eq", key, rest)``: ``query == key``, with ``rest``'s subtree on
  the no side;
* ``("split", l, left, right)``: the cut after key l, built as
  ``LtNode(l + 1)`` over ``left``'s and ``right``'s subtrees.

Finished trees are read through two helpers with explicit stacks, so
deep chains never hit the recursion limit: ``_walk`` yields the nodes
in pre-order and ``_fold`` folds values from the leaves up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar, Union

from .errors import ParseError, PreconditionError, TwocstError
from .instance import WeightedInstance


@dataclass(frozen=True)
class Leaf:
    key: int


@dataclass(frozen=True)
class EqNode:
    """Tests ``query == key``; yes resolves to the key's leaf."""

    key: int
    yes: "Node"
    no: "Node"


@dataclass(frozen=True)
class LtNode:
    """Tests ``query < key``; a cut after key l is encoded as key=l+1."""

    key: int
    yes: "Node"
    no: "Node"


Node = Union[Leaf, EqNode, LtNode]
T = TypeVar("T")


def build_tree(root: object, step: Callable[[object], tuple]) -> Node:
    """Tree for state ``root``, expanding states through ``step`` (see
    the module docstring) with an explicit stack."""
    out: list[Node] = []
    stack: list[tuple[str, object]] = [("go", root)]
    while stack:
        tag, arg = stack.pop()
        if tag == "eq":
            out.append(EqNode(arg, Leaf(arg), out.pop()))
        elif tag == "lt":
            no = out.pop()
            out.append(LtNode(arg, out.pop(), no))
        else:
            choice = step(arg)
            kind = choice[0]
            if kind == "leaf":
                if choice[1] is None:
                    raise PreconditionError(f"empty subproblem {arg} has no tree")
                out.append(Leaf(choice[1]))
            elif kind == "eq":
                stack.append(("eq", choice[1]))
                stack.append(("go", choice[2]))
            else:
                stack.append(("lt", choice[1] + 1))
                stack.append(("go", choice[3]))
                stack.append(("go", choice[2]))
    return out[0]


def _walk(tree: Node) -> Iterator[tuple[Node, int, int | None, str]]:
    """Pre-order ``(node, depth, parent_index, edge)``, yes before no:
    nodes are numbered in the order they are yielded, the root has
    parent None and edge ""."""
    stack: list[tuple[Node, int, int | None, str]] = [(tree, 0, None, "")]
    index = 0
    while stack:
        item = stack.pop()
        yield item
        node = item[0]
        if not isinstance(node, Leaf):
            stack.append((node.no, item[1] + 1, index, "no"))
            stack.append((node.yes, item[1] + 1, index, "yes"))
        index += 1


def _fold(tree: Node, leaf: Callable[[Leaf], T], inner: Callable[[Node, T, T], T]) -> T:
    """Bottom-up fold: ``leaf(node)`` at a leaf, ``inner(node, yes_value,
    no_value)`` at a test."""
    vals: list[T] = []
    # read backwards, the walk reaches each test after its yes subtree and
    # that after its no subtree, so the yes value is on top of the no value
    for node in reversed([item[0] for item in _walk(tree)]):
        vals.append(leaf(node) if isinstance(node, Leaf) else inner(node, vals.pop(), vals.pop()))
    return vals[0]


def cost(tree: Node, inst: WeightedInstance) -> int:
    """Weighted test count, verified against the subtree-weight identity."""
    weight = inst.weight_of
    leaf_sum = sum(weight(node.key) * depth for node, depth, _, _ in _walk(tree) if isinstance(node, Leaf))
    internal_sum = 0

    def inner(_node: Node, wy: int, wn: int) -> int:
        nonlocal internal_sum
        internal_sum += wy + wn
        return wy + wn

    _fold(tree, lambda node: weight(node.key), inner)
    if leaf_sum != internal_sum:
        raise TwocstError("cost accounting mismatch between depth sum and subtree sum")
    return leaf_sum


def subtree_weight(tree: Node, inst: WeightedInstance) -> int:
    return sum(inst.weight_of(node.key) for node, _, _, _ in _walk(tree) if isinstance(node, Leaf))


def side_weight(node: Node, inst: WeightedInstance) -> int:
    """Weight resolved at this node: the key weight of an equality test,
    the lighter subtree of a less-than test, zero at a leaf."""
    if isinstance(node, Leaf):
        return 0
    if isinstance(node, EqNode):
        return inst.weight_of(node.key)
    return min(subtree_weight(node.yes, inst), subtree_weight(node.no, inst))


def main_branch(tree: Node, inst: WeightedInstance) -> list[Node]:
    """Root-to-leaf path that always leaves through the heavy side:
    the no-child of an equality test, the heavier child of a less-than
    test (ties go to the no-child)."""
    path = [tree]
    node = tree
    while not isinstance(node, Leaf):
        if isinstance(node, EqNode):
            node = node.no
        else:
            wy = subtree_weight(node.yes, inst)
            wn = subtree_weight(node.no, inst)
            node = node.yes if wy > wn else node.no
        path.append(node)
    return path


def check_side_weight_all_edges(
    tree: Node, inst: WeightedInstance
) -> list[tuple[Node, Node, int, int]]:
    """Side weights must never increase from any internal node to an
    internal child, anywhere in the tree; returns (parent, child,
    parent_side_weight, child_side_weight) violations."""
    violations: list[tuple[Node, Node, int, int]] = []

    def inner(node: Node, yes: tuple[int, int, Node], no: tuple[int, int, Node]) -> tuple[int, int, Node]:
        # each value is (subtree weight, side weight, node)
        sw = inst.weight_of(node.key) if isinstance(node, EqNode) else min(yes[0], no[0])
        for _, cw, child in (yes, no):
            if not isinstance(child, Leaf) and cw > sw:
                violations.append((node, child, sw, cw))
        return yes[0] + no[0], sw, node

    _fold(tree, lambda node: (inst.weight_of(node.key), 0, node), inner)
    return violations


def depth_map(tree: Node) -> dict[int, int]:
    """Leaf depth per key; a key on two leaves keeps the depth of the
    first one the walk meets."""
    depths: dict[int, int] = {}
    for node, depth, _, _ in _walk(tree):
        if isinstance(node, Leaf):
            depths.setdefault(node.key, depth)
    return depths


@dataclass
class ValidationReport:
    ok: bool
    defects: list[str] = field(default_factory=list)


def validate(tree: Node, inst: WeightedInstance, keys: list[int] | None = None) -> ValidationReport:
    """Check the tree classifies exactly the given keys (default: all).

    Three independent checks: every node key is a real key, the leaf
    multiset equals the key set, and simulating each key's search lands
    on its own leaf.
    """
    defects: list[str] = []
    want = sorted(keys) if keys is not None else list(range(1, inst.n + 1))
    if len(set(want)) != len(want):
        raise TwocstError("duplicate keys in validation set")

    nodes = [item[0] for item in _walk(tree)]
    defects += [f"node key {node.key} outside 1..{inst.n}" for node in nodes if not 1 <= node.key <= inst.n]
    leaves = sorted(node.key for node in nodes if isinstance(node, Leaf))
    if leaves != want:
        defects.append(f"leaf keys {leaves} != expected {want}")

    for q in want:
        node = tree
        while not isinstance(node, Leaf):
            if isinstance(node, EqNode):
                node = node.yes if q == node.key else node.no
            else:
                node = node.yes if q < node.key else node.no
        if node.key != q:
            defects.append(f"search for key {q} ends at leaf {node.key}")
    return ValidationReport(ok=not defects, defects=defects)


def to_json(tree: Node) -> dict:
    def inner(node: Node, yes: dict, no: dict) -> dict:
        return {"key": node.key, "kind": "eq" if isinstance(node, EqNode) else "lt", "yes": yes, "no": no}

    return _fold(tree, lambda node: {"key": node.key, "kind": "leaf"}, inner)


def from_json(obj: dict) -> Node:
    vals: list[Node] = []
    stack: list[tuple[dict, bool]] = [(obj, False)]
    while stack:
        d, seen = stack.pop()
        if not isinstance(d, dict) or "kind" not in d or "key" not in d:
            raise ParseError(f"bad tree node {d!r}")
        kind = d["kind"]
        if kind == "leaf":
            vals.append(Leaf(int(d["key"])))
        elif kind in ("eq", "lt"):
            if not seen:
                if "yes" not in d or "no" not in d:
                    raise ParseError(f"{kind} node missing a child")
                stack.append((d, True))
                stack.append((d["yes"], False))
                stack.append((d["no"], False))
            else:
                yes = vals.pop()
                no = vals.pop()
                cls = EqNode if kind == "eq" else LtNode
                vals.append(cls(int(d["key"]), yes, no))
        else:
            raise ParseError(f"unknown node kind {kind!r}")
    return vals[0]


def to_dot(tree: Node, name: str = "tree") -> str:
    """Graphviz rendering with '=k' / '<k' test labels."""
    lines = [f"digraph {name} {{", "  node [shape=box];"]
    for nid, (node, _, parent, edge) in enumerate(_walk(tree)):
        if isinstance(node, Leaf):
            lines.append(f'  n{nid} [label="{node.key}" shape=ellipse];')
        else:
            op = "=" if isinstance(node, EqNode) else "<"
            lines.append(f'  n{nid} [label="{op}{node.key}"];')
        if parent is not None:
            lines.append(f'  n{parent} -> n{nid} [label="{edge}"];')
    lines.append("}")
    return "\n".join(lines)
