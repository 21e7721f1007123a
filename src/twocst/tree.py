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

All traversals here are iterative so deep chain-shaped trees never hit
the interpreter recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

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


def cost(tree: Node, inst: WeightedInstance) -> int:
    """Weighted test count, verified against the subtree-weight identity."""
    leaf_sum = 0
    internal_sum = 0
    vals: list[int] = []
    stack: list[tuple[Node, int, bool]] = [(tree, 0, False)]
    while stack:
        node, depth, seen = stack.pop()
        if isinstance(node, Leaf):
            w = inst.weight_of(node.key)
            leaf_sum += w * depth
            vals.append(w)
            continue
        if not seen:
            stack.append((node, depth, True))
            stack.append((node.yes, depth + 1, False))
            stack.append((node.no, depth + 1, False))
        else:
            wy = vals.pop()
            wn = vals.pop()
            internal_sum += wy + wn
            vals.append(wy + wn)
    if leaf_sum != internal_sum:
        raise TwocstError("cost accounting mismatch between depth sum and subtree sum")
    return leaf_sum


def subtree_weight(tree: Node, inst: WeightedInstance) -> int:
    total = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            total += inst.weight_of(node.key)
        else:
            stack.append(node.yes)
            stack.append(node.no)
    return total


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
    parent_side_weight, child_side_weight) violations.  One bottom-up
    pass, so safe on deep chains."""
    violations: list[tuple[Node, Node, int, int]] = []
    vals: list[tuple[int, int, Node]] = []
    stack: list[tuple[Node, bool]] = [(tree, False)]
    while stack:
        node, seen = stack.pop()
        if isinstance(node, Leaf):
            vals.append((inst.weight_of(node.key), 0, node))
            continue
        if not seen:
            stack.append((node, True))
            stack.append((node.yes, False))
            stack.append((node.no, False))
        else:
            wy, swy, ynode = vals.pop()
            wn, swn, nnode = vals.pop()
            if isinstance(node, EqNode):
                sw = inst.weight_of(node.key)
            else:
                sw = min(wy, wn)
            for cw, cnode in ((swy, ynode), (swn, nnode)):
                if not isinstance(cnode, Leaf) and cw > sw:
                    violations.append((node, cnode, sw, cw))
            vals.append((wy + wn, sw, node))
    return violations


def depth_map(tree: Node) -> dict[int, int]:
    """Leaf depth per key."""
    depths: dict[int, int] = {}
    stack: list[tuple[Node, int]] = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Leaf):
            depths[node.key] = depth
        else:
            stack.append((node.yes, depth + 1))
            stack.append((node.no, depth + 1))
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

    leaves: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if not 1 <= node.key <= inst.n:
            defects.append(f"node key {node.key} outside 1..{inst.n}")
        if isinstance(node, Leaf):
            leaves.append(node.key)
        else:
            stack.append(node.yes)
            stack.append(node.no)
    if sorted(leaves) != want:
        defects.append(f"leaf keys {sorted(leaves)} != expected {want}")

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
    out: dict = {}
    stack: list[tuple[Node, dict]] = [(tree, out)]
    while stack:
        node, slot = stack.pop()
        slot["key"] = node.key
        if isinstance(node, Leaf):
            slot["kind"] = "leaf"
        else:
            slot["kind"] = "eq" if isinstance(node, EqNode) else "lt"
            slot["yes"] = {}
            slot["no"] = {}
            stack.append((node.yes, slot["yes"]))
            stack.append((node.no, slot["no"]))
    return out


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
    counter = 0
    stack: list[tuple[Node, int | None, str]] = [(tree, None, "")]
    while stack:
        node, parent, edge = stack.pop()
        nid = counter
        counter += 1
        if isinstance(node, Leaf):
            lines.append(f'  n{nid} [label="{node.key}" shape=ellipse];')
        else:
            op = "=" if isinstance(node, EqNode) else "<"
            lines.append(f'  n{nid} [label="{op}{node.key}"];')
            stack.append((node.no, nid, "no"))
            stack.append((node.yes, nid, "yes"))
        if parent is not None:
            lines.append(f'  n{parent} -> n{nid} [label="{edge}"];')
    lines.append("}")
    return "\n".join(lines)
