"""Exhaustive reference solver, independent of the level DP.

Prices every comparison tree over every subset of the key set in one
bottom-up pass over bitmasks: a subset's cost is its weight plus the
cheapest of an equality test on each member and a cut between each
adjacent member pair, read from the flat cost list of smaller masks.
The optimal tree is rebuilt afterwards from those costs alone.
Exponential, so it is gated to at most 22 keys; its job is to certify
the clever solvers on small instances, so it shares no recurrence or
table code with them.
"""

from __future__ import annotations

from .errors import PreconditionError
from .instance import WeightedInstance
from .tree import Node, build_tree

MAX_ORACLE_KEYS = 22


def brute_force_optimal(
    inst: WeightedInstance, keys: list[int] | None = None
) -> tuple[int, Node]:
    """(optimal cost, one optimal tree) by exhaustive search.

    ``keys`` restricts the search to a subset of the instance's keys;
    ties resolve to the first equality test in ascending key order
    that attains the optimum, otherwise to the leftmost such cut.
    """
    if keys is None:
        keys = list(range(1, inst.n + 1))
    kset = sorted(set(keys))
    if not kset:
        raise PreconditionError("empty key set")
    if len(kset) != len(keys):
        raise PreconditionError("duplicate keys")
    if kset[0] < 1 or kset[-1] > inst.n:
        raise PreconditionError(f"keys outside 1..{inst.n}")
    m = len(kset)
    if m > MAX_ORACLE_KEYS:
        raise PreconditionError(f"{m} keys exceeds the brute-force cap of {MAX_ORACLE_KEYS}")

    # W[mask]: weight of the keys in mask; each key doubles the list.
    W = [0]
    for k in kset:
        w = inst.weight_of(k)
        W += [x + w for x in W]
    # C[mask]: optimal cost over the keys in mask; singletons cost 0.
    # ``best`` starts at the equality test on the lowest member.  The
    # member bits are then walked low to high, ``pref`` holding the bits
    # passed and ``rest`` those ahead: each step tries the cut between
    # pref and rest, then the equality test on rest's lowest bit.
    C = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        rest = mask ^ low
        if not rest:
            continue
        best = C[rest]
        pref = low
        while rest:
            v = C[pref] + C[rest]
            if v < best:
                best = v
            b = rest & -rest
            rest ^= b
            v = C[pref | rest]
            if v < best:
                best = v
            pref |= b
        C[mask] = W[mask] + best

    def step(mask: int) -> tuple:
        if not mask & (mask - 1):
            return ("leaf", kset[mask.bit_length() - 1])
        target = C[mask] - W[mask]
        idxs = [t for t in range(m) if mask >> t & 1]
        for t in idxs:
            if C[mask ^ (1 << t)] == target:
                return ("eq", kset[t], mask ^ (1 << t))
        pref = 0
        for t in idxs[:-1]:
            pref |= 1 << t
            if C[pref] + C[mask ^ pref] == target:
                return ("split", kset[t], pref, mask ^ pref)

    full = (1 << m) - 1
    return C[full], build_tree(full, step)
