"""One property suite over every tree-producing two-way solver."""

import random

import pytest

from twocst import cost, new_instance, solve_full, validate
from twocst.cli import _run_algorithm


def _cases() -> list[list[int]]:
    """Zeros, ties, 2^30-scale weights and shuffled geometric 1/2
    weights for every n up to 10, small enough for the oracle."""
    rng = random.Random(6)
    cases = []
    for n in range(1, 11):
        cases.append([rng.choice((0, 0, 1, 5)) for _ in range(n)])
        cases.append([rng.choice((2, 2, 7)) for _ in range(n)])
        cases.append([rng.randint(1, 2**30) for _ in range(n)])
        chain = [2**k for k in range(n)]
        rng.shuffle(chain)
        cases.append(chain)
    return cases


CASES = _cases()
# solvers whose domain is strictly positive weights
POSITIVE_ONLY = {"bounded-log", "bounded-const"}


@pytest.mark.parametrize("algorithm", ["full", "pruned", "bounded-log", "bounded-const", "oracle"])
def test_solver_properties(algorithm):
    checked = 0
    for ws in CASES:
        if algorithm in POSITIVE_ONLY and 0 in ws:
            continue
        inst = new_instance(ws)
        best, tree, _stats, _ms = _run_algorithm(inst, algorithm, None)
        assert validate(tree, inst).ok, ws
        assert cost(tree, inst) == best, ws
        _table, full_best, full_tree = solve_full(inst)
        assert best == full_best, ws
        # one tie-break policy for every DP solver; the oracle keeps its own
        if algorithm != "oracle":
            assert tree == full_tree, ws
        tripled = _run_algorithm(new_instance([3 * w for w in ws]), algorithm, None)[0]
        assert tripled == 3 * best, ws
        assert _run_algorithm(new_instance(ws[::-1]), algorithm, None)[0] == best, ws
        checked += 1
    # every solver must see most of the corpus, zero-free cases included
    assert checked >= 30
