"""Generators, structural checks, and the named check suites."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twocst import (
    GeneratorSpec,
    balanced_pattern_claims,
    brute_force_optimal,
    check_minimizer_monotonicity,
    check_side_weight_theorem,
    check_thresholds,
    geometric_chain_closed_form,
    geometric_instance,
    geometric_scan,
    hard_instance,
    heavy_mid_instance,
    new_instance,
    pattern_instance,
    qi_table,
    random_instance,
    solve_bounded_const,
    solve_bounded_log,
    solve_full,
    solve_pruned,
    suite_counterexamples,
    suite_geometric,
    suite_oracle,
    suite_pattern_claims,
    suite_thresholds,
    tight4_instance,
    tight8_instance,
)
from twocst.dp_core import DpTable
from twocst.errors import PreconditionError
from twocst.structure import chain_tree, hole_free_costs, marginal_advantage_check
from twocst.tree import build_tree, cost, main_branch, side_weight, validate

WEIGHTS = st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=10)


class TestGenerators:
    def test_pattern_cycle(self):
        inst = pattern_instance((1, 3), 7)
        assert inst.weights == (1, 3, 1, 3, 1, 3, 1)
        with pytest.raises(PreconditionError):
            pattern_instance((), 5)

    def test_geometric_is_scaled_powers(self):
        inst = geometric_instance(Fraction(1, 2), 4)
        assert inst.weights == (8, 4, 2, 1)
        assert inst.scale == 8
        with pytest.raises(PreconditionError):
            geometric_instance(Fraction(3, 2), 4)

    def test_random_is_reproducible(self):
        a = random_instance(9, 0, 5, 12)
        b = random_instance(9, 0, 5, 12)
        assert a == b
        assert all(0 <= w <= 5 for w in a.weights)

    def test_tight4_values(self):
        inst = tight4_instance(Fraction(3, 8), Fraction(1, 4), Fraction(1, 1000))
        assert inst.weights == (375, 750, 498, 377)
        assert inst.scale == 2000
        with pytest.raises(PreconditionError):
            tight4_instance(Fraction(3, 8), Fraction(1, 4), Fraction(0))

    def test_tight8_values(self):
        inst = tight8_instance(Fraction(1, 3))
        assert inst.weights == (2, 0, 1, 0, 1, 1, 0, 1)
        assert inst.scale == 6

    def test_hard_needs_multiple_of_seven(self):
        with pytest.raises(PreconditionError):
            hard_instance(20)
        inst = hard_instance(14)
        w = max(inst.weights)
        total = inst.total
        # strictly inside the no-prune window (W/4, 3W/7)
        assert 4 * w > total
        assert 7 * w < 3 * total

    def test_heavy_mid_shape(self):
        inst = heavy_mid_instance(9, 2)
        assert inst.weights == (1, 1, 1, 1, 9, 1, 1, 1, 1)

    def test_generator_spec_dispatch(self):
        spec = GeneratorSpec(kind="pattern", n=6, cycle=(2, 5))
        assert spec.generate().weights == (2, 5, 2, 5, 2, 5)
        assert "pattern" in spec.label()
        spec = GeneratorSpec(kind="random", n=4, seed=1, lo=1, hi=2)
        assert spec.generate() == random_instance(1, 1, 2, 4)
        with pytest.raises(PreconditionError):
            GeneratorSpec(kind="random", n=4).generate()

    def test_labels_name_beta_and_eps(self):
        # two tight4 recipes that differ only in eps build different instances
        spec = GeneratorSpec("tight4", alpha=Fraction(3, 8), beta=Fraction(1, 4), eps=Fraction(1, 1000))
        other = GeneratorSpec("tight4", alpha=Fraction(3, 8), beta=Fraction(1, 4), eps=Fraction(1, 100))
        assert spec.generate() != other.generate()
        assert spec.label() == "tight4-a3_8-b1_4-e1_1000"
        assert other.label() == "tight4-a3_8-b1_4-e1_100"


class TestQiTable:
    def test_heavy_mid_red_cell(self):
        table = qi_table(new_instance([1, 10, 1]))
        assert table.red_cells() == [(1, 3)]
        assert table.red_count == 1

    def test_equal_weights_have_no_red(self):
        assert qi_table(new_instance([1] * 8)).red_count == 0

    def test_pattern_24_frozen_count(self):
        assert qi_table(pattern_instance((1, 3), 24)).red_count == 74

    def test_csv_and_pgm_shapes(self):
        table = qi_table(new_instance([1, 10, 1]))
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "i,j,class"
        assert "1,3,red" in lines
        pgm = table.to_pgm()
        assert pgm.startswith("P2\n3 3\n255\n")

    def test_needs_three_keys(self):
        with pytest.raises(PreconditionError):
            qi_table(new_instance([1, 2]))


class TestHoleFreeCosts:
    @given(WEIGHTS)
    @settings(max_examples=40, deadline=None)
    def test_matches_full_table(self, ws):
        inst = new_instance(ws)
        table, _b, _t = solve_full(inst)
        costs = hole_free_costs(inst)
        n = inst.n
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert costs[i][j] == table.cost_at((i, j, n))


class TestChecks:
    def test_minimizer_monotonicity_modes(self):
        sandwich = check_minimizer_monotonicity(new_instance([0, 2, 2, 0, 1, 1]), "sandwich")
        assert sandwich and sandwich[0].robust
        diag = check_minimizer_monotonicity(
            new_instance(list((1, 2000000, 2000000, 0, 1000000, 1000000, 0))),
            "diagonal",
            inner=True,
        )
        assert diag

    def test_thresholds_on_forced_instances(self):
        # heaviest key holds 10 of 12 units: equality root must win
        rep = check_thresholds(new_instance([1, 10, 1]))
        assert rep.checks["heavy_top_implies_eq_root"] == "pass"
        assert rep.eq_root_optimal
        # heaviest key under a quarter: a cut root must win strictly
        rep = check_thresholds(new_instance([2, 2, 2, 2, 2]))
        assert rep.checks["light_top_implies_cut_root"] == "pass"
        assert rep.eq_root_optimal is False

    def test_exhaustive_box_claims_and_solver_agreement(self):
        # every weight vector with n <= 5 and weights 0..4, bar all-zero
        fired: dict[str, int] = {}
        instances = pair_boundary = 0
        for n in range(1, 6):
            for ws in product(range(5), repeat=n):
                if not any(ws):
                    continue
                instances += 1
                inst = new_instance(list(ws))
                table, opt, _tree = solve_full(inst)
                rep = check_thresholds(inst, table)
                for name, state in rep.checks.items():
                    assert state != "fail", (ws, name)
                    if state == "pass":
                        fired[name] = fired.get(name, 0) + 1
                if n >= 2 and 2 * rep.alpha + rep.beta == rep.total:
                    pair_boundary += 1
                costs = {solve_pruned(inst)[0], solve_bounded_const(inst)[0], brute_force_optimal(inst)[0]}
                if 0 not in ws:
                    costs.add(solve_bounded_log(inst)[0])
                assert costs == {opt}, ws
        assert instances == 3900 and pair_boundary > 0
        # skewed_pair_blocks_double_eq first fires at n = 6
        assert set(fired) == {
            "heavy_top_implies_eq_root",
            "light_top_implies_cut_root",
            "pair_bound_implies_eq_root",
            "light_pair_blocks_double_eq",
        }, fired

    def test_side_weight_theorem_on_random_batch(self):
        import random

        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(3, 9)
            inst = new_instance([rng.randint(0, 12) for _ in range(n)])
            if inst.total == 0:
                continue
            assert check_side_weight_theorem(inst) == []

    def test_side_weight_theorem_reports_the_step_tree(self, monkeypatch):
        # a table that always cuts after the first member breaks the
        # theorem; each violation must carry the side weights of the
        # tree build_tree makes from that step
        def first_cut(table, sid):
            inst = table.inst
            i, j, h = sid
            keys = inst.sub_keys(i, j, h)
            if len(keys) == 1:
                return ("leaf", keys[0])
            l = keys[0]
            return ("split", l, (i, l, h), (l + 1, j, h))

        monkeypatch.setattr(DpTable, "step", first_cut)
        inst = new_instance([1, 2, 3, 4, 5, 6, 7])
        violations = check_side_weight_theorem(inst)
        assert {v.check for v in violations} == {"quarter-root", "half-pair"}
        table = DpTable(inst)
        for v in violations:
            branch = main_branch(build_tree(v.sid, lambda sid: first_cut(table, sid)), inst)
            sws = (side_weight(branch[0], inst), side_weight(branch[1], inst))
            assert (v.sw_root, v.sw_next, v.member_weight) == sws + (inst.sub_weight(*v.sid),)

    def test_marginal_advantage_flip(self):
        out = marginal_advantage_check()
        assert out["ok"]
        assert (out["prefix_eq"], out["prefix_lt"]) == (141, 140)
        assert (out["full_eq"], out["full_lt"]) == (152, 153)


class TestGeometric:
    def test_chain_tree_shape(self):
        tree = chain_tree(3)
        inst = new_instance([4, 2, 1])
        assert validate(tree, inst).ok
        # chain depths are 1, 2, 2 for n = 3
        assert cost(tree, inst) == 4 + 2 * 2 + 1 * 2

    def test_closed_form_matches_chain_cost(self):
        for gamma in (Fraction(1, 2), Fraction(2, 3), Fraction(1, 3)):
            for n in (2, 5, 9):
                inst = geometric_instance(gamma, n)
                chain_cost = cost(chain_tree(n), inst)
                closed = geometric_chain_closed_form(gamma, n) * inst.scale
                assert closed == chain_cost

    def test_scan_root_types(self):
        recs = geometric_scan(12, [Fraction(1, 2), Fraction(7, 10)])
        assert recs[0]["root"] == "eq"
        assert recs[1]["root"] == "lt"
        assert all(r["chain_matches_closed_form"] for r in recs)


class TestInvariances:
    @given(WEIGHTS)
    @settings(max_examples=50, deadline=None)
    def test_reversal_symmetry(self, ws):
        # mirroring the key order mirrors the tree but not the cost
        _t, best, _tree = solve_full(new_instance(ws))
        _t, best_rev, _tree = solve_full(new_instance(ws[::-1]))
        assert best == best_rev

    @given(WEIGHTS, st.integers(min_value=2, max_value=7))
    @settings(max_examples=50, deadline=None)
    def test_scaling_invariance(self, ws, factor):
        _t, best, _tree = solve_full(new_instance(ws))
        _t, scaled, _tree = solve_full(new_instance([w * factor for w in ws]))
        assert scaled == factor * best


class TestSuites:
    def test_counterexamples_all_green(self):
        results = suite_counterexamples()
        assert len(results) == 7
        for r in results:
            assert r.ok, f"{r.name}: {r.detail}"

    def test_threshold_suite_small_run(self):
        results = suite_thresholds(cases=60, max_n=9, seed=0)
        assert all(r.ok for r in results)
        # every implication must actually fire somewhere in the run
        assert len(results) == 5
        for r in results:
            assert "fired 0 times" not in r.detail

    def test_oracle_suite_small_run(self):
        results = suite_oracle(cases=30, max_n=7, seed=7)
        assert all(r.ok for r in results)

    def test_pattern_suite(self):
        results = suite_pattern_claims(2)
        assert all(r.ok for r in results)

    def test_geometric_suite(self):
        results = suite_geometric(10)
        assert all(r.ok for r in results)

    def test_pattern_claims_p3_bands(self):
        claims = balanced_pattern_claims(3)
        assert claims["all_ok"]
