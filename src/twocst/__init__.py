"""Exact solvers and a verification lab for optimal two-way comparison
search trees: trees of equality and less-than tests minimizing the
weighted number of tests over a sorted key set."""

from .dp_core import DpTable, MinimizerReport, root_split_costs, solve_full
from .errors import MemoryBudgetError, ParseError, PreconditionError, TwocstError
from .instance import WeightedInstance, load_instance, new_instance, parse_instance_text
from .oracle import brute_force_optimal
from .pruned import (
    RefinedInterval,
    SolveStats,
    hole_free_costs,
    refined_interval,
    solve_bounded_const,
    solve_bounded_log,
    solve_pruned,
)
from .structure import (
    CheckResult,
    GeneratorSpec,
    MonotonicityViolation,
    QiTable,
    ThresholdReport,
    balanced_pattern_claims,
    chain_tree,
    check_minimizer_monotonicity,
    check_side_weight_theorem,
    check_thresholds,
    geometric_chain_closed_form,
    geometric_instance,
    geometric_scan,
    hard_instance,
    heavy_mid_instance,
    marginal_advantage_check,
    pattern_instance,
    qi_table,
    random_instance,
    suite_counterexamples,
    suite_geometric,
    suite_oracle,
    suite_pattern_claims,
    suite_thresholds,
    tight4_instance,
    tight8_instance,
)
from .threeway import KYResult, solve_3wcst_cubic, solve_3wcst_knuth_yao
from .tree import (
    EqNode,
    Leaf,
    LtNode,
    Node,
    ValidationReport,
    check_side_weight_all_edges,
    cost,
    depth_map,
    from_json,
    main_branch,
    side_weight,
    subtree_weight,
    to_dot,
    to_json,
    validate,
)

__version__ = "0.1.0"

