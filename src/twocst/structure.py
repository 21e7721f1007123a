"""Structural checks, counterexample families, and instance generators.

This module is the laboratory half of the package: it holds the named
instances whose optimal-tree structure defeats the classic dynamic
programming shortcuts (minimizer monotonicity and the quadrangle
inequality), the generators for parametric families, and checkers that
measure structural claims (weight thresholds at the root, side-weight
bounds, balanced-pattern identities) against the exact solvers.

All checkers return data; nothing here prints or asserts.  The test
suite and the command line wrap these into pass/fail reporting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .dp_core import DpTable, _best_cuts, _fill, root_split_costs, solve_full
from .errors import PreconditionError
from .instance import WeightedInstance, new_instance
from .oracle import brute_force_optimal
from .pruned import hole_free_costs, solve_bounded_log, solve_pruned
from .tree import EqNode, Leaf, Node, cost

# Three keys with a heavy middle: the smallest instance whose cost
# matrix breaks the quadrangle inequality.
HEAVY_MID3 = (1, 10, 1)

# Six keys with two heavy anchors: leftmost optimal cuts move LEFT as
# the interval shrinks from the left.
HEAVY_PAIR6 = (1, 9, 1, 1, 9, 1)

# Six keys mixing zeros and ties: breaks the sandwich ordering of
# optimal cuts even under the restricted cut range.
MIXED_ZEROS6 = (0, 2, 2, 0, 1, 1)

# Seven keys with a vanishing first weight (1 against a 10**6 scale):
# diagonal monotonicity of optimal cuts fails between [1,6] and [2,7].
EPS_SEVEN = (1, 2000000, 2000000, 0, 1000000, 1000000, 0)

# Twelve keys with unique minimizers on both sides of a diagonal
# violation, and both sub-instances light enough that every optimal
# root is a cut.
TWELVE_KEY = (12, 10, 3, 9, 8, 2, 6, 7, 5, 1, 11, 13)

# Five keys where adding key 5 (weight 0 after the heavy block) flips
# the optimal root type from cut to equality.
MARGINAL5 = (11, 23, 23, 13, 0)


def pattern_instance(cycle: tuple[int, ...], n: int) -> WeightedInstance:
    """Weights repeating ``cycle`` from key 1 up to key n."""
    if not cycle:
        raise PreconditionError("empty weight cycle")
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    return new_instance([cycle[k % len(cycle)] for k in range(n)])


def geometric_instance(gamma: Fraction, n: int) -> WeightedInstance:
    """Weights gamma**i for i = 0..n-1, scaled to integers."""
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise PreconditionError(f"need 0 < gamma < 1, got {gamma}")
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    p, q = gamma.numerator, gamma.denominator
    weights = [p**i * q ** (n - 1 - i) for i in range(n)]
    return WeightedInstance(weights, scale=q ** (n - 1))


def random_instance(seed: int, lo: int, hi: int, n: int) -> WeightedInstance:
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if not 0 <= lo <= hi:
        raise PreconditionError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
    rng = random.Random(seed)
    return new_instance([rng.randint(lo, hi) for _ in range(n)])


def tight4_instance(alpha: Fraction, beta: Fraction, eps: Fraction) -> WeightedInstance:
    """Four keys (a/2, a, b-e, a/2+e) sitting just under the pair
    threshold 2a+b = W: the best equality root loses to the best cut
    by exactly e."""
    alpha, beta, eps = Fraction(alpha), Fraction(beta), Fraction(eps)
    if alpha <= 0 or beta <= 0:
        raise PreconditionError("need positive alpha and beta")
    if not 0 < eps < beta - alpha / 2:
        raise PreconditionError(f"need 0 < eps < beta - alpha/2, got eps={eps}")
    return new_instance([alpha / 2, alpha, beta - eps, alpha / 2 + eps])


def tight8_instance(alpha: Fraction, beta: Fraction | None = None) -> WeightedInstance:
    """Eight keys (a, 0, b, 0, b, b, 0, b) on the skew boundary
    a + 4b = W, where the equality and cut roots differ by exactly
    2b - a."""
    alpha = Fraction(alpha)
    if beta is None:
        if not 0 < alpha < 1:
            raise PreconditionError(f"need 0 < alpha < 1 when beta is derived, got {alpha}")
        beta = (1 - alpha) / 4
    beta = Fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise PreconditionError("need positive alpha and beta")
    return new_instance([alpha, 0, beta, 0, beta, beta, 0, beta])


def hard_instance(n: int, gamma: Fraction = Fraction(3, 4)) -> WeightedInstance:
    """Work lower-bound family: four geometric blocks interleaved with
    zero-weight gaps, in key order X1 G X2 G X3 G X0, each block of
    size n/7.  Block X_k holds weights gamma**(4i+k); the heaviest key
    carries strictly between 1/4 and 3/7 of the total, so neither
    threshold prune can fire at the top."""
    if n < 7 or n % 7:
        raise PreconditionError(f"need a positive multiple of 7, got {n}")
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise PreconditionError(f"need 0 < gamma < 1, got {gamma}")
    m = n // 7
    p, q = gamma.numerator, gamma.denominator
    top = 4 * m - 1
    weights: list[int] = []
    for k in (1, 2, 3):
        weights.extend(p ** (4 * i + k) * q ** (top - 4 * i - k) for i in range(m))
        weights.extend([0] * m)
    weights.extend(p ** (4 * i) * q ** (top - 4 * i) for i in range(m))
    return WeightedInstance(weights, scale=q**top)


def heavy_mid_instance(heavy: int, halves: int) -> WeightedInstance:
    """2**s unit keys on each side of one heavy middle key."""
    if heavy < 1:
        raise PreconditionError(f"need a positive middle weight, got {heavy}")
    if halves < 0:
        raise PreconditionError(f"need halves >= 0, got {halves}")
    side = 2**halves
    return new_instance([1] * side + [heavy] + [1] * side)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative recipe for one instance; used by the command line
    and the benchmark scripts so runs are reproducible from flags."""

    kind: str
    n: int | None = None
    seed: int | None = None
    lo: int = 0
    hi: int = 10
    gamma: Fraction | None = None
    cycle: tuple[int, ...] = (1, 3)
    heavy: int | None = None
    halves: int | None = None
    alpha: Fraction | None = None
    beta: Fraction | None = None
    eps: Fraction | None = None

    def generate(self) -> WeightedInstance:
        if self.kind == "pattern":
            return pattern_instance(self.cycle, self._need("n"))
        if self.kind == "geometric":
            return geometric_instance(self._need("gamma"), self._need("n"))
        if self.kind == "random":
            return random_instance(self._need("seed"), self.lo, self.hi, self._need("n"))
        if self.kind == "tight4":
            return tight4_instance(self._need("alpha"), self._need("beta"), self._need("eps"))
        if self.kind == "tight8":
            return tight8_instance(self._need("alpha"), self.beta)
        if self.kind == "hard":
            return hard_instance(self._need("n"), self.gamma or Fraction(3, 4))
        if self.kind == "heavy-mid":
            return heavy_mid_instance(self._need("heavy"), self._need("halves"))
        raise PreconditionError(f"unknown generator kind {self.kind!r}")

    def _need(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise PreconditionError(f"generator {self.kind!r} needs {name}")
        return value

    def label(self) -> str:
        parts = [self.kind]
        if self.kind == "random":
            parts.append(f"seed{self.seed}")
            parts.append(f"{self.lo}to{self.hi}")
        if self.kind == "pattern":
            parts.append("_".join(str(c) for c in self.cycle))
        if self.gamma is not None:
            parts.append(f"{self.gamma.numerator}_{self.gamma.denominator}")
        if self.heavy is not None:
            parts.append(f"v{self.heavy}s{self.halves}")
        for tag, value in (("a", self.alpha), ("b", self.beta), ("e", self.eps)):
            if value is not None:
                parts.append(f"{tag}{value.numerator}_{value.denominator}")
        if self.n is not None:
            parts.append(f"n{self.n}")
        return "-".join(parts)


UNDEFINED, GRAY, RED = 0, 1, 2


@dataclass
class QiTable:
    """Per-cell quadrangle-inequality classification of the interval
    cost matrix: cell (i, j) is red when
    costs[i+1][j] + costs[i][j-1] > costs[i+1][j-1] + costs[i][j]."""

    n: int
    codes: list[list[int]]

    def red_cells(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
            if self.codes[i][j] == RED
        ]

    @property
    def red_count(self) -> int:
        return len(self.red_cells())

    def to_csv(self) -> str:
        lines = ["i,j,class"]
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                if self.codes[i][j] != UNDEFINED:
                    label = "red" if self.codes[i][j] == RED else "gray"
                    lines.append(f"{i},{j},{label}")
        return "\n".join(lines) + "\n"

    def to_pgm(self) -> str:
        shades = {UNDEFINED: "0", GRAY: "128", RED: "255"}
        lines = ["P2", f"{self.n} {self.n}", "255"]
        for i in range(1, self.n + 1):
            lines.append(" ".join(shades[self.codes[i][j]] for j in range(1, self.n + 1)))
        return "\n".join(lines) + "\n"


def qi_table(inst: WeightedInstance) -> QiTable:
    n = inst.n
    if n < 3:
        raise PreconditionError(f"need n >= 3 for a quadrangle table, got n={n}")
    costs = hole_free_costs(inst)
    codes = [[UNDEFINED] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            bad = costs[i + 1][j] + costs[i][j - 1] > costs[i + 1][j - 1] + costs[i][j]
            codes[i][j] = RED if bad else GRAY
    return QiTable(n, codes)


@dataclass(frozen=True)
class MonotonicityViolation:
    mode: str
    i: int
    j: int
    sets: tuple[tuple[int, ...], ...]
    robust: bool


def check_minimizer_monotonicity(
    inst: WeightedInstance,
    mode: str = "sandwich",
    inner: bool = False,
    table: DpTable | None = None,
) -> list[MonotonicityViolation]:
    """Hunt for optimal-cut monotonicity failures over all full-key
    intervals.

    Sandwich mode flags (i, j) where the leftmost cuts fail
    L(i, j-1) <= L(i, j) <= L(i+1, j); diagonal mode flags (i, j)
    where L(i, j) > L(i+1, j+1).  A violation is robust when no
    alternative choice from the minimizer sets can repair it.  With
    ``inner`` the cut range is restricted to i+1 .. j-2.
    """
    if mode not in ("sandwich", "diagonal"):
        raise PreconditionError(f"unknown mode {mode!r}")
    n = inst.n
    if table is None:
        table = _fill(inst)

    @cache  # sandwich mode asks for an interval up to 3 times, diagonal 2
    def mins(i: int, j: int) -> tuple[int, ...] | None:
        try:
            return table.minimizers_at((i, j, n), inner=inner).minimizers
        except PreconditionError:
            return None

    out: list[MonotonicityViolation] = []
    if mode == "sandwich":
        for i in range(1, n - 1):
            for j in range(i + 2, n + 1):
                s1, s2, s3 = mins(i, j - 1), mins(i, j), mins(i + 1, j)
                if s1 is None or s2 is None or s3 is None:
                    continue
                if s1[0] <= s2[0] <= s3[0]:
                    continue
                robust = not any(s1[0] <= y <= s3[-1] for y in s2)
                out.append(MonotonicityViolation(mode, i, j, (s1, s2, s3), robust))
    else:
        for i in range(1, n):
            for j in range(i + 1, n):
                s1, s2 = mins(i, j), mins(i + 1, j + 1)
                if s1 is None or s2 is None:
                    continue
                if s1[0] <= s2[0]:
                    continue
                out.append(
                    MonotonicityViolation(mode, i, j, (s1, s2), robust=s1[0] > s2[-1])
                )
    return out


@dataclass
class ThresholdReport:
    """Root-type costs and threshold implications for one instance.

    ``alpha`` is the largest weight, ``beta`` the second largest.
    ``eq_cost`` / ``lt_cost`` are the best costs with an equality root
    on the heaviest key / any cut root; ``double_eq_cost`` is the best
    cost with equality tests on the two heaviest keys at the top.
    Each named check is "pass", "fail", or "skipped" (premise did not
    fire or the quantity is undefined at this n).
    """

    n: int
    total: int
    alpha: int
    beta: int | None
    opt: int
    eq_cost: int | None
    lt_cost: int | None
    double_eq_cost: int | None
    checks: dict[str, str] = field(default_factory=dict)

    @property
    def eq_root_optimal(self) -> bool | None:
        if self.eq_cost is None or self.lt_cost is None:
            return None
        return self.eq_cost <= self.lt_cost

    @property
    def ok(self) -> bool:
        return "fail" not in self.checks.values()


def check_thresholds(inst: WeightedInstance, table: DpTable | None = None) -> ThresholdReport:
    n = inst.n
    if table is None:
        table = _fill(inst)
    total = inst.total
    by_weight = sorted(inst.weights, reverse=True)
    alpha = by_weight[0]
    beta = by_weight[1] if n >= 2 else None
    if n >= 2:
        eq_cost, lt_cost = root_split_costs(inst, table)
        opt = min(eq_cost, lt_cost)
    else:
        eq_cost = lt_cost = None
        opt = 0
    double_eq_cost = (
        total + (total - alpha) + table.cost_at((1, n, n - 2)) if n >= 3 else None
    )

    def verdict(premise: bool, defined: bool, holds) -> str:
        if not premise or not defined:
            return "skipped"
        return "pass" if holds() else "fail"

    two_root = eq_cost is not None
    checks = {
        "heavy_top_implies_eq_root": verdict(
            7 * alpha > 3 * total, two_root, lambda: eq_cost <= lt_cost
        ),
        "light_top_implies_cut_root": verdict(
            4 * alpha < total, two_root, lambda: lt_cost < eq_cost
        ),
        "pair_bound_implies_eq_root": verdict(
            beta is not None and 2 * alpha + beta >= total,
            two_root,
            lambda: eq_cost <= lt_cost,
        ),
        "light_pair_blocks_double_eq": verdict(
            beta is not None and 2 * (alpha + beta) < total,
            double_eq_cost is not None,
            lambda: double_eq_cost > opt,
        ),
        "skewed_pair_blocks_double_eq": verdict(
            beta is not None and alpha + 4 * beta < total,
            double_eq_cost is not None,
            lambda: double_eq_cost > opt,
        ),
    }
    return ThresholdReport(
        n=n,
        total=total,
        alpha=alpha,
        beta=beta,
        opt=opt,
        eq_cost=eq_cost,
        lt_cost=lt_cost,
        double_eq_cost=double_eq_cost,
        checks=checks,
    )


@dataclass(frozen=True)
class SideWeightViolation:
    sid: tuple[int, int, int]
    check: str
    sw_root: int
    sw_next: int
    member_weight: int


def check_side_weight_theorem(inst: WeightedInstance) -> list[SideWeightViolation]:
    """On the reconstructed optimal tree of every sub-problem with at
    least three keys: the root must resolve a quarter of the weight,
    and root plus main-branch child together at least half."""
    n = inst.n
    if n < 3:
        return []
    table = _fill(inst)
    asc = inst.asc_perm

    @cache  # a main-branch child is often a visited subproblem too
    def resolve(sid: tuple[int, int, int]) -> tuple[int, tuple[int, int, int] | None]:
        """(side weight, main-branch child) of the tree at ``sid``, by the
        rules of ``tree.side_weight`` and ``tree.main_branch``."""
        step = table.step(sid)
        if step[0] == "split":
            wl, wr = inst.sub_weight(*step[2]), inst.sub_weight(*step[3])
            return min(wl, wr), step[2 if wl > wr else 3]
        if step[0] == "eq":
            return inst.weight_of(step[1]), step[2]
        return 0, None

    out: list[SideWeightViolation] = []
    for h in range(1, n + 1):
        p = asc[h - 1]
        for i in range(1, p + 1):
            for j in range(p, n + 1):
                if inst.sub_count(i, j, h) < 3:
                    continue
                sid = (i, j, h)
                w = inst.sub_weight(i, j, h)
                sw0, child = resolve(sid)
                sw1 = resolve(child)[0]
                if 4 * sw0 < w:
                    out.append(SideWeightViolation(sid, "quarter-root", sw0, sw1, w))
                if 2 * (sw0 + sw1) < w:
                    out.append(SideWeightViolation(sid, "half-pair", sw0, sw1, w))
    return out


def chain_tree(n: int) -> Node:
    """All-equality chain: test key 1, then 2, ... with key n at the
    deepest no-branch."""
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    node: Node = Leaf(n)
    for k in range(n - 1, 0, -1):
        node = EqNode(k, Leaf(k), node)
    return node


def geometric_chain_closed_form(gamma: Fraction, n: int) -> Fraction:
    """Exact cost of the all-equality chain on unscaled weights
    gamma**i: the truncated series sum_{i<n} (i+1) gamma**i minus one
    gamma**(n-1) because the deepest key sits at depth n-1, not n."""
    gamma = Fraction(gamma)
    series = (1 - (n + 1) * gamma**n + n * gamma ** (n + 1)) / (1 - gamma) ** 2
    return series - gamma ** (n - 1)


def geometric_scan(n: int, gammas: list[Fraction]) -> list[dict]:
    """Root-type costs for geometric weights at each ratio, plus an
    exact closed-form check of the all-equality chain cost."""
    records = []
    for g in gammas:
        g = Fraction(g)
        inst = geometric_instance(g, n)
        eq_cost, lt_cost = root_split_costs(inst)
        chain_cost = cost(chain_tree(n), inst)
        closed = geometric_chain_closed_form(g, n) * inst.scale
        records.append(
            {
                "gamma": g,
                "eq_cost": eq_cost,
                "lt_cost": lt_cost,
                "opt": min(eq_cost, lt_cost),
                "root": "eq" if eq_cost <= lt_cost else "lt",
                "chain_cost": chain_cost,
                "chain_matches_closed_form": Fraction(chain_cost) == closed,
            }
        )
    return records


def balanced_pattern_claims(p: int, cycle: tuple[int, ...] = (1, 3)) -> dict:
    """Exact identities for the alternating-weight family on n = 3*2^p
    keys, checked on their stated even-n bands:

    * costs[1][n-1] + costs[2][n] == costs[2][n-1] + costs[1][n] + 1
      for n in [2^(p+1)+2, 3*2^p];
    * L(2, n) == L(3, n) + 1 for n in [2^(p+1)+2, 5*2^(p-1)];
    * L(1, n) == L(1, n-1) - 1 for n in [5*2^(p-1)+2, 3*2^p].

    Several band points carry multi-way cut ties; the two L claims
    hold under the rightmost choice from each minimizer set (and fail
    under the leftmost), so L here is the rightmost optimal cut.
    """
    if p < 1:
        raise PreconditionError(f"need p >= 1, got {p}")
    size = 3 * 2**p
    inst = pattern_instance(cycle, size)
    costs = hole_free_costs(inst)
    lo = 2 ** (p + 1) + 2
    mid = 5 * 2 ** (p - 1)

    def last_cut(i: int, j: int) -> int:
        return _best_cuts(costs, i, j, i, j)[1][-1]

    identity = []
    for n in range(lo, size + 1, 2):
        lhs = costs[1][n - 1] + costs[2][n]
        rhs = costs[2][n - 1] + costs[1][n] + 1
        identity.append((n, lhs, rhs, lhs == rhs))
    left_shift = []
    for n in range(lo, mid + 1, 2):
        lhs = last_cut(2, n)
        rhs = last_cut(3, n) + 1
        left_shift.append((n, lhs, rhs, lhs == rhs))
    prefix_shift = []
    for n in range(mid + 2, size + 1, 2):
        lhs = last_cut(1, n)
        rhs = last_cut(1, n - 1) - 1
        prefix_shift.append((n, lhs, rhs, lhs == rhs))
    rows = identity + left_shift + prefix_shift
    return {
        "p": p,
        "n": size,
        "identity": identity,
        "left_shift": left_shift,
        "prefix_shift": prefix_shift,
        "all_ok": all(r[3] for r in rows) and bool(rows),
    }


def marginal_advantage_check() -> dict:
    """The five-key flip family: on the first four keys the best cut
    beats the best equality root by one unit; appending the fifth key
    flips the comparison.  Scaling by ten preserves both signs."""
    out = {}
    for tag, factor in (("", 1), ("scaled_", 10)):
        inst = new_instance([w * factor for w in MARGINAL5])
        prefix = inst.restrict(1, 4)
        eq4, lt4 = root_split_costs(prefix)
        eq5, lt5 = root_split_costs(inst)
        out[tag + "prefix_eq"] = eq4
        out[tag + "prefix_lt"] = lt4
        out[tag + "full_eq"] = eq5
        out[tag + "full_lt"] = lt5
        out[tag + "flip"] = lt4 < eq4 and eq5 < lt5
    out["ok"] = bool(out["flip"] and out["scaled_flip"])
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _tally(points) -> list[CheckResult]:
    """One result per claim, in the order the claims first appear, from
    ``(claim, fired, held, witness)`` points.  A claim fails when a fired
    point does not hold, and also when no point fired: a claim never
    tested has not passed.  The detail quotes the first failing witness,
    or else the first one that held."""
    counts: dict[str, list] = {}
    for claim, fired, held, witness in points:
        count = counts.setdefault(claim, [0, 0, None])
        if fired:
            count[0] += 1
            count[1] += not held
            if count[2] is None or (not held and count[1] == 1):
                count[2] = witness
    out = []
    for claim, (fired, failed, witness) in counts.items():
        detail = f"fired {fired} times, {failed} failures"
        if fired:
            detail += f"; {'first failure ' if failed else ''}{witness}"
        out.append(CheckResult(claim, fired > 0 and not failed, detail))
    return out


def suite_counterexamples() -> list[CheckResult]:
    """The named instances whose structure defeats the classic DP
    shortcuts, each verified from exact solver output."""
    points = []

    inst3 = new_instance(HEAVY_MID3)
    table3 = _fill(inst3)
    got = (
        table3.cost_at((1, 2, 3)),
        table3.cost_at((2, 3, 3)),
        table3.cost_at((1, 3, 3)),
        table3.cost_at((2, 2, 3)),
    )
    qi3 = qi_table(inst3)
    ok3 = got == (11, 11, 14, 0) and (1, 3) in qi3.red_cells()
    detail = f"corner costs {got}, quadrangle-red cells {qi3.red_cells()}"
    points.append(("heavy-mid-3key", True, ok3, detail))

    inst6 = new_instance(HEAVY_PAIR6)
    table6 = _fill(inst6)
    r16 = table6.minimizers_at((1, 6, 6))
    r26 = table6.minimizers_at((2, 6, 6))
    ok6 = r16.minimizers == (3,) and r26.minimizers == (2,)
    detail = f"leftward cut shift: mins(1,6)={r16.minimizers}, mins(2,6)={r26.minimizers}"
    points.append(("heavy-pair-6key", True, ok6, detail))

    fam_details = []
    fam_ok = True
    for halves in (2, 3):
        heavy = 2 ** (halves + 1) + 1
        fam = heavy_mid_instance(heavy, halves)
        costs = hole_free_costs(fam)
        m = 2**halves + 1
        n = fam.n
        lhs = costs[1][m] + costs[m][n]
        rhs = costs[1][n]
        fam_ok = fam_ok and lhs > rhs
        fam_details.append(f"s={halves}: {lhs} > {rhs}")
    points.append(("heavy-mid-family-qi", True, fam_ok, "; ".join(fam_details)))

    instz = new_instance(MIXED_ZEROS6)
    tablez = _fill(instz)
    rz1 = tablez.minimizers_at((1, 6, 6), inner=True)
    rz2 = tablez.minimizers_at((2, 6, 6), inner=True)
    sandwich = check_minimizer_monotonicity(instz, "sandwich", inner=True, table=tablez)
    okz = (
        rz1.canonical == 4
        and rz2.canonical == 3
        and any(v.i == 1 and v.j == 6 for v in sandwich)
    )
    detail = f"restricted cuts L(1,6)={rz1.canonical} > L(2,6)={rz2.canonical}"
    points.append(("mixed-zeros-sandwich", True, okz, detail))

    inste = new_instance(EPS_SEVEN)
    tablee = _fill(inste)
    re1 = tablee.minimizers_at((1, 6, 7), inner=True)
    re2 = tablee.minimizers_at((2, 7, 7), inner=True)
    # unrestricted, [2,7] ties exactly at cuts {2,3}; the violation is
    # robust either way since L(1,6) exceeds every choice
    se2 = tablee.minimizers_at((2, 7, 7))
    oke = re1.canonical == 4 and re2.canonical == 3 and se2.minimizers == (2, 3)
    detail = f"restricted cuts L(1,6)={re1.canonical} > L(2,7)={re2.canonical}"
    points.append(("eps-seven-diagonal", True, oke, detail))

    instt = new_instance(TWELVE_KEY)
    tablet = _fill(instt)
    rt1 = tablet.minimizers_at((1, 11, 12))
    rt2 = tablet.minimizers_at((2, 12, 12))
    w111 = instt.sub_weight(1, 11, 12)
    w212 = instt.sub_weight(2, 12, 12)
    m111 = max(instt.weights[:11])
    m212 = max(instt.weights[1:])
    okt = (
        rt1.minimizers == (6,)
        and rt2.minimizers == (5,)
        and 4 * m111 < w111
        and 4 * m212 < w212
    )
    detail = f"unique L(1,11)={rt1.minimizers} > L(2,12)={rt2.minimizers}, both quarters light"
    points.append(("twelve-key-diagonal", True, okt, detail))

    marg = marginal_advantage_check()
    detail = (
        f"prefix (eq {marg['prefix_eq']}, lt {marg['prefix_lt']}) vs "
        f"full (eq {marg['full_eq']}, lt {marg['full_lt']})"
    )
    points.append(("marginal-root-flip", True, marg["ok"], detail))
    return _tally(points)


def suite_thresholds(cases: int = 500, max_n: int = 12, seed: int = 0) -> list[CheckResult]:
    """Random sweep of the threshold implications: every claim must fire
    at least once, and every fired premise must hold."""
    rng = random.Random(seed)
    points = []
    for case in range(cases):
        n = rng.randint(1, max_n)
        weights = [rng.randint(0, 20) for _ in range(n)]
        if case % 3 == 0:
            weights[rng.randrange(n)] *= rng.randint(2, 8)
        if sum(weights) == 0:
            weights[rng.randrange(n)] = 1
        report = check_thresholds(new_instance(weights))
        witness = f"case {case} weights {weights}"
        points += [
            (f"threshold-{name}", state != "skipped", state == "pass", witness)
            for name, state in sorted(report.checks.items())
        ]
    return _tally(points)


def suite_oracle(cases: int = 200, max_n: int = 8, seed: int = 7) -> list[CheckResult]:
    """Exhaustive-search agreement for the full, pruned, and hole-count
    solvers on small random instances (the hole-count solver only on
    all-positive draws, its admissible inputs)."""
    rng = random.Random(seed)
    points = []
    for case in range(cases):
        n = rng.randint(1, max_n)
        if case % 2 == 0:
            weights = rng.sample(range(0, 11), min(n, 11))
        else:
            weights = [rng.randint(0, 10) for _ in range(n)]
        inst = new_instance(weights)
        want, _ = brute_force_optimal(inst)
        costs = {"full": solve_full(inst)[1], "pruned": solve_pruned(inst)[0]}
        if min(weights) >= 1:
            costs["bounded-log"] = solve_bounded_log(inst)[0]
        witness = f"case {case} weights {weights}: oracle {want}, got {costs}"
        points.append(("oracle-agreement", True, set(costs.values()) == {want}, witness))
    return _tally(points)


def suite_pattern_claims(p: int = 3) -> list[CheckResult]:
    """The balanced-pattern identities, one point per row of each claim's
    band; the shift bands are empty at p = 1, so those claims go untested."""
    claims = balanced_pattern_claims(p)
    points = []
    for name in ("identity", "left_shift", "prefix_shift"):
        claim = f"pattern-{name}-p{p}"
        # an unfired point gives a claim with an empty band its result
        points.append((claim, False, True, None))
        points += [(claim, True, held, f"n={n}: {lhs} vs {rhs}") for n, lhs, rhs, held in claims[name]]
    return _tally(points)


def suite_geometric(n: int = 25) -> list[CheckResult]:
    """Geometric weights at four ratios: the all-equality chain costs
    its closed form, and the root type is equality at 4/7 and 11/20 and
    a strictly cheaper cut at 7/10 (1/2 checks the chain only)."""
    gammas = [Fraction(4, 7), Fraction(11, 20), Fraction(1, 2), Fraction(7, 10)]
    want_root = {Fraction(4, 7): "eq", Fraction(11, 20): "eq", Fraction(7, 10): "lt"}
    points = []
    for rec in geometric_scan(n, gammas):
        g, chain_ok = rec["gamma"], rec["chain_matches_closed_form"]
        # root reads "lt" only where a cut is strictly cheaper
        held = chain_ok and want_root.get(g, rec["root"]) == rec["root"]
        witness = (
            f"eq {rec['eq_cost']}, lt {rec['lt_cost']}, root {rec['root']}, "
            f"chain closed form {'ok' if chain_ok else 'MISMATCH'}"
        )
        points.append((f"geometric-{g.numerator}_{g.denominator}", True, held, witness))
    return _tally(points)
