"""Weighted key instances and the rank bookkeeping every solver shares.

Keys are the integers 1..n in search order.  Weights are exact
nonnegative integers; rational inputs are scaled up front by the least
common multiple of their denominators so that all downstream arithmetic
is integer-only.  The instance also fixes the ascending-weight
permutation (ties broken by key index) that the level-indexed dynamic
programs rely on, plus prefix tables that answer "total weight of keys
in [i, j] among the h lightest" in constant time.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Iterable, NoReturn, Sequence

from .errors import ParseError, PreconditionError

Weight = int


class WeightedInstance:
    """An immutable list of key weights with rank-indexed prefix sums.

    Treat instances as frozen: no method mutates one after construction
    and equality/hashing go by (weights, scale).
    """

    def __init__(self, weights: Sequence[int], scale: int = 1):
        ws = tuple(weights)
        if not ws:
            raise PreconditionError("instance needs at least one key")
        for w in ws:
            if type(w) is not int:
                raise PreconditionError(f"weights must be plain ints, got {type(w).__name__}")
            if w < 0:
                raise PreconditionError(f"negative weight {w}")
        if type(scale) is not int or scale < 1:
            raise PreconditionError(f"scale must be a positive int, got {scale!r}")
        self.weights: tuple[int, ...] = ws
        self.n: int = len(ws)
        self.total: int = sum(ws)
        self.scale: int = scale
        # asc_perm[r-1] is the key holding rank r (1 = lightest)
        self.asc_perm: tuple[int, ...] = tuple(
            sorted(range(1, self.n + 1), key=lambda k: (ws[k - 1], k))
        )
        self._w: tuple[int, ...] = (0,) + ws
        rank = [0] * (self.n + 1)
        for r, k in enumerate(self.asc_perm, start=1):
            rank[k] = r
        self._rank: tuple[int, ...] = tuple(rank)

    @cached_property
    def _prefix(self) -> tuple[list[list[int]], list[list[int]]]:
        """(pw, pc): pw[h][k] = weight of keys <= k with rank <= h,
        pc[h][k] the analogous count.  Row 0 is all zeros.

        Row h is row h - 1 with the suffix from key asc_perm[h-1] on
        replaced in one slice assignment.  A count c there becomes
        counts[c] = c + 1, read from one table built per instance, so all
        O(n^2) count entries share the n + 1 int objects 0..n instead of
        each holding its own.

        A weight s there becomes s + w.  Ranks ascend by weight, so the
        rows adding one weight value w are consecutive, and no sum in
        them exceeds tops[w], the weight of the ranks up to the last of
        them.  When the table vals = [0, 1, ..., total] is small next to
        the n(n + 1)/2 row entries (16 * total <= n * n) and the slices
        vals[w : tops[w] + 1], one per weight value, hold at most 2 * n * n
        entries in all, s + w is read as that slice's entry s: the weight
        rows then share the table's ints and no sum is computed.  Other
        instances (huge, scaled, geometric or many distinct weights) keep
        the plain sums: their table would be large next to the rows, or
        copying their slices would cost more than the shared ints save."""
        n = self.n
        counts = list(range(1, n + 1))
        vals = None
        if 16 * self.total <= n * n:
            ranked = sorted(self.weights)
            tops = dict(zip(ranked, accumulate(ranked)))
            if sum(top - w + 1 for w, top in tops.items()) <= 2 * n * n:
                vals = list(range(self.total + 1))
        shifted, shift = [], None
        pw = [[0] * (n + 1)]
        pc = [[0] * (n + 1)]
        for h in range(1, n + 1):
            k0 = self.asc_perm[h - 1]
            w = self._w[k0]
            # slice assignment onto a copy keeps each row exactly n + 1
            # long; extending a prefix would leave list over-allocation
            row_w = pw[h - 1][:]
            if vals is None:
                row_w[k0:] = map(w.__add__, row_w[k0:])
            else:
                if w != shift:
                    shifted, shift = vals[w : tops[w] + 1], w
                row_w[k0:] = map(shifted.__getitem__, row_w[k0:])
            row_c = pc[h - 1][:]
            row_c[k0:] = map(counts.__getitem__, row_c[k0:])
            pw.append(row_w)
            pc.append(row_c)
        return pw, pc

    def weight_of(self, k: int) -> int:
        return self._w[k]

    def key_of_rank(self, r: int) -> int:
        return self.asc_perm[r - 1]

    def rank_of_key(self, k: int) -> int:
        return self._rank[k]

    def sub_keys(self, i: int, j: int, h: int) -> list[int]:
        """Keys of [i, j] among the h lightest, in key order."""
        rank = self._rank
        return [k for k in range(i, j + 1) if rank[k] <= h]

    def _refuse(self, i: int, j: int, h: int) -> NoReturn:
        """The interval accessors below accept 1 <= i <= j + 1 <= n + 1
        (j = i - 1 is the empty interval) and 0 <= h <= n, checked in one
        chained comparison per call, so no prefix row is ever read
        through a wrapped negative index."""
        raise PreconditionError(f"subproblem {(i, j, h)} outside n={self.n}")

    def sub_weight(self, i: int, j: int, h: int) -> int:
        if not 0 < i <= j + 1 <= self.n + 1 > h >= 0:
            self._refuse(i, j, h)
        pw = self._prefix[0]
        return pw[h][j] - pw[h][i - 1]

    def sub_count(self, i: int, j: int, h: int) -> int:
        if not 0 < i <= j + 1 <= self.n + 1 > h >= 0:
            self._refuse(i, j, h)
        pc = self._prefix[1]
        return pc[h][j] - pc[h][i - 1]

    def first_member(self, i: int, j: int, h: int) -> int | None:
        """Smallest key of [i, j] with rank <= h, or None."""
        if not 0 < i <= j + 1 <= self.n + 1 > h >= 0:
            self._refuse(i, j, h)
        pc = self._prefix[1][h]
        k = bisect_left(pc, pc[i - 1] + 1, i, j + 1)
        return k if k <= j else None

    def last_member(self, i: int, j: int, h: int) -> int | None:
        """Largest key of [i, j] with rank <= h, or None."""
        if not 0 < i <= j + 1 <= self.n + 1 > h >= 0:
            self._refuse(i, j, h)
        pc = self._prefix[1][h]
        if pc[j] == pc[i - 1]:
            return None
        return bisect_left(pc, pc[j], i, j + 1)

    def restrict(self, i: int, j: int) -> "WeightedInstance":
        """New instance over keys i..j, renumbered from 1."""
        if not (1 <= i <= j <= self.n):
            raise PreconditionError(f"bad restriction [{i}, {j}] for n={self.n}")
        return WeightedInstance(self.weights[i - 1 : j], self.scale)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedInstance):
            return NotImplemented
        return self.weights == other.weights and self.scale == other.scale

    def __hash__(self) -> int:
        return hash((self.weights, self.scale))

    def __repr__(self) -> str:
        body = ", ".join(map(str, self.weights[:8]))
        if self.n > 8:
            body += ", ..."
        return f"WeightedInstance(n={self.n}, scale={self.scale}, weights=[{body}])"


def new_instance(values: Iterable[int | Fraction], *, scale: int = 1) -> WeightedInstance:
    """Build an instance from ints and Fractions.

    Rational weights are cleared by multiplying everything with the lcm
    of the denominators; the applied factor is recorded in ``scale`` so
    costs can be mapped back.  Floats are rejected: callers must choose
    an exact representation.
    """
    vals = list(values)
    for v in vals:
        if isinstance(v, float):
            raise PreconditionError("float weights are not accepted; pass int or Fraction")
        if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
            raise PreconditionError(f"unsupported weight type {type(v).__name__}")
    denom = lcm(*(Fraction(v).denominator for v in vals)) if vals else 1
    ints = [int(Fraction(v) * denom) for v in vals]
    return WeightedInstance(ints, scale * denom)


def parse_weight_token(tok: str) -> int | Fraction:
    """Parse one weight token: integer, fraction 'p/q', or decimal."""
    tok = tok.strip()
    if not tok:
        raise ParseError("empty weight token")
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse weight {tok!r}") from exc


def parse_instance_text(text: str) -> WeightedInstance:
    """Parse whitespace-separated weights; '#' starts a comment."""
    vals: list[int | Fraction] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            try:
                vals.append(parse_weight_token(tok))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
    if not vals:
        raise ParseError("no weights found")
    try:
        return new_instance(vals)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


def load_instance(path: str) -> WeightedInstance:
    """Load an instance file: a JSON array or plain weights-per-line text.

    Every ParseError names the path, and a bad JSON entry its 0-based
    index in the array."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if text.lstrip()[:1] == "[":
        try:
            raw = json.loads(text, parse_float=Fraction)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, list):
            raise ParseError(f"{path}: JSON instance must be an array")
        vals: list[int | Fraction] = []
        for index, item in enumerate(raw):
            if isinstance(item, str):
                try:
                    vals.append(parse_weight_token(item))
                except ParseError as exc:
                    raise ParseError(f"{path}: entry {index}: {exc}") from exc
            elif isinstance(item, (int, Fraction)) and not isinstance(item, bool):
                vals.append(item)
            else:
                raise ParseError(f"{path}: bad weight entry {item!r}")
        if not vals:
            raise ParseError(f"{path}: empty instance")
        try:
            return new_instance(vals)
        except PreconditionError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    try:
        return parse_instance_text(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
