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
import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NoReturn, Sequence

from .errors import ParseError, PreconditionError

Weight = int


# the typecodes rows may take, narrowest first, with their bits an entry
_WIDTHS = tuple((code, 8 * array(code).itemsize) for code in "HIQ")


def _prefix_rows(n: int, perm: Sequence[int], steps: Iterable[int], top: int) -> list[Sequence[int]]:
    """Rows 0..n of n + 1 entries, all in 0..top: row 0 is zeros, and row
    h is row h - 1 with steps[h-1] added to its entries from perm[h-1] on.

    Rows are arrays of the narrowest typecode whose entries hold top, so
    no entry is an int object of its own.  The row's bytes are kept as
    one int, ``acc``, and each row adds d times an int with a 1 in each
    field of its suffix, then unpacks: no field carries into the next,
    since none exceeds top.  Past "Q" rows are lists, raised by entry."""
    for code, bits in _WIDTHS:
        if top >> bits == 0:
            break
    else:
        rows: list = [[0] * (n + 1)]
        for k, d in zip(perm, steps):
            row = rows[-1][:]
            row[k:] = map(d.__add__, row[k:])
            rows.append(row)
        return rows
    nbytes, order = bits // 8 * (n + 1), sys.byteorder
    ones = ((1 << bits * (n + 1)) - 1) // ((1 << bits) - 1)  # a 1 in each field
    acc = 0
    rows = [array(code, bytes(nbytes))]
    for k, d in zip(perm, steps):
        if d:
            # fields k..n: the high ones in little-endian order, the low in big
            raised = d * (ones >> bits * k)
            acc += raised << bits * k if order == "little" else raised
        rows.append(array(code, acc.to_bytes(nbytes, order)))
    return rows


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
    def _prefix(self) -> tuple[list[Sequence[int]], list[Sequence[int]]]:
        """(pw, pc): pw[h][k] = weight of keys <= k with rank <= h,
        pc[h][k] the analogous count.  Row 0 is all zeros, and each table
        is built by ``_prefix_rows``: typed arrays of two, four or eight
        bytes an entry, or lists of ints for weights totalling 2^64 or
        more."""
        perm = self.asc_perm
        pw = _prefix_rows(self.n, perm, map(self._w.__getitem__, perm), self.total)
        pc = _prefix_rows(self.n, perm, [1] * self.n, self.n)
        return pw, pc

    def weight_of(self, k: int) -> int:
        if not 0 < k <= self.n:
            raise PreconditionError(f"key {k} outside 1..{self.n}")
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
