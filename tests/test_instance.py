"""Instance construction, parsing, and rank bookkeeping."""

import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twocst import (
    PreconditionError,
    WeightedInstance,
    new_instance,
    parse_instance_text,
)
from twocst.errors import ParseError
from twocst.instance import load_instance, parse_weight_token

WEIGHTS = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12)
# zeros and ties among small weights, or weights near 2**30
WIDE_WEIGHTS = st.one_of(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=14),
    st.lists(st.integers(min_value=2**30 - 3, max_value=2**30 + 3), min_size=1, max_size=14),
    st.lists(st.sampled_from([0, 1, 2**30]), min_size=1, max_size=14),
)


def test_basic_fields():
    inst = new_instance([10, 1, 2, 3, 1, 3, 1, 11])
    assert inst.n == 8
    assert inst.total == 32
    assert inst.scale == 1
    assert inst.weights == (10, 1, 2, 3, 1, 3, 1, 11)


def test_ascending_permutation_breaks_ties_by_key():
    inst = new_instance([1, 10, 1])
    assert inst.asc_perm == (1, 3, 2)
    assert inst.key_of_rank(1) == 1
    assert inst.key_of_rank(3) == 2
    assert inst.rank_of_key(3) == 2


@given(WEIGHTS)
def test_ascending_permutation_sorts_weights(ws):
    inst = new_instance(ws)
    ranked = [inst.weight_of(k) for k in inst.asc_perm]
    assert ranked == sorted(ws)


def test_sub_keys_filters_by_rank():
    inst = new_instance([10, 1, 2, 3, 1, 3, 1, 11])
    # h = 4 keeps the four lightest keys: 2, 5, 7 (weight 1) and 3 (weight 2)
    assert inst.sub_keys(1, 8, 4) == [2, 3, 5, 7]
    assert inst.sub_keys(4, 8, 4) == [5, 7]
    assert inst.sub_keys(1, 8, 8) == list(range(1, 9))


@given(WEIGHTS, st.data())
def test_sub_weight_matches_enumeration(ws, data):
    inst = new_instance(ws)
    n = inst.n
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(i, n))
    h = data.draw(st.integers(0, n))
    keys = inst.sub_keys(i, j, h)
    assert inst.sub_weight(i, j, h) == sum(inst.weight_of(k) for k in keys)
    assert inst.sub_count(i, j, h) == len(keys)
    first = inst.first_member(i, j, h)
    last = inst.last_member(i, j, h)
    if keys:
        assert (first, last) == (keys[0], keys[-1])
    else:
        assert first is None and last is None


@given(WIDE_WEIGHTS)
def test_prefix_rows_match_their_definition(ws):
    n = len(ws)
    # ranks from the definition (ascending weight, ties by key), not asc_perm
    rank = {k: r for r, k in enumerate(sorted(range(1, n + 1), key=lambda k: (ws[k - 1], k)), start=1)}
    pw, pc = new_instance(ws)._prefix
    assert len(pw) == len(pc) == n + 1
    for h in range(n + 1):
        want_w = [sum(ws[k - 1] for k in range(1, top + 1) if rank[k] <= h) for top in range(n + 1)]
        want_c = [sum(1 for k in range(1, top + 1) if rank[k] <= h) for top in range(n + 1)]
        assert list(pw[h]) == want_w
        assert list(pc[h]) == want_c


def _typecodes(rows):
    """The one typecode of a table's rows, or "list" for list rows."""
    codes = {getattr(row, "typecode", "list") for row in rows}
    assert len(codes) == 1
    return codes.pop()


def test_prefix_count_rows_are_two_byte_arrays():
    # counts reach n, which fits two bytes up to n = 65535
    rng = random.Random(600)
    n = 600
    pc = new_instance([rng.randint(1, 100) for _ in range(n)])._prefix[1]
    assert _typecodes(pc) == "H"
    assert list(pc[n]) == list(range(n + 1))


def test_prefix_weight_rows_take_the_narrowest_typecode():
    # the weight table's largest entry is the total weight
    rng = random.Random(600)
    inst = new_instance([rng.randint(1, 100) for _ in range(1500)])
    assert 2**16 <= inst.total < 2**32
    assert _typecodes(inst._prefix[0]) == "I"
    near_2_40 = new_instance([2**40 + rng.randint(-3, 3) for _ in range(64)])
    assert _typecodes(near_2_40._prefix[0]) == "Q"
    near_2_70 = new_instance([2**70 + rng.randint(-3, 3) for _ in range(64)])
    pw, pc = near_2_70._prefix
    assert (_typecodes(pw), _typecodes(pc)) == ("list", "H")
    assert pw[64][64] == near_2_70.total


@pytest.mark.parametrize(
    ("total", "code"),
    [(2**16 - 1, "H"), (2**16, "I"), (2**32 - 1, "I"), (2**32, "Q"), (2**64 - 1, "Q"), (2**64, "list")],
)
def test_prefix_rows_at_a_typecode_boundary(total, code):
    # a total that fills every bit of a field raises the last entries to
    # all ones, where an add carrying across fields would corrupt the next
    ws = _weights_summing_to(64, total, total.bit_length())
    pw = new_instance(ws)._prefix[0]
    assert _typecodes(pw) == code
    assert [list(row) for row in pw] == _rows_by_definition(ws)[0]


def test_prefix_tables_take_six_bytes_an_entry_at_n_2000():
    rng = random.Random(2000)
    n = 2000
    pw, pc = new_instance([rng.randint(1, 100) for _ in range(n)])._prefix
    assert (_typecodes(pw), _typecodes(pc)) == ("I", "H")
    assert sum(len(row) * row.itemsize for row in pw + pc) == 6 * (n + 1) ** 2


def _weights_summing_to(n, total, seed):
    """n weights with the given total, spread out with zeros and ties."""
    rng = random.Random(seed)
    ws = [total // n] * n
    for k in rng.sample(range(n), total % n):
        ws[k] += 1
    for _ in range(4 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        moved = rng.randint(0, ws[a])
        ws[a] -= moved
        ws[b] += moved
    return ws


def _rows_by_definition(ws):
    n = len(ws)
    order = sorted(range(1, n + 1), key=lambda k: (ws[k - 1], k))
    rank = {k: r for r, k in enumerate(order, start=1)}
    pw, pc = [], []
    for h in range(n + 1):
        members = [rank[k] <= h for k in range(1, n + 1)]
        pw.append(list(accumulate((w if m else 0 for w, m in zip(ws, members)), initial=0)))
        pc.append(list(accumulate(map(int, members), initial=0)))
    return pw, pc


@pytest.mark.parametrize(
    "ws",
    [
        _weights_summing_to(128, 128 * 128 // 16, 1),
        _weights_summing_to(128, 128 * 128 // 16 + 1, 2),
        random.Random(3).sample([0] * 300 + list(range(1, 101)), 400),
        random.Random(4).sample([0] * 260 + list(range(1, 141)), 400),
        [0] * 64,
        [2**40 + random.Random(5).randint(-3, 3) for _ in range(64)],
        [2**70 + random.Random(6).randint(-3, 3) for _ in range(64)],
    ],
    ids=["16*total==n*n", "one-above", "distinct-1..100", "distinct-1..140", "all-zero", "near-2^40", "near-2^70"],
)
def test_prefix_rows_match_their_definition_on_both_paths(ws):
    # the hypothesis test above draws n <= 14; these n >= 64 cases take
    # long zero runs, many distinct weights, and array rows of every
    # typecode as well as the list rows past 2^64
    pw, pc = new_instance(ws)._prefix
    assert ([list(row) for row in pw], [list(row) for row in pc]) == _rows_by_definition(ws)


@pytest.mark.parametrize("sid", [(0, 3, 3), (1, 4, 3), (1, 3, -1), (1, 3, 4), (3, 1, 3)])
@pytest.mark.parametrize("accessor", ["sub_weight", "sub_count", "first_member", "last_member"])
def test_accessors_refuse_out_of_range(accessor, sid):
    # i = 0 or h = -1 would read a prefix row's wrapped row[-1]
    with pytest.raises(PreconditionError):
        getattr(new_instance([1, 2, 3]), accessor)(*sid)


def test_accessors_answer_the_empty_interval():
    inst = new_instance([1, 2, 3])
    for i in (1, 2, 3, 4):
        assert inst.sub_weight(i, i - 1, 3) == 0
        assert inst.sub_count(i, i - 1, 3) == 0
        assert inst.first_member(i, i - 1, 3) is None
        assert inst.last_member(i, i - 1, 3) is None


def test_restrict_reindexes():
    inst = new_instance([10, 1, 2, 3, 1, 3, 1, 11])
    sub = inst.restrict(3, 6)
    assert sub.weights == (2, 3, 1, 3)
    assert sub.scale == inst.scale


def test_fraction_weights_scale_to_integers():
    inst = new_instance([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)])
    assert inst.scale == 6
    assert inst.weights == (2, 1, 3)


def test_mixed_int_and_fraction():
    inst = new_instance([1, Fraction(1, 4)])
    assert inst.scale == 4
    assert inst.weights == (4, 1)


def test_rejects_bad_weights():
    with pytest.raises(PreconditionError):
        new_instance([])
    with pytest.raises(PreconditionError):
        new_instance([1, -2])
    with pytest.raises(PreconditionError):
        WeightedInstance([1, 2], scale=0)


def test_parse_text_plain_and_comments():
    inst = parse_instance_text("# demo\n1 2 3\n")
    assert inst.weights == (1, 2, 3)
    inst = parse_instance_text("1\n2  # trailing comment\n3\n")
    assert inst.weights == (1, 2, 3)


def test_parse_text_fractions_and_decimals():
    inst = parse_instance_text("1/3 1/6 1/2")
    assert inst.weights == (2, 1, 3)
    assert inst.scale == 6
    inst = parse_instance_text("0.5 0.25")
    assert inst.weights == (2, 1)
    assert inst.scale == 4


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_instance_text("one two")
    with pytest.raises(ParseError):
        parse_instance_text("")
    with pytest.raises(ParseError):
        parse_weight_token("1/0")


def test_load_instance_json_and_text(tmp_path):
    txt = tmp_path / "a.txt"
    txt.write_text("# c\n5 1 5\n")
    assert load_instance(str(txt)).weights == (5, 1, 5)
    js = tmp_path / "a.json"
    js.write_text('[1, "1/2", 2]')
    inst = load_instance(str(js))
    assert inst.weights == (2, 1, 4)
    assert inst.scale == 2


@given(WEIGHTS)
def test_instances_hash_by_value(ws):
    a = new_instance(ws)
    b = new_instance(list(ws))
    assert a == b
    assert hash(a) == hash(b)
