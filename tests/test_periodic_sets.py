"""Set algebra: canonical form, Boolean laws, density, shift/contract."""

import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargemdp import periodic_sets as periodic_sets_module
from chargemdp.mdp import BudgetExceeded
from chargemdp.parsing import parse_set
from chargemdp.periodic_sets import (EventuallyPeriodicSet, _build, _expand,
                                     arithmetic, complement, contract,
                                     density, difference, empty, evens,
                                     intersect, make, member, multiples,
                                     naturals, odds, shift, union)

from conftest import is_subset, periodic_sets

CHECK_DEPTH = 120  # membership is fully determined by preperiod + one period


def members(s, n=CHECK_DEPTH):
    return [k for k in range(1, n + 1) if member(s, k)]


def count_up_to(s, n):
    """|S intersect {1..n}|, by direct counting."""
    total = 0
    head = min(n, s.pre_len)
    total += (s.pre_mask & ((1 << head) - 1)).bit_count()
    if n > s.pre_len:
        lo, hi = s.pre_len + 1, n
        full, rem = divmod(hi - lo + 1, s.period)
        total += full * s.res_mask.bit_count()
        for i in range(lo + full * s.period, hi + 1):
            if (s.res_mask >> (i % s.period)) & 1:
                total += 1
    return total


# ---- reference kernel ----------------------------------------------------
# The straightforward canonicaliser: try every divisor of the period from
# the smallest, then drop preperiod bits one at a time while they follow
# the residue rule.  The library's mask arithmetic must agree with it
# exactly.

def ref_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def ref_tile(mask, width, total):
    return sum(1 << i for i in range(total) if (mask >> (i % width)) & 1)


def ref_build(pre_len, pre_mask, period, res_mask):
    for d in ref_divisors(period):
        sub = res_mask & ((1 << d) - 1)
        if ref_tile(sub, d, period) == res_mask:
            period, res_mask = d, sub
            break
    while pre_len > 0:
        predicted = (res_mask >> (pre_len % period)) & 1
        if ((pre_mask >> (pre_len - 1)) & 1) != predicted:
            break
        pre_len -= 1
        pre_mask &= (1 << pre_len) - 1
    return EventuallyPeriodicSet(pre_len, pre_mask, period, res_mask)


def ref_expand(s, m, p):
    pre = s.pre_mask
    for i in range(s.pre_len + 1, m + 1):
        if (s.res_mask >> (i % s.period)) & 1:
            pre |= 1 << (i - 1)
    return pre, ref_tile(s.res_mask, s.period, p)


def ref_contract(s, d):
    """{k : k*d in S}, one membership test per preperiod bit and one
    residue read per bit of the new period."""
    m2 = s.pre_len // d
    pre = 0
    for k in range(1, m2 + 1):
        if member(s, k * d):
            pre |= 1 << (k - 1)
    p2 = s.period // gcd(d, s.period)
    res = 0
    step = d % s.period
    r = 0
    for k in range(p2):
        if (s.res_mask >> r) & 1:
            res |= 1 << k
        r += step
        if r >= s.period:
            r -= s.period
    return _build(m2, pre, p2, res)


# Periods with repeated prime factors, where the minimal period is reached
# by dividing out the same prime more than once.
KERNEL_PERIODS = st.sampled_from((1, 2, 4, 8, 12, 30, 256, 360, 1280)) | st.integers(1, 64)


@st.composite
def raw_forms(draw, max_preperiod=3000):
    """Non-canonical (pre_len, pre_mask, period, res_mask): the residue word
    repeats a shorter block, and the preperiod ends with a run of bits that
    already follow the residue rule."""
    period = draw(KERNEL_PERIODS)
    block = draw(st.sampled_from(ref_divisors(period)))
    word = draw(st.integers(0, (1 << block) - 1))
    res_mask = ref_tile(word, block, period)
    pre_len = draw(st.integers(0, max_preperiod))
    keep = draw(st.integers(0, pre_len))
    pre_mask = draw(st.integers(0, (1 << keep) - 1))
    for n in range(keep + 1, pre_len + 1):
        if (res_mask >> (n % period)) & 1:
            pre_mask |= 1 << (n - 1)
    return pre_len, pre_mask, period, res_mask


# ---- canonical form ------------------------------------------------------

def test_named_sets():
    assert members(odds(), 10) == [1, 3, 5, 7, 9]
    assert members(evens(), 10) == [2, 4, 6, 8, 10]
    assert members(naturals(), 5) == [1, 2, 3, 4, 5]
    assert members(empty(), 20) == []
    assert members(multiples(3), 12) == [3, 6, 9, 12]
    assert members(arithmetic(5, 4), 20) == [5, 9, 13, 17]


def test_make_canonicalizes_period():
    # residues repeating with period 2 written with period 6
    s = make([], 6, {1, 3, 5})
    assert s == odds()
    assert s.period == 2


def test_make_canonicalizes_preperiod():
    # explicit head bits that already follow the residue rule get dropped
    s = make([0, 1, 0, 1], 2, {0})
    assert s == evens()
    assert s.pre_len == 0


def test_singleton_and_finite_sets():
    singleton = make([0, 0, 1], 1, set())
    assert members(singleton, 10) == [3]
    assert density(singleton) == 0


def test_member_rejects_nonpositive():
    with pytest.raises(ValueError):
        member(odds(), 0)
    with pytest.raises(ValueError):
        member(odds(), -3)


def test_in_is_membership():
    assert 3 in odds()
    assert 2 not in odds()


@given(raw_forms())
@settings(deadline=None)
def test_build_matches_reference(raw):
    assert _build(*raw) == ref_build(*raw)


@given(raw_forms(), st.integers(0, 3000), st.integers(1, 6))
@settings(deadline=None)
def test_expand_matches_reference(raw, extra, factor):
    s = ref_build(*raw)
    m, p = s.pre_len + extra, s.period * factor
    assert _expand(s, m, p) == ref_expand(s, m, p)


def test_build_reaches_minimal_period_through_repeated_factors():
    # 1280 = 2**8 * 5; the word repeats every 20 = 2**2 * 5 bits
    raw = (0, 0, 1280, ref_tile(0b1001_0000_0001_0000_0011, 20, 1280))
    assert _build(*raw) == ref_build(*raw)
    assert _build(*raw).period == 20
    assert _build(0, 0, 360, (1 << 360) - 1) == naturals()


def test_constructor_validation():
    with pytest.raises(ValueError):
        multiples(0)
    with pytest.raises(ValueError):
        arithmetic(0, 2)
    with pytest.raises(ValueError):
        make([], 0, set())
    with pytest.raises(ValueError):
        make([], 4, {4})


@pytest.mark.parametrize("residues, bad", [([1, 5, 7, 9], 5), ([2, -1], -1), (range(0, 9, 8), 8)])
def test_make_names_the_first_residue_out_of_range(residues, bad):
    """5 and -1 fall inside the one-byte buffer of a period-5 mask, so the
    range is checked before any bit is set."""
    with pytest.raises(ValueError, match=rf"^residue {bad} out of range for period 5$"):
        make([], 5, residues)


@given(st.lists(st.booleans(), max_size=40), st.integers(1, 70), st.data())
def test_make_masks_equal_one_bit_per_member(pre_bits, period, data):
    """Repeats and any iterable are accepted: each mask is the or of one
    bit per member, canonicalized."""
    residues = data.draw(st.lists(st.integers(0, period - 1)))
    pre_mask = sum(1 << i for i, b in enumerate(pre_bits) if b)
    res_mask = sum(1 << r for r in set(residues))
    assert make(iter(pre_bits), period, iter(residues)) == _build(len(pre_bits), pre_mask,
                                                                  period, res_mask)


@given(periodic_sets())
def test_equality_is_extensional(s):
    rebuilt = make([1 if member(s, k) else 0 for k in range(1, s.pre_len + 1)],
                   s.period, s.residues)
    assert rebuilt == s


@given(periodic_sets(), st.integers(1, 3))
def test_canonical_form_unique_under_period_inflation(s, factor):
    p = s.period * factor
    residues = {r for r in range(p) if (s.res_mask >> (r % s.period)) & 1}
    pre_bits = [(s.pre_mask >> i) & 1 for i in range(s.pre_len)]
    assert make(pre_bits, p, residues) == s


# ---- Boolean algebra -----------------------------------------------------

@given(periodic_sets(), periodic_sets())
def test_union_membership(s, t):
    u = union(s, t)
    for k in range(1, CHECK_DEPTH + 1):
        assert member(u, k) == (member(s, k) or member(t, k))


@given(periodic_sets(), periodic_sets())
def test_intersect_membership(s, t):
    u = intersect(s, t)
    for k in range(1, CHECK_DEPTH + 1):
        assert member(u, k) == (member(s, k) and member(t, k))


@given(periodic_sets(), periodic_sets())
def test_difference_membership(s, t):
    u = difference(s, t)
    for k in range(1, CHECK_DEPTH + 1):
        assert member(u, k) == (member(s, k) and not member(t, k))


@given(periodic_sets())
def test_complement_involution(s):
    assert complement(complement(s)) == s
    assert union(s, complement(s)) == naturals()
    assert intersect(s, complement(s)) == empty()


@given(periodic_sets(), periodic_sets())
def test_de_morgan(s, t):
    assert complement(union(s, t)) == intersect(complement(s), complement(t))
    assert complement(intersect(s, t)) == union(complement(s), complement(t))


@given(periodic_sets(), periodic_sets())
def test_subset_agrees_with_intersection(s, t):
    assert is_subset(s, t) == (intersect(s, t) == s)


# ---- density -------------------------------------------------------------

def test_density_examples():
    assert density(odds()) == Fraction(1, 2)
    assert density(multiples(6)) == Fraction(1, 6)
    assert density(arithmetic(7, 3)) == Fraction(1, 3)
    assert density(naturals()) == 1
    assert density(empty()) == 0


@given(periodic_sets(), periodic_sets())
def test_density_modular(s, t):
    assert (density(union(s, t)) + density(intersect(s, t))
            == density(s) + density(t))


@given(periodic_sets())
def test_density_complement(s):
    assert density(s) + density(complement(s)) == 1


@given(periodic_sets())
def test_density_is_counting_limit(s):
    # over any whole number of periods past the preperiod the ratio is exact
    n = s.pre_len + 4 * s.period
    in_tail = count_up_to(s, n) - count_up_to(s, s.pre_len)
    assert Fraction(in_tail, n - s.pre_len) == density(s)


@given(periodic_sets(), st.integers(0, 20))
def test_count_up_to_matches_membership(s, n):
    assert count_up_to(s, n) == sum(1 for k in range(1, n + 1) if member(s, k))


# ---- shift and contract --------------------------------------------------

@given(periodic_sets(), st.integers(-6, 6))
def test_shift_membership(s, k):
    u = shift(s, k)
    for n in range(1, CHECK_DEPTH + 1):
        expected = n - k >= 1 and member(s, n - k)
        assert member(u, n) == expected


@given(periodic_sets(), st.integers(-6, 6))
def test_shift_preserves_density(s, k):
    assert density(shift(s, k)) == density(s)


@given(periodic_sets(), st.integers(1, 6))
def test_contract_membership(s, d):
    u = contract(s, d)
    for n in range(1, CHECK_DEPTH + 1):
        assert member(u, n) == member(s, n * d)


@given(periodic_sets(), st.integers(1, 6))
def test_contract_density_identity(s, d):
    assert density(contract(s, d)) == d * density(intersect(s, multiples(d)))


@st.composite
def wide_contracts(draw):
    """A set with preperiod up to 300 and period up to 3000, its bits
    drawn at random, and a factor d: any of 1..2p, a multiple of p, about
    p/2, or 10**12."""
    period = draw(st.integers(1, 3000))
    pre_len = draw(st.integers(0, 300))
    rng = draw(st.randoms(use_true_random=False))
    s = _build(pre_len, rng.getrandbits(pre_len), period, rng.getrandbits(period))
    p = s.period
    d = draw(st.integers(1, 2 * p) | st.integers(1, 5).map(lambda k: k * p)
             | st.sampled_from((max(p // 2, 1), p // 2 + 1, 10**12)))
    return s, d


@given(wide_contracts())
@settings(deadline=None)
def test_contract_matches_reference(case):
    assert contract(*case) == ref_contract(*case)


# ---- constructors canonical by construction --------------------------------

@st.composite
def canonical_sets(draw, max_preperiod=30, max_period=60):
    pre_len = draw(st.integers(0, max_preperiod))
    period = draw(st.integers(1, max_period))
    return _build(pre_len, draw(st.integers(0, (1 << pre_len) - 1)), period,
                  draw(st.integers(0, (1 << period) - 1)))


@given(st.integers(1, 4000), st.data())
def test_multiples_and_arithmetic_equal_their_built_masks(d, data):
    a = data.draw(st.integers(1, 3 * d))
    assert multiples(d) == _build(0, 0, d, 1)
    assert arithmetic(a, d) == _build(a - 1, 0, d, 1 << (a % d))


@given(canonical_sets())
def test_complement_equals_its_built_masks(s):
    m, p = s.pre_len, s.period
    assert complement(s) == _build(m, ~s.pre_mask & ((1 << m) - 1), p, ~s.res_mask & ((1 << p) - 1))


def test_set_leaves_and_complement_skip_the_canonicalizer(monkeypatch):
    """Only the union and the intersection canonicalize; the leaves and
    the complement are built in canonical form."""
    calls = []

    def counted(*masks):
        calls.append(masks[2])
        return _build(*masks)

    monkeypatch.setattr(periodic_sets_module, "_build", counted)
    s = parse_set("((multiples(16) | ap(45,27)) & !(ap(9,5)))")
    assert calls == [432, 2160]
    assert s == intersect(union(multiples(16), arithmetic(45, 27)), complement(arithmetic(9, 5)))


def test_contract_examples():
    assert contract(multiples(6), 2) == multiples(3)
    assert contract(odds(), 2) == empty()
    assert contract(evens(), 2) == naturals()


# ---- the mask limit ----------------------------------------------------------

def test_mask_limit_is_read_on_each_call(monkeypatch):
    monkeypatch.setattr(periodic_sets_module, "MASK_LIMIT", 1000)
    assert multiples(1000).period == 1000
    with pytest.raises(BudgetExceeded,
                       match=r"^mask width of 2\*\*9 bits or more exceeds limit 1000$"):
        multiples(1001)
    assert member(shift(odds(), 1000), 1001) and member(arithmetic(1001, 3), 1001)
    for refused in (lambda: shift(odds(), 1001), lambda: arithmetic(1002, 3),
                    lambda: make([0] * 1001, 1, []), lambda: make([], 1001, [0]),
                    lambda: union(multiples(40), multiples(27)),
                    lambda: _build(0, 0, 1001, 1)):
        with pytest.raises(BudgetExceeded, match="exceeds limit 1000$"):
            refused()


REFUSED = [
    lambda: multiples(99999999999999999999999),  # 9 * a 23-digit prime
    lambda: multiples(int("9" * 4000)),
    lambda: union(multiples(1000003), multiples(999983)),
    lambda: arithmetic(10 ** 12, 3),
    lambda: shift(odds(), 10 ** 12),
    lambda: make([], 2 ** 40, [0]),
]


def test_refused_sizes_allocate_and_factor_nothing():
    """Each call stops before a mask of its width or a trial division of
    its period: in tracemalloc's bound, and at once; its message is one
    line under 100 characters however many digits the size has."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        for call in REFUSED:
            with pytest.raises(BudgetExceeded) as got:
                call()
            message = str(got.value)
            assert "\n" not in message and len(message) < 100, message
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert elapsed < 1, elapsed
