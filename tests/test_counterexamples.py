"""The bundled worked examples and their verifiers."""

import random
import time
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargemdp import counterexamples as cx
from chargemdp import mdp as mdp_module
from chargemdp.charges import dyadic_value_sequence, integrate, value
from chargemdp.mdp import BudgetExceeded, expected_reward_stream, payoff, periodic
from chargemdp.periodic_sets import (_build, _expand, _tail_bits, arithmetic, density,
                                     difference, intersect, make, multiples, naturals,
                                     odds, shift, union)
from chargemdp.streams import _canonical

from conftest import indicator, is_subset, stream_values, superlevel_set


# ---- reports -------------------------------------------------------------

def test_report_shapes():
    rep = cx.verify_lower_bounds(2)
    assert rep.passed
    lines = rep.machine_lines()
    assert len(lines) == len(rep.rows) == 6
    assert all(line.startswith("CASE ") and line.endswith(" PASS")
               for line in lines)
    assert rep.text_report().startswith("== lower-bounds: PASS ==")


def test_report_failure_is_visible():
    row = cx.CheckRow("demo", "1", "2", False)
    rep = cx.VerificationReport("demo-case", (row,))
    assert not rep.passed
    assert rep.machine_lines() == ["CASE demo EXPECT 1 GOT 2 FAIL"]
    assert "FAIL demo" in rep.text_report()


# ---- value-gap example ---------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_block_strategy_payoff(n):
    val = cx.payoff(cx.even_or_odd_mdp(), cx.block_strategy(n),
                    cx.even_or_odd_charge())
    assert val == 1 - Fraction(1, 2 ** n)


def test_lower_bounds_verifier():
    assert cx.verify_lower_bounds(8).passed


def test_block_phases_past_the_cap_raise_before_building(monkeypatch):
    # block_strategy(n) has 2**n phases: n_max 17 took 8.5 s and 203 MB,
    # and n_max 30 ran out of memory; now the phases are counted first
    def unreachable(*args):
        raise AssertionError("built before the budget check")
    monkeypatch.setattr(cx, "block_strategy", unreachable)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded,
                       match="^at least 4194302 block-strategy phases exceeds cap 2000000$"):
        cx.verify_lower_bounds(40)
    assert time.perf_counter() - start < 1
    with pytest.raises(BudgetExceeded, match="^at least 4194302 block-strategy phases and "
                                             "[0-9]+ cycle groups and preperiods exceeds cap"):
        cx.verify_all(30, 8, 8)
    cx._check_bounds(n_max=40, switches=True)  # the late-switch verifier builds no block strategy
    # below the clip the count is exact: 2**(n + 1) - 2 phases for n <= n_max
    monkeypatch.setattr(mdp_module, "STRATEGY_CAP", 2 ** 13 - 3)
    with pytest.raises(BudgetExceeded, match="^at least 8190 block-strategy phases exceeds"):
        cx.verify_lower_bounds(12)
    monkeypatch.setattr(mdp_module, "STRATEGY_CAP", 2 ** 13 - 2)
    cx._check_bounds(n_max=12, blocks=True)


def test_block_strategy_validation():
    with pytest.raises(ValueError):
        cx.block_strategy(0)


def test_probe_block_strategies():
    for n in (1, 2, 3):
        q = 2 ** n
        rep = probe_payoff_shortfall(cx.block_strategy(n),
                                     max_horizon=2 * q + 8)
        assert rep.passed


def test_probe_alternating():
    assert probe_payoff_shortfall(cx.alternating_strategy()).passed


def test_sweep_small():
    rep = cx.sweep_payoff_shortfall(4, 2)
    assert rep.passed
    first = rep.rows[0]
    assert first.check_id == "pure-periodic-sweep"
    assert "0 failures" in first.got


def test_sweep_bounds_six():
    rep = cx.sweep_payoff_shortfall(6, 6)
    assert rep.passed
    assert rep.rows[0].got == "6784 strategies, 0 failures"


# ---- integer sweep vs the set-level reference -----------------------------

Shortfall = namedtuple("Shortfall", "payoff_below_1 lemma_failures dichotomy p odd dyadic mu1")


def reference_shortfall(words, lay):
    """The per-pattern verdicts on the reward sets with stage words
    ``words``, which share their residue word: the payoff and the
    dichotomy read only that, so they hold for all of them or for none,
    and lemma_failures counts the words the shift lemma fails on.  The
    payoff is (2*odd + dyadic) / (2p), the odd-part mass 2*odd / p, the
    dyadic limit dyadic / p, and mu1 says whether mu_1 > 0."""
    res = words[0] >> lay.h
    odd = (res & lay.odd_res).bit_count()
    dyadic = lay.two_a * (res & lay.top_res).bit_count()
    mu1 = (res & lay.even_res) != 0
    return Shortfall(2 * odd + dyadic < 2 * lay.p,
                     sum(1 for r in words if r & (r << 1) & lay.lemma),
                     2 * odd < lay.p if mu1 else dyadic == 0, lay.p, odd, dyadic, mu1)


def cycle_groups(max_period, max_preperiod):
    """(layout, words) per cycle group of the sweep, read per pattern:
    each high of ``counterexamples._sweep_groups`` OR-ed with every part
    it takes, in the parts' order."""
    for _, parts, batches in cx._sweep_groups(max_period, max_preperiod):
        for lay, highs in batches:
            for half, group in zip(parts, highs):
                for high in group:
                    yield lay, [high | part for part in half]


def bits(word, n):
    return tuple((word >> i) & 1 for i in range(n))


def word_set(lay, reward):
    """The reward set read back from its stage word."""
    return _build(lay.h, reward & ((1 << lay.h) - 1),
                  lay.p, (reward >> lay.h) & ((1 << lay.p) - 1))


def set_word(w):
    """w's stage word in its layout, as the probe reads it."""
    lay = cx._layout(w.pre_len, lcm(2, w.period))
    pre, res = _expand(w, lay.h, lay.p)
    return lay, pre | res << lay.h


def set_shortfall(w):
    """The sweep's verdicts on the set w, from its stage word."""
    lay, word = set_word(w)
    return reference_shortfall([word], lay)


def lemma_holds(w):
    return not set_shortfall(w).lemma_failures


def shortfall_rows(prefix, w, payoff_value):
    """The structural facts forcing the payoff below 1, for the set w of
    stages with expected reward above one half."""
    s = set_shortfall(w)
    detail = (f"odd-part mass {Fraction(2 * s.odd, s.p)}" if s.mu1
              else f"dyadic candidates {[Fraction(s.dyadic, s.p)]}")
    return [cx._flag(f"{prefix}-payoff-below-1", payoff_value < 1,
                     f"payoff {payoff_value}"),
            cx._flag(f"{prefix}-shift-lemma", not s.lemma_failures),
            cx._flag(f"{prefix}-dichotomy", s.dichotomy, detail)]


def probe_payoff_shortfall(sigma, max_horizon=4096):
    """Evaluate one strategy on the even-or-odd MDP and check that its
    payoff stays below 1 for the structural reasons."""
    f = expected_reward_stream(cx.even_or_odd_mdp(), sigma, max_horizon)
    rows = shortfall_rows("probe", superlevel_set(f, Fraction(1, 2)),
                          integrate(cx.even_or_odd_charge(), f))
    return cx.VerificationReport("shortfall-probe", tuple(rows))


def reference_pattern_words(max_period, max_preperiod):
    """(L, q, pre, cyc), then the layout and stage word of its reward set,
    for each bottom-action pattern within the bounds that
    ``streams._canonical`` leaves unchanged (bit i of pre is stage i + 1,
    bit j of cyc stage L + 1 + j), one pattern at a time: its cycle has
    least period q, and its last preperiod bit differs from the last
    cycle bit."""
    for q in range(1, max_period + 1):
        cycles = [c for c in range(1 << q) if _build(0, 0, q, c).period == q]
        for L in range(max_preperiod + 1):
            lay = cx._layout(L + 1, lcm(2, q))
            for cyc in cycles:
                tail = _tail_bits(cyc, q, 0, lay.h + lay.p - L) << L
                last = 1 ^ cyc >> (q - 1)
                for pre in range(last << L >> 1, (last + 1) << L >> 1) if L else (0,):
                    bottom = pre | tail
                    yield (L, q, pre, cyc), lay, (lay.odd & ~bottom) | (lay.odd & bottom) << 1


@lru_cache(maxsize=None)
def pattern_words(max_period, max_preperiod):
    """The sweep's (layout, word) per canonical pattern, keyed by its bit tuples."""
    return {(bits(pre, L), bits(cyc, q)): (lay, reward) for (L, q, pre, cyc), lay, reward
            in reference_pattern_words(max_period, max_preperiod)}


def pattern_strategy(pre, cyc):
    base = {"2": "c", "3": "c"}
    mk = lambda bit: dict(base, **{"1": "B" if bit else "T"})
    return periodic([mk(b) for b in pre], [mk(b) for b in cyc])


def reference_pattern_reward_set(pre, cyc):
    """The reward set built stage by stage from the pattern."""
    L, q = len(pre), len(cyc)
    head = L + 2
    period = lcm(2, q)

    def bottom(t):
        return pre[t - 1] if t <= L else cyc[(t - L - 1) % q]

    def reward(t):
        return bottom(t - 1) if t % 2 == 0 else 1 - bottom(t)

    head_bits = [reward(t) for t in range(1, head + 1)]
    residues = {(head + 1 + j) % period
                for j in range(period) if reward(head + 1 + j)}
    return make(head_bits, period, residues)


def reference_shift_lemma(w):
    """Per modulus 2**n, n = 1..8: (w & multiples(2**n)) - 1 lies in the
    odd stages outside w."""
    outside = difference(odds(), w)
    return [is_subset(shift(intersect(w, multiples(2 ** n)), -1), outside)
            for n in range(1, 9)]


def reference_verdicts(w):
    """The set-level checks the sweep made per pattern before its integer
    form: exact payoff, shift lemma per modulus, dichotomy."""
    odd_mass = 2 * density(intersect(w, odds()))
    seq, cyc = dyadic_value_sequence(w)
    top = odd_mass / 2 + max(cyc) / 2
    dichotomy = odd_mass < 1 if any(v > 0 for v in seq) else set(cyc) == {0}
    return top, all(reference_shift_lemma(w)), dichotomy


def integer_verdicts(lay, reward):
    s = reference_shortfall([reward], lay)
    assert s.payoff_below_1 == (2 * s.odd + s.dyadic < 2 * s.p)
    return Fraction(2 * s.odd + s.dyadic, 2 * s.p), not s.lemma_failures, s.dichotomy


def reference_canonical_keys(max_period, max_preperiod):
    """The sweep's former enumeration: every raw pattern, canonicalised,
    deduplicated through a seen set."""
    seen = set()
    for L in range(max_preperiod + 1):
        for q in range(1, max_period + 1):
            for a in range(1 << L):
                for b in range(1 << q):
                    seen.add(_canonical(bits(a, L), bits(b, q)))
    return seen


@given(st.lists(st.integers(0, 1), max_size=4),
       st.lists(st.integers(0, 1), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_pattern_reward_set_matches_strategy(pre, cyc):
    ref = reference_pattern_reward_set(pre, cyc)
    sigma = pattern_strategy(pre, cyc)
    f = expected_reward_stream(cx.even_or_odd_mdp(), sigma)
    assert ref == superlevel_set(f, Fraction(1, 2))
    # the indicator integral equals the strategy payoff
    mu = cx.even_or_odd_charge()
    assert integrate(mu, indicator(ref)) == integrate(mu, f)
    # and the sweep's word for the canonical pattern is that set
    assert word_set(*pattern_words(5, 4)[_canonical(tuple(pre), tuple(cyc))]) == ref


@given(st.lists(st.integers(0, 1), max_size=4),
       st.lists(st.integers(0, 1), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_adjacent_stage_rewards_sum_to_one(pre, cyc):
    # the two stages of every odd/even pair split a single unit of reward
    f = expected_reward_stream(cx.even_or_odd_mdp(), pattern_strategy(pre, cyc))
    v = stream_values(f, 60)
    for t in range(0, 60, 2):
        assert v[t] + v[t + 1] == 1


def test_pattern_reward_set_matches_reference_exhaustively():
    count = 0
    for (L, q, pre, cyc), lay, reward in reference_pattern_words(6, 6):
        count += 1
        assert word_set(lay, reward) == \
            reference_pattern_reward_set(bits(pre, L), bits(cyc, q)), (L, q, pre, cyc)
    assert count == 6784


def test_integer_verdicts_match_set_reference_exhaustively():
    # every canonical pattern at 6/6: exact payoff, the shift lemma over
    # its eight moduli and the dichotomy, against the set algebra and the
    # charges' dyadic contraction chain
    for (L, q, pre, cyc), lay, reward in reference_pattern_words(6, 6):
        w = reference_pattern_reward_set(bits(pre, L), bits(cyc, q))
        assert integer_verdicts(lay, reward) == reference_verdicts(w), (L, q, pre, cyc)


@pytest.mark.parametrize("bound, count", [(4, 352), (5, 1664), (6, 6784)])
def test_canonical_enumeration_matches_raw_loop(bound, count):
    keys = [(bits(pre, L), bits(cyc, q))
            for (L, q, pre, cyc), _, _ in reference_pattern_words(bound, bound)]
    assert len(keys) == len(set(keys)) == count
    assert set(keys) == reference_canonical_keys(bound, bound)
    # each pattern is met at its own canonical form
    assert all(_canonical(*k) == k for k in keys)


@pytest.mark.parametrize("bound", range(1, 9))
def test_sweep_groups_flatten_to_the_per_pattern_reference(bound):
    # every canonical pattern once, as high | part in its own layout (the
    # bottom bits at even stages reward nothing, so words repeat)
    got = Counter((lay, word) for lay, words in cycle_groups(bound, bound) for word in words)
    assert got == Counter((lay, word) for _, lay, word in reference_pattern_words(bound, bound))


@pytest.mark.parametrize("bound", [1, 4, 8])
def test_sweep_groups_split_at_bit_l(bound):
    # what the sweep's split of the shift lemma rests on: part has no bit
    # above L, high none below L, the residue word starts at h >= L + 2,
    # and each half holds 2**(L - 1) parts (one at L = 0)
    for L, parts, batches in cx._sweep_groups(bound, bound):
        assert [len(half) for half in parts] == [max(1, 1 << L >> 1)] * 2
        assert all(part >> (L + 1) == 0 for half in parts for part in half)
        for lay, highs in batches:
            assert lay.h >= L + 2
            assert lay.lemma & ((4 << L) - 1) == cx._layout(L + 1, 2).lemma & ((4 << L) - 1)
            assert all(high & ((1 << L) - 1) == 0 for group in highs for high in group)


def reference_failures():
    """(L, q, failed checks) per canonical pattern at 8/8, each pattern
    judged on its own."""
    out = []
    for (L, q, _, _), lay, reward in reference_pattern_words(8, 8):
        s = reference_shortfall([reward], lay)
        out.append((L, q, (not s.payoff_below_1) + bool(s.lemma_failures)
                    + (not s.dichotomy)))
    return out


def test_sweep_counts_match_the_per_pattern_reference():
    ref = reference_failures()
    for P in range(1, 9):
        for L in range(9):
            kept = [f for l, q, f in ref if q <= P and l <= L]
            got = cx.sweep_payoff_shortfall(P, L, stationary_grid=[]).rows[0].got
            assert got == f"{len(kept)} strategies, {sum(kept)} failures", (P, L)


def test_residue_word_does_not_depend_on_preperiod():
    # reward bit t reads only bottom bits t and t - 1, pre < 2**L, and
    # the residue word starts at bit h >= L + 2
    def group_key(pattern):
        (L, q, _, cyc), _, _ = pattern
        return L, q, cyc
    for (L, q, cyc), group in groupby(reference_pattern_words(8, 8), key=group_key):
        group = list(group)
        lay = group[0][1]
        assert lay.h >= L + 2
        assert len(group) == max(1, 1 << L >> 1)
        assert len({reward >> lay.h for _, _, reward in group}) == 1, (L, q, cyc)
    for lay, words in cycle_groups(8, 8):
        assert len({word >> lay.h for word in words}) == 1


def pairs_at(k):
    """{t - 1, t} for every t = 2**k * (odd), k >= 1: w & (w + 1) holds
    exactly the stages t, multiples of 2**n for n <= k and of no higher
    power."""
    t = arithmetic(2 ** k, 2 ** (k + 1))
    return union(t, shift(t, -1))


@st.composite
def lemma_sets(draw):
    period = draw(st.one_of(st.integers(1, 32), st.sampled_from([64, 256, 512])))
    pre_len = draw(st.integers(0, 600))
    s = _build(pre_len, draw(st.integers(0, (1 << pre_len) - 1)),
               period, draw(st.integers(0, (1 << period) - 1)))
    kind = draw(st.sampled_from(["raw", "no-pairs", "tail-pairs", "head-pair"]))
    if kind == "raw":
        return s
    x = difference(s, shift(s, 1))
    if kind == "no-pairs":
        return x
    if kind == "tail-pairs":
        return union(x, pairs_at(draw(st.integers(1, 9))))
    t = draw(st.integers(2, 600))
    return union(x, make([0] * (t - 2) + [1, 1], 1, []))


@given(lemma_sets())
@settings(max_examples=300, deadline=None)
def test_shift_lemma_matches_reference(w):
    assert lemma_holds(w) == all(reference_shift_lemma(w))


@pytest.mark.parametrize("k", range(1, 10))
def test_shift_lemma_per_modulus(k):
    assert reference_shift_lemma(pairs_at(k)) == [n > k for n in range(1, 9)]
    assert not lemma_holds(pairs_at(k))


def test_shift_lemma_on_late_head_pair():
    # one pair {383, 384} in the preperiod: 384 = 2**7 * 3
    w = make([0] * 382 + [1, 1], 1, [])
    assert reference_shift_lemma(w) == [False] * 7 + [True]
    assert not lemma_holds(w)


@pytest.mark.parametrize("m, p", [(0, 2), (1, 6), (3, 10), (9, 16), (40, 512), (700, 24)])
def test_lemma_mask_is_the_union_of_the_moduli_masks(m, p):
    # every multiple of 2**n is even, and the residues gcd(2**n, p)
    # divides are even as p is: the union is the n = 1 mask, the even stages
    lay = cx._layout(m, p)
    pre, res = _expand(multiples(2), lay.h, lay.p)
    assert lay.lemma == pre | res << lay.h


@st.composite
def dyadic_sets(draw):
    """Periods with high powers of 2, preperiods up to a few hundred bits."""
    period = 2 ** draw(st.integers(0, 10)) * draw(st.sampled_from([1, 3, 5, 9]))
    pre_len = draw(st.integers(0, 300))
    return _build(pre_len, draw(st.integers(0, (1 << pre_len) - 1)),
                  period, draw(st.integers(0, (1 << period) - 1)))


@given(dyadic_sets())
@settings(max_examples=150, deadline=None)
def test_closed_form_dyadic_limit_matches_contraction_chain(s):
    seq, cyc = dyadic_value_sequence(s)
    got = set_shortfall(s)
    assert set(cyc) == {Fraction(got.dyadic, got.p)}
    assert got.mu1 == any(v > 0 for v in seq)


def test_shortfall_flags_an_all_ones_word():
    lay = cx._layout(0, 2)
    s = reference_shortfall([(1 << (lay.h + lay.p)) - 1], lay)
    assert Fraction(2 * s.odd + s.dyadic, 2 * s.p) == 1
    assert not s.payoff_below_1
    assert s.lemma_failures == 1
    assert not s.dichotomy


@pytest.mark.parametrize("k", [1, 4, 8])
def test_sweep_counts_failing_words(monkeypatch, k):
    # the sweep reports what the integer checks flag, so it cannot pass
    # vacuously: an all-ones word fails all three checks, and the pairs
    # at 2**k (payoff 1/2**(k + 1)) fail the shift lemma only
    # (the all-ones word fails the lemma at bit L + 1 = 1, below the split)
    lay = cx._layout(0, 2)
    pairs_lay, pairs_word = set_word(pairs_at(k))
    batches = [(lay, [[(1 << (lay.h + lay.p)) - 1], []]), (pairs_lay, [[pairs_word], []])]
    groups = [(0, ([0], [0]), iter(batches))]
    monkeypatch.setattr(cx, "_sweep_groups", lambda *bounds: iter(groups))
    rep = cx.sweep_payoff_shortfall(1, 0, stationary_grid=[])
    assert not rep.passed
    assert rep.rows[0].got == "2 strategies, 4 failures"


def test_sweep_counts_a_group_once_per_pattern(monkeypatch):
    # preperiod 2, period 2, split at L = 1: the parts, bits 0-1, are
    # free, bit 2 follows the odd residue (bit 4), bits 3-4 are the
    # residue word.  With every residue rewarded, each of 4 words fails
    # all three checks; with only the even residue, the payoff and the
    # dichotomy hold, and the lemma fails only where stages 1 and 2 are
    # both rewarded, below the split
    lay = cx._layout(2, 2)
    assert (lay.h, lay.p) == (3, 2)
    groups = [(1, ([0, 1, 2, 3], [3, 2, 1, 0]), iter([(lay, [[0b11100], [0b01000]])]))]
    monkeypatch.setattr(cx, "_sweep_groups", lambda *bounds: iter(groups))
    rep = cx.sweep_payoff_shortfall(1, 0, stationary_grid=[])
    assert rep.rows[0].got == "8 strategies, 13 failures"


@st.composite
def injected_groups(draw):
    """One preperiod length L with arbitrary parts (no bit above L) and
    arbitrary highs (no bit below L) in the sweep's layouts of L."""
    L = draw(st.integers(0, 6))
    part = st.integers(0, (2 << L) - 1)
    parts = tuple(draw(st.lists(part, min_size=1, max_size=6)) for _ in range(2))
    batches = []
    for p in draw(st.lists(st.sampled_from([2, 4, 6, 8, 12, 16]), min_size=1, max_size=3)):
        lay = cx._layout(L + 1, p)
        high = st.integers(0, (1 << (lay.h + lay.p + 1)) - 1).map(lambda x: x >> L << L)
        batches.append((lay, [draw(st.lists(high, max_size=4)) for _ in range(2)]))
    return L, parts, batches


@given(injected_groups())
@settings(max_examples=200, deadline=None)
def test_sweep_counts_match_per_pattern_verdicts_on_injected_groups(group):
    # words the real patterns never produce, so every check can fail:
    # the sweep's per-group count with its table of parts must equal the
    # verdicts on each word high | part judged on its own
    L, parts, batches = group
    count = failures = 0
    for lay, highs in batches:
        for half, grp in zip(parts, highs):
            for high in grp:
                for part in half:
                    s = reference_shortfall([high | part], lay)
                    count += 1
                    failures += (not s.payoff_below_1) + s.lemma_failures + (not s.dichotomy)
    sweep_groups = lambda *bounds: iter([(L, parts, iter(batches))])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx, "_sweep_groups", sweep_groups)
        got = cx.sweep_payoff_shortfall(1, 0, stationary_grid=[]).rows[0].got
    assert got == f"{count} strategies, {failures} failures"


def primitive_words(q):
    """prim2(q) = sum over d | q of mobius(d) * 2**(q/d): the binary
    words of length q that are no power of a shorter one."""
    def mobius(d):
        sign, k = 1, 2
        while d > 1:
            if d % k == 0:
                d //= k
                if d % k == 0:
                    return 0
                sign = -sign
            k += 1
        return sign
    return sum(mobius(d) * 2 ** (q // d) for d in range(1, q + 1) if q % d == 0)


def closed_form_count(P, L):
    """count(P, L) = 2**L * sum over q <= P of prim2(q): each primitive
    cycle with the preperiods of each length l <= L whose last bit differs
    from the cycle's, 2**(l - 1) of them (one at l = 0)."""
    return 2 ** L * sum(primitive_words(q) for q in range(1, P + 1))


def test_closed_form_count():
    assert [primitive_words(q) for q in range(1, 9)] == [2, 2, 6, 12, 30, 54, 126, 240]
    assert primitive_words(14) == 2 ** 14 - 2 ** 7 - 2 ** 2 + 2
    assert [closed_form_count(b, b) for b in (4, 6, 8, 10, 14)] == \
        [352, 6784, 120832, 2013184, 532086784]


@pytest.mark.parametrize("P", range(1, 13))
def test_sweep_count_matches_the_closed_form(P):
    for L in range(13):
        got = cx.sweep_payoff_shortfall(P, L, stationary_grid=[]).rows[0].got
        assert got == f"{closed_form_count(P, L)} strategies, 0 failures", (P, L)


@pytest.mark.parametrize("bounds, total", [((16, 16), 2349333), ((30, 8), None), ((8, 40), None),
                                           ((2_000_000, 0), None), ((1, 10 ** 9), None)])
def test_sweep_past_the_cap_raises_before_building(monkeypatch, bounds, total):
    def unreachable(*args):
        raise AssertionError("built before the budget check")
    monkeypatch.setattr(cx, "_primitive_cycles", unreachable)
    monkeypatch.setattr(cx, "_layout", unreachable)
    with pytest.raises(BudgetExceeded,
                       match=f"^at least {total or '[0-9]+'} cycle groups and preperiods "
                             "exceeds cap 2000000$"):
        cx.sweep_payoff_shortfall(*bounds, stationary_grid=[])
    with pytest.raises(BudgetExceeded):
        cx.verify_all(12, *bounds)


def test_sweep_cap_counts_what_the_sweep_visits(monkeypatch):
    # below the clip, the budget error names the exact number of cycle
    # groups and preperiods the sweep would visit
    for P, L in [(1, 0), (3, 5), (8, 8), (9, 2)]:
        groups = sum(len(group) for _, _, batches in cx._sweep_groups(P, L)
                     for _, highs in batches for group in highs)
        want = groups + 2 ** (L + 1) - 1
        monkeypatch.setattr(mdp_module, "STRATEGY_CAP", want - 1)
        with pytest.raises(BudgetExceeded, match=f"^at least {want} cycle groups"):
            cx.sweep_payoff_shortfall(P, L, stationary_grid=[])
        monkeypatch.setattr(mdp_module, "STRATEGY_CAP", want)
        cx._check_bounds(max_period=P, max_preperiod=L)
    monkeypatch.undo()
    cx._check_bounds(max_period=15, max_preperiod=15)  # 1108831 of the 2000000


def test_one_cap_binding_bounds_the_search_the_sweep_and_the_block_check(monkeypatch):
    # mdp.STRATEGY_CAP is read on each call, so lowering it alone reaches
    # every budget; a default argument or an imported copy would keep 2000000
    monkeypatch.setattr(mdp_module, "STRATEGY_CAP", 5)
    m = cx.even_or_odd_mdp()  # two rows per phase: 2 + 4 strategies of period <= 2
    with pytest.raises(BudgetExceeded, match="^at least 6 raw strategies exceeds cap 5$"):
        mdp_module.enumerate_pure_periodic(m, 2, 0)
    with pytest.raises(BudgetExceeded, match="^at least 6 raw strategies exceeds cap 5$"):
        mdp_module.best_periodic(m, cx.even_or_odd_charge(), 2, 0)
    with pytest.raises(BudgetExceeded,
                       match="^at least 7 cycle groups and preperiods exceeds cap 5$"):
        cx.sweep_payoff_shortfall(1, 1, stationary_grid=[])
    with pytest.raises(BudgetExceeded, match="^at least 6 block-strategy phases exceeds cap 5$"):
        cx.verify_lower_bounds(2)
    monkeypatch.setattr(mdp_module, "STRATEGY_CAP", 7)
    assert len(list(mdp_module.enumerate_pure_periodic(m, 2, 0))) == 4
    assert cx.sweep_payoff_shortfall(1, 1, stationary_grid=[]).passed
    assert cx.verify_lower_bounds(2).passed


def test_shortfall_rows_flag_a_failing_shift_lemma():
    rows = {r.check_id: r for r in shortfall_rows("probe", naturals(), Fraction(1))}
    assert not rows["probe-shift-lemma"].passed
    assert not rows["probe-payoff-below-1"].passed
    report = cx.VerificationReport("probe", tuple(rows.values()))
    assert "CASE probe-shift-lemma EXPECT true GOT false FAIL" in report.machine_lines()


def test_shortfall_rows_details():
    # the dichotomy's two branches keep their detail strings
    rows = shortfall_rows("probe", odds(), Fraction(1, 2))
    assert rows[2].got == "dyadic candidates [Fraction(0, 1)]" and rows[2].passed
    rows = shortfall_rows("probe", multiples(4), Fraction(1, 2))
    assert rows[2].got == "odd-part mass 0" and rows[2].passed


# ---- no stationary optimum -----------------------------------------------

def test_sparse_block_charge_window():
    mu = cx.sparse_block_charge()
    assert mu.window == union(arithmetic(1, 4), arithmetic(4, 4))
    assert value(mu, arithmetic(1, 4)) == Fraction(1, 2)


def test_alternating_beats_all_stationary():
    mdp = cx.even_or_odd_mdp()
    mu = cx.sparse_block_charge()
    assert payoff(mdp, cx.alternating_strategy(), mu) == 1
    for q in (0, Fraction(1, 3), Fraction(1, 2), Fraction(7, 8), 1):
        assert payoff(mdp, cx.top_probability(q), mu) == Fraction(1, 2)


def test_no_stationary_optimum_verifier():
    assert cx.verify_no_stationary_optimum().passed


# ---- late-switch example -------------------------------------------------

def test_late_switch_values():
    mdp = cx.late_switch_mdp()
    mu = cx.late_switch_charge()
    assert payoff(mdp, cx.stay_strategy(), mu) == 1
    for n in (1, 2, 5, 10):
        expected = Fraction(5, 4) - Fraction(1, 2 ** (n + 2))
        assert payoff(mdp, cx.switch_at(n), mu) == expected


def test_switch_later_is_strictly_better():
    mdp = cx.late_switch_mdp()
    mu = cx.late_switch_charge()
    vals = [payoff(mdp, cx.switch_at(n), mu) for n in range(1, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < Fraction(5, 4) for v in vals)


def test_late_switch_verifier():
    assert cx.verify_late_switch(12).passed


def test_late_switch_phases_past_the_cap_raise_before_building(monkeypatch):
    # switch_at(n) has n phases: n_max 1999, the largest the cap admits,
    # took about 22 s (Python 3.11.7); now the phases are counted first
    def unreachable(*args):
        raise AssertionError("built before the budget check")
    monkeypatch.setattr(cx, "switch_at", unreachable)
    monkeypatch.setattr(cx, "stay_strategy", unreachable)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded,
                       match="^at least 500000500000 late-switch phases exceeds cap 2000000$"):
        cx.verify_late_switch(10 ** 6)
    assert time.perf_counter() - start < 1
    cx._check_bounds(n_max=1999, switches=True)  # 1999000 phases, the largest the cap admits
    with pytest.raises(BudgetExceeded, match="^at least 2001000 late-switch phases"):
        cx._check_bounds(n_max=2000, switches=True)
    # the count is exact: n_max * (n_max + 1) / 2 phases for n <= n_max
    monkeypatch.setattr(mdp_module, "STRATEGY_CAP", 54)
    with pytest.raises(BudgetExceeded, match="^at least 55 late-switch phases exceeds cap 54$"):
        cx.verify_late_switch(10)
    monkeypatch.setattr(mdp_module, "STRATEGY_CAP", 55)
    cx._check_bounds(n_max=10, switches=True)


@pytest.mark.parametrize("call, message", [
    (lambda: cx.sweep_payoff_shortfall(0, 1), "max_period must be at least 1, got 0"),
    (lambda: cx.sweep_payoff_shortfall(1, -1), "max_preperiod must be at least 0, got -1"),
    (lambda: cx.verify_lower_bounds(0), "n_max must be at least 1, got 0"),
    (lambda: cx.verify_late_switch(0), "n_max must be at least 1, got 0"),
    (lambda: cx.verify_all(0, 8, 8), "n_max must be at least 1, got 0"),
    (lambda: cx.verify_all(12, 0, 8), "max_period must be at least 1, got 0"),
    (lambda: cx.verify_all(12, 8, -1), "max_preperiod must be at least 0, got -1"),
])
def test_verifiers_reject_vacuous_bounds(call, message):
    # an empty sweep used to report "0 strategies, 0 failures" as a pass
    with pytest.raises(ValueError, match=message):
        call()


def test_verify_all_smoke():
    reports = cx.verify_all(n_max=3, max_period=3, max_preperiod=1)
    assert [r.case_id for r in reports] == [
        "lower-bounds", "payoff-shortfall-sweep",
        "no-stationary-optimum", "late-switch"]
    assert all(r.passed for r in reports)
