"""The bundled worked examples and their verifiers."""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargemdp import counterexamples as cx
from chargemdp.charges import CValue, dyadic_value_sequence, integrate, value
from chargemdp.mdp import expected_reward_stream, payoff, periodic
from chargemdp.periodic_sets import (_build, _expand, arithmetic, density, difference,
                                     intersect, is_subset, make, multiples, naturals,
                                     odds, shift, union)
from chargemdp.streams import _canonical

from conftest import superlevel_set


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
    assert val.exact_value == 1 - Fraction(1, 2 ** n)


def test_lower_bounds_verifier():
    assert cx.verify_lower_bounds(8).passed


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
    return cx._shortfall(word, lay)


def shortfall_rows(prefix, w, payoff_value):
    """The structural facts forcing the payoff below 1, for the set w of
    stages with expected reward above one half."""
    s = set_shortfall(w)
    detail = (f"odd-part mass {Fraction(2 * s.odd, s.p)}" if s.mu1
              else f"dyadic candidates {[Fraction(s.dyadic, s.p)]}")
    return [cx._flag(f"{prefix}-payoff-below-1", payoff_value.exact_value < 1,
                     f"payoff {payoff_value}"),
            cx._flag(f"{prefix}-shift-lemma", all(s.lemma)),
            cx._flag(f"{prefix}-dichotomy", s.dichotomy, detail)]


def probe_payoff_shortfall(sigma, max_horizon=4096):
    """Evaluate one strategy on the even-or-odd MDP and check that its
    payoff stays below 1 for the structural reasons."""
    f = expected_reward_stream(cx.even_or_odd_mdp(), sigma, max_horizon)
    rows = shortfall_rows("probe", superlevel_set(f, Fraction(1, 2)),
                          integrate(cx.even_or_odd_charge(), f))
    return cx.VerificationReport("shortfall-probe", tuple(rows))


@lru_cache(maxsize=None)
def pattern_words(max_period, max_preperiod):
    """The sweep's (layout, word) per canonical pattern, keyed by its bit tuples."""
    return {(bits(pre, L), bits(cyc, q)): (lay, reward)
            for (L, q, pre, cyc), lay, reward in cx._pattern_words(max_period, max_preperiod)}


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
    return top, reference_shift_lemma(w), dichotomy


def integer_verdicts(lay, reward):
    s = cx._shortfall(reward, lay)
    assert s.payoff_below_1 == (2 * s.odd + s.dyadic < 2 * s.p)
    return Fraction(2 * s.odd + s.dyadic, 2 * s.p), s.lemma, s.dichotomy


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
    from chargemdp.streams import indicator
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
    for t in range(1, 60, 2):
        assert f.value_at(t) + f.value_at(t + 1) == 1


def test_pattern_reward_set_matches_reference_exhaustively():
    count = 0
    for (L, q, pre, cyc), lay, reward in cx._pattern_words(6, 6):
        count += 1
        assert word_set(lay, reward) == \
            reference_pattern_reward_set(bits(pre, L), bits(cyc, q)), (L, q, pre, cyc)
    assert count == 6784


def test_integer_verdicts_match_set_reference_exhaustively():
    # every canonical pattern at 6/6: exact payoff, the eight lemma
    # booleans and the dichotomy, against the set algebra and the
    # charges' dyadic contraction chain
    for (L, q, pre, cyc), lay, reward in cx._pattern_words(6, 6):
        w = reference_pattern_reward_set(bits(pre, L), bits(cyc, q))
        assert integer_verdicts(lay, reward) == reference_verdicts(w), (L, q, pre, cyc)


@pytest.mark.parametrize("bound, count", [(4, 352), (5, 1664), (6, 6784)])
def test_canonical_enumeration_matches_raw_loop(bound, count):
    keys = [(bits(pre, L), bits(cyc, q))
            for (L, q, pre, cyc), _, _ in cx._pattern_words(bound, bound)]
    assert len(keys) == len(set(keys)) == count
    assert set(keys) == reference_canonical_keys(bound, bound)
    # each pattern is met at its own canonical form
    assert all(_canonical(*k) == k for k in keys)


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
    assert set_shortfall(w).lemma == reference_shift_lemma(w)


@pytest.mark.parametrize("k", range(1, 10))
def test_shift_lemma_per_modulus(k):
    got = set_shortfall(pairs_at(k)).lemma
    assert got == [n > k for n in range(1, 9)]
    assert got == reference_shift_lemma(pairs_at(k))


def test_shift_lemma_on_late_head_pair():
    # one pair {383, 384} in the preperiod: 384 = 2**7 * 3
    w = make([0] * 382 + [1, 1], 1, [])
    assert set_shortfall(w).lemma == [False] * 7 + [True]
    assert set_shortfall(w).lemma == reference_shift_lemma(w)


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
    s = cx._shortfall((1 << (lay.h + lay.p)) - 1, lay)
    assert Fraction(2 * s.odd + s.dyadic, 2 * s.p) == 1
    assert not s.payoff_below_1
    assert not any(s.lemma)
    assert not s.dichotomy


@pytest.mark.parametrize("k", [1, 4, 8])
def test_sweep_counts_failing_words(monkeypatch, k):
    # the sweep reports what the integer checks flag, so it cannot pass
    # vacuously: an all-ones word fails all three checks, and the pairs
    # at 2**k (payoff 1/2**(k + 1)) fail the shift lemma only
    lay = cx._layout(0, 2)
    words = [(None, lay, (1 << (lay.h + lay.p)) - 1), (None, *set_word(pairs_at(k)))]
    monkeypatch.setattr(cx, "_pattern_words", lambda *bounds: iter(words))
    rep = cx.sweep_payoff_shortfall(1, 0, stationary_grid=[])
    assert not rep.passed
    assert rep.rows[0].got == "2 strategies, 4 failures"


def test_shortfall_rows_flag_a_failing_shift_lemma():
    rows = {r.check_id: r for r in shortfall_rows("probe", naturals(), CValue.exact(1))}
    assert not rows["probe-shift-lemma"].passed
    assert not rows["probe-payoff-below-1"].passed
    report = cx.VerificationReport("probe", tuple(rows.values()))
    assert "CASE probe-shift-lemma EXPECT true GOT false FAIL" in report.machine_lines()


def test_shortfall_rows_details():
    # the dichotomy's two branches keep their detail strings
    rows = shortfall_rows("probe", odds(), CValue.exact(Fraction(1, 2)))
    assert rows[2].got == "dyadic candidates [Fraction(0, 1)]" and rows[2].passed
    rows = shortfall_rows("probe", multiples(4), CValue.exact(Fraction(1, 2)))
    assert rows[2].got == "odd-part mass 0" and rows[2].passed


# ---- no stationary optimum -----------------------------------------------

def test_sparse_block_charge_window():
    mu = cx.sparse_block_charge()
    assert mu.window == union(arithmetic(1, 4), arithmetic(4, 4))
    assert value(mu, arithmetic(1, 4)).exact_value == Fraction(1, 2)


def test_alternating_beats_all_stationary():
    mdp = cx.even_or_odd_mdp()
    mu = cx.sparse_block_charge()
    assert payoff(mdp, cx.alternating_strategy(), mu).exact_value == 1
    for q in (0, Fraction(1, 3), Fraction(1, 2), Fraction(7, 8), 1):
        assert payoff(mdp, cx.top_probability(q), mu).exact_value == Fraction(1, 2)


def test_no_stationary_optimum_verifier():
    assert cx.verify_no_stationary_optimum().passed


# ---- late-switch example -------------------------------------------------

def test_late_switch_values():
    mdp = cx.late_switch_mdp()
    mu = cx.late_switch_charge()
    assert payoff(mdp, cx.stay_strategy(), mu).exact_value == 1
    for n in (1, 2, 5, 10):
        expected = Fraction(5, 4) - Fraction(1, 2 ** (n + 2))
        assert payoff(mdp, cx.switch_at(n), mu).exact_value == expected


def test_switch_later_is_strictly_better():
    mdp = cx.late_switch_mdp()
    mu = cx.late_switch_charge()
    vals = [payoff(mdp, cx.switch_at(n), mu).exact_value for n in range(1, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < Fraction(5, 4) for v in vals)


def test_late_switch_verifier():
    assert cx.verify_late_switch(12).passed


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
