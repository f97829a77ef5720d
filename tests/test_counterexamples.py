"""The bundled worked examples and their verifiers."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargemdp import counterexamples as cx
from chargemdp.charges import CValue, integrate, value
from chargemdp.mdp import expected_reward_stream, payoff, periodic
from chargemdp.periodic_sets import (_build, arithmetic, difference, intersect,
                                     is_subset, make, multiples, naturals, odds,
                                     shift, union)
from chargemdp.streams import _canonical, superlevel_set


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
        rep = cx.probe_payoff_shortfall(cx.block_strategy(n),
                                        max_horizon=2 * q + 8)
        assert rep.passed


def test_probe_alternating():
    assert cx.probe_payoff_shortfall(cx.alternating_strategy()).passed


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


# ---- fast pattern path vs full strategy evaluation -----------------------

def pattern_strategy(pre, cyc):
    base = {"2": "c", "3": "c"}
    mk = lambda bit: dict(base, **{"1": "B" if bit else "T"})
    return periodic([mk(b) for b in pre], [mk(b) for b in cyc])


@given(st.lists(st.integers(0, 1), max_size=4),
       st.lists(st.integers(0, 1), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_pattern_reward_set_matches_strategy(pre, cyc):
    key = _canonical(tuple(pre), tuple(cyc))
    fast = cx._pattern_reward_set(*key)
    sigma = pattern_strategy(pre, cyc)
    f = expected_reward_stream(cx.even_or_odd_mdp(), sigma)
    assert fast == superlevel_set(f, Fraction(1, 2))
    # the indicator integral equals the strategy payoff
    from chargemdp.streams import indicator
    mu = cx.even_or_odd_charge()
    assert integrate(mu, indicator(fast)) == integrate(mu, f)


@given(st.lists(st.integers(0, 1), max_size=4),
       st.lists(st.integers(0, 1), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_adjacent_stage_rewards_sum_to_one(pre, cyc):
    # the two stages of every odd/even pair split a single unit of reward
    f = expected_reward_stream(cx.even_or_odd_mdp(), pattern_strategy(pre, cyc))
    for t in range(1, 60, 2):
        assert f.value_at(t) + f.value_at(t + 1) == 1


# ---- mask-native sweep helpers vs their set-algebra references -----------

def reference_shift_lemma(w):
    """Per modulus 2**n, n = 1..8: (w & multiples(2**n)) - 1 lies in the
    odd stages outside w."""
    outside = difference(odds(), w)
    return [is_subset(shift(intersect(w, multiples(2 ** n)), -1), outside)
            for n in range(1, 9)]


def reference_pattern_reward_set(pre, cyc):
    """The reward set built stage by stage from the pattern."""
    L, q = len(pre), len(cyc)
    head = L + 2
    period = lcm(2, q)

    def bottom(t):
        return pre[t - 1] if t <= L else cyc[(t - L - 1) % q]

    def reward(t):
        return bottom(t - 1) if t % 2 == 0 else 1 - bottom(t)

    bits = [reward(t) for t in range(1, head + 1)]
    residues = {(head + 1 + j) % period
                for j in range(period) if reward(head + 1 + j)}
    return make(bits, period, residues)


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
    assert cx._shift_lemma(w) == reference_shift_lemma(w)


@pytest.mark.parametrize("k", range(1, 10))
def test_shift_lemma_per_modulus(k):
    got = cx._shift_lemma(pairs_at(k))
    assert got == [n > k for n in range(1, 9)]
    assert got == reference_shift_lemma(pairs_at(k))


def test_shift_lemma_on_late_head_pair():
    # one pair {383, 384} in the preperiod: 384 = 2**7 * 3
    w = make([0] * 382 + [1, 1], 1, [])
    assert cx._shift_lemma(w) == [False] * 7 + [True]
    assert cx._shift_lemma(w) == reference_shift_lemma(w)


def test_pattern_reward_set_matches_reference_exhaustively():
    count = 0
    for L in range(7):
        for q in range(1, 7):
            for a in range(1 << L):
                for b in range(1 << q):
                    pre = tuple((a >> i) & 1 for i in range(L))
                    cyc = tuple((b >> i) & 1 for i in range(q))
                    if _canonical(pre, cyc) != (pre, cyc):
                        continue
                    count += 1
                    assert cx._pattern_reward_set(pre, cyc) == \
                        reference_pattern_reward_set(pre, cyc), (pre, cyc)
    assert count == 6784


def test_shortfall_rows_flag_a_failing_shift_lemma():
    rows = {r.check_id: r for r in cx._shortfall_rows("probe", naturals(), CValue.exact(1))}
    assert not rows["probe-shift-lemma"].passed
    assert not rows["probe-payoff-below-1"].passed
    report = cx.VerificationReport("probe", tuple(rows.values()))
    assert "CASE probe-shift-lemma EXPECT true GOT false FAIL" in report.machine_lines()


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


def test_verify_all_smoke():
    reports = cx.verify_all(n_max=3, max_period=3, max_preperiod=1)
    assert [r.case_id for r in reports] == [
        "lower-bounds", "payoff-shortfall-sweep",
        "no-stationary-optimum", "late-switch"]
    assert all(r.passed for r in reports)
