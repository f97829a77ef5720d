"""Acceptance gate: one test per release criterion, each printing a
single machine-readable pass/fail line.

Numeric policy: every computation here is exact rational arithmetic;
the only tolerance appears in criterion 7, where an independent
floating-point Cesaro average over a 100000-stage horizon must land
within 1e-2 of the exact frequency integral.  Criteria 1 and 2 carry
wall-clock budgets (5 s and 60 s).
"""

import random
import time
from fractions import Fraction

from chargemdp import counterexamples as cx
from chargemdp.blackwell import average_value, blackwell_policy, discounted_value
from chargemdp.charges import (DyadicLimit, Frequency, Geometric, Mix,
                               integrate, sandwich_check, value)
from chargemdp.mdp import best_periodic, expected_reward_stream, random_mdp, stationary
from chargemdp.periodic_sets import (complement, density, empty, intersect,
                                     multiples, naturals, union)

from conftest import (cycle_mean, enumerate_pure_stationary, random_set, random_stream,
                      sign_near_one)

SEED = 20260823
CESARO_HORIZON = 100_000
CESARO_TOL = 1e-2


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{tail}")
    assert passed, f"{criterion} failed: {detail}"


def test_criterion_1_value_approached_from_below():
    """Block strategies earn exactly 1 - 2**-n for n up to 12, with the
    two charge components checked independently, inside 5 seconds."""
    t0 = time.perf_counter()
    rep = cx.verify_lower_bounds(12)
    wall = time.perf_counter() - t0
    report("criterion-1 lower-bounds", rep.passed and wall < 5.0,
           f"{len(rep.rows)} exact checks in {wall:.2f}s")


def test_criterion_2_no_strategy_attains_the_value():
    """Every pure periodic Markov strategy with period and preperiod up
    to 8, plus a stationary randomization grid, stays strictly below
    payoff 1, inside 60 seconds."""
    t0 = time.perf_counter()
    rep = cx.sweep_payoff_shortfall(8, 8)
    wall = time.perf_counter() - t0
    report("criterion-2 exhaustive-shortfall", rep.passed and wall < 60.0,
           f"{rep.rows[0].got}, wall {wall:.1f}s")


def test_criterion_3_no_stationary_optimum():
    """Under the sparse-block charge the alternating strategy earns 1
    while every stationary randomization earns exactly 1/2."""
    rep = cx.verify_no_stationary_optimum()
    report("criterion-3 no-stationary-optimum", rep.passed,
           f"{len(rep.rows)} exact checks")


def test_criterion_4_always_switch_later():
    """Switching at stage n earns exactly 5/4 - 2**-(n+2) for n up to
    20, strictly increasing, and no enumerated strategy attains the
    supremum 5/4."""
    rep = cx.verify_late_switch(20)
    search = best_periodic(cx.late_switch_mdp(), cx.late_switch_charge(),
                           max_period=4, max_preperiod=4)
    below = all(v < Fraction(5, 4) for _, v in search.ranking)
    report("criterion-4 late-switch", rep.passed and below,
           f"best enumerated value {search.best_value}, supremum 5/4")


def test_criterion_5_blackwell_policies():
    """Policy iteration returns a Blackwell-optimal pure stationary
    policy: the expected policies on the two worked examples, and
    discounted dominance over every pure stationary rival on 100 random
    MDPs at five rational discount factors near 1, exactly."""
    ok = blackwell_policy(cx.even_or_odd_mdp()).action("1") == "T"
    ok = ok and blackwell_policy(cx.late_switch_mdp()).action("1") == "B"
    rng = random.Random(SEED)
    betas = [1 - Fraction(1, 10 ** k) for k in range(2, 7)]
    violations = 0
    for _ in range(100):
        m = random_mdp(rng)
        v = discounted_value(m, blackwell_policy(m))
        for other in enumerate_pure_stationary(m):
            w = discounted_value(m, other)
            for s in m.states:
                diff = v[s] - w[s]
                if sign_near_one(diff) < 0:
                    violations += 1
                for beta in betas:
                    if not diff.is_zero and diff.evaluate(beta) < 0 \
                            and sign_near_one(diff) >= 0:
                        # a sign certificate must agree with every sampled
                        # factor once it is close enough; betas near 1 are
                        # inside the certified region for these small MDPs
                        violations += 1
    report("criterion-5 blackwell", ok and violations == 0,
           f"100 random MDPs, 5 factors, {violations} violations")


def test_criterion_6_charge_axioms():
    """Finite additivity, normalization and monotonicity on 500 random
    sets for each bundled charge family, plus the frequency-sandwich
    dichotomy: the dyadic limit escapes it on multiples of 2**n, the
    frequency charge never does."""
    rng = random.Random(SEED)
    charges = [Frequency(), Geometric(Fraction(1, 2)), DyadicLimit(),
               Mix(((Fraction(1, 2), Frequency()),
                    (Fraction(1, 2), DyadicLimit())))]
    checked = 0
    ok = True
    for mu in charges:
        ok = ok and value(mu, naturals()) == 1
        ok = ok and value(mu, empty()) == 0
    for _ in range(500):
        s, t = random_set(rng), random_set(rng)
        for mu in charges:
            vs, vt = value(mu, s), value(mu, t)
            vu = value(mu, union(s, t))
            vi = value(mu, intersect(s, t))
            ok = ok and vu + vi == vs + vt
            ok = ok and 0 <= vs <= 1
            ok = ok and vi <= vs
            ok = ok and value(mu, complement(s)) == 1 - vs
            checked += 1
    dyadic_escapes = all(not sandwich_check(DyadicLimit(), multiples(2 ** n))
                         for n in range(1, 11))
    freq_sandwiched = all(sandwich_check(Frequency(), multiples(2 ** n))
                          for n in range(1, 11))
    report("criterion-6 charge-axioms",
           ok and dyadic_escapes and freq_sandwiched,
           f"{checked} axiom instances on 500 random set pairs")


def test_criterion_7_frequency_vs_cesaro():
    """The exact frequency integral of 100 random streams agrees with an
    independent floating-point Cesaro average over 100000 stages to
    within 1e-2, and the symbolic long-run average of a pure stationary
    policy equals its reward stream's cycle mean exactly."""
    rng = random.Random(SEED)
    worst = 0.0
    ok = True
    for _ in range(100):
        f = random_stream(rng)
        exact = integrate(Frequency(), f)
        # the stream's values as floats, converted once per preperiod and cycle entry
        pre, cyc = [float(v) for v in f.preperiod], [float(v) for v in f.cycle]
        floats = (pre + cyc * (CESARO_HORIZON // len(cyc) + 1))[:CESARO_HORIZON]
        numeric = sum(floats) / CESARO_HORIZON
        gap = abs(float(exact) - numeric)
        worst = max(worst, gap)
        ok = ok and gap < CESARO_TOL
    for mdp in (cx.even_or_odd_mdp(), cx.late_switch_mdp()):
        for other in enumerate_pure_stationary(mdp):
            f = expected_reward_stream(mdp, other)
            ok = ok and average_value(mdp, other)[mdp.initial] == cycle_mean(f)
    report("criterion-7 cesaro-agreement", ok,
           f"worst gap {worst:.2e} over 100 streams at horizon {CESARO_HORIZON}")
